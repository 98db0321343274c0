#!/usr/bin/env bash
# Pre-merge correctness gate (see ROADMAP.md "Open items").
#
# Runs, in order:
#   1. Clang thread-safety annotation build (-Wthread-safety as errors).
#   2. clang-tidy over src/, tools/, bench/ and fuzz/ with the checks pinned
#      in .clang-tidy (per-directory overrides relax printf-heavy tool code).
#   3. liquid-lint: project-semantic rules (snapshot-then-call, lock order,
#      whole-program lock-graph vs. the declared hierarchy, hot-path
#      allocation/blocking/atomic-ordering discipline, GUARDED_BY coverage,
#      metric naming, hot-path metric lookups, suppression hygiene incl.
#      stale suppressions) via tools/lint/liquid_lint.py. Emits the observed
#      lock-order graph to build/lint/lock_graph.dot. Runs everywhere:
#      libclang when available, a built-in structural parser otherwise.
#   4. ThreadSanitizer build + the full ctest suite.
#   5. AddressSanitizer build + the full ctest suite.
#   6. UndefinedBehaviorSanitizer build + the full ctest suite.
#   7. Deterministic fuzz smoke: every fuzz/ harness replays its checked-in
#      corpus, then runs a bounded batch of deterministic mutations.
#   8. Docs gate: broken intra-repo markdown links and public headers whose
#      classes lack /// doc comments (scripts/check_docs.sh).
#   9. Bench emission: Release builds of bench_pipeline_latency,
#      bench_log_throughput, bench_parallel_produce, bench_insert_sweep and
#      bench_state_recovery run with --json and must produce their
#      BENCH_*.json artifacts (diff two runs with scripts/bench_compare.py);
#      every state_recovery row must hold updates_per_key x 1000 changelog
#      records (one per key and commit).
#  10. Chaos smoke: bench_chaos_soak --quick must pass (zero acked-record
#      loss/duplicates/reordering under the seeded fault schedule) and the
#      same soak with --broken-acks must FAIL, proving the invariant checks
#      detect an ack-before-durable build.
#
# Any thread-safety warning, clang-tidy error, sanitizer report, or fuzzer
# crash fails the script (non-zero exit). Steps that need Clang tooling are
# skipped with a notice when the tools are not installed — the sanitizer and
# fuzz-smoke steps work with GCC and always run.
set -u -o pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FAILURES=0

note() { printf '\n== %s ==\n' "$*"; }
skip() { printf 'SKIP: %s\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*"; FAILURES=$((FAILURES + 1)); }

# ---- 1. Clang thread-safety annotation build -------------------------------
note "thread-safety annotation build (clang)"
if command -v clang++ >/dev/null 2>&1; then
  if cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DCMAKE_BUILD_TYPE=Release >/dev/null \
     && cmake --build build-tsa -j "${JOBS}"; then
    echo "OK: annotation build clean"
  else
    fail "thread-safety annotation build reported warnings/errors"
  fi
else
  skip "clang++ not installed; annotations are no-ops under this compiler"
fi

# ---- 2. clang-tidy ---------------------------------------------------------
note "clang-tidy (.clang-tidy: bugprone/concurrency/performance/modernize)"
if command -v clang-tidy >/dev/null 2>&1; then
  # A plain compilation database (no sanitizers) for the tidy run.
  if ! cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        >/dev/null; then
    fail "cmake configure for clang-tidy failed"
  elif find src tools bench fuzz -name '*.cc' \
         -not -path 'tools/lint/testdata/*' -print0 \
       | xargs -0 -P "${JOBS}" -n 8 clang-tidy -p build-tidy --quiet \
         --warnings-as-errors='*'; then
    echo "OK: clang-tidy clean"
  else
    fail "clang-tidy reported errors"
  fi
else
  skip "clang-tidy not installed"
fi

# ---- 3. liquid-lint --------------------------------------------------------
# Needs only python3: the analyzer prefers the libclang bindings (fed by leg
# 2's compilation database when present) and falls back to its built-in
# structural parser, so this gate never silently goes dark on GCC-only boxes.
note "liquid-lint (project-semantic concurrency/observability rules)"
if command -v python3 >/dev/null 2>&1; then
  LINT_COMPDB=""
  if [ -f build-tidy/compile_commands.json ]; then
    LINT_COMPDB="--compdb=build-tidy/compile_commands.json"
  fi
  if python3 tools/lint/liquid_lint.py ${LINT_COMPDB} \
       --dot build/lint/lock_graph.dot src tools bench; then
    echo "OK: liquid-lint clean"
  else
    fail "liquid-lint reported unsuppressed findings (suppress with '// liquid-lint: allow(<rule>): <reason>' only when the invariant genuinely holds)"
  fi
else
  skip "python3 not installed"
fi

# ---- 4. ThreadSanitizer build + full test suite ----------------------------
note "ThreadSanitizer build + ctest"
# halt_on_error: make any race a test failure, not just a log line.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
if cmake -B build-tsan -S . -DLIQUID_SANITIZE=thread >/dev/null \
   && cmake --build build-tsan -j "${JOBS}" \
   && ctest --test-dir build-tsan --output-on-failure -j "${JOBS}"; then
  echo "OK: TSan suite clean"
else
  fail "ThreadSanitizer build/test reported failures"
fi

# ---- 5. AddressSanitizer build + full test suite ---------------------------
note "AddressSanitizer build + ctest"
# Fail loudly on any leak or heap error; abort so ctest sees a bad exit.
export ASAN_OPTIONS="halt_on_error=1 abort_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
if cmake -B build-asan -S . -DLIQUID_SANITIZE=address >/dev/null \
   && cmake --build build-asan -j "${JOBS}" \
   && ctest --test-dir build-asan --output-on-failure -j "${JOBS}"; then
  echo "OK: ASan suite clean"
else
  fail "AddressSanitizer build/test reported failures"
fi

# ---- 6. UndefinedBehaviorSanitizer build + full test suite -----------------
note "UndefinedBehaviorSanitizer build + ctest"
# Default UBSan only logs; halt_on_error turns any report into a test failure.
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
if cmake -B build-ubsan -S . -DLIQUID_SANITIZE=undefined >/dev/null \
   && cmake --build build-ubsan -j "${JOBS}" \
   && ctest --test-dir build-ubsan --output-on-failure -j "${JOBS}"; then
  echo "OK: UBSan suite clean"
else
  fail "UndefinedBehaviorSanitizer build/test reported failures"
fi

# ---- 7. Deterministic fuzz smoke -------------------------------------------
# The fuzz targets build with the standalone driver by default (no libFuzzer
# needed), so this leg runs under GCC too. The ASan build from leg 5 is
# reused so any fuzz-triggered memory error is caught, not just crashes.
# Runs are deterministic (fixed mutation seed) — a failure is reproducible.
note "fuzz smoke (corpus replay + bounded deterministic mutations)"
FUZZ_RUNS="${FUZZ_RUNS:-20000}"
FUZZ_BUILD="build-asan/fuzz-build"
fuzz_smoke_ok=1
for target in fuzz_record_decode fuzz_coding fuzz_sstable fuzz_properties \
              fuzz_fault_schedule; do
  corpus="fuzz/corpus/${target#fuzz_}"
  if [ ! -x "${FUZZ_BUILD}/${target}" ]; then
    fail "fuzz target ${target} missing (did leg 5's build fail?)"
    fuzz_smoke_ok=0
    continue
  fi
  if "${FUZZ_BUILD}/${target}" "-runs=${FUZZ_RUNS}" "${corpus}"; then
    echo "OK: ${target}"
  else
    fail "${target} reported a crash or sanitizer error"
    fuzz_smoke_ok=0
  fi
done
[ "${fuzz_smoke_ok}" -eq 1 ] && echo "OK: fuzz smoke clean"

# ---- 8. Docs gate ----------------------------------------------------------
note "docs gate (markdown links + public API doc comments)"
if scripts/check_docs.sh; then
  echo "OK: docs gate clean"
else
  fail "docs gate reported problems (see lines above)"
fi

# ---- 9. Bench emission -----------------------------------------------------
# A Release build keeps the numbers meaningful; the gate only asserts the
# JSON artifacts appear — trend analysis happens outside this script
# (scripts/bench_compare.py diffs two emission runs and fails on >10%
# regressions). bench_log_throughput is filtered to one cheap leg;
# bench_parallel_produce and bench_insert_sweep run --quick (the latter's
# 4 points: baseline, the acks=all none / group durability pair, and 4
# producers on one partition): the gate checks emission and the point
# count, not trends. bench_state_recovery (E9) commits once per update
# round, so each changelog must hold every update: a commit that dropped
# or coalesced records across commits would make its compaction legs
# vacuous.
note "bench emission (pipeline_latency, log_throughput, parallel_produce, insert_sweep, state_recovery)"
if cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null \
   && cmake --build build-bench -j "${JOBS}" --target bench_pipeline_latency \
        bench_log_throughput bench_parallel_produce bench_insert_sweep \
        bench_state_recovery \
   && (cd build-bench && bench/bench_pipeline_latency --json) \
   && [ -s build-bench/BENCH_pipeline_latency.json ] \
   && (cd build-bench && bench/bench_log_throughput --json \
         --benchmark_filter='BM_AppendRecordSize/100$' \
         --benchmark_min_time=0.05) \
   && [ -s build-bench/BENCH_log_throughput.json ] \
   && (cd build-bench && bench/bench_parallel_produce --quick --json) \
   && [ -s build-bench/BENCH_parallel_produce.json ] \
   && (cd build-bench && bench/bench_insert_sweep --quick --json) \
   && python3 -c "import json, sys; d = json.load(open(sys.argv[1])); assert len(d['results']) == 4, d" \
        build-bench/BENCH_insert_sweep.json \
   && (cd build-bench && bench/bench_state_recovery --json) \
   && python3 -c "import json, sys; d = json.load(open(sys.argv[1])); rows = d['results']; assert rows and all(r['changelog_records'] == r['updates_per_key'] * 1000 for r in rows), rows" \
        build-bench/BENCH_state_recovery.json; then
  echo "OK: build-bench/BENCH_{pipeline_latency,log_throughput,parallel_produce,insert_sweep,state_recovery}.json written"
else
  fail "bench --json emission did not produce all JSON artifacts"
fi

# ---- 10. Chaos smoke --------------------------------------------------------
# Two runs of the chaos soak (DESIGN.md §7), both on the fixed default seed:
#   a) the real build (sync_mode=group) must survive the fault schedule,
#      leader power-cycles and whole-replica-set power-cycles with zero
#      acked-record loss, duplicates, or reordering (exit 0);
#   b) --broken-acks (acknowledge before durable) must make the harness FAIL
#      (nonzero exit) — proving the invariant checks can actually detect an
#      acks/durability bug, not just that nothing happened.
note "chaos smoke (bench_chaos_soak --quick; --broken-acks must fail)"
if cmake --build build-bench -j "${JOBS}" --target bench_chaos_soak \
   && (cd build-bench && bench/bench_chaos_soak --quick --json) \
   && [ -s build-bench/BENCH_chaos_soak.json ]; then
  echo "OK: chaos soak invariants held (build-bench/BENCH_chaos_soak.json)"
else
  fail "chaos soak reported an invariant violation or did not emit JSON"
fi
if (cd build-bench && bench/bench_chaos_soak --quick --broken-acks \
      >/dev/null 2>&1); then
  fail "chaos soak PASSED with --broken-acks — the harness cannot detect ack-before-durable"
else
  echo "OK: --broken-acks run failed as it must"
fi

# ----------------------------------------------------------------------------
if [ "${FAILURES}" -ne 0 ]; then
  note "check.sh: ${FAILURES} gate(s) failed"
  exit 1
fi
note "check.sh: all gates passed"
