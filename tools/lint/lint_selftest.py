#!/usr/bin/env python3
"""Self-test for liquid-lint: replays the known-bad/known-good corpus under
tools/lint/testdata/ and asserts each rule fires where it must and stays
silent where it must.

Run one rule (the ctest wiring does this, one test per rule):
  lint_selftest.py --rule snapshot-then-call
or everything:
  lint_selftest.py

For every rule the contract is:
  * the known-bad file produces >= `min_findings` findings with exactly that
    rule id (and the run exits non-zero);
  * the known-good twin produces zero findings of any rule (exit zero).
The `suppression` rule additionally checks that an allow() without a reason,
with an unknown rule id, or with a malformed marker is rejected, and that a
well-formed allow() with a reason fully silences its finding.
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "liquid_lint.py")
TESTDATA = os.path.join(HERE, "testdata")

# rule -> (bad file, min findings of that rule in bad, good file,
#          other rules allowed to co-fire in the bad file)
# A rule may also map to a LIST of such tuples when one corpus pair cannot
# carry every idiom the rule must understand (atomic-order: the plain
# counter pair plus the MPSC-ring claim/publish/fence pair).
CASES = {
    "snapshot-then-call": ("snapshot_then_call_bad.cc", 3,
                           "snapshot_then_call_good.cc", set()),
    # The whole-program lock-graph pass sees the double-replica-lock as a
    # self-cycle on Replica::mu, so it legitimately co-fires here.
    "lock-order": ("lock_order_bad.cc", 2, "lock_order_good.cc",
                   {"lock-graph"}),
    # Cycle with a transitive witness, an upward edge against
    # testdata/lock_hierarchy.txt, and a leaf lock held across an acquisition.
    "lock-graph": ("lock_graph_bad.cc", 3, "lock_graph_good.cc", set()),
    # Direct and transitively-hot allocation sites under a LIQUID_HOT_PATH
    # root: unreserved growth, new-expression, to_string, helper growth.
    "hot-alloc": ("hot_alloc_bad.cc", 3, "hot_alloc_good.cc", set()),
    # Sleep, condvar wait, and a transitively-reached fsync under a hot root.
    "hot-block": ("hot_block_bad.cc", 3, "hot_block_good.cc", set()),
    # Bare seq_cst default plus an unjustified non-relaxed ordering; the
    # ring pair covers the CAS-claim / release-publish / fence idiom (the
    # CAS of LogSegment::Flush; bad CAS defaults, unjustified acquire/release;
    # good `// order:` comments and the free-function fence staying exempt).
    "atomic-order": [
        ("atomic_order_bad.cc", 2, "atomic_order_good.cc", set()),
        ("atomic_order_ring_bad.cc", 3, "atomic_order_ring_good.cc", set()),
    ],
    # A well-formed allow() that silences nothing is itself a finding.
    "stale-allow": ("stale_allow_bad.cc", 1, "stale_allow_good.cc", set()),
    "guarded-by": ("guarded_by_bad.h", 2, "guarded_by_good.h", set()),
    "metric-name": ("metric_name_bad.cc", 2, "metric_name_good.cc", set()),
    "metric-hot-lookup": ("metric_hot_lookup_bad.cc", 3,
                          "metric_hot_lookup_good.cc", set()),
    # An invalid allow() must NOT silence the underlying finding, so the
    # sleep-under-lock sites in the bad file legitimately co-fire.
    "suppression": ("suppression_bad.cc", 3, "suppression_good.cc",
                    {"snapshot-then-call"}),
}


def run_lint(filename, engine):
    proc = subprocess.run(
        [sys.executable, LINT, "--engine", engine, "--root", TESTDATA,
         filename],
        capture_output=True, text=True)
    findings = [line for line in proc.stdout.splitlines()
                if re.search(r":\d+: \[[a-z-]+\]", line)]
    return proc.returncode, findings


def check_rule(rule, engine):
    pairs = CASES[rule]
    if not isinstance(pairs, list):
        pairs = [pairs]
    failures = []
    for pair in pairs:
        failures.extend(check_pair(rule, engine, pair))
    return failures


def check_pair(rule, engine, pair):
    bad, min_findings, good, allowed_others = pair
    failures = []

    rc, findings = run_lint(bad, engine)
    fired = [f for f in findings if f"[{rule}]" in f]
    others = [f for f in findings if f"[{rule}]" not in f
              and not any(f"[{o}]" in f for o in allowed_others)]
    if len(fired) < min_findings:
        failures.append(
            f"{bad}: expected >= {min_findings} [{rule}] findings, got "
            f"{len(fired)}:\n  " + "\n  ".join(findings or ["<none>"]))
    if others:
        failures.append(f"{bad}: unexpected findings of other rules:\n  " +
                        "\n  ".join(others))
    if rc == 0:
        failures.append(f"{bad}: lint exited 0 despite known-bad corpus")

    rc, findings = run_lint(good, engine)
    if findings:
        failures.append(f"{good}: expected silence, got:\n  " +
                        "\n  ".join(findings))
    if rc != 0:
        failures.append(f"{good}: lint exited {rc} on a known-good file")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rule", choices=sorted(CASES), default=None,
                        help="check one rule (default: all)")
    parser.add_argument("--engine", default="auto",
                        choices=("auto", "clang", "textual"))
    args = parser.parse_args()

    rules = [args.rule] if args.rule else sorted(CASES)
    all_failures = []
    for rule in rules:
        failures = check_rule(rule, args.engine)
        status = "FAIL" if failures else "OK"
        print(f"{status}: {rule}")
        all_failures.extend(failures)
    for failure in all_failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    return 1 if all_failures else 0


if __name__ == "__main__":
    sys.exit(main())
