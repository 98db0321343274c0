#!/usr/bin/env python3
"""Diff two benchmark JSON files and flag regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold PCT] [--strict]
                     [--markdown]

Understands both JSON shapes the repo's benches emit:

  * the hand-rolled emitters (bench_parallel_produce, bench_pipeline_latency):
      {"results": [{"name": ..., "records_per_sec": ...}, ...]}
    Any numeric field ending in `_per_sec` is treated as higher-is-better;
    fields ending in `_us` or `_ms` as lower-is-better latencies. A few
    suffix-less fields have an explicit direction in DIRECTION_OVERRIDES:
    lower append_locks_per_krec is better (less lock traffic in
    bench_insert_sweep), and the chaos-soak invariant counters.

  * google-benchmark's --benchmark_out report (bench_log_throughput):
      {"benchmarks": [{"name": ..., "real_time": ..., "items_per_second": ...}]}
    `items_per_second`/`bytes_per_second` are higher-is-better when present,
    otherwise `real_time` (lower-is-better) is compared.

Exit status: 0 when no comparable metric regressed by more than the threshold
(default 10%), 1 when at least one did, 2 on usage/parse errors. Benchmarks
or metrics present in the baseline but missing from the current report are
warned about on stderr (coverage silently shrinking is how regressions hide);
with --strict those warnings fail the gate too. Entries new in the current
report are informational only (sweeps grow).
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"bench_compare: cannot read {path}: {exc}")


# Suffix-less metrics whose improvement direction is semantic, not lexical
# (bench_insert_sweep's lock-traffic column, see EXPERIMENTS.md E16/E17; the
# chaos-soak invariant counters, see EXPERIMENTS.md E18). True: higher is
# better.
DIRECTION_OVERRIDES = {
    "append_locks_per_krec": False,
    "acked_records": True,
    "acked_recovered": True,
    "lost_acked": False,
    "duplicate_records": False,
    "order_violations": False,
    "consumer_redeliveries": False,
    "acked_not_consumed": False,
    "kills": True,
}


def extract_metrics(doc):
    """Returns {bench_name: {metric_name: (value, higher_is_better)}}."""
    out = {}
    if "benchmarks" in doc:  # google-benchmark report.
        for entry in doc["benchmarks"]:
            if entry.get("run_type") == "aggregate":
                continue
            metrics = {}
            for key, better in (("items_per_second", True),
                                ("bytes_per_second", True)):
                if isinstance(entry.get(key), (int, float)):
                    metrics[key] = (float(entry[key]), better)
            if not metrics and isinstance(entry.get("real_time"), (int, float)):
                metrics["real_time"] = (float(entry["real_time"]), False)
            if metrics:
                out[entry["name"]] = metrics
        return out
    for entry in doc.get("results", []):  # Hand-rolled emitters.
        metrics = {}
        identity = []
        for key, value in entry.items():
            is_number = (isinstance(value, (int, float))
                         and not isinstance(value, bool))
            if is_number and key in DIRECTION_OVERRIDES:
                metrics[key] = (float(value), DIRECTION_OVERRIDES[key])
            elif is_number and key.endswith("_per_sec"):
                metrics[key] = (float(value), True)
            elif is_number and (key.endswith("_us") or key.endswith("_ms")):
                metrics[key] = (float(value), False)
            elif key != "name" and (isinstance(value, str)
                                    or (isinstance(value, int)
                                        and not isinstance(value, bool))):
                # Non-metric string/int fields (stages, threads, mode, ...)
                # identify the sweep point when the emitter has no "name".
                # Floats are excluded: they are derived measurements (e.g.
                # "speedup") that vary run to run and would break matching.
                identity.append(f"{key}={value}")
        name = entry.get("name") or "/".join(identity)
        if name and metrics:
            out[name] = metrics
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--strict", action="store_true",
                        help="fail when a baseline benchmark or metric is "
                             "missing from the current report")
    parser.add_argument("--markdown", action="store_true",
                        help="print the comparison as a GitHub-flavored "
                             "markdown table (for PR comments / job "
                             "summaries) instead of aligned plain text")
    args = parser.parse_args()

    base = extract_metrics(load(args.baseline))
    curr = extract_metrics(load(args.current))
    if not base or not curr:
        sys.exit("bench_compare: no comparable benchmark entries found")

    regressions = []
    missing = []
    rows = []
    for name in sorted(set(base) | set(curr)):
        if name not in base:
            rows.append((name, "-", "(new benchmark)"))
            continue
        if name not in curr:
            rows.append((name, "-", "(dropped from current)"))
            missing.append(f"benchmark {name} missing from current report")
            continue
        for metric in sorted(set(base[name]) - set(curr[name])):
            missing.append(f"metric {name}:{metric} missing from current "
                           f"report")
        for metric in sorted(set(base[name]) & set(curr[name])):
            old, higher_better = base[name][metric]
            new, _ = curr[name][metric]
            if old == 0:
                continue
            delta_pct = (new - old) / old * 100.0
            regressed = (delta_pct < -args.threshold if higher_better
                         else delta_pct > args.threshold)
            marker = "REGRESSION" if regressed else ""
            rows.append((f"{name}:{metric}", f"{delta_pct:+.1f}%",
                         f"{old:.6g} -> {new:.6g} {marker}".rstrip()))
            if regressed:
                regressions.append((name, metric, delta_pct))

    if args.markdown:
        print("| benchmark:metric | delta | detail |")
        print("| --- | ---: | --- |")
        for name, delta, detail in rows:
            detail = detail.replace(" REGRESSION", " **REGRESSION**")
            print(f"| {name} | {delta} | {detail} |")
    else:
        width = max(len(r[0]) for r in rows) if rows else 0
        for name, delta, detail in rows:
            print(f"{name:<{width}}  {delta:>8}  {detail}")

    for warning in missing:
        print(f"bench_compare: warning: {warning}", file=sys.stderr)
    if missing and args.strict:
        print(f"\n--strict: {len(missing)} baseline entr"
              f"{'y' if len(missing) == 1 else 'ies'} missing from the "
              f"current report", file=sys.stderr)
        return 1
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for name, metric, delta_pct in regressions:
            print(f"  {name}:{metric} {delta_pct:+.1f}%", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
