#!/usr/bin/env python3
"""Diff two benchmark JSON files and flag regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold PCT] [--strict]
                     [--markdown]
    bench_compare.py --sets BASELINE_DIR CURRENT_DIR [--claim WORKLOAD:METRIC]
                     [--threshold PCT]

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

With --sets, both arguments are directories of per-run reports in the
layout bench/e2e/run_sets.py writes (<set>-<repeat>-<workload>.json, one
{"results": [...]} file per run), one directory per commit. Runs with the
same file name form a pair. For every workload and metric it prints each
side's median and quartiles and how many pairs the current side won, ties
counting for neither. A metric named with --claim counts as a gain only
when the current side won at least nine tenths of the pairs and its median
beats the baseline's by more than the baseline's interquartile range; any
other metric regresses when its median is worse than the baseline's by more
than the threshold. A metric that did not regress is reported "unresolved"
when either side's interquartile range, relative to its median, is wider
than the threshold, unless every current run beats every baseline run: the
runs are then too noisy to say the metric held. Unresolved metrics are
listed on stderr and do not fail the gate (they need more runs, not a fix).

Exit status: 0 when no comparable metric regressed by more than the threshold
(default 10%) and every claim holds, 1 otherwise, 2 on usage/parse errors.
Benchmarks or metrics present in the baseline but missing from the current
report are warned about on stderr (coverage silently shrinking is how
regressions hide); with --strict those warnings fail the gate too. Entries
new in the current report are informational only (sweeps grow).
"""

import argparse
import json
import pathlib
import statistics
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"bench_compare: cannot read {path}: {exc}")


# Suffix-less metrics whose improvement direction is semantic, not lexical
# (bench_insert_sweep's lock-traffic column, see EXPERIMENTS.md E16/E17; the
# repo benchmark's setup time; the chaos-soak invariant counters, see
# EXPERIMENTS.md E18). True: higher is better.
DIRECTION_OVERRIDES = {
    "append_locks_per_krec": False,
    "setup_s": False,
    "acked_records": True,
    "acked_recovered": True,
    "lost_acked": False,
    "duplicate_records": False,
    "order_violations": False,
    "consumer_redeliveries": False,
    "acked_not_consumed": False,
    "replica_divergence": False,
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


def load_runs(directory):
    """Returns {(run, bench): {metric: (value, higher_is_better)}} for every
    report file in `directory`, keyed by file stem so runs pair up."""
    runs = {}
    paths = sorted(pathlib.Path(directory).glob("*.json"))
    if not paths:
        sys.exit(f"bench_compare: no run reports in {directory}")
    for path in paths:
        for bench, metrics in extract_metrics(load(path)).items():
            runs[(path.stem, bench)] = metrics
    return runs


def quartiles(values):
    """Median, first and third quartile, as bench/e2e/run_sets.py reports."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def relative_iqr_pct(median, q1, q3):
    """Interquartile range as a percentage of the median."""
    return (q3 - q1) / abs(median) * 100.0 if median else 0.0


def compare_sets(args):
    base = load_runs(args.baseline)
    curr = load_runs(args.current)
    paired = {}  # (bench, metric) -> ([baseline values], [current values])
    for key in sorted(set(base) & set(curr)):
        for metric in sorted(set(base[key]) & set(curr[key])):
            olds, news = paired.setdefault((key[1], metric), ([], []))
            olds.append(base[key][metric])
            news.append(curr[key][metric])
    if not paired:
        sys.exit("bench_compare: no paired runs found")
    claims = set(args.claim)
    unknown = claims - {f"{bench}:{metric}" for bench, metric in paired}
    if unknown:
        sys.exit(f"bench_compare: no paired runs for {sorted(unknown)}")

    failures = []
    unresolved = []
    print(f"{'workload:metric':<34} {'pairs':>5} {'won':>4} "
          f"{'base median [q1, q3]':>32} {'current median [q1, q3]':>32}  "
          f"verdict")
    for (bench, metric), (olds, news) in sorted(paired.items()):
        higher_better = olds[0][1]
        olds = [value for value, _ in olds]
        news = [value for value, _ in news]
        won = sum(1 for old, new in zip(olds, news)
                  if (new > old if higher_better else new < old))
        base_median, base_q1, base_q3 = quartiles(olds)
        median, q1, q3 = quartiles(news)
        better_by = (median - base_median if higher_better
                     else base_median - median)
        name = f"{bench}:{metric}"
        if name in claims:
            gain = won * 10 >= 9 * len(olds) and better_by > base_q3 - base_q1
            verdict = "gain" if gain else "claim NOT met"
            if not gain:
                failures.append(f"{name}: won {won}/{len(olds)} pairs, "
                                f"median better by {better_by:.6g} vs "
                                f"baseline IQR {base_q3 - base_q1:.6g}")
        else:
            worse_pct = (-better_by / abs(base_median) * 100.0
                         if base_median else 0.0)
            spread_pct = max(relative_iqr_pct(base_median, base_q1, base_q3),
                             relative_iqr_pct(median, q1, q3))
            all_better = (min(news) > max(olds) if higher_better
                          else max(news) < min(olds))
            verdict = f"{-worse_pct:+.1f}%"
            if worse_pct > args.threshold:
                verdict += " REGRESSION"
                failures.append(f"{name}: median worse by {worse_pct:.1f}%")
            elif spread_pct > args.threshold and not all_better:
                verdict += " unresolved"
                unresolved.append(f"{name}: spread {spread_pct:.1f}% of the "
                                  f"median exceeds the {args.threshold:g}% "
                                  f"threshold")
        print(f"{name:<34} {len(olds):>5} {won:>4} "
              f"{f'{base_median:.6g} [{base_q1:.6g}, {base_q3:.6g}]':>32} "
              f"{f'{median:.6g} [{q1:.6g}, {q3:.6g}]':>32}  {verdict}")
    for note in unresolved:
        print(f"bench_compare: unresolved {note}", file=sys.stderr)
    for failure in failures:
        print(f"bench_compare: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--sets", action="store_true",
                        help="compare two directories of paired run reports "
                             "(bench/e2e/run_sets.py layout) by median and "
                             "quartiles")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="with --sets: a metric the current side claims "
                             "to improve (repeatable)")
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
    if args.sets:
        return compare_sets(args)
    if args.claim:
        parser.error("--claim needs --sets")

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
