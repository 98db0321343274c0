#!/usr/bin/env python3
"""Runs S sets x R repeats of the repo benchmark and checks they agree.

Usage, from the repository root:

    python3 bench/e2e/run_sets.py [--sets 2] [--repeats 3] [--seconds 10]
        [--workloads ingest,tail,tail_rewind,job] [--seed 1]
        [--out .bench_build/sets]

Every run is one `bench/e2e/run.py` process for one workload, with its own
seed (seed + set * repeats + repeat); the workload order alternates from run
to run. Each run's metrics are written to <out>/set<S>-rep<R>-<workload>.json
in the {"results": [...]} shape scripts/bench_compare.py reads.

For every set, workload and metric it prints the median, the quartiles and
the spread (interquartile distance over the median). It exits 1 when a run
fails its correctness verdicts, when an end-to-end metric's spread in a set
exceeds its BENCHMARK.json bound (setup_s excepted), or when a later set's
median is worse than the first set's by more than the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summarize(values):
    """Median, first and third quartile, and spread of a list of values."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / ".bench_build" / "sets"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # values[set][workload][metric] -> list of values
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    failures = []
    for s in range(args.sets):
        for r in range(args.repeats):
            run_index = s * args.repeats + r
            seed = args.seed + run_index
            order = workloads if run_index % 2 == 0 else workloads[::-1]
            for workload in order:
                result = run_once(workload, seed, seconds)
                if result is None:
                    failures.append(f"set {s} repeat {r} {workload}: "
                                    f"no result")
                    continue
                if not result["correct"] or result["failed"]:
                    failures.append(f"set {s} repeat {r} {workload}: "
                                    f"correct={result['correct']} "
                                    f"failed={result['failed']}")
                entry = {"name": workload}
                for name, metric in result["metrics"].items():
                    values[s][workload][name].append(metric["value"])
                    entry[name] = metric["value"]
                (out / f"set{s}-rep{r}-{workload}.json").write_text(
                    json.dumps({"seed": seed, "results": [entry]}, indent=1))
                print(f"set {s} repeat {r} seed {seed} {workload}: done",
                      file=sys.stderr, flush=True)

    problems = list(failures)
    print(f"{'set':>3}  {'workload':<12} {'metric':<34} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>8}")
    for s in range(args.sets):
        for workload in workloads:
            for metric in metrics:
                name = metric["name"]
                if not values[s][workload][name]:
                    continue
                median, q1, q3, spread = summarize(values[s][workload][name])
                print(f"{s:>3}  {workload:<12} {name:<34} {median:>14.6g} "
                      f"{q1:>14.6g} {q3:>14.6g} {spread:>8.2%}")
                bound = metric["bound"]
                if name != "setup_s" and spread > bound:
                    problems.append(f"set {s} {workload} {name}: spread "
                                    f"{spread:.2%} > bound {bound:.0%}")

    for metric in metrics:
        bound = metric["bound"]
        for workload in workloads:
            if not values[0][workload][metric["name"]]:
                continue
            first = statistics.median(values[0][workload][metric["name"]])
            for s in range(1, args.sets):
                if not first or not values[s][workload][metric["name"]]:
                    continue
                later = statistics.median(values[s][workload][metric["name"]])
                worse = ((later - first) / first if metric["better"] == "lower"
                         else (first - later) / first)
                if worse > bound:
                    problems.append(f"{workload} {metric['name']}: set {s} "
                                    f"median worse than set 0 by "
                                    f"{worse:.2%} > bound {bound:.0%}")

    for problem in problems:
        print(f"run_sets: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
