#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of the repo benchmark.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build goes to $CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e)
and is incremental. The last line of standard output is one JSON object,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Build and benchmark logs go to standard error.
Exits non-zero, printing no result, when the sources are missing, the build
fails, or the benchmark crashes or overruns its time limit.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 800


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR")
                        or ROOT / ".bench_build")
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "bench_e2e"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no Liquid sources under {ROOT / 'src'}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "bench_e2e"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            sys.exit(f"run.py: build step failed: {exc}")
        if done.returncode != 0:
            sys.exit(f"run.py: build step exited {done.returncode}: "
                     f"{' '.join(step)}")
    return out / "bench_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"run.py: cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    result_path = out / f"result-{os.getpid()}.json"
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--json={result_path}"]
    if args.trace:
        command.append("--trace")
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
        # 0: all verdicts passed; 1: a correctness verdict failed (still a
        # result). Anything else is a crash or a usage error.
        if done.returncode not in (0, 1):
            sys.exit(f"run.py: bench_e2e exited {done.returncode}")
        doc = json.loads(result_path.read_text())
    except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"run.py: no result from bench_e2e: {exc}")
    finally:
        result_path.unlink(missing_ok=True)

    metrics = {}
    for metric in wanted:
        got = doc["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            sys.exit(f"run.py: bench_e2e did not report {metric['name']} "
                     f"in {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": metric["unit"]}
    print(json.dumps({"correct": doc["correct"] and done.returncode == 0,
                      "attempted": doc["attempted"], "failed": doc["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
