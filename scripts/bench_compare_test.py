#!/usr/bin/env python3
"""Self-test for bench_compare.py: pytest-style test functions (assert-based,
no pytest dependency) replayed against small in-memory reports.

Run directly (the ctest wiring does this):
  bench_compare_test.py
or under pytest, which discovers the test_* functions as usual.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARE = os.path.join(HERE, "bench_compare.py")

BASELINE = {
    "results": [
        {"name": "produce", "records_per_sec": 1000.0, "p99_us": 50.0},
        {"name": "fetch", "records_per_sec": 2000.0},
    ]
}


def run_compare(baseline, current, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        curr_path = os.path.join(tmp, "curr.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh)
        with open(curr_path, "w", encoding="utf-8") as fh:
            json.dump(current, fh)
        return subprocess.run(
            [sys.executable, COMPARE, base_path, curr_path, *flags],
            capture_output=True, text=True)


def test_clean_comparison_passes():
    proc = run_compare(BASELINE, BASELINE)
    assert proc.returncode == 0, proc.stderr
    assert "no regressions" in proc.stdout
    assert "warning" not in proc.stderr


def test_regression_fails():
    current = {"results": [
        {"name": "produce", "records_per_sec": 500.0, "p99_us": 50.0},
        {"name": "fetch", "records_per_sec": 2000.0},
    ]}
    proc = run_compare(BASELINE, current)
    assert proc.returncode == 1, proc.stdout
    assert "REGRESSION" in proc.stdout
    assert "produce:records_per_sec" in proc.stderr


def test_missing_metric_warns_but_passes():
    current = {"results": [
        {"name": "produce", "records_per_sec": 1100.0},  # p99_us vanished
        {"name": "fetch", "records_per_sec": 2100.0},
    ]}
    proc = run_compare(BASELINE, current)
    assert proc.returncode == 0, proc.stderr
    assert "warning: metric produce:p99_us missing" in proc.stderr


def test_missing_benchmark_warns_but_passes():
    current = {"results": [
        {"name": "produce", "records_per_sec": 1100.0, "p99_us": 40.0},
    ]}
    proc = run_compare(BASELINE, current)
    assert proc.returncode == 0, proc.stderr
    assert "warning: benchmark fetch missing" in proc.stderr


def test_strict_fails_on_missing_metric():
    current = {"results": [
        {"name": "produce", "records_per_sec": 1100.0},
        {"name": "fetch", "records_per_sec": 2100.0},
    ]}
    proc = run_compare(BASELINE, current, "--strict")
    assert proc.returncode == 1, proc.stdout
    assert "--strict" in proc.stderr


def test_strict_fails_on_missing_benchmark():
    current = {"results": [
        {"name": "produce", "records_per_sec": 1100.0, "p99_us": 40.0},
    ]}
    proc = run_compare(BASELINE, current, "--strict")
    assert proc.returncode == 1, proc.stdout


def test_markdown_table_output():
    current = {"results": [
        {"name": "produce", "records_per_sec": 500.0, "p99_us": 50.0},
        {"name": "fetch", "records_per_sec": 2000.0},
    ]}
    proc = run_compare(BASELINE, current, "--markdown")
    assert proc.returncode == 1, proc.stdout  # still gates on regressions
    lines = proc.stdout.splitlines()
    assert lines[0] == "| benchmark:metric | delta | detail |"
    assert lines[1] == "| --- | ---: | --- |"
    assert any(line.startswith("| produce:records_per_sec | -50.0% |")
               and "**REGRESSION**" in line for line in lines), proc.stdout
    # Every comparison row is a table row (the trailing summary is not).
    assert all(line.startswith("|") for line in lines
               if ":" in line and "regression" not in line), proc.stdout


def test_append_locks_direction_override():
    # append_locks_per_krec carries no unit suffix; its direction comes from
    # DIRECTION_OVERRIDES. More lock traffic regresses, less improves.
    baseline = {"results": [
        {"name": "producers/t8/p1", "append_locks_per_krec": 30.0},
    ]}
    worse = {"results": [
        {"name": "producers/t8/p1", "append_locks_per_krec": 45.0},
    ]}
    proc = run_compare(baseline, worse)
    assert proc.returncode == 1, proc.stdout
    assert "producers/t8/p1:append_locks_per_krec" in proc.stderr

    better = {"results": [
        {"name": "producers/t8/p1", "append_locks_per_krec": 20.0},
    ]}
    proc = run_compare(baseline, better)
    assert proc.returncode == 0, proc.stdout
    assert "no regressions" in proc.stdout


def test_strict_allows_new_benchmarks():
    current = {"results": [
        {"name": "produce", "records_per_sec": 1100.0, "p99_us": 40.0},
        {"name": "fetch", "records_per_sec": 2100.0},
        {"name": "compact", "records_per_sec": 300.0},  # growth is fine
    ]}
    proc = run_compare(BASELINE, current, "--strict")
    assert proc.returncode == 0, proc.stderr


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"OK: {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL: {name}: {exc}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
