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


def run_sets(baseline_runs, current_runs, *flags):
    """Writes one run_sets.py-style report per run into two directories."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for side, runs in (("base", baseline_runs), ("curr", current_runs)):
            path = os.path.join(tmp, side)
            os.mkdir(path)
            for i, value in enumerate(runs):
                with open(os.path.join(path, f"set0-rep{i}-tail.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump({"results": [{"name": "tail",
                                            "latency_p50_us": value}]}, fh)
            dirs.append(path)
        return subprocess.run(
            [sys.executable, COMPARE, "--sets", *dirs, *flags],
            capture_output=True, text=True)


def test_sets_claim_holds():
    proc = run_sets([100, 104, 98, 102, 101, 99, 103, 100, 97, 105],
                    [50, 52, 49, 51, 50, 48, 53, 50, 51, 49],
                    "--claim", "tail:latency_p50_us")
    assert proc.returncode == 0, proc.stderr
    assert "gain" in proc.stdout


def test_sets_claim_needs_nine_of_ten_pairs():
    # The change wins 8 of 10 pairs: not enough, whatever the medians say.
    proc = run_sets([100, 104, 98, 102, 101, 99, 103, 100, 97, 105],
                    [50, 52, 49, 51, 50, 48, 53, 50, 120, 130],
                    "--claim", "tail:latency_p50_us")
    assert proc.returncode == 1, proc.stdout
    assert "claim NOT met" in proc.stdout


def test_sets_claim_needs_median_gap_beyond_baseline_iqr():
    # Every pair won, but by less than the baseline's own spread.
    proc = run_sets([100, 120, 80, 110, 90, 105, 95, 115, 85, 100],
                    [99, 119, 79, 109, 89, 104, 94, 114, 84, 99],
                    "--claim", "tail:latency_p50_us")
    assert proc.returncode == 1, proc.stdout
    assert "claim NOT met" in proc.stdout


def test_sets_unclaimed_regression_fails():
    proc = run_sets([100] * 4, [130] * 4, "--threshold", "25")
    assert proc.returncode == 1, proc.stdout
    assert "REGRESSION" in proc.stdout
    proc = run_sets([100] * 4, [120] * 4, "--threshold", "25")
    assert proc.returncode == 0, proc.stderr


def test_sets_noisy_metric_is_unresolved():
    # Medians within the threshold, but the baseline's quartiles span 40% of
    # its median: "held" cannot be told from noise.
    noisy = [60, 80, 100, 120, 140, 70, 90, 110, 130, 100]
    proc = run_sets(noisy, [v + 5 for v in noisy], "--threshold", "25")
    assert proc.returncode == 0, proc.stderr
    assert "unresolved" in proc.stdout and "unresolved" in proc.stderr
    # Quiet runs on both sides resolve.
    proc = run_sets([100, 101, 99, 100], [105, 104, 106, 105],
                    "--threshold", "25")
    assert proc.returncode == 0, proc.stderr
    assert "unresolved" not in proc.stdout
    # As noisy, but every current run beats every baseline run.
    proc = run_sets([200, 240, 280, 320], [60, 80, 100, 120],
                    "--threshold", "25")
    assert proc.returncode == 0, proc.stderr
    assert "unresolved" not in proc.stdout


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
