#!/usr/bin/env python3
"""Short-mode self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload the harness implements on tiny designs (--short) for
one second, untraced and traced, and asserts that
  * the run is correct against the recorded short-mode golden,
  * every end-to-end metric of BENCHMARK.json is emitted untraced, and every
    per-layer metric traced, each with the unit BENCHMARK.json gives it,
  * the correctness gate trips (correct false, failed > 0) when the golden
    is deliberately wrong.
Exits non-zero on the first failed assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# Every workload the harness implements, including those BENCHMARK.json
# leaves to manual runs.
WORKLOADS = ("unique_socs", "tiled_sharded", "tiled_warm", "sta_queries")
WRONG_GOLDEN = "12345.678901234"


def run(workload, trace, golden=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--short",
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace)]
    if golden is not None:
        cmd += ["--golden", golden]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1, result
    return result


def check_metrics(workload, result, declared):
    emitted = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(want) - set(emitted))
    extra = sorted(set(emitted) - set(want))
    assert not missing, f"{workload}: metrics not emitted: {missing}"
    assert not extra, f"{workload}: metrics not declared: {extra}"
    for name, unit in want.items():
        got = emitted[name]
        assert got["unit"] == unit, f"{workload}: {name} unit {got['unit']} != {unit}"
        assert isinstance(got["value"], (int, float)), f"{workload}: {name}"


def main():
    for name in WORKLOADS:
        plain = run(name, 0)
        assert plain["correct"] and plain["failed"] == 0, (name, plain)
        check_metrics(name, plain, SPEC["end_to_end"])
        traced = run(name, 1)
        assert traced["correct"] and traced["failed"] == 0, (name, traced)
        check_metrics(name, traced, SPEC["per_layer"])
        wrong = run(name, 0, golden=WRONG_GOLDEN)
        assert not wrong["correct"] and wrong["failed"] > 0, (name, wrong)
        print(f"selftest {name}: ok ({plain['attempted']} operations, "
              f"gate trips on a wrong golden)", flush=True)
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
