"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_smoke.py

A tiny run of each workload must emit every metric named in
BENCHMARK.json with its unit and fail no job; traced counters must not
depend on PYTHONHASHSEED; and the traced Pauli H^2 elimination must
reproduce its known size and operation counts.
"""

import json
import os
import subprocess
import sys

import pytest

from check_counters import counter_diff

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, lines = run_tiny(workload)
    assert_metrics(result, SPEC["end_to_end"])
    assert f"{workload} fail_frac 0.0 fraction" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_ignore_hash_seed(workload):
    first, differ = counter_diff(workload, seed=3, scale="tiny")
    assert_metrics(first, SPEC["per_layer"])
    assert differ == []


def test_pauli_h2_elimination_anchor():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from tracer import Tracer

        from dwkit.cochains import cohomology
        from dwkit.groups import pauli_group

        tracer = Tracer().install()
        try:
            cohomology(pauli_group(), 2)
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))
    first = tracer.systems[0]
    assert (first["rows"], first["cols"]) == (10125, 3375)
    assert first["row_ops"] == 167705
    assert first["pivots"] == 3165
