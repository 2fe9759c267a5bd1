"""Check that traced counters do not depend on PYTHONHASHSEED.

    python3 bench/check_counters.py [--seed N] [--scale full|tiny] [workload ...]

Runs each workload's traced run twice with the same seed, under
PYTHONHASHSEED 1 and 2, and compares every per-layer metric whose unit is
``count``.  ``--seconds 0`` makes each run exactly one pass, so the counts
cannot depend on how many passes fit.  Prints the differing names and
exits 1 if any differ.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cohomology", "invariants", "anomaly", "cli")


def traced(workload, seed, scale, hash_seed):
    """The JSON result of one traced run."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1",
         "--scale", scale],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counter_diff(workload, seed=1, scale="full"):
    """(first result, names of count metrics that differ between hash seeds)."""
    first = traced(workload, seed, scale, "1")
    second = traced(workload, seed, scale, "2")
    counts = [k for k, m in first["metrics"].items() if m["unit"] == "count"]
    return first, [k for k in counts
                   if first["metrics"][k] != second["metrics"].get(k)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    bad = False
    for name in args.workloads:
        result, diff = counter_diff(name, args.seed, args.scale)
        counts = {k: m["value"] for k, m in result["metrics"].items()
                  if m["unit"] == "count" and m["value"]}
        print(name, "differ:" if diff else "identical:", diff or counts)
        bad |= bool(diff) or not result["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
