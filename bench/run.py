"""dwkit benchmark: closed-loop workloads with exact-output checks.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload cohomology --seed 1 --seconds 20 --trace 0

``--trace 1`` first runs the same seed untraced in a child process, then
repeats it in-process with spans around every call into ``dwkit.*`` and
reports the per-layer metrics and the tracing overhead.  ``--all`` runs
every workload in turn and prints the end-to-end table.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cohomology", "invariants", "anomaly", "cli")
# set-up is repeated at least SETUP_MIN times and until SETUP_MIN_S seconds
# have gone into it (at most SETUP_MAX times); setup_s is the median
SETUP_MIN, SETUP_MIN_S, SETUP_MAX = 3, 0.5, 100
TAIL_BEYOND = 10

# end-to-end metrics a run reports -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "fail_frac": "fraction",
    "peak_rss_mb": "MB",
}
# the ones listed in BENCHMARK.json and on the JSON line.  The percentiles
# are single-job figures on small passes (17 jobs in cohomology) and spread
# more than any allowed bound on a shared host; fail_frac is 0.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def latency_summary(latencies):
    """Median and the highest nearest-rank percentile with at least
    TAIL_BEYOND samples beyond it (the maximum if there are too few)."""
    vals = sorted(latencies)
    n = len(vals)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # 1-based rank
    return {
        "p50": statistics.median(vals),
        "tail": vals[k - 1],
        "tail_pct": round(100.0 * k / n, 1),
        "samples": n,
    }


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _reference_slice():
    """Fixed pure-Python work (dict, tuple and integer operations, as in
    dwkit's inner loops); about 1 ms on a 2.1 GHz x86 core."""
    d = {}
    for i in range(5000):
        d[(i, i % 7)] = i * i % 11
    return len(d)


# The unit of host-normalized time: seconds on a host where one reference
# slice takes REF_SLICE_S.
REF_SLICE_S = 1.0e-3
SAMPLE_EVERY_S = 0.25


class HostClock:
    """Times calls in wall seconds and in host-normalized seconds.

    The host this runs on is shared, and its speed drifts by 10-30% over
    seconds to minutes.  The clock times a fixed reference slice (median
    of 3) before and after every timed call and, when ``sample`` is set,
    every SAMPLE_EVERY_S during it from a SIGALRM handler; the time spent
    in the handler is taken out of the call's wall time.  The call's wall
    time is then scaled by REF_SLICE_S over the mean slice time, so drift
    that slows the reference and the program alike cancels out.
    """

    def __init__(self, sample=True):
        self.sample = sample
        self.slices = []
        self.slice_s = self._slice()
        self._during = []  # slice times of the current call
        self._stolen = 0.0  # seconds the current call spent in _on_alarm

    def _slice(self):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_slice()
            times.append(time.perf_counter() - t0)
        times.sort()
        self.slices.append(times[1])
        return times[1]

    def _on_alarm(self, _signum, _frame):
        t0 = time.perf_counter()
        self._during.append(self._slice())
        self._stolen += time.perf_counter() - t0

    def call(self, fn):
        """(output or None, exception or None, wall s, normalized s)."""
        samples = [self.slice_s]
        self._during, self._stolen = samples, 0.0
        out = exc = None
        if self.sample:
            old = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # a failed job is counted by the caller
            exc = e
        finally:
            wall = time.perf_counter() - t0
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        wall -= self._stolen
        self.slice_s = self._slice()
        samples.append(self.slice_s)
        return out, exc, wall, wall * REF_SLICE_S * len(samples) / sum(samples)


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dwkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args, jobs_digest, passes, summary):
    from importlib import metadata as md

    try:
        sympy_version = md.version("sympy")
    except md.PackageNotFoundError:
        sympy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "sympy": sympy_version,
        "nproc": os.cpu_count(), "job_list_sha256": jobs_digest,
        "passes": passes, "jobs": summary["samples"],
        "job_tail_pct": summary["tail_pct"],
    }


class Context:
    """What a workload's set-up may need besides the seed."""

    def __init__(self, workload, seed, in_process):
        self.workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
        self.in_process = in_process
        self.runner = None


def make_setup(name, ctx):
    import workloads as W

    if name == "cli":
        ctx.runner = W.CliRunner(SRC, ctx.workdir, in_process=ctx.in_process)
        return lambda rng, scale: W.cli_setup(rng, scale, ctx.runner)
    return {
        "cohomology": W.cohomology_setup,
        "invariants": W.invariants_setup,
        "anomaly": W.anomaly_setup,
    }[name]


def max_passes(name):
    # a (group, degree) pair must not repeat within a cohomology process
    return 1 if name == "cohomology" else None


def before_pass(name, ctx):
    if name == "cli":
        shutil.rmtree(os.path.join(ctx.workdir, "cache"), ignore_errors=True)


def run_workload(args, tracer=None):
    """Set up repeatedly (once when traced), then run passes while another
    pass of the same length fits in ``args.seconds``.

    Returns (result dict, failures list, job-list digest, passes)."""
    ctx = Context(args.workload, args.seed, in_process=tracer is not None)
    setup = make_setup(args.workload, ctx)
    if args.workload == "cli":
        # The fresh interpreters otherwise land on either core, whose speeds
        # differ, and the host slices (taken on this core) would not track
        # them: pinned, the wall_s spread across ten seeds fell from 0.15
        # to about 0.05.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # no slices inside traced calls: they would land in the spans
    clock = HostClock(sample=tracer is None)
    setup_raw, setup_norm = [], []
    while True:
        jobs = None  # release the previous set-up before building again
        if tracer is not None:
            tracer.job = "setup"
        rng = random.Random(args.seed)
        jobs, exc, wall, norm = clock.call(lambda: setup(rng, args.scale))
        if exc is not None:
            raise exc
        setup_raw.append(wall)
        setup_norm.append(norm)
        if tracer is not None or len(setup_raw) >= SETUP_MAX or (
                len(setup_raw) >= SETUP_MIN and sum(setup_raw) >= SETUP_MIN_S):
            break
    digest = hashlib.sha256(json.dumps(
        [j.spec for j in jobs], sort_keys=True).encode()).hexdigest()

    raw, norm, pass_raw, pass_norm, failures, by_job = [], [], [], [], [], []
    limit = max_passes(args.workload)
    start = time.perf_counter()
    npass = 0
    while True:
        before_pass(args.workload, ctx)
        if npass:
            rng.shuffle(jobs)
        first = len(raw)
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{npass}.{i}:{job.name}"
            out, exc, wall, scaled = clock.call(job.run)
            if exc is not None:
                failures.append(f"{job.name}: raised {exc!r}")
            else:
                if tracer is not None:
                    tracer.enabled = False
                try:
                    problem = job.check(out)
                except Exception as e:
                    problem = f"check raised {e!r}"
                finally:
                    if tracer is not None:
                        tracer.enabled = True
                if problem:
                    failures.append(f"{job.name}: {problem}")
            raw.append(wall)
            norm.append(scaled)
            by_job.append((job.name, wall, scaled))
        pass_raw.append(sum(raw[first:]))
        pass_norm.append(sum(norm[first:]))
        npass += 1
        elapsed = time.perf_counter() - start
        if (limit is not None and npass >= limit) or \
                elapsed + pass_raw[-1] > args.seconds:
            break
    if tracer is not None:
        tracer.job = None

    shutil.rmtree(ctx.workdir, ignore_errors=True)
    lat_norm, lat_raw = latency_summary(norm), latency_summary(raw)
    result = {
        "setup_s": statistics.median(setup_norm),
        "wall_s": statistics.median(pass_norm),
        "job_p50_ms": lat_norm["p50"] * 1e3,
        "job_tail_ms": lat_norm["tail"] * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(pass_raw),
            "job_p50_ms": lat_raw["p50"] * 1e3,
            "job_tail_ms": lat_raw["tail"] * 1e3,
        },
        "reference_slice_ms": statistics.median(clock.slices) * 1e3,
        "fail_frac": len(failures) / len(raw),
        "attempted": len(raw),
        "failed": len(failures),
        "summary": lat_norm,
        "by_job": by_job,
        "runner": ctx.runner,
    }
    return result, failures, digest, npass


def child_command(args, trace):
    return [sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--scale", args.scale]


def last_json_line(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def timed_interpreter(code, repeats=3):
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(args):
    """Untraced child run of the same seed, then the traced run here."""
    from tracer import LAYER_METRICS, LISTED, Tracer, layer_metrics

    proc = subprocess.run(child_command(args, 0), capture_output=True,
                          text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    untraced = last_json_line(proc.stdout) if proc.returncode == 0 else None
    if untraced is None:
        print(f"untraced reference run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1

    interpreter_s = timed_interpreter("pass")
    import_s = timed_interpreter("import dwkit.cli") - interpreter_s

    tracer = Tracer().install()
    try:
        result, failures, digest, npass = run_workload(args, tracer)
    finally:
        tracer.uninstall()
    runner = result["runner"]
    extra = {
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "cli.cache.hit_frac": (runner.cache_hits / runner.cache_lookups
                               if runner and runner.cache_lookups else 0.0),
        "trace.wall_s": result["wall_s"],
        "trace.overhead_s": result["wall_s"]
        - untraced["metrics"]["wall_s"]["value"],
    }
    metrics = layer_metrics(tracer, extra)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json.gz"))
    return report(args, result, failures, digest, npass,
                  {k: (v, LAYER_METRICS[k][0]) for k, v in metrics.items()},
                  [k for k in metrics if k in LISTED],
                  correct_extra=untraced["correct"])


def report(args, result, failures, digest, npass, metrics, gated,
           correct_extra=True):
    """Print the readable lines, save the result file, print the JSON line
    (which carries the ``gated`` metrics)."""
    for msg in failures:
        print("FAIL", msg)
    meta = metadata(args, digest, npass, result["summary"])
    meta["reference_slice_ms"] = result["reference_slice_ms"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    for name, value in result["raw"].items():
        print(f"{args.workload} wall_clock.{name} {value} {END_TO_END[name]}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    out = {
        "correct": not failures and bool(correct_extra),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in gated},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(out, meta=meta,
                       reported={k: v for k, (v, _u) in metrics.items()},
                       wall_clock=result["raw"], failures=failures,
                       job_seconds=result["by_job"]),
                  fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0


def run_all(args):
    """Every workload in turn; exits nonzero on any exact-output mismatch."""
    bad = False
    rows = []
    for name in WORKLOADS:
        args.workload = name
        proc = subprocess.run(child_command(args, 0), capture_output=True,
                              text=True, timeout=1800)
        result = last_json_line(proc.stdout) if proc.returncode == 0 else None
        if result is None:
            print(proc.stdout + proc.stderr)
            bad = True
            continue
        bad |= not result["correct"]
        for line in proc.stdout.splitlines():
            parts = line.split()
            if line.startswith("FAIL"):
                print(name, line)
            elif len(parts) == 4 and parts[0] == name and parts[1] in END_TO_END:
                rows.append(parts)
    for name, metric, value, unit in rows:
        print(f"{name:11s} {metric:12s} {float(value):12.4f} {unit}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload (untraced) and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small jobs per workload (smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dwkit", "__init__.py")):
        print(f"dwkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.trace:
        return run_traced(args)
    result, failures, digest, npass = run_workload(args)
    metrics = {k: (result[k], unit) for k, unit in END_TO_END.items()}
    return report(args, result, failures, digest, npass, metrics, GATED)


if __name__ == "__main__":
    sys.exit(main())
