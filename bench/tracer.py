"""In-memory span tracer around the calls into each ``dwkit.*`` module.

:meth:`Tracer.install` wraps every public module-level function of the
traced modules and a fixed list of class methods.  A wrapped function is
rebound, as the same wrapper object, in every ``dwkit.*`` namespace that
holds the original (modules import each other with ``from .x import f``).
Nothing in ``src/`` is edited; :meth:`Tracer.uninstall` restores every
binding.

Each span is ``[name, start, end, parent, job]``.  Self time is a span's
duration minus the durations of its direct children.  Counters are read
only from public attributes and return values.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import weakref
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# layer -> dwkit module; ``phase`` is left out on purpose (PhaseValue
# operators would swamp the run; their cost shows in the callers' self time)
LAYERS = ("groups", "linalg", "cochains", "groupoids", "invariants",
          "anomalies", "io", "cli")

# builtin constructors are reported together as ``groups.build``
GROUP_CONSTRUCTORS = {"cyclic_group", "product_group", "dihedral_group",
                  "pauli_group", "builtin_group", "group_from_table"}

# (module, class, method, span name)
METHODS = (
    ("linalg", "SparseElimination", "__init__", "linalg.init"),
    ("linalg", "SparseElimination", "eliminate", None),  # by modulus
    ("linalg", "SparseElimination", "solve", "linalg.solve"),
    ("linalg", "SparseElimination", "kernel", "linalg.kernel"),
    ("cochains", "CohomologyGroup", "classify", "cochains.classify"),
    ("groups", "FiniteGroup", "generators", "groups.generators"),
    ("groups", "FiniteGroup", "canonical_hash", "groups.canonical_hash"),
    ("groupoids", "FinGroupoid", "isomorphism_classes",
     "groupoids.isomorphism_classes"),
    ("invariants", "ExactPhaseSum", "as_rational", "invariants.as_rational"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.enabled = True
        self.counts = Counter()
        self.systems = []  # one record per eliminated SparseElimination
        self._eliminated = weakref.WeakSet()
        self._cohomology_keys = set()
        self._patches = []
        self._hash = None

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name, after=None, namer=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            rec = [namer(args) if namer else name, perf_counter(), 0.0,
                   stack[-1] if stack else -1, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- counters (public attributes and return values only) --------------

    def _after_init(self, args, _out):
        elim = args[0]
        self.counts["linalg.rows"] += elim.nrows
        self.counts["linalg.cols"] += elim.ncols
        self.counts["linalg.nnz_in"] += sum(len(r) for r in elim.rows)

    def _after_eliminate(self, args, _out):
        elim = args[0]
        if elim in self._eliminated:
            return
        self._eliminated.add(elim)
        rec = {
            "modulus": elim.modulus, "rows": elim.nrows, "cols": elim.ncols,
            "row_ops": len(elim.row_ops), "col_ops": len(elim.col_ops),
            "pivots": len(elim.pivots), "job": self.job,
        }
        self.systems.append(rec)
        for key in ("row_ops", "col_ops", "pivots"):
            self.counts["linalg." + key] += rec[key]

    def _after_solve(self, _args, out):
        self.counts["linalg.solve.none"] += out is None

    def _after_cohomology(self, args, _out):
        key = (self._hash(args[0]), args[1])
        self.counts["cochains.cohomology.repeats"] += key in self._cohomology_keys
        self._cohomology_keys.add(key)

    def _after_solve_coboundary(self, _args, out):
        self.counts["cochains.solve_coboundary.none"] += out is None

    def _after_cycle(self, _args, out):
        self.counts["cochains.torus_fundamental_cycle.terms"] += len(out.terms)

    def _after_partition(self, args, out):
        tuples = sum(Fraction(c) for c in out.phase_sum.counts) * args[0].order
        self.counts["invariants.dw_partition_torus.tuples"] += int(tuples)

    def _after_transgress(self, _args, out):
        self.counts["invariants.transgress_circle.values"] += len(out.values)

    def _after_gauge(self, _args, out):
        self.counts["groupoids.gauge_groupoid.objects"] += len(out.objects())

    def _after_report(self, _args, out):
        self.counts["anomalies.verdict." + out.verdict] += 1

    def _after_json(self, _args, out):
        self.counts["io.bytes_out"] += len(json.dumps(out, sort_keys=True))

    # -- install / uninstall ------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module("dwkit." + m) for m in LAYERS}
        self._hash = mods["groups"].FiniteGroup.canonical_hash
        after = {
            "cochains.cohomology": self._after_cohomology,
            "cochains.solve_coboundary": self._after_solve_coboundary,
            "cochains.torus_fundamental_cycle": self._after_cycle,
            "invariants.dw_partition_torus": self._after_partition,
            "invariants.transgress_circle": self._after_transgress,
            "groupoids.gauge_groupoid": self._after_gauge,
            "anomalies.anomaly_report": self._after_report,
            "io.cochain_json": self._after_json,
            "io.loop_cochain_json": self._after_json,
            "io.extension_json": self._after_json,
        }
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = "groups.build" if attr in GROUP_CONSTRUCTORS else f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(obj, name, after.get(name)))
        namespaces = [m for name, m in sys.modules.items()
                      if name == "dwkit" or name.startswith("dwkit.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        method_after = {
            "linalg.init": self._after_init,
            "linalg.solve": self._after_solve,
        }
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[attr]
            if name is None:
                wrapper = self._wrap(
                    fn, None, self._after_eliminate,
                    namer=lambda args: ("linalg.eliminate"
                                        if args[0].modulus is None
                                        else "linalg.eliminate_mod"))
            else:
                wrapper = self._wrap(fn, name, method_after.get(name))
            self._patch(cls, attr, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def self_times(self):
        """(busy seconds, calls) per span name; busy is self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, calls = defaultdict(float), Counter()
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            busy[name] += (end - start) - child[i]
            calls[name] += 1
        return busy, calls

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "systems": self.systems,
                       "counts": dict(self.counts)}, fh)


def _frac(num, den):
    return num / den if den else 0.0


# name -> (unit, better); the per-layer metrics a traced run reports
LAYER_METRICS = {}


def _metric(name, unit, better="lower"):
    LAYER_METRICS[name] = (unit, better)


for _layer in LAYERS:
    _metric(f"{_layer}.busy_s", "s")
for _name in (
    "linalg.init", "linalg.eliminate", "linalg.eliminate_mod", "linalg.solve",
    "linalg.kernel",
    "cochains.cohomology", "cochains.delta_matrix_rows", "cochains.classify",
    "cochains.solve_coboundary", "cochains.is_cocycle_fast",
    "cochains.evaluate", "cochains.torus_fundamental_cycle",
    "cochains.pullback", "cochains.coboundary",
    "invariants.dw_partition_torus", "invariants.transgress_circle",
    "invariants.state_space_torus", "invariants.twisted_irrep_count",
    "invariants.as_rational",
    "groupoids.gauge_groupoid", "groupoids.isomorphism_classes",
    "groupoids.integrate", "groupoids.homotopy_fiber",
    "groups.build", "groups.generators", "groups.canonical_hash",
    "anomalies.is_invariant_class", "anomalies.is_first_obstruction_trivial",
    "anomalies.find_closed_lift", "anomalies.find_boundary_pair",
    "anomalies.relative_partition_torus",
    "anomalies.projective_state_cocycle",
    "io.parse_cochain", "io.cochain_json",
    "cli.main",
):
    _metric(_name + ".busy_s", "s")
for _name in ("linalg.rows", "linalg.cols", "linalg.nnz_in", "linalg.row_ops",
              "linalg.col_ops", "linalg.pivots",
              "cochains.cohomology.calls",
              "cochains.torus_fundamental_cycle.terms",
              "invariants.dw_partition_torus.tuples",
              "invariants.transgress_circle.values",
              "invariants.as_rational.calls",
              "groupoids.gauge_groupoid.objects"):
    _metric(_name, "count")
for _verdict in ("anomaly_free", "thooft_anomalous_with_bulk",
                 "invariance_fails", "first_obstruction_fails"):
    _metric("anomalies.verdict." + _verdict, "count", "higher")
_metric("io.bytes_out", "bytes")
_metric("linalg.solve.none_frac", "fraction")
_metric("cochains.cohomology.repeat_frac", "fraction", "higher")
_metric("cochains.solve_coboundary.none_frac", "fraction")
_metric("cli.interpreter_s", "s")
_metric("cli.import_s", "s")
_metric("cli.cache.hit_frac", "fraction", "higher")
_metric("trace.overhead_s", "s")
_metric("trace.wall_s", "s")
_metric("trace.spans", "count")

# The time metrics that every workload exercises.  Another layer's busy
# time reads 0 on every run of a workload that never calls it, so those are
# printed and saved but left off the JSON line (and out of BENCHMARK.json);
# counts and fractions are all listed.
LISTED = {name for name, (unit, _b) in LAYER_METRICS.items() if unit != "s"} | {
    "groups.busy_s", "linalg.busy_s", "cochains.busy_s",
    "linalg.init.busy_s", "linalg.eliminate.busy_s", "linalg.solve.busy_s",
    "cochains.cohomology.busy_s", "cochains.delta_matrix_rows.busy_s",
    "groups.build.busy_s", "groups.generators.busy_s",
    "cli.interpreter_s", "cli.import_s", "trace.overhead_s", "trace.wall_s",
}


def layer_metrics(tracer, extra):
    """Every LAYER_METRICS value from a finished traced run; ``extra``
    supplies the ones measured outside the spans (cli.*, trace.*)."""
    busy, calls = tracer.self_times()
    c = tracer.counts
    out = {}
    for name in LAYER_METRICS:
        if name in extra:
            out[name] = extra[name]
        elif name.endswith(".busy_s"):
            key = name[: -len(".busy_s")]
            if key in LAYERS:
                out[name] = sum(v for k, v in busy.items()
                                if k.startswith(key + "."))
            else:
                out[name] = busy.get(key, 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        else:
            out[name] = c.get(name, 0)
    out["linalg.solve.none_frac"] = _frac(c["linalg.solve.none"],
                                          calls["linalg.solve"])
    out["cochains.cohomology.repeat_frac"] = _frac(
        c["cochains.cohomology.repeats"], calls["cochains.cohomology"])
    out["cochains.solve_coboundary.none_frac"] = _frac(
        c["cochains.solve_coboundary.none"], calls["cochains.solve_coboundary"])
    out["trace.spans"] = len(tracer.spans)
    return out
