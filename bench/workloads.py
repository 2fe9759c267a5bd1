"""The four benchmark workloads: job lists, set-up and exact-output checks.

A workload's ``setup(rng, scale)`` builds every input of one pass through
the program (groups, cocycles, extensions, files) and returns the pass as a
list of :class:`Job`.  ``Job.run`` is the timed call into dwkit; ``Job.check``
runs untimed afterwards and returns ``None`` or a description of the
mismatch.  Expected values come from closed forms, from counts taken
straight from group tables, or from the program's independent oracles
(``omega_regular_class_count``, ``matches_dpr``), never from the function
being timed.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

from dwkit import anomalies as A
from dwkit import cochains as C
from dwkit import groups as G
from dwkit import invariants as I
from dwkit import io as dio
from dwkit.phase import PhaseValue


class Job:
    __slots__ = ("name", "spec", "run", "check")

    def __init__(self, name, spec, run, check):
        self.name = name
        self.spec = spec
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# independent helpers (plain Python over multiplication tables)


def commuting_count(group, n):
    """Number of pairwise-commuting n-tuples, straight from the table."""
    t = group.table
    elems = range(group.order)

    def extend(prefix, k):
        if k == 0:
            return 1
        return sum(
            extend(prefix + [g], k - 1)
            for g in elems
            if all(t[g][x] == t[x][g] for x in prefix)
        )

    return extend([], n)


def class_count(group):
    """Number of conjugacy classes, from the table."""
    t, inv = group.table, group.inverses
    seen, count = set(), 0
    for g in range(group.order):
        if g in seen:
            continue
        count += 1
        seen.update(t[t[k][g]][inv[k]] for k in range(group.order))
    return count


def center_order(group):
    t = group.table
    return sum(
        all(t[g][h] == t[h][g] for h in range(group.order))
        for g in range(group.order)
    )


def random_cochain(group, degree, modulus, rng, density=0.5):
    """Seeded normalized cochain with values in (1/modulus)Z/Z."""
    vals = {}
    others = [g for g in range(group.order) if g != group.identity]
    for t in itertools.product(others, repeat=degree):
        if rng.random() < density:
            v = rng.randrange(1, modulus) if modulus > 1 else 0
            if v:
                vals[t] = PhaseValue(v, modulus)
    return C.Cochain(group, degree, modulus, vals)


def restricts_to(ext, cochain_hat, cochain):
    """Whether iota^* cochain_hat == cochain, by direct lookup."""
    others = [d for d in ext.kernel.elements() if d != ext.kernel.identity]
    for t in itertools.product(others, repeat=cochain.degree):
        up = tuple(ext.iota(x) for x in t)
        if not (cochain_hat.value(up) - cochain.value(t)).is_zero():
            return False
    return True


def combination(group, degree, gens, coeffs):
    total = C.Cochain.zero(group, degree, 1)
    for c, gen in zip(coeffs, gens):
        if c:
            total = total + gen * c
    return total


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# group specs


def build_group(spec):
    kind = spec[0]
    if kind == "cyclic":
        return G.cyclic_group(spec[1])
    if kind == "product":
        return G.product_group(list(spec[1]))
    if kind == "dihedral":
        return G.dihedral_group(spec[1])
    if kind == "pauli":
        return G.pauli_group()
    raise ValueError(spec)


def builtin_specs_up_to(order):
    """Builtin group specs of order <= ``order`` (cyclic, dihedral,
    products of cyclic factors, Pauli)."""
    specs = [("cyclic", n) for n in range(1, order + 1)]
    specs += [("dihedral", n) for n in range(4, order + 1, 2)]

    def products(limit, start=2):
        for f in range(start, limit + 1):
            yield [f]
            for rest in products(limit // f, f):
                yield [f] + rest

    specs += [("product", tuple(f)) for f in products(order) if len(f) >= 2]
    if order >= 16:
        specs.append(("pauli",))
    return specs


# ---------------------------------------------------------------------------
# cohomology: elimination-bound, no (group, degree) pair repeats


COHOMOLOGY_EXPECTED = [
    (("product", (2, 2)), 2, [2]),
    (("product", (3, 3)), 2, [3]),
    (("product", (4, 4)), 2, [4]),
    (("cyclic", 2), 3, [2]),
    (("cyclic", 3), 3, [3]),
    (("cyclic", 4), 3, [4]),
    (("cyclic", 6), 3, [6]),
    (("cyclic", 8), 3, [8]),
    (("dihedral", 8), 2, [2]),
    (("dihedral", 8), 3, [2, 2, 4]),
    (("dihedral", 6), 3, [6]),
    (("product", (2, 2)), 3, [2, 2, 2]),
    (("product", (2, 2, 2)), 3, [2] * 7),
    (("product", (4, 2)), 3, [2, 2, 4]),
    (("product", (3, 3)), 3, [3, 3, 3]),
    (("pauli",), 1, [2, 2, 2]),
    (("pauli",), 2, [2, 2]),
]
COHOMOLOGY_TINY = [0, 3, 4, 15]
COMBOS_PER_JOB = 3


def cohomology_setup(rng, scale):
    cases = COHOMOLOGY_EXPECTED
    if scale == "tiny":
        cases = [cases[i] for i in COHOMOLOGY_TINY]
    jobs = []
    for spec, n, factors in cases:
        grp = build_group(spec)
        grp.generators()
        grp.canonical_hash()
        mod = lcm(*factors)
        combos = []
        for _ in range(COMBOS_PER_JOB):
            coeffs = tuple(rng.randrange(d) for d in factors)
            combos.append((coeffs, random_cochain(grp, n - 1, mod, rng)))
        beta = random_cochain(grp, n - 1, mod, rng)
        jobs.append(_cohomology_job(grp, spec, n, factors, combos, beta))
    rng.shuffle(jobs)
    return jobs


def _cohomology_job(grp, spec, n, factors, combos, beta):
    def run():
        h = C.cohomology(grp, n)
        gens = h.generators
        on_gens = [h.classify(g) for g in gens]
        on_combos = [
            h.classify(combination(grp, n, gens, coeffs) + C.coboundary(b))
            for coeffs, b in combos
        ]
        on_boundary = h.classify(C.coboundary(beta))
        return list(h.invariant_factors), on_gens, on_combos, on_boundary

    def check(out):
        got_factors, on_gens, on_combos, on_boundary = out
        r = len(factors)
        unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        return (
            _mismatch("invariant factors", got_factors, factors)
            or _mismatch("classify(generators)", on_gens, unit)
            or _mismatch("classify(combinations)", on_combos,
                         [coeffs for coeffs, _b in combos])
            or _mismatch("classify(coboundary)", on_boundary, (0,) * r)
        )

    spec_out = ["cohomology", list(spec), n,
                [list(coeffs) for coeffs, _b in combos]]
    return Job(f"H{n}({grp.label})", spec_out, run, check)


# ---------------------------------------------------------------------------
# invariants: phase sums, shuffle cycles, groupoids; no elimination timed


def invariants_setup(rng, scale):
    jobs = []
    tiny = scale == "tiny"
    specs = builtin_specs_up_to(6 if tiny else 16)
    seen = set()
    for spec in specs:
        grp = build_group(spec)
        key = grp.canonical_hash()
        if key in seen:
            continue
        seen.add(key)
        for dim in (2, 3):
            jobs.append(_untwisted_job(grp, spec, dim))
    if not tiny:
        jobs.append(_untwisted_job(build_group(("dihedral", 8)),
                                   ("dihedral", 8), 4))

    for n_par in ((8,) if tiny else (8, 12, 16)):
        k = rng.randrange(1, n_par)
        omega = C.catalog_cocycle("cyclic_3cocycle", {"N": n_par, "k": k})
        spec = ["cyclic_3cocycle", n_par, k]
        want = n_par * n_par  # simples of D^omega(Z_N): N^2 for every k
        jobs.append(_partition_job(omega, 3, want, spec))
        jobs.append(_states_job(omega, want, spec))
        jobs.append(_transgress_job(omega, spec))
    for n_par in ((4,) if tiny else (4, 6, 8)):
        k = rng.randrange(1, n_par)
        omega = C.catalog_cocycle("product_2cocycle", {"N": n_par, "k": k})
        spec = ["product_2cocycle", n_par, k]
        want = gcd(k, n_par) ** 2  # omega-regular elements of Z_N^2
        jobs.append(_partition_job(omega, 2, want, spec))
        jobs.append(_states_job(omega, want, spec))

    twisted = [("dihedral", 8)] if tiny else [("pauli",), ("dihedral", 8)]
    for spec in twisted:
        grp = build_group(spec)
        h = C.cohomology(grp, 2)
        classes = [combination(grp, 2, h.generators, coeffs) for coeffs in
                   itertools.product(*(range(d) for d in h.invariant_factors))]
        jobs += _twisted_jobs(grp, spec, classes, rng)
    if not tiny:
        # H^2(Z4 x Z4) = Z4, generated by the catalog family at k = 1
        classes = [C.catalog_cocycle("product_2cocycle", {"N": 4, "k": k})
                   for k in range(4)]
        jobs += _twisted_jobs(classes[0].group, ("product", (4, 4)), classes, rng)
    rng.shuffle(jobs)
    return jobs


def _untwisted_job(grp, spec, dim):
    theta = C.Cochain.zero(grp, dim)

    def run():
        return I.dw_partition_torus(grp, theta, dim).value

    def check(value):
        return _mismatch(f"untwisted Z(T^{dim})", value,
                         Fraction(commuting_count(grp, dim), grp.order))

    return Job(f"Z_T{dim}({grp.label})", ["untwisted", list(spec), dim],
               run, check)


def _partition_job(omega, dim, want, spec):
    def run():
        return I.dw_partition_torus(omega.group, omega, dim).value

    return Job(f"Z_T{dim}({spec[0]} N={spec[1]})", ["partition"] + spec, run,
               lambda value: _mismatch("Z(T^n)", value, want))


def _states_job(omega, want, spec):
    def run():
        return I.state_space_torus(omega.group, omega).dimension

    return Job(f"states({spec[0]} N={spec[1]})", ["states"] + spec, run,
               lambda dim: _mismatch("state-space dimension", dim, want))


def _transgress_job(omega, spec):
    def run():
        loop = I.transgress_torus(omega)
        return loop.loops, loop.degree, I.matches_dpr(omega)

    # down to degree 0 on the 3-fold loop groupoid; DPR agrees at degree 2
    return Job(f"transgress(N={spec[1]})", ["transgress"] + spec, run,
               lambda out: _mismatch("(loops, degree, matches_dpr)", out,
                                     (3, 0, True)))


def _twisted_jobs(grp, spec, classes, rng):
    mod = lcm(1, *(c.modulus for c in classes))
    return [
        _twisted_job(grp, omega + C.coboundary(random_cochain(grp, 1, mod, rng)),
                     [list(spec), i])
        for i, omega in enumerate(classes)
    ]


def _twisted_job(grp, omega, spec):
    def run():
        return I.twisted_irrep_count(grp, omega)

    def check(count):
        return _mismatch("twisted irreps", count,
                         I.omega_regular_class_count(grp, omega))

    return Job(f"twisted({grp.label} {spec[1]})", ["twisted"] + spec, run,
               check)


# ---------------------------------------------------------------------------
# anomaly: Z/M solves against right-hand sides, repeated small cohomology


def doubling_extension(n, m):
    """Z_n^2 inside Z_nm^2 by multiplication with m; quotient Z_m^2."""
    nm = n * m
    small = G.product_group([n, n])
    tot = G.product_group([nm, nm])
    big = G.product_group([m, m])
    iota = G.GroupHom(small, tot, [
        G.product_index([nm, nm], tuple(m * a for a in G.product_digits([n, n], x)))
        for x in small.elements()
    ])
    lam = G.GroupHom(tot, big, [
        G.product_index([m, m], tuple(a % m for a in G.product_digits([nm, nm], x)))
        for x in tot.elements()
    ])
    return A.Extension(small, tot, big, iota, lam, A.find_section(lam))


def cyclic_extension(n, m):
    """0 -> Z_n -> Z_nm -> Z_m -> 0 from the carry cocycle."""
    zn, zm = G.cyclic_group(n), G.cyclic_group(m)
    alpha = [list(zn.elements()) for _ in zm.elements()]
    sigma = C.catalog_cocycle("extension_2cocycle", {"N": n, "M": m})
    return A.extension_from_cocycle(A.NonAbelianCocycle(zm, zn, alpha, sigma))


def _normal_extension(sub, total, mapping):
    """sub -> total along ``mapping`` onto a normal index-2 subgroup."""
    image = set(mapping)
    z2 = G.cyclic_group(2)
    iota = G.GroupHom(sub, total, mapping)
    lam = G.GroupHom(total, z2, [0 if x in image else 1 for x in total.elements()])
    return A.Extension(sub, total, z2, iota, lam, A.find_section(lam))


def d8_in_pauli():
    """D8 as a normal subgroup of the Pauli group (found by search)."""
    d8, p = G.dihedral_group(8), G.pauli_group()
    for pa in p.elements():
        if p.element_order(pa) != 4:
            continue
        for pb in p.elements():
            if p.element_order(pb) != 2 or p.conjugate(pb, pa) != p.inverses[pa]:
                continue
            mapping = [0] * 8
            for i in range(4):
                for j in range(2):
                    mapping[G.dihedral_index(8, i, j)] = p.mul(
                        p.power(pa, i), p.power(pb, j))
            image = set(mapping)
            if len(image) != 8 or any(
                p.conjugate(g, x) not in image for g in p.elements() for x in image
            ):
                continue
            try:
                return _normal_extension(d8, p, mapping)
            except ValueError:
                continue
    raise AssertionError("no normal dihedral subgroup of the Pauli group")


def klein_in_d8():
    k4, d8 = G.product_group([2, 2]), G.dihedral_group(8)
    # (x, y) -> a^(2x) b^y
    mapping = [0] * 4
    for x, y in itertools.product(range(2), repeat=2):
        mapping[G.product_index([2, 2], (x, y))] = G.dihedral_index(8, 2 * x, y)
    return _normal_extension(k4, d8, mapping)


def z2_in_z4():
    z2, z4 = G.cyclic_group(2), G.cyclic_group(4)
    iota = G.GroupHom(z2, z4, [0, 2])
    lam = G.GroupHom(z4, z2, [0, 1, 0, 1])
    return A.Extension(z2, z4, z2, iota, lam, A.find_section(lam))


GRID = ((2, 2), (3, 2), (2, 3), (4, 2))
CYCLIC = ((2, 4), (4, 4), (3, 3))


def anomaly_setup(rng, scale):
    tiny = scale == "tiny"
    jobs = []
    for n, m in (GRID[:1] if tiny else GRID):
        ext = doubling_extension(n, m)
        for k in range(n):
            omega = C.catalog_cocycle("product_2cocycle", {"N": n, "k": k})
            shift = C.coboundary(random_cochain(ext.kernel, 1, n, rng))
            liftable = any((kp * m - k) % n == 0 for kp in range(n))
            jobs.append(_report_job(
                ext, omega + shift, liftable, None, ["grid", n, m, k]))
    for n, m in (CYCLIC[:1] if tiny else CYCLIC):
        ext = cyclic_extension(n, m)
        for k in range(n):
            omega = C.catalog_cocycle("cyclic_3cocycle", {"N": n, "k": k})
            shift = C.coboundary(random_cochain(ext.kernel, 2, n, rng))
            # the catalog family on Z_nm restricts to the one on Z_n
            jobs.append(_report_job(
                ext, omega + shift, True, None, ["cyclic", n, m, k]))
    ext = d8_in_pauli()
    omega = C.catalog_cocycle("dihedral8_2cocycle", {})
    shift = C.coboundary(random_cochain(ext.kernel, 1, 4, rng))
    jobs.append(_report_job(ext, omega + shift, False,
                            "first_obstruction_fails", ["d8_in_pauli"]))

    ext = klein_in_d8()
    omega = C.catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    omega = omega + C.coboundary(random_cochain(ext.kernel, 1, 2, rng))
    jobs.append(_boundary_pair_job(ext, omega))

    ext = z2_in_z4()
    theta = C.catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1})
    jobs.append(_z4_pair_job(ext, theta))
    # one verified pair, shifted by a seeded coboundary per job
    omega_p = _z4_pair(ext, theta)
    expected = {(0, 0): 2, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for phi, want in expected.items():
        shifted = omega_p + C.coboundary(random_cochain(ext.total, 1, 4, rng))
        jobs.append(_relative_job(ext, shifted, theta, phi, want))
    shifted = omega_p + C.coboundary(random_cochain(ext.total, 1, 4, rng))
    jobs.append(_projective_job(ext, shifted, theta))
    rng.shuffle(jobs)
    return jobs


def _report_job(ext, omega, liftable, verdict, spec):
    def run():
        return A.anomaly_report(ext, omega)

    def check(report):
        got = report.verdict
        if (got == "anomaly_free") != liftable:
            return f"verdict {got!r} but liftable={liftable}"
        if verdict is not None and got != verdict:
            return f"verdict {got!r}, want {verdict!r}"
        if liftable and not restricts_to(ext, report.closed_lift, omega):
            return "closed lift does not restrict to omega"
        return None

    return Job("anomaly(" + ",".join(map(str, spec)) + ")", ["report"] + spec,
               run, check)


def _boundary_pair_job(ext, omega):
    def run():
        return A.find_boundary_pair(ext, omega)

    def check(pair):
        if pair is None:
            return "no boundary pair for Klein in D8"
        if not restricts_to(ext, pair[0], omega):
            return "omega' does not restrict to omega"
        return None

    return Job("boundary_pair(K4<D8)", ["boundary_pair", "klein_in_d8"], run,
               check)


def _z4_pair(ext, theta):
    """omega' on Z4 with delta omega' = lambda^* theta and iota^* omega' = 0."""
    omega_p = C.solve_coboundary(C.pullback(ext.lam, theta))
    gamma = C.solve_coboundary(C.pullback(ext.iota, omega_p))
    lifted = C.Cochain(ext.total, 1, gamma.modulus,
                       {(ext.iota(d),): v for (d,), v in gamma.values.items()})
    return omega_p - C.coboundary(lifted)


def _z4_pair_job(ext, theta):
    def run():
        return _z4_pair(ext, theta)

    def check(omega_p):
        if not restricts_to(ext, omega_p, C.Cochain.zero(ext.kernel, 2)):
            return "omega' does not vanish on the kernel"
        return None

    return Job("z4_pair", ["z4_pair"], run, check)


def _relative_job(ext, omega_p, theta, phi, want):
    def run():
        return A.relative_partition_torus(ext, omega_p, theta, phi).value

    return Job(f"relative{phi}", ["relative", list(phi)], run,
               lambda value: _mismatch(f"relative Z in sector {phi}", value, want))


def _projective_job(ext, omega_p, theta):
    def run():
        return A.projective_state_cocycle(ext, omega_p, theta)[2]

    return Job("projective_state_cocycle", ["projective"], run,
               lambda same: _mismatch("defect class == transgressed theta",
                                      same, True))


# ---------------------------------------------------------------------------
# cli: fresh interpreters running the README commands


class CliRunner:
    """Runs ``dwkit`` argv lists as fresh interpreters, or in-process
    through ``dwkit.cli.main`` with stdout captured (traced runs)."""

    def __init__(self, src, workdir, in_process=False):
        self.workdir = workdir
        self.in_process = in_process
        self.env = {k: v for k, v in os.environ.items() if k != "DWKIT_CACHE"}
        self.env["PYTHONPATH"] = src
        self.cache_hits = 0
        self.cache_lookups = 0

    def __call__(self, argv):
        if self.in_process:
            from dwkit import cli

            out, err = stdio.StringIO(), stdio.StringIO()
            old = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                os.chdir(old)
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "dwkit.cli"] + argv,
                cwd=self.workdir, env=self.env, capture_output=True,
                text=True, timeout=120,
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if "--cache" in argv:
            self.cache_lookups += 1
            self.cache_hits += "cache hit" in stderr
        return code, stdout


CLI_ROUNDS = 2  # rounds of the README commands per pass
CLI_CACHE_HITS = 5


def cli_setup(rng, scale, runner):
    """The README's commands, CLI_ROUNDS times with seeded parameters,
    plus one cached D8 H^3 miss followed by hits (the runner empties the
    cache directory before each pass)."""
    wd = runner.workdir
    os.makedirs(wd, exist_ok=True)
    with open(os.path.join(wd, "ext.json"), "w", encoding="utf-8") as fh:
        json.dump(dio.extension_json(z2_in_z4()), fh)
    ref = _CliReference()
    commands = []
    for r in range(1 if scale == "tiny" else CLI_ROUNDS):
        commands += _readme_commands(rng, ref, wd, r)
    if scale == "tiny":
        commands = commands[:2]
    d8h3 = ["cohomology", "--group", "d8", "--degree", "3", "--cache",
            os.path.join(wd, "cache"), "--json"]
    commands += [(d8h3, ref.cohomology(("dihedral", 8), 3, [2, 2, 4]))] * (
        1 + CLI_CACHE_HITS)
    rng.shuffle(commands)
    return [_cli_job(runner, argv, expect) for argv, expect in commands]


def _readme_commands(rng, ref, wd, r):
    # a seeded relabelling of Z6 for ``group validate``
    perm = list(range(1, 6))
    rng.shuffle(perm)
    perm = [0] + perm
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[perm[a]][perm[b]] = perm[(a + b) % 6]
    name = f"mygroup{r}.json"
    with open(os.path.join(wd, name), "w", encoding="utf-8") as fh:
        json.dump(dio.group_json(G.group_from_table(6, table)), fh)

    zn = rng.choice([2, 3, 4, 6])
    k2, k3, k4 = rng.randrange(2), rng.randrange(2), rng.randrange(1, 4)
    return [
        (["group", "show", "pauli", "--json"], ref.group_show("pauli")),
        (["group", "validate", name, "--json"],
         lambda record: _mismatch("validate", record, {"valid": True})),
        (["cohomology", "--group", f"z{zn}", "--degree", "3", "--json"],
         ref.cohomology(("cyclic", zn), 3, [zn])),
        (["dw", "torus", "--group", "s3", "--untwisted", "--dim", "2", "--json"],
         ref.value(3)),
        (["dw", "simples", "--group", "product z2 z2", "--cocycle",
          f"omega{k2}", "--json"], ref.value(gcd(k2, 2) ** 2)),
        (["dw", "double", "--group", "s3", "--untwisted", "--json"], ref.value(8)),
        (["dw", "states", "--group", "z2", "--cocycle", f"omega{k3}",
          "--dim", "3", "--json"], ref.value(4)),
        (["anomaly", "--extension", "ext.json", "--cocycle", f"omega{k3}",
          "--json"], ref.anomaly_free()),
        (["transgress", "--group", "z4", "--cocycle", f"omega{k4}", "--json"],
         ref.transgress(4, k4)),
    ]


def _cli_job(runner, argv, expect):
    def run():
        return runner(argv)

    def check(out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        try:
            record = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {stdout[:80]!r}"
        return expect(record)

    return Job("dwkit " + " ".join(a for a in argv if "/" not in a),
               ["cli"] + [a for a in argv if "/" not in a], run, check)


def _as_json(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


class _CliReference:
    """Expected CLI records; in-process results are computed once, lazily,
    when a check first needs them (never inside a timed job)."""

    def __init__(self):
        self._memo = {}

    def _once(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def group_show(self, name):
        def expect(record):
            def build():
                g = G.builtin_group(name)
                return {"order": g.order, "center_order": center_order(g),
                        "conjugacy_classes": class_count(g), "valid": True}
            want = self._once(("show", name), build)
            got = {k: record.get(k) for k in want}
            return _mismatch("group show", got, want)
        return expect

    def cohomology(self, spec, n, factors):
        def expect(record):
            def build():
                h = C.cohomology(build_group(spec), n)
                return _as_json([dio.cochain_json(g) for g in h.generators])
            if record.get("factors") != factors:
                return _mismatch("factors", record.get("factors"), factors)
            gens = self._once(("coh", spec, n), build)
            return _mismatch("generators", record.get("generators"), gens)
        return expect

    @staticmethod
    def value(want):
        return lambda record: _mismatch("value", record.get("value"), str(want))

    @staticmethod
    def anomaly_free():
        def expect(record):
            got = (record.get("verdict"), record.get("theta_class"))
            return _mismatch("(verdict, theta_class)", got, ("anomaly_free", []))
        return expect

    def transgress(self, n, k):
        def expect(record):
            def build():
                omega = C.catalog_cocycle("cyclic_3cocycle", {"N": n, "k": k})
                return _as_json(dio.loop_cochain_json(I.transgress_torus(omega, 1)))
            if record.get("dpr_matches") is not True:
                return "dpr_matches is not true"
            return _mismatch("transgression", record.get("result"),
                             self._once(("tr", n, k), build))
        return expect
