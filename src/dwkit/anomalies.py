"""Group extensions, obstruction searches, and relative partition functions.

An extension 1 -> D -> Ghat -> G -> 1 encodes a G-symmetry of a
Dijkgraaf-Witten theory with gauge group D.  Gauging the symmetry requires
lifting the topological action omega on D to Ghat; the failure modes are
't Hooft anomalies.  The searches here are exact linear solves over Q/Z,
each decided by one integral elimination (Q/Z is injective); a search that
finds nothing returns None only after checking an integer certificate
y^T A = 0, y.b != 0 (mod den) against its rows as built:

* first obstruction: closed c_g on D and b_{g1,g2} with
  U(g1, g2) + c_{g1^-1} + alpha(g1)^* c_{g2^-1} - c_{(g1 g2)^-1}
  = delta b_{g1,g2}, i.e. d2 of omega vanishes in the LHS term
  E_2^{2,n-1} = H^2(G; H^{n-1}(D)), computed on normalized G-cochains
  (Brown, GTM 87, IV.3 and VII.6): over g1, g2 != 1, for Phi_1 = 0;
* closed lift: omegahat on Ghat with delta omegahat = 0, iota^* omegahat = omega;
* boundary pair: (omega' on Ghat, theta on G) with iota^* omega' = omega,
  delta omega' = lambda^* theta, delta theta = 0.

Each system's matrix depends only on the extension and the degree; omega
enters through the right-hand side alone.  So the elimination is shared
across every omega on one extension: solve_qz_checked's in-process memo,
keyed by (G, D, alpha, n) for the first obstruction, (Ghat, D, iota, n)
for lifts and (Ghat, G, D, iota, lambda, n) for pairs, makes it once and
replays it.  Each search hands its re-verification of a returned family,
lift or pair to solve_qz_checked as ``finish``: a hit first replays only
the row ops that reach the pivot rows, and the full replay runs only when
``finish`` rejects that candidate, so every returned answer is still
re-verified and every None still has its certificate checked.  A lift and
the c_g are checked closed on the solution vector before they are wrapped,
and the first obstruction reads its U(g1, g2) as numerator vectors, with
alpha(g)^* a table of positions kept on the extension.

Coboundary-type constraints are imposed only on tuples whose first entry is
a group generator; this is equivalent to the full system because the
residual cochain is closed (see the cochains module docstring).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from operator import neg

from .cochains import (
    Cochain,
    TupleIndex,
    all_tuples,
    check_cohomology_budget,
    closed_vector_cochain,
    coboundary_agrees,
    cochain_vector,
    cohomology,
    delta_matrix_rows,
    interval_pairing,
    is_cocycle,
    numerators_at,
    pullback,
    solve_coboundary,
    vector_cochain,
    vector_numerators_at,
)
from .errors import (
    DegreeMismatch,
    IncompatiblePhases,
    InvalidCocycle,
    NonCommuting,
    NotABoundaryPair,
    NotACocycle,
    NotGaugeInvariant,
    SectionNotValid,
    VerificationFailed,
)
from .groupoids import FinGroupoid, gauge_groupoid
from .groups import FiniteGroup, GroupHom, group_from_table, spanning_set
from .invariants import (
    flat_basis,
    monomial_defect,
    residue_average,
    torus_pairing,
    transgress_torus,
)
from .linalg import solve_qz_checked


# ---------------------------------------------------------------------------
# non-abelian 2-cocycles and extensions


class NonAbelianCocycle:
    """Extension data (alpha, sigma) for G acting on D.

    ``alpha[g]`` is an automorphism of D given as a permutation list;
    ``sigma[g1][g2]`` is an element of D.  The mixed associativity
    relations are checked completely, on D's spanning set where both sides
    are homomorphisms of D and on every triple of G otherwise.
    """

    __slots__ = ("group", "kernel", "alpha", "sigma")

    def __init__(self, group: FiniteGroup, kernel: FiniteGroup, alpha, sigma, check=True):
        self.group = group
        self.kernel = kernel
        self.alpha = tuple(tuple(a) for a in alpha)
        self.sigma = tuple(tuple(s) for s in sigma)
        if check:
            self._validate()

    def act(self, g, d):
        return self.alpha[g][d]

    def _validate(self):
        g_grp, d_grp = self.group, self.kernel
        if self.alpha[g_grp.identity] != tuple(d_grp.elements()):
            raise InvalidCocycle("alpha(1) must be the identity automorphism")
        if self.sigma[g_grp.identity][g_grp.identity] != d_grp.identity:
            raise InvalidCocycle("sigma(1,1) must be the identity")
        # Both sides of the next two relations are homomorphisms in the letter
        # from D, so D's spanning set decides them (see the groups module).
        span = spanning_set(d_grp.table, d_grp.identity, d_grp.elements())
        for g in g_grp.elements():
            a = self.alpha[g]
            if sorted(a) != list(d_grp.elements()):
                raise InvalidCocycle(f"alpha({g}) is not a bijection")

            def breaks(x, y):
                return a[d_grp.mul(x, y)] != d_grp.mul(a[x], a[y])
            if any(breaks(x, y) for y in span for x in d_grp.elements()):
                x, y = next(p for p in itertools.product(d_grp.elements(), repeat=2)
                            if breaks(*p))
                raise InvalidCocycle(f"alpha({g}) is not a homomorphism at ({x},{y})")
        for g1 in g_grp.elements():
            for g2 in g_grp.elements():
                s = self.sigma[g1][g2]
                si, a1, a2 = d_grp.inverses[s], self.alpha[g1], self.alpha[g2]
                a12 = self.alpha[g_grp.mul(g1, g2)]

                def fails(d):
                    return a12[d] != d_grp.word([si, a1[a2[d]], s])
                if any(map(fails, span)):
                    d = next(filter(fails, d_grp.elements()))
                    raise InvalidCocycle(
                        f"twisted-homomorphism relation fails at g1={g1}, g2={g2}, d={d}")
        for g1 in g_grp.elements():
            for g2 in g_grp.elements():
                for g3 in g_grp.elements():
                    lhs = d_grp.mul(
                        self.sigma[g1][g2], self.sigma[g_grp.mul(g1, g2)][g3]
                    )
                    rhs = d_grp.mul(
                        self.alpha[g1][self.sigma[g2][g3]],
                        self.sigma[g1][g_grp.mul(g2, g3)],
                    )
                    if lhs != rhs:
                        raise InvalidCocycle(
                            f"cocycle relation fails at ({g1},{g2},{g3})"
                        )


@dataclass(frozen=True)
class Extension:
    """A short exact sequence 1 -> D -> Ghat -> G -> 1 with a set section."""

    kernel: FiniteGroup
    total: FiniteGroup
    quotient: FiniteGroup
    iota: GroupHom
    lam: GroupHom
    section: tuple

    def __post_init__(self):
        d_grp, ghat, g_grp = self.kernel, self.total, self.quotient
        if (self.iota.source, self.iota.target, self.lam.source,
                self.lam.target) != (d_grp, ghat, ghat, g_grp):
            raise SectionNotValid("iota must map D to Ghat, lambda Ghat to G")
        if not self.iota.is_injective():
            raise SectionNotValid("iota must be injective")
        if not self.lam.is_surjective():
            raise SectionNotValid("lambda must be surjective")
        if set(self.iota.image()) != set(self.lam.kernel()):
            raise SectionNotValid("image(iota) must equal kernel(lambda)")
        if len(self.section) != g_grp.order:
            raise SectionNotValid("section must be defined on all of G")
        if not all(0 <= x < ghat.order for x in self.section):
            raise SectionNotValid("section must take values in Ghat")
        if self.section[g_grp.identity] != ghat.identity:
            raise SectionNotValid("section must be normalized: s(1) = 1")
        for g in g_grp.elements():
            if self.lam(self.section[g]) != g:
                raise SectionNotValid(f"lambda(s({g})) != {g}")
        object.__setattr__(self, "_preimage",
                           {x: d for d, x in enumerate(self.iota.map)})
        object.__setattr__(self, "_actions", {})
        object.__setattr__(self, "_acted", {})

    def iota_inverse(self, x):
        d = self._preimage.get(x)
        if d is None:
            raise SectionNotValid(f"{x} is not in the image of iota")
        return d

    def action(self, g) -> GroupHom:
        """The automorphism alpha(g) of D: conjugation by s(g) in Ghat,
        built on first use and kept."""
        if g not in self._actions:
            ghat, s = self.total, self.section[g]
            self._actions[g] = GroupHom(self.kernel, self.kernel, [
                self.iota_inverse(ghat.conjugate(s, self.iota(d)))
                for d in self.kernel.elements()], check=False)
        return self._actions[g]

    def acted_positions(self, g, n):
        """alpha(g) on the n-tuples of D, as the position in
        TupleIndex(D, n) of each tuple's image, in the order of ``all()``;
        built on first use and kept beside alpha(g)."""
        if (g, n) not in self._acted:
            index, a = TupleIndex.of(self.kernel, n), self.action(g)
            pos = index.positions
            self._acted[g, n] = [pos[tuple(map(a, t))] for t in index.all()]
        return self._acted[g, n]


def find_section(lam: GroupHom):
    """Deterministic normalized set-section of a surjection (first found)."""
    ghat, g_grp = lam.source, lam.target
    section = [None] * g_grp.order
    section[g_grp.identity] = ghat.identity
    for x in ghat.elements():
        g = lam(x)
        if section[g] is None:
            section[g] = x
    return tuple(section)


def extension_from_cocycle(nc: NonAbelianCocycle) -> Extension:
    """Build the extension D x G with twisted multiplication.

    Elements are pairs (g, d) indexed as g*|D| + d, multiplying by
    (g2, d2)(g1, d1) = (g2 g1, d2 * alpha(g2)[d1] * sigma(g2, g1)).
    """
    g_grp, d_grp = nc.group, nc.kernel
    order = g_grp.order * d_grp.order
    dn = d_grp.order

    def idx(g, d):
        return g * dn + d

    table = [[0] * order for _ in range(order)]
    for g2 in g_grp.elements():
        for d2 in d_grp.elements():
            for g1 in g_grp.elements():
                for d1 in d_grp.elements():
                    g = g_grp.mul(g2, g1)
                    d = d_grp.word([d2, nc.alpha[g2][d1], nc.sigma[g2][g1]])
                    table[idx(g2, d2)][idx(g1, d1)] = idx(g, d)
    ghat = group_from_table(order, table, label="extension")
    iota = GroupHom(d_grp, ghat, [idx(g_grp.identity, d) for d in d_grp.elements()])
    lam = GroupHom(ghat, g_grp, [x // dn for x in range(order)])
    section = tuple(idx(g, d_grp.identity) for g in g_grp.elements())
    return Extension(d_grp, ghat, g_grp, iota, lam, section)


def cocycle_from_extension(ext: Extension) -> NonAbelianCocycle:
    """Read off (alpha, sigma) from an extension and its section."""
    g_grp, d_grp = ext.quotient, ext.kernel
    alpha = [ext.action(g).map for g in g_grp.elements()]
    s = _ext_sigma(ext)
    sigma = [[s(g1, g2) for g2 in g_grp.elements()] for g1 in g_grp.elements()]
    return NonAbelianCocycle(g_grp, d_grp, alpha, sigma)


# ---------------------------------------------------------------------------
# obstruction searches


def is_invariant_class(ext: Extension, omega: Cochain):
    """Check [omega] is fixed by the G-action; return (verdict, witnesses).

    The witnesses are cochains Phi'_g with
    delta Phi'_g = omega - alpha(g^{-1})^* omega.
    """
    if not is_cocycle(omega):
        raise NotACocycle("invariance is a statement about cocycles")
    g_grp = ext.quotient
    phis = {}
    for g in g_grp.elements():
        ginv = g_grp.inverses[g]
        target = omega - pullback(ext.action(ginv), omega)
        phi = solve_coboundary(target)
        if phi is None:
            return False, None
        phis[g] = phi
    return True, phis


def _ext_sigma(ext):
    """sigma(a, b) = iota^{-1}(s(a) s(b) s(ab)^{-1}), memoized."""
    g_grp, ghat = ext.quotient, ext.total
    cache = {}

    def sigma(a, b):
        key = (a, b)
        if key not in cache:
            x = ghat.word(
                [
                    ext.section[a],
                    ext.section[b],
                    ghat.inverses[ext.section[g_grp.mul(a, b)]],
                ]
            )
            cache[key] = ext.iota_inverse(x)
        return cache[key]

    return sigma


def is_first_obstruction_trivial(ext: Extension, omega: Cochain, phis):
    """Decide whether the obstruction class [U] in H^2(G; H^{n-1}(D)) is
    trivial; on success return (True, corrected Phi family), else
    (False, None).

    With U(g1, g2) the closed obstruction cochains of the family, [U]
    vanishes iff closed c_g (g != 1) and b_{g1,g2} exist with
    U + c_{g1^-1} + alpha(g1)^* c_{g2^-1} - c_{(g1 g2)^-1} = delta b_{g1,g2}:
    one Q/Z system on generator-led tuples of D (see the module docstring),
    over g1, g2 != 1 only.  On normalized cochains (Brown, GTM 87, IV.3 and
    VII.6) s(1) = 1 gives alpha(1) = id and sigma(1, g) = sigma(g, 1) = e,
    whose slant is 0; so for a family with Phi_1 = 0, U(1, g) = U(g, 1) = 0
    and their rows (the c-terms cancel) read only their own b-blocks.  One
    slant is built per distinct sigma value.  Each U is a numerator vector
    (alpha(g)^* a table of positions), checked closed; each c_g is checked
    closed on its solution vector; each U of the returned Phi_g + c_g, read
    off those cochains, must be closed and equal delta b, for b the
    solution's vector.  Raises DegreeMismatch if deg omega < 2,
    IncompatiblePhases if Phi_1 != 0.
    """
    if omega.degree < 2:
        raise DegreeMismatch(
            f"the first obstruction needs deg omega >= 2, got {omega.degree}")
    g_grp, d_grp = ext.quotient, ext.kernel
    if not phis[g_grp.identity].is_zero():
        raise IncompatiblePhases("the Phi family must be normalized: Phi_1 = 0")
    n, inv, mul = omega.degree, g_grp.inverses, g_grp.mul
    sigma = _ext_sigma(ext)
    pairs = list(itertools.product(g_grp.nonidentity(), repeat=2))
    sigmas = [sigma(inv[g1], inv[g2]) for g1, g2 in pairs]
    ident = GroupHom.identity(d_grp)
    slants = {s: interval_pairing(omega, s, ident) for s in set(sigmas)}

    # columns: c_g for g != 1 in blocks of idx_c, then b_{g1,g2} per pair
    gens = d_grp.generators()
    idx_c, idx_b = TupleIndex.of(d_grp, n - 1), TupleIndex.of(d_grp, n - 2)
    block = {g: k * idx_c.size for k, g in enumerate(g_grp.nonidentity())}
    off_b = len(block) * idx_c.size
    lead = list(idx_b.rows(gens))
    pos_c = idx_c.positions
    acted = {g: ext.acted_positions(g, n - 1) for g in block}

    def obstructions(family, base):
        """Each U of the family as a vector on idx_c, and their modulus."""
        m = lcm(base, omega.modulus, *(c.modulus for c in family.values()))
        vec, sl = ({k: cochain_vector(c, idx_c, scale_to=m)
                    for k, c in cs.items()} for cs in (family, slants))
        return [[(a + b - c + d) % m for a, b, c, d in zip(
            vec[inv[g1]], map(vec[inv[g2]].__getitem__, acted[g1]),
            vec[inv[mul(g1, g2)]], sl[s])]
            for (g1, g2), s in zip(pairs, sigmas)], m

    def closed(u, m):
        return not any(map(m.__rmod__, idx_c.lead_delta(u)))

    us, m_u = obstructions(phis, 1)
    if not all(closed(u, m_u) for u in us):
        raise NotACocycle("obstruction cochain must be closed")

    def build():
        crows = delta_matrix_rows(idx_c, gens)
        rows = [{block[g] + c: v for c, v in row.items()}
                for g in block for row in crows]
        brows = delta_matrix_rows(idx_b, gens)
        for p, (g1, g2) in enumerate(pairs):
            for t, brow in zip(lead, brows):
                row = {off_b + p * idx_b.size + c: -v for c, v in brow.items()}
                i = pos_c[t]
                for g, sign, at in ((inv[g1], 1, i), (inv[g2], 1, acted[g1][i]),
                                    (inv[mul(g1, g2)], -1, i)):
                    if g in block:
                        row[block[g] + at] = row.get(block[g] + at, 0) + sign
                rows.append(row)
        return rows, off_b + len(pairs) * idx_b.size

    den = m_u // gcd(m_u, *itertools.chain.from_iterable(us))
    rhs = [0] * (len(block) * idx_c.row_count(gens))
    for u in us:
        rhs += map(neg, vector_numerators_at(idx_c, u, m_u, lead, den))

    def finish(sol):
        x, m = sol
        corrected = dict(phis)
        for g, off in block.items():
            corrected[g] = phis[g] + closed_vector_cochain(
                idx_c, x[off:off + idx_c.size], m, d_grp)
        us, m_u = obstructions(corrected, m)
        for p, u in enumerate(us):
            off = off_b + p * idx_b.size
            db = idx_b.lead_delta(x[off:off + idx_b.size])
            if not closed(u, m_u) or any((m_u // m * v - u[pos_c[t]]) % m_u
                                         for v, t in zip(db, lead)):
                raise VerificationFailed("corrected obstruction must be delta b")
        return corrected

    key = ("first_obstruction", g_grp, d_grp,
           tuple(ext.action(g).map for g in g_grp.elements()), n)
    corrected = solve_qz_checked(key, build, rhs, den, finish)
    return corrected is not None, corrected


def _restriction_rows(ext, n, index):
    """The rows of iota^* x on ``index``, x of degree n."""
    pos = index.positions
    return [{pos[tuple(map(ext.iota, t))]: 1}
            for t in all_tuples(ext.kernel, n)]


def _restriction_rhs(ext, omega):
    """omega on the rows of _restriction_rows, over its denominator."""
    return numerators_at(omega, all_tuples(ext.kernel, omega.degree),
                         omega.denominator())


def find_closed_lift(ext: Extension, omega: Cochain):
    """A closed cocycle omegahat on Ghat restricting to omega, or None.

    The linear system over Q/Z imposes delta omegahat = 0 on tuples whose
    first entry generates Ghat (equivalent to full closedness) plus the
    restriction values; the result is re-verified directly.  The system
    depends only on (Ghat, D, iota, n), so its elimination is shared by
    every omega through solve_qz_checked's memo.
    """
    if not is_cocycle(omega):
        raise NotACocycle("lifting is a statement about cocycles")
    ghat, n = ext.total, omega.degree
    gens = ghat.generators()
    index = TupleIndex.of(ghat, n)

    def build():
        rows = delta_matrix_rows(index, gens)
        return rows + _restriction_rows(ext, n, index), index.size

    def finish(sol):
        omegahat = closed_vector_cochain(index, *sol, ghat)
        if pullback(ext.iota, omegahat) != omega:
            raise VerificationFailed("solver output must restrict")
        return omegahat

    rhs = [0] * index.row_count(gens) + _restriction_rhs(ext, omega)
    key = ("closed_lift", ghat, ext.kernel, ext.iota.map, n)
    return solve_qz_checked(key, build, rhs, omega.denominator(), finish)


def _is_boundary_pair(ext, omega_p, theta):
    """Whether delta omega' = lambda^* theta with theta closed.

    lambda^* commutes with delta and is injective (lambda is onto), so the
    equation alone already forces theta closed.  Checking theta first makes
    delta omega' - lambda^* theta a cocycle, decided on generator-led rows.
    """
    return is_cocycle(theta) and coboundary_agrees(
        omega_p, pullback(ext.lam, theta)
    )


def find_boundary_pair(ext: Extension, omega: Cochain):
    """(omega' on Ghat, theta on G) with iota^* omega' = omega,
    delta omega' = lambda^* theta, delta theta = 0; or None.

    Solved as one coupled system over Q/Z, shared by every omega through
    solve_qz_checked's memo; the returned pair re-verifies bit-exactly.
    """
    if not is_cocycle(omega):
        raise NotACocycle("boundary pairs are for cocycles")
    n = omega.degree
    ghat, g_grp = ext.total, ext.quotient
    gens_hat, gens = ghat.generators(), g_grp.generators()
    idx_x = TupleIndex.of(ghat, n)
    idx_y = TupleIndex.of(g_grp, n + 1)
    off = idx_x.size

    def build():
        rows = _restriction_rows(ext, n, idx_x)
        # delta omega' - lambda^* theta = 0 on generator-led tuples of Ghat
        drows = delta_matrix_rows(idx_x, gens_hat)
        pos_y = idx_y.positions
        for t, row in zip(idx_x.rows(gens_hat), drows):
            lt = tuple(ext.lam(x) for x in t)
            if all(x != g_grp.identity for x in lt):
                row[off + pos_y[lt]] = -1
            rows.append(row)
        # delta theta = 0 on generator-led tuples of G
        trows = delta_matrix_rows(idx_y, gens)
        rows += [{off + c: v for c, v in row.items()} for row in trows]
        return rows, off + idx_y.size

    def finish(sol):
        x, m = sol
        omega_p = vector_cochain(idx_x, x[:off], m, ghat)
        theta = vector_cochain(idx_y, x[off:], m, g_grp)
        if pullback(ext.iota, omega_p) != omega:
            raise VerificationFailed("solver output must restrict to omega")
        if not _is_boundary_pair(ext, omega_p, theta):
            raise VerificationFailed("delta omega' must equal lambda^* theta")
        return omega_p, theta

    rhs = _restriction_rhs(ext, omega) + [0] * (
        idx_x.row_count(gens_hat) + idx_y.row_count(gens))
    key = ("boundary_pair", ghat, g_grp, ext.kernel, ext.iota.map,
           ext.lam.map, n)
    return solve_qz_checked(key, build, rhs, omega.denominator(), finish)


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the gauging-obstruction workflow for (extension, omega).

    ``theta_class`` classifies a bulk theta in H^{n+1}(G; U(1)); it is ()
    for anomaly_free (that group is not computed) and None before a lift.
    """

    invariant_class: bool
    first_obstruction_trivial: bool
    phi_witnesses: dict
    closed_lift: Cochain | None
    boundary_pair: tuple | None
    theta_class: tuple | None
    verdict: str


def anomaly_report(ext: Extension, omega: Cochain) -> ObstructionReport:
    """Run the obstruction checks in order, short-circuiting on failure.

    Verdicts: anomaly_free (closed lift exists),
    thooft_anomalous_with_bulk (boundary pair with nontrivial bulk theta),
    invariance_fails, first_obstruction_fails.  Past d2, H^{n+1}(G)'s
    budget is checked first, but that group is computed only for a bulk theta.
    """
    if omega.degree < 2:
        raise DegreeMismatch(
            f"anomaly_report needs deg omega >= 2, got {omega.degree}: the "
            "first obstruction lies in H^2(G; H^(n-1)(D; U(1))), which needs "
            "n - 1 >= 1"
        )
    inv, phis = is_invariant_class(ext, omega)
    if not inv:
        return ObstructionReport(False, False, {}, None, None, None,
                                 "invariance_fails")
    ok, corrected = is_first_obstruction_trivial(ext, omega, phis)
    if not ok:
        return ObstructionReport(True, False, phis, None, None, None,
                                 "first_obstruction_fails")
    check_cohomology_budget(ext.quotient, omega.degree + 1)
    lift = find_closed_lift(ext, omega)
    if lift is not None:
        zero_theta = Cochain.zero(ext.quotient, omega.degree + 1, 1)
        return ObstructionReport(True, True, corrected, lift,
                                 (lift, zero_theta), (), "anomaly_free")
    pair = find_boundary_pair(ext, omega)
    if pair is None:
        raise VerificationFailed(
            "first obstruction vanished but no boundary pair exists (a "
            "checked certificate proves it); the d3 stage is undecided"
        )
    h_bulk = cohomology(ext.quotient, omega.degree + 1)
    return ObstructionReport(True, True, corrected, None, pair,
                             h_bulk.classify(pair[1]),
                             "thooft_anomalous_with_bulk")


# ---------------------------------------------------------------------------
# relative partition function and projective state cocycle


def _verify_boundary_pair(ext, omega_p, theta):
    if not _is_boundary_pair(ext, omega_p, theta):
        raise NotABoundaryPair("delta omega' must equal lambda^* theta with theta closed")


def relative_partition_torus(ext: Extension, omega_p: Cochain, theta: Cochain, phi):
    """Relative (anomalous) partition function on the torus in sector phi.

    phi is a commuting tuple in G of length n = deg(omega').  The value is
    the groupoid integral over the homotopy fibre of lambda_* above phi,
    whose objects are the pairs (phihat, h) of a commuting n-tuple of Ghat
    and h in G with h lambda(phihat) h^{-1} = phi, and on which k in Ghat
    acts by (phihat, h) -> (k phihat k^{-1}, h lambda(k)^{-1}).  The
    integrand is the omega'-action of phihat minus the theta-cylinder term
    of h at lambda(phihat).  By orbit-stabilizer the integral, the sum of
    f / |Aut| over isomorphism classes, is (1/|Ghat|) times the sum of f
    over objects, so the value averages integer residues mod
    lcm(omega'.modulus, theta.modulus) (``residue_average``).  The
    integrand is checked gauge invariant on Ghat's generators: for each
    object and generator k, f(k . obj) = f(obj), or NotGaugeInvariant
    reports (obj, k . obj, k).  Verifies the boundary pair on every call;
    ``relative_partition_sectors`` verifies it once for every sector.
    """
    _verify_boundary_pair(ext, omega_p, theta)
    n = omega_p.degree
    g_grp = ext.quotient
    if len(phi) != n:
        raise DegreeMismatch(
            f"sector must be a commuting {n}-tuple (n = deg omega'), got "
            f"length {len(phi)}")
    for a in phi:
        for b in phi:
            if not g_grp.commute(a, b):
                raise NonCommuting(a, b)
    phi = tuple(phi)
    return _relative_sectors(ext, omega_p, theta, [phi])[phi]


def relative_partition_sectors(ext: Extension, omega_p: Cochain, theta: Cochain):
    """{phi: relative_partition_torus(ext, omega', theta, phi)} over every
    commuting n-tuple phi of G (n = deg omega'), the boundary pair verified
    once."""
    _verify_boundary_pair(ext, omega_p, theta)
    sectors = gauge_groupoid(ext.quotient, omega_p.degree).objects()
    return _relative_sectors(ext, omega_p, theta, sectors)


def _lifts(ext, n):
    """The commuting n-tuples of Ghat bucketed by their image under lambda."""
    image, lifts = ext.lam.map.__getitem__, {}
    for t in gauge_groupoid(ext.total, n).objects():
        lifts.setdefault(tuple(map(image, t)), []).append(t)
    return lifts


def _relative_sectors(ext, omega_p, theta, sectors):
    """{phi: TorusPartition} for each of ``sectors``, reading the fibre
    objects (phihat, h) with lambda(phihat) = h^{-1} phi h from one
    bucketing of the lifts (see ``relative_partition_torus``)."""
    g_grp, ghat = ext.quotient, ext.total
    lifts = _lifts(ext, omega_p.degree)
    ident = GroupHom.identity(g_grp)
    m = lcm(omega_p.modulus, theta.modulus)
    top = omega_p.numerators(m)
    cylinders = {}  # h != 1 -> numerators of the theta-cylinder of h
    # per generator k: conjugation by k on Ghat, and lambda(k)^{-1}
    gens = [(k, [ghat.conjugate(k, a) for a in ghat.elements()],
             g_grp.inverses[ext.lam(k)]) for k in ghat.generators()]
    out = {}
    for phi in sectors:
        values = {}
        for h in g_grp.elements():
            down = tuple(g_grp.conjugate(g_grp.inverses[h], a) for a in phi)
            for phihat in lifts.get(down, ()):
                x = torus_pairing(top, phihat)
                if h != g_grp.identity:
                    if h not in cylinders:
                        cylinders[h] = interval_pairing(theta, h, ident).numerators(m)
                    x -= torus_pairing(cylinders[h], down)
                values[phihat, h] = x % m
        for obj, x in values.items():
            phihat, h = obj
            for k, conj, back in gens:
                moved = (tuple(map(conj.__getitem__, phihat)), g_grp.mul(h, back))
                if values[moved] != x:
                    raise NotGaugeInvariant((obj, moved, k))
        out[phi] = residue_average(Counter(values.values()), m, ghat.order)
    return out


def projective_state_cocycle(ext: Extension, omega_p: Cochain, theta: Cochain, k=None):
    """Defect 2-cocycle of the symmetry action on torus state spaces.

    Builds, sector by sector, the projective action of G on the relative
    state spaces on T^k (k = deg(theta) - 2) and extracts its scalar
    composition defect as a 2-cocycle on the gauge groupoid of G; returns
    (defect, transgressed theta, same_class) where same_class is decided by
    solving for a groupoid coboundary between the two.
    """
    _verify_boundary_pair(ext, omega_p, theta)
    if k is None:
        k = theta.degree - 2
    if k != theta.degree - 2:
        raise DegreeMismatch("torus dimension must be deg(theta) - 2")
    if k < 1:
        raise NotABoundaryPair("need deg(theta) >= 3")
    g_grp, ghat, d_grp = ext.quotient, ext.total, ext.kernel
    modulus = lcm(omega_p.modulus, theta.modulus)

    # k-fold transgression of omega' on Ghat; omega' is generally not
    # closed (delta omega' = lambda* theta), so skip the closure check --
    # the result is used only as a transport datum along kernel morphisms.
    bundle = transgress_torus(omega_p, k, check=False).numerators(modulus)

    sectors = gauge_groupoid(g_grp, k).objects()
    lifts = _lifts(ext, k)

    def conj_kernel(d, t):
        return tuple(ghat.conjugate(ext.iota(d), x) for x in t)

    def kernel_phase(t, d):
        return bundle.get(t + (ext.iota(d),), 0)

    # per sector: the kernel's action groupoid on the lifts, and the
    # positions of the orbits whose stabilizer character is trivial
    bases = {}
    for phi in sectors:
        fibre = FinGroupoid(d_grp, lifts.get(phi, ()), conj_kernel)
        basis = flat_basis(fibre, kernel_phase)
        bases[phi] = ({rep: i for i, rep in enumerate(basis)}, fibre)

    def operator(phi, g):
        """Monomial operator from sector g^{-1} phi g to sector phi."""
        src_phi = tuple(g_grp.conjugate(g_grp.inverses[g], x) for x in phi)
        src_basis, _ = bases[src_phi]
        dst_basis, dst_fibre = bases[phi]
        s = ext.section[g]
        mat = {}
        for rep, i in src_basis.items():
            moved = tuple(ghat.conjugate(s, x) for x in rep)
            phase = bundle.get(rep + (ghat.inverses[s],), 0)
            target_rep, d = dst_fibre.transporter(moved)
            j = dst_basis.get(target_rep)
            if j is None:
                raise IncompatiblePhases("symmetry does not preserve the basis")
            # moved = iota(d) target_rep iota(d)^{-1}: transport from moved
            # to target_rep along iota(d), continuing the path rep -> moved
            mat[(j, i)] = (phase + kernel_phase(moved, d)) % modulus
        return mat

    vals = {}
    for phi in sectors:
        for g1 in g_grp.nonidentity():
            for g2 in g_grp.nonidentity():
                mid = tuple(g_grp.conjugate(g_grp.inverses[g1], x) for x in phi)
                per_row = monomial_defect(
                    operator(phi, g1),
                    operator(mid, g2),
                    operator(phi, g_grp.mul(g1, g2)),
                    modulus.__rmod__,
                )
                if per_row is None:
                    raise VerificationFailed("monomial supports must agree")
                diffs = set(per_row.values())
                if len(diffs) > 1:
                    raise VerificationFailed("composition defect must be scalar")
                if diffs:
                    vals[phi + (g1, g2)] = diffs.pop()
    defect = Cochain._from_numerators(g_grp, 2, modulus, vals.items(), loops=k)
    trans = transgress_torus(theta, k)
    same = solve_coboundary(defect - trans) is not None
    return defect, trans, same
