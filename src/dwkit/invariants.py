"""Dijkgraaf-Witten invariants on tori.

Partition functions as exact sums of roots of unity, twisted-representation
and Drinfeld-double simple-object counts, circle transgression to the loop
groupoid, torus state spaces as parallel sections, and the induced symmetry
action on states.

No floating point: sums of phases are carried as integer vectors indexed by
residues mod M (elements of the group ring Z[Z_M]) and collapsed by exact
reduction modulo the M-th cyclotomic polynomial.

The torus sums and circle transgression read the cocycle's integer
numerators at its modulus M in place (``Cochain.numerators`` would copy
them): terms are added as ints, a PhaseValue is built only for each
distinct residue of a sum, and a transgressed cochain is built from its
numerators and kept on the cocycle.  Both gather those numerators
through integer tables that depend only on the group, degree and loops,
kept on the memoized ``TupleIndex.of`` of that key (``torus_columns``,
``transgression``), and sum them with the signed gather of the coboundary
checks.  A single torus value, as the symmetry action and the relative
partition function need it, is ``torus_pairing``: the same signed
permutation sum at one tuple.  Every torus sum ends in
``residue_average``, the average of its counted residues as an
``ExactPhaseSum``; the DW sums check that it is a nonnegative integer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, lcm

from .cochains import (
    Cochain,
    TupleIndex,
    _apply_faces,
    _check_group_cochain,
    _signed_permutations,
    coboundary_agrees,
    is_cocycle,
    pullback,
)
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    IncompatiblePhases,
    NotACocycle,
    VerificationFailed,
)
from .groupoids import gauge_groupoid
from .groups import FiniteGroup
from .phase import PhaseValue

# torus-cycle terms (commuting tuples times n!) one torus table may index
TORUS_TERM_BUDGET = 10**7


# ---------------------------------------------------------------------------
# exact sums of phases


@dataclass(frozen=True)
class ExactPhaseSum:
    """Sum of rational multiples of M-th roots of unity.

    ``counts[r]`` is the coefficient of exp(2*pi*i*r/M).  Rationality and
    integrality are decided exactly by reduction mod the cyclotomic
    polynomial.
    """

    counts: tuple
    modulus: int

    @staticmethod
    def from_weights(weights):
        """The sum of w * p over a {PhaseValue p: weight w} mapping, at the
        lcm of the phases' orders."""
        reduced = [(p.reduced(), w) for p, w in weights.items()]
        m = lcm(*(p.modulus for p, _w in reduced))
        counts = [0] * m
        for p, w in reduced:
            counts[p.numerator * (m // p.modulus)] += w
        return ExactPhaseSum(tuple(counts), m)

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        counts = [Fraction(c) for c in self.counts]
        den = lcm(*(c.denominator for c in counts))
        # the remainder mod the monic Phi_M holds the coordinates in the
        # basis 1, z, ..., z^(deg Phi_M - 1) of Q(z): rational iff constant
        _q, rem = _divide_monic([int(c * den) for c in counts],
                                _cyclotomic(self.modulus))
        if any(rem[1:]):
            return None
        return Fraction(rem[0], den)


def _divide_monic(num, den):
    """Long division of integer polynomials (constant term first) by a
    monic ``den``; returns (quotient, remainder)."""
    num = list(num)
    deg = len(den) - 1
    quot = [0] * (len(num) - deg)
    for top in range(len(num) - 1, deg - 1, -1):
        q = num[top]
        if q:
            quot[top - deg] = q
            for i, a in enumerate(den):
                num[top - deg + i] -= q * a
    return quot, num[:deg]


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Exact division of x^m - 1 by Phi_d for every proper divisor d of m.
    """
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, _r = _divide_monic(poly, _cyclotomic(d))
    return tuple(poly)


# ---------------------------------------------------------------------------
# torus partition functions and counts


@dataclass(frozen=True)
class TorusPartition:
    """Exact torus partition value together with its phase-sum form."""

    value: Fraction
    phase_sum: ExactPhaseSum

    def __eq__(self, other):
        if isinstance(other, TorusPartition):
            return self.value == other.value
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    def __int__(self):
        if self.value.denominator != 1:
            raise ValueError("partition value is not an integer")
        return int(self.value)


def torus_pairing(nums, elems):
    """<c, [T^n]> at the commuting holonomies ``elems``, as an integer over
    the modulus at which ``nums`` holds c's numerators
    (``Cochain.numerators``).

    The fundamental cycle of the n-torus is the n-fold shuffle product of
    the 1-cycles (g_i): the sum over permutations s of sign(s) elems o s.
    """
    get = nums.get
    return sum(sign * get(tuple(map(elems.__getitem__, perm)), 0)
               for sign, perm in _signed_permutations(len(elems)))


def _torus_residues(theta):
    """Counter {r: how many commuting n-tuples t (n = deg theta) have
    <theta, [T^n_t]> = r / theta.modulus}.

    The torus cycle of t is the sum over permutations s of sign(s) t o s,
    as in ``torus_pairing``, and t o s is again a commuting tuple.  A call
    reads theta's numerators once per tuple of ``gauge_groupoid(G, n)`` and
    sums them gathered at each t o s, with signs, through the torus table
    ``TupleIndex.of(G, 0, n).torus_columns``.  The budget on tuples times
    n! is checked before the index is looked up or built.  A theta that
    vanishes on every commuting tuple reads no table, and theta = 0
    (untwisted) not its numerators either: each t o s is a commuting
    tuple, so every pairing is 0 and the sum is |Hom(Z^n, G)| phases 1.
    """
    group, n, m = theta.group, theta.degree, theta.modulus
    tuples = gauge_groupoid(group, n).objects()
    terms = len(tuples) * factorial(n)
    if terms > TORUS_TERM_BUDGET:
        raise BudgetExceeded(f"torus cycle terms for T^{n}", terms,
                             TORUS_TERM_BUDGET)
    if theta.is_zero():
        return Counter({0: len(tuples)})
    nums = list(map(theta._nums.get, tuples, repeat(0)))
    if not any(nums):
        return Counter({0: len(tuples)})
    signs, cols = TupleIndex.of(group, 0, n).torus_columns
    return Counter(map(m.__rmod__, _apply_faces(cols, nums, signs)))


def residue_average(residues, modulus, order):
    """(1/order) * the sum of the phases r/modulus counted by the Counter
    ``residues``, as a TorusPartition whose value is None if irrational.
    A sum of phases 1 alone, {0: c}, is c/order without a reduction."""
    if residues.keys() == {0}:
        value = Fraction(residues[0], order)
        return TorusPartition(value, ExactPhaseSum((value,), 1))
    total = ExactPhaseSum.from_weights({
        PhaseValue(r, modulus): Fraction(c, order)
        for r, c in residues.items()
    })
    return TorusPartition(total.as_rational(), total)


def _phase_average(group, residues, modulus, what):
    """``residue_average`` over |G|, checked to be a nonnegative integer."""
    z = residue_average(residues, modulus, group.order)
    if z.value is None or z.value < 0 or z.value.denominator != 1:
        raise VerificationFailed(f"{what} must be a nonnegative integer")
    return z


def dw_partition_torus(group: FiniteGroup, theta: Cochain, n: int) -> TorusPartition:
    """(1/|G|) * sum over commuting n-tuples of the evaluated action phase.

    For a cocycle theta this is a nonnegative integer (the number of simple
    objects of the associated category); integrality is checked exactly,
    never rounded.
    """
    _check_group_cochain(theta, group)
    if theta.degree != n:
        raise DegreeMismatch(f"need degree {n}, got {theta.degree}")
    if n < 1:
        raise DegreeMismatch("torus dimension must be >= 1")
    if not is_cocycle(theta):
        raise NotACocycle("dw_partition_torus needs a cocycle")
    return _partition_torus(group, theta)


def _partition_torus(group, theta):
    """dw_partition_torus without the input checks."""
    return _phase_average(group, _torus_residues(theta), theta.modulus,
                          "partition sum of a cocycle")


def twisted_irrep_count(group: FiniteGroup, omega: Cochain) -> int:
    """Number of irreducible omega-twisted representations of G.

    Computed as (1/|G|) * sum over commuting pairs of
    omega(h,g) - omega(g,h); swapping the pair shows this is the 2-torus
    sum of omega.
    """
    _check_group_cochain(omega, group)
    if omega.degree != 2:
        raise DegreeMismatch("twisted representations need a 2-cocycle")
    if not is_cocycle(omega):
        raise NotACocycle("twisted_irrep_count needs a cocycle")
    return int(_phase_average(group, _torus_residues(omega), omega.modulus,
                              "twisted representation count"))


def omega_regular_class_count(group: FiniteGroup, omega: Cochain) -> int:
    """Count conjugacy classes whose elements are omega-regular.

    g is omega-regular when omega(g,h) = omega(h,g) for every h in the
    centralizer of g; this is the classical oracle for the number of
    twisted irreducibles.
    """
    _check_group_cochain(omega, group)
    if omega.degree != 2:
        raise DegreeMismatch("regularity is defined for 2-cochains")
    get = omega._nums.get
    count = 0
    for cls in group.conjugacy_classes():
        g = cls[0]
        if all(
            get((g, h), 0) == get((h, g), 0)
            for h in group.centralizer([g])
        ):
            count += 1
    return count


def drinfeld_double_simple_count(group: FiniteGroup, theta: Cochain) -> int:
    """Number of simple modules of the theta-twisted Drinfeld double."""
    if theta.degree != 3:
        raise DegreeMismatch("the twisted double needs a 3-cocycle")
    return int(dw_partition_torus(group, theta, 3))


# ---------------------------------------------------------------------------
# transgression and the loop groupoid


def transgress_circle(theta: Cochain, check=True) -> Cochain:
    """Transgress once around a circle.

    A degree-k cochain on the m-fold loop groupoid (m = 0: a group cochain)
    becomes a degree k-1 cochain on the (m+1)-fold one.  For cocycle input
    the output is a cocycle.  Pass ``check=False`` to apply the formula to
    a non-closed cochain (the output is then just a transport datum, not a
    cocycle).

    Row base + args (base in ``gauge_groupoid(G, m + 1)``, args nonidentity)
    gets the alternating sum of theta on its k faces
    phi + args[:i] + (carried,) + args[i:], read through the table of
    (G, k, m), ``TupleIndex.of(G, k, m).transgression``: a call reads
    theta's numerators once per distinct face and gathers them.  The
    result is kept on theta for as long as theta is alive, and every later
    call returns it, after the closedness check when ``check`` is set.
    """
    if check and not is_cocycle(theta):
        raise NotACocycle("transgression needs a cocycle")
    degree = theta.degree
    if degree < 1:
        raise DegreeMismatch("transgression needs degree >= 1")
    if theta._transgressed is None:
        g, m, loops = theta.group, theta.modulus, theta.loops
        faces, cols, rows = TupleIndex.of(g, degree, loops).transgression
        nums = list(map(theta._nums.get, faces, repeat(0)))
        object.__setattr__(theta, "_transgressed", Cochain._from_numerators(
            g, degree - 1, m, zip(rows, _apply_faces(cols, nums)), loops + 1))
    return theta._transgressed


def transgress_torus(theta: Cochain, times=None, check=True) -> Cochain:
    """Iterate circle transgression ``times`` times, 1 <= times <= deg theta
    (default: down to degree 0).  Each level keeps the next on itself
    (``transgress_circle``), so theta holds the whole chain while alive."""
    times = theta.degree if times is None else times
    if not 1 <= times <= theta.degree:
        raise DegreeMismatch(
            f"can transgress a degree-{theta.degree} cochain 1 to "
            f"{theta.degree} times, not {times}"
        )
    if check and not is_cocycle(theta):
        raise NotACocycle("transgression needs a cocycle")
    out = theta
    for _ in range(times):
        out = transgress_circle(out, check=False)
    return out


def dpr_double_cocycle(theta: Cochain) -> Cochain:
    """The twisted-double 2-cocycle of a 3-cocycle, computed directly.

    beta_g(x, y) = theta(g,x,y) - theta(x, x^{-1}gx, y)
                 + theta(x, y, (xy)^{-1}g(xy)), a 2-cochain on the loop
    groupoid; serves as an independent cross-check for transgress_circle.
    """
    _check_group_cochain(theta)
    if theta.degree != 3:
        raise DegreeMismatch("the double cocycle needs a 3-cocycle")
    if not is_cocycle(theta):
        raise NotACocycle("the double cocycle needs a 3-cocycle")
    g_grp = theta.group
    get = theta._nums.get
    vals = []
    for g in g_grp.elements():
        for x in g_grp.nonidentity():
            gx = g_grp.conjugate(g_grp.inverses[x], g)
            for y in g_grp.nonidentity():
                xy = g_grp.mul(x, y)
                gxy = g_grp.conjugate(g_grp.inverses[xy], g)
                acc = (
                    get((g, x, y), 0)
                    - get((x, gx, y), 0)
                    + get((x, y, gxy), 0)
                )
                vals.append(((g, x, y), acc))
    return Cochain._from_numerators(g_grp, 2, theta.modulus, vals, loops=1)


def matches_dpr(theta: Cochain) -> bool:
    """Whether circle transgression equals the direct double cocycle.

    The comparison is elementwise on the loop groupoid.
    """
    return transgress_circle(theta) == dpr_double_cocycle(theta)


# ---------------------------------------------------------------------------
# state spaces


def flat_basis(groupoid, phase):
    """The orbit representatives x, in orbit order, at which the integer
    numerator ``phase(x, k)`` is 0 for every automorphism k: the orbits
    with a nonzero parallel section.  ``phase(x, -)`` must be a character
    of Aut(x) into Z/M, so it is read on ``groupoid.aut_generators(x)``
    only.  A flat line bundle's holonomy is one, and so is the transport
    of omega' along kernel elements in ``projective_state_cocycle``:
    delta omega' = lambda* theta vanishes on kernel tuples.
    """
    return [
        cls[0]
        for cls in groupoid.isomorphism_classes()
        if not any(phase(cls[0], k) for k in groupoid.aut_generators(cls[0]))
    ]


@dataclass(frozen=True)
class StateSpace:
    """Torus state space of a Dijkgraaf-Witten theory: parallel sections.

    ``basis`` lists representatives of the conjugation orbits of commuting
    torus_dim-tuples whose stabilizer character (the restriction of the
    transgression line bundle to the automorphism group) is trivial.
    """

    group: FiniteGroup
    cocycle: Cochain
    torus_dim: int
    basis: tuple
    line_bundle: Cochain

    @property
    def dimension(self):
        return len(self.basis)


def state_space_torus(group: FiniteGroup, theta: Cochain) -> StateSpace:
    """State space on the (n-1)-torus for a degree-n cocycle."""
    n = theta.degree
    if n < 2:
        raise DegreeMismatch("state spaces need degree >= 2")
    _check_group_cochain(theta, group)
    if not is_cocycle(theta):
        raise NotACocycle("state_space_torus needs a cocycle")
    k = n - 1
    bundle = transgress_torus(theta, n - 1, check=False)
    get = bundle._nums.get
    basis = flat_basis(gauge_groupoid(group, k), lambda x, y: get(x + (y,), 0))
    dim = _partition_torus(group, theta).value
    if dim != len(basis):
        raise VerificationFailed(
            "section count must match the partition function"
        )
    return StateSpace(group, theta, k, tuple(basis), bundle)


def monomial_defect(a, b, ab, reduce=PhaseValue.reduced):
    """Per-row phases of the composite a.b minus ab, each passed through
    ``reduce``, or None when the supports differ.

    Monomial matrices are dicts {(row, col): phase} with one entry per
    row (PhaseValues, or integer numerators that ``reduce`` takes mod M);
    a.b chains the entry (i, j) of a with the entry (j, l) of b.
    """
    after = {j: (l, q) for (j, l), q in b.items()}
    composite = {}
    for (i, j), p in a.items():
        if j in after:
            l, q = after[j]
            composite[(i, l)] = p + q
    if composite.keys() != ab.keys():
        return None
    return {i: reduce(p - ab[(i, l)]) for (i, l), p in composite.items()}


# ---------------------------------------------------------------------------
# quantum symmetry action


def symmetry_action(sym_group: FiniteGroup, alpha, phis, space: StateSpace):
    """Action of a symmetry group on a torus state space.

    ``alpha(g)`` is an automorphism of the state space's group D and
    ``phis[g]`` a (torus_dim)-cochain on D with
    delta phis[g] = omega - alpha(g^{-1})^* omega.  Returns (matrices,
    defect): monomial matrices over the state basis as sparse dicts
    {(row, col): PhaseValue}, and the composition defect
    rho(g2) rho(g1) - rho(g2 g1) as {(g2, g1): value} where value is a
    single PhaseValue when the defect is scalar and otherwise a dict
    {row: PhaseValue} of per-sector phases.  The action is an honest
    representation exactly when the defect is empty.
    """
    d_grp = space.group
    omega = space.cocycle
    k = space.torus_dim
    for g in sym_group.elements():
        ginv = sym_group.inverses[g]
        target = omega - pullback(alpha(ginv), omega)
        # delta Phi_g is closed, so it can equal only a closed target, and
        # then the difference is a cocycle, decided on generator-led rows
        if not (is_cocycle(target) and coboundary_agrees(phis[g], target)):
            raise IncompatiblePhases(
                f"delta Phi_g differs from omega - alpha(g^-1)^* omega at g={g}"
            )

    groupoid = gauge_groupoid(d_grp, k)
    basis_index = {rep: i for i, rep in enumerate(space.basis)}
    matrices = {}
    for g in sym_group.elements():
        ginv = sym_group.inverses[g]
        a_inv = alpha(ginv)
        m = lcm(phis[g].modulus, space.line_bundle.modulus)
        nums, bundle = phis[g].numerators(m), space.line_bundle.numerators(m)
        mat = {}
        for i, phi in enumerate(space.basis):
            psi = tuple(a_inv(x) for x in phi)
            rep_j, y = groupoid.transporter(psi)
            j = basis_index.get(rep_j)
            if j is None:
                raise IncompatiblePhases(
                    "symmetry maps a basis orbit outside the basis"
                )
            # psi = y rep_j y^{-1}: transport from psi to rep_j along y
            x = torus_pairing(nums, phi) + bundle.get(psi + (y,), 0)
            mat[(i, j)] = PhaseValue(x, m).reduced()
        matrices[g] = mat

    defect = {}
    for g2 in sym_group.elements():
        for g1 in sym_group.elements():
            per_row = monomial_defect(
                matrices[g2], matrices[g1], matrices[sym_group.mul(g2, g1)]
            )
            if per_row is None:
                raise IncompatiblePhases(
                    "composed monomial support differs from the product's"
                )
            distinct = set(per_row.values())
            if len(distinct) == 1:
                d = distinct.pop()
                if not d.is_zero():
                    defect[(g2, g1)] = d
            else:
                defect[(g2, g1)] = {
                    i: d for i, d in per_row.items() if not d.is_zero()
                }
    return matrices, defect
