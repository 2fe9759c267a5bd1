"""End-to-end acceptance checks, one test per numbered criterion.

Each test line in ``pytest -v`` output is the pass/fail record for its
criterion.  Criterion 6 is split into its four claims about the dihedral
2-cocycle on D8 inside the Pauli group.  That extension splits, so it admits
no boundary pair for the dihedral cocycle and forces the bulk class of every
pair it does admit to vanish; the last two criterion-6 tests assert exactly
that, with its proof (see "Known negative results" in the README).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from support import (
    cardinality,
    direct_product_extension,
    evaluate,
    homotopy_fiber,
    random_cochain,
    torus_fundamental_cycle,
)

from test_anomalies import d8_in_pauli_extension, z4_boundary_pair

from dwkit.anomalies import (
    Extension,
    anomaly_report,
    find_boundary_pair,
    find_closed_lift,
    find_section,
    is_invariant_class,
    relative_partition_torus,
)
from dwkit.cochains import (
    Cochain,
    catalog_cocycle,
    coboundary,
    cohomology,
    interval_pairing,
    is_cocycle,
    pullback,
)
from dwkit.groupoids import gauge_groupoid
from dwkit.groups import (
    GroupHom,
    cyclic_group,
    dihedral_group,
    pauli_group,
    product_group,
    product_index,
)
from dwkit.invariants import (
    dw_partition_torus,
    omega_regular_class_count,
    state_space_torus,
    symmetry_action,
    transgress_circle,
    transgress_torus,
    twisted_irrep_count,
)
from dwkit.phase import PhaseValue


def combination(coh, coeffs):
    total = Cochain.zero(coh.generators[0].group, coh.generators[0].degree, 1)
    for c, gen in zip(coeffs, coh.generators):
        for _ in range(c):
            total = total + gen
    return total


def doubling_extension_grid(n, m):
    """Z_N x Z_N inside Z_NM x Z_NM by multiplication with M."""
    nm = n * m
    small, big, tot = product_group([n, n]), product_group([m, m]), product_group([nm, nm])

    def dec(fac):
        return {
            product_index(fac, t): t
            for t in itertools.product(range(fac[0]), repeat=2)
        }

    iota = GroupHom(
        small,
        tot,
        [
            product_index([nm, nm], (m * a, m * b))
            for x, (a, b) in sorted(dec([n, n]).items())
        ],
    )
    lam = GroupHom(
        tot,
        big,
        [
            product_index([m, m], (a % m, b % m))
            for x, (a, b) in sorted(dec([nm, nm]).items())
        ],
    )
    return Extension(small, tot, big, iota, lam, find_section(lam))


def builtin_groups_up_to(order):
    seen = {}
    for n in range(1, order + 1):
        g = cyclic_group(n)
        seen[g.canonical_hash()] = g
    for n in range(4, order + 1, 2):
        g = dihedral_group(n)
        seen[g.canonical_hash()] = g

    def products(limit, start=2):
        for f in range(start, limit + 1):
            yield [f]
            for rest in products(limit // f, f):
                yield [f] + rest

    for factors in products(order):
        if len(factors) >= 2:
            g = product_group(factors)
            seen[g.canonical_hash()] = g
    p = pauli_group()
    seen[p.canonical_hash()] = p
    return list(seen.values())


# --------------------------------------------------------------------------
# criterion 1: cohomology table


def timed(fn, limit):
    start = time.monotonic()
    out = fn()
    assert time.monotonic() - start < limit
    return out


def test_criterion_1_cohomology_table():
    for n in (2, 3, 4):
        grp = product_group([n, n])
        assert timed(lambda: cohomology(grp, 2).invariant_factors, 60) == [n]
        zn = cyclic_group(n)
        assert timed(lambda: cohomology(zn, 3).invariant_factors, 60) == [n]
    assert timed(lambda: cohomology(dihedral_group(8), 2).invariant_factors, 60) == [2]
    p1 = pauli_group()
    assert timed(lambda: cohomology(p1, 1).invariant_factors, 60) == [2, 2, 2]
    assert timed(lambda: cohomology(p1, 2).invariant_factors, 60) == [2, 2]


@pytest.mark.large
def test_criterion_1_pauli_degree_three():
    coh = cohomology(pauli_group(), 3, allow_large=True)
    assert coh.invariant_factors == [2, 2, 8], (
        "computed invariant factors disagree with the stated table; the "
        "same solver reproduces the standard degree-3 answers for D8, Q8, "
        "Z2^3, and Z4 x Z2 exactly (see 'Known negative results' in the "
        "README)"
    )


# --------------------------------------------------------------------------
# criterion 2: torus partition functions


def test_criterion_2_torus_partition():
    k4 = product_group([2, 2])
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    assert timed(lambda: dw_partition_torus(k4, w1, 2), 5) == 1
    for group in builtin_groups_up_to(16):
        value = timed(lambda: dw_partition_torus(group, Cochain.zero(group, 2), 2), 5)
        assert value == len(group.conjugacy_classes())
    s3 = dihedral_group(6)
    assert timed(lambda: dw_partition_torus(s3, Cochain.zero(s3, 3), 3), 5) == 8
    z2 = cyclic_group(2)
    assert timed(lambda: dw_partition_torus(z2, Cochain.zero(z2, 3), 3), 5) == 4


# --------------------------------------------------------------------------
# criterion 3: twisted-representation oracle equivalence


def test_criterion_3_twisted_count_oracle():
    groups = [product_group([n, n]) for n in (2, 3, 4)]
    groups += [dihedral_group(8), pauli_group()]
    for group in groups:
        coh = cohomology(group, 2)
        for coeffs in itertools.product(
            *(range(d) for d in coh.invariant_factors)
        ):
            omega = combination(coh, coeffs)
            assert twisted_irrep_count(group, omega) == omega_regular_class_count(
                group, omega
            )


# --------------------------------------------------------------------------
# criterion 4: closed-lift grid


def test_criterion_4_anomaly_grid():
    start = time.monotonic()
    for n, m in ((2, 2), (3, 2), (2, 3), (4, 2)):
        ext = doubling_extension_grid(n, m)
        for k in range(n):
            omega = catalog_cocycle("product_2cocycle", {"N": n, "k": k})
            lift = find_closed_lift(ext, omega)
            liftable = any((kp * m - k) % n == 0 for kp in range(n))
            assert (lift is not None) == liftable, (n, m, k)
            if lift is not None:
                assert pullback(ext.iota, lift) == omega
    assert time.monotonic() - start < 600


# --------------------------------------------------------------------------
# criterion 5: no boundary pair for the doubled Klein extension


def test_criterion_5_no_boundary_pair_for_z4_square():
    """One exact solve over Q/Z: its None is backed by an integer
    certificate that find_boundary_pair checks against the system's rows."""
    ext = doubling_extension_grid(2, 2)
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    assert find_boundary_pair(ext, w1) is None


# --------------------------------------------------------------------------
# criterion 6: the dihedral subgroup of the Pauli group, four claims
#
# The Pauli group is D8 x| Z2: the section of lambda sends the generator of
# Z2 to an element of order 2 outside D8, so it is a homomorphism s with
# lambda s = id.  For any boundary pair (omega', theta) this gives
#   delta(s* omega') = s* lambda* theta = theta,  so [theta] = 0, and
#   omega' - lambda* s* omega' is a closed lift of iota* omega'.
# Every class in H^2(Pauli) restricts trivially to D8 while the dihedral
# cocycle does not, so the dihedral cocycle admits no boundary pair at all;
# the anomaly sits in the first obstruction in H^2(Z2; H^1(D8)).  The
# claims are: the class is invariant, it has no closed lift, it has no
# boundary pair (every admitted pair has trivial bulk class), and the
# relative partition function matches the twisted count on admitted pairs.


def pauli_case():
    """D8 inside the Pauli group with the catalog dihedral 2-cocycle.

    The extension splits (its section is a homomorphism), which is why the
    dihedral cocycle admits no boundary pair and every pair the extension
    does admit has trivial bulk class.
    """
    ext = d8_in_pauli_extension()
    omega = catalog_cocycle("dihedral8_2cocycle", {})
    return ext, omega


def admitted_boundary_pairs(ext, coh):
    """(omega, omega', theta) for omega = iota* omegahat over every omegahat
    in coh = H^2(Ghat); find_boundary_pair must find a pair for each."""
    for coeffs in itertools.product(*(range(d) for d in coh.invariant_factors)):
        omega = pullback(ext.iota, combination(coh, coeffs))
        pair = find_boundary_pair(ext, omega)
        assert pair is not None, coeffs
        yield (omega,) + pair


def test_criterion_6_invariant_class():
    ext, omega = pauli_case()
    ok, phis = is_invariant_class(ext, omega)
    assert ok
    for g in ext.quotient.elements():
        ginv = ext.quotient.inverses[g]
        assert coboundary(phis[g]) == omega - pullback(ext.action(ginv), omega)


def test_criterion_6_no_closed_lift():
    ext, omega = pauli_case()
    assert find_closed_lift(ext, omega) is None


def test_criterion_6_boundary_pair_with_nontrivial_bulk():
    ext, omega = pauli_case()
    # GroupHom validates multiplication; Extension already checked lambda s = id
    s = GroupHom(ext.quotient, ext.total, ext.section)

    # H^2(Pauli) -> H^2(D8) is zero, and the dihedral class is not
    h2_kernel, h2_total = cohomology(ext.kernel, 2), cohomology(ext.total, 2)
    assert h2_kernel.classify(omega) == (1,)
    for gen in h2_total.generators:
        assert h2_kernel.classify(pullback(ext.iota, gen)) == (0,)

    # one exact solve over Q/Z; its None carries a checked certificate
    assert find_boundary_pair(ext, omega) is None
    assert anomaly_report(ext, omega).verdict == "first_obstruction_fails"

    # on every admitted pair the splitting forces theta = delta(s* omega'),
    # and omega' - lambda* s* omega' is a closed lift of iota* omega'
    h3_quotient = cohomology(ext.quotient, 3)
    for omega_d, omega_p, theta in admitted_boundary_pairs(ext, h2_total):
        pulled = pullback(s, omega_p)
        assert coboundary(pulled) == theta
        assert h3_quotient.classify(theta) == (0,)
        lift = omega_p - pullback(ext.lam, pulled)
        assert coboundary(lift).values == {}
        assert pullback(ext.iota, lift) == omega_d


def test_criterion_6_relative_partition_consistency():
    ext, omega = pauli_case()
    assert find_boundary_pair(ext, omega) is None
    h2_total = cohomology(ext.total, 2)
    for omega_d, omega_p, theta in admitted_boundary_pairs(ext, h2_total):
        value = relative_partition_torus(ext, omega_p, theta, (0, 0))
        assert value == twisted_irrep_count(ext.kernel, omega_d) == 5

    # a pair whose bulk class is nontrivial: Z2 inside Z4
    ext, omega_p, theta = z4_boundary_pair()
    assert cohomology(ext.quotient, 3).classify(theta) == (1,)
    value = relative_partition_torus(ext, omega_p, theta, (0, 0))
    omega_d = pullback(ext.iota, omega_p)
    assert value == twisted_irrep_count(ext.kernel, omega_d) == 2


# --------------------------------------------------------------------------
# criterion 7: degree-3 restriction identity


def test_criterion_7_cyclic_restriction_identity():
    for n in range(1, 5):
        for m in range(1, 5):
            zn, znm = cyclic_group(n), cyclic_group(n * m)
            incl = GroupHom(zn, znm, [m * x for x in range(n)])
            for k in range(n):
                big = catalog_cocycle("cyclic_3cocycle", {"N": n * m, "k": k})
                small = catalog_cocycle("cyclic_3cocycle", {"N": n, "k": k})
                assert pullback(incl, big) == small


# --------------------------------------------------------------------------
# criterion 8: invariant property suites


def test_criterion_8_property_suites():
    rng = random.Random(77)

    # delta squared is zero
    for group in (cyclic_group(4), dihedral_group(6), product_group([2, 2])):
        for degree in (1, 2):
            c = random_cochain(group, degree, 4, rng)
            assert coboundary(coboundary(c)).values == {}

    # generator orders annihilate generators
    for group in (product_group([3, 3]), dihedral_group(8)):
        coh = cohomology(group, 2)
        for d, gen in zip(coh.invariant_factors, coh.generators):
            multiple = combination(coh, [0] * len(coh.generators))
            for _ in range(d):
                multiple = multiple + gen
            assert coh.classify(multiple) == (0,) * len(coh.invariant_factors)

    # generalized Cavalieri: |source| = sum of fibre cardinalities / |Aut|
    for hom, dim in (
        (GroupHom(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1]), 2),
        (GroupHom(dihedral_group(6), cyclic_group(2), [0, 0, 0, 1, 1, 1]), 1),
    ):
        target = gauge_groupoid(hom.target, dim)
        total = sum(
            cardinality(homotopy_fiber(hom, cls[0]))
            * Fraction(1, len(target.aut(cls[0])))
            for cls in target.isomorphism_classes()
        )
        assert total == cardinality(gauge_groupoid(hom.source, dim))

    # conjugation invariance of the relative partition function
    d8, z2 = dihedral_group(8), cyclic_group(2)
    ext = direct_product_extension(d8, z2)
    retraction = GroupHom(ext.total, d8, [x % 8 for x in range(16)])
    omega_hat = pullback(retraction, catalog_cocycle("dihedral8_2cocycle", {}))
    zero_theta = Cochain.zero(z2, 3, 1)
    for phi in itertools.product(range(2), repeat=2):
        for g in range(2):
            conj = tuple(z2.conjugate(g, x) for x in phi)
            assert relative_partition_torus(
                ext, omega_hat, zero_theta, conj
            ) == relative_partition_torus(ext, omega_hat, zero_theta, phi)

    # transgression closedness and iterated transgression = torus evaluation
    cases = [
        (cyclic_group(2), catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1}), 3),
        (cyclic_group(4), catalog_cocycle("cyclic_3cocycle", {"N": 4, "k": 1}), 3),
        (product_group([2, 2]), catalog_cocycle("product_2cocycle", {"N": 2, "k": 1}), 2),
        (dihedral_group(8), catalog_cocycle("dihedral8_2cocycle", {}), 2),
    ]
    for group, theta, n in cases:
        if theta.degree == 3:
            assert is_cocycle(transgress_circle(theta))
        full = transgress_torus(theta, n)
        for base in gauge_groupoid(group, n).objects():
            assert full.value(base) == evaluate(
                theta, torus_fundamental_cycle(group, base)
            )

    # state-space dimension equals the torus partition value
    for group, theta, n in cases:
        space = state_space_torus(group, theta)
        assert space.dimension == int(dw_partition_torus(group, theta, n))

    # symmetry action is an honest representation for a coherent family
    from test_invariants import klein_in_d8_extension

    ext = klein_in_d8_extension()
    k4, z2 = ext.kernel, ext.quotient
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    lift = find_closed_lift(ext, w1)
    phis = {
        g: interval_pairing(lift, ext.section[z2.inverses[g]], ext.iota)
        for g in z2.elements()
    }
    space = state_space_torus(k4, w1)
    _, defect = symmetry_action(z2, ext.action, phis, space)
    assert defect == {}


# --------------------------------------------------------------------------
# criterion 9: independent transgression cross-check


def test_criterion_9_circle_transgression_cross_check():
    def oracle(theta, g, x, y):
        grp = theta.group
        conj = lambda a, b: grp.conjugate(grp.inverses[b], a)
        value = (
            theta.value((g, x, y))
            - theta.value((x, conj(g, x), y))
            + theta.value((x, y, conj(g, grp.mul(x, y))))
        )
        return value

    for n in (2, 3, 4):
        grp = cyclic_group(n)
        for k in range(n):
            theta = catalog_cocycle("cyclic_3cocycle", {"N": n, "k": k})
            beta = transgress_circle(theta)
            for g in grp.elements():
                for x in grp.elements():
                    for y in grp.elements():
                        assert beta.value((g, x, y)) == oracle(theta, g, x, y)
