import random
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product
from math import factorial, gcd

import pytest

from support import (
    aut_generators_generate,
    evaluate,
    random_cochain,
    reference_flat_basis,
    torus_fundamental_cycle,
)

from dwkit.cochains import (
    INDEX_MEMO_SIZE,
    Cochain,
    TupleIndex,
    catalog_cocycle,
    coboundary,
    cohomology,
    interval_pairing,
    is_cocycle,
    pullback,
)
from dwkit import invariants
from dwkit.errors import (
    BudgetExceeded,
    DegreeMismatch,
    IncompatiblePhases,
    NotACocycle,
    VerificationFailed,
)
from dwkit.groupoids import gauge_groupoid
from dwkit.groups import (
    GroupHom,
    cyclic_group,
    dihedral_exponents,
    dihedral_group,
    pauli_group,
    product_digits,
    product_group,
    product_index,
)
from dwkit.invariants import (
    ExactPhaseSum,
    TorusPartition,
    dpr_double_cocycle,
    drinfeld_double_simple_count,
    dw_partition_torus,
    matches_dpr,
    omega_regular_class_count,
    residue_average,
    state_space_torus,
    symmetry_action,
    transgress_circle,
    transgress_torus,
    twisted_irrep_count,
)
from dwkit.anomalies import Extension, find_closed_lift, find_section
from dwkit.io import loop_cochain_json
from dwkit.phase import PhaseValue


def type_three_cocycle():
    """omega(g,h,k) = (1/2) g_1 h_2 k_3 on Z2 x Z2 x Z2."""
    grp = product_group([2, 2, 2])
    coords = {}
    for t in iter_product(range(2), repeat=3):
        coords[product_index([2, 2, 2], t)] = t
    vals = {}
    for g in range(8):
        for h in range(8):
            for k in range(8):
                v = PhaseValue(coords[g][0] * coords[h][1] * coords[k][2], 2)
                if not v.is_zero():
                    vals[(g, h, k)] = v
    return Cochain(grp, 3, 2, vals)


# --------------------------------------------------------------------------
# exact phase sums


def test_exact_phase_sum_rationality():
    full = ExactPhaseSum((1, 1, 1, 1), 4)
    assert full.as_rational() == 0
    pair = ExactPhaseSum((1, 0, 1, 0), 4)
    assert pair.as_rational() == 0
    assert ExactPhaseSum((0, 1, 0, 0), 4).as_rational() is None
    assert ExactPhaseSum((3,), 1).as_rational() == 3
    third = Fraction(1, 3)
    half = ExactPhaseSum.from_weights(
        {PhaseValue(0, 3): third, PhaseValue(1, 3): third, PhaseValue(2, 3): third}
    )
    assert half.as_rational() == 0


def mobius(m):
    value, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            value = -value
        p += 1
    return -value if m > 1 else value


def test_exact_phase_sum_cyclotomic_oracle():
    # Ramanujan: the primitive M-th roots sum to mu(M); a single root of
    # order > 2 is irrational
    for m in range(1, 37):
        primitive = tuple(int(gcd(r, m) == 1) for r in range(m))
        assert ExactPhaseSum(primitive, m).as_rational() == mobius(m)
        for r in range(m):
            single = tuple(int(s == r) for s in range(m))
            value = ExactPhaseSum(single, m).as_rational()
            if m // gcd(r, m) > 2:
                assert value is None
            else:
                assert value == (1 if r == 0 else -1)


def test_exact_phase_sum_from_weights():
    # the modulus is the lcm of the phases' orders, not of their moduli
    s = ExactPhaseSum.from_weights({PhaseValue(2, 4): 1, PhaseValue(3, 12): 1})
    assert (s.counts, s.modulus) == ((0, 1, 1, 0), 4)
    s = ExactPhaseSum.from_weights({PhaseValue(1, 3): Fraction(1, 2)})
    assert (s.counts, s.modulus) == ((0, Fraction(1, 2), 0), 3)
    empty = ExactPhaseSum.from_weights({})
    assert (empty.counts, empty.modulus, empty.as_rational()) == ((0,), 1, 0)


def test_one_residue_average_skips_the_cyclotomic_reduction(monkeypatch):
    cases = [(c, m, order) for m in (1, 2, 4, 6, 16) for order in (1, 4, 8, 6)
             for c in (0, 1, order, 3 * order, 7)]
    want = {}
    for c, m, order in cases:
        total = ExactPhaseSum.from_weights({PhaseValue(0, m): Fraction(c, order)})
        want[c, m, order] = TorusPartition(total.as_rational(), total)

    def unread(self):
        raise AssertionError("a single residue 0 needs no reduction")

    monkeypatch.setattr(ExactPhaseSum, "as_rational", unread)
    for (c, m, order), z in want.items():
        got = residue_average(Counter({0: c}), m, order)
        assert (got.value, got.phase_sum) == (z.value, z.phase_sum)
        assert type(got.value) is Fraction
    z8 = cyclic_group(8)
    assert invariants._phase_average(z8, Counter({0: 16}), 4, "sum") == 2
    for c in (1, 12):
        with pytest.raises(VerificationFailed):
            invariants._phase_average(z8, Counter({0: c}), 4, "sum")


# --------------------------------------------------------------------------
# torus partition functions


def test_untwisted_partition_counts_classes():
    for group in (
        cyclic_group(5),
        product_group([2, 4]),
        dihedral_group(8),
        dihedral_group(6),
        pauli_group(),
    ):
        z = dw_partition_torus(group, Cochain.zero(group, 2), 2)
        assert z == len(group.conjugacy_classes())


def test_untwisted_three_torus():
    s3 = dihedral_group(6)
    z = dw_partition_torus(s3, Cochain.zero(s3, 3), 3)
    assert z == 8
    z2 = cyclic_group(2)
    assert dw_partition_torus(z2, Cochain.zero(z2, 3), 3) == 4


def test_partition_coboundary_invariance():
    rng = random.Random(21)
    z4 = cyclic_group(4)
    theta = catalog_cocycle("cyclic_3cocycle", {"N": 4, "k": 1})
    base = dw_partition_torus(z4, theta, 3)
    for _ in range(4):
        beta = random_cochain(z4, 2, 8, rng)
        assert dw_partition_torus(z4, theta + coboundary(beta), 3) == base


def test_partition_rejects_bad_input():
    z4 = cyclic_group(4)
    with pytest.raises(DegreeMismatch):
        dw_partition_torus(z4, Cochain.zero(z4, 2), 3)
    with pytest.raises(DegreeMismatch):
        dw_partition_torus(z4, Cochain.zero(z4, 0), 0)
    bad = Cochain(z4, 3, 4, {(1, 1, 1): PhaseValue(1, 4)})
    with pytest.raises(NotACocycle):
        dw_partition_torus(z4, bad, 3)


# --------------------------------------------------------------------------
# the integer torus kernels against the chain-level reference


def torus_reference_sum(group, theta, n):
    """Z(T^n)'s phase sum from evaluate on each shuffle cycle."""
    phases = Counter(
        evaluate(theta, torus_fundamental_cycle(group, t))
        for t in gauge_groupoid(group, n).objects()
    )
    return ExactPhaseSum.from_weights(
        {p: Fraction(c, group.order) for p, c in phases.items()}
    )


def gens(group, n):
    return list(cohomology(group, n).generators)


def kernel_classes():
    """(group, n, cocycles): cohomology generators where they are cheap to
    compute, else classes pulled back from K4 (H^4(S3; U(1)) = 0)."""
    z4, k4, s3 = cyclic_group(4), product_group([2, 2]), dihedral_group(6)
    d8, z2_3 = dihedral_group(8), product_group([2, 2, 2])
    # D8 -> D8/Z(D8) = K4, a^i b^j -> (i mod 2, j); Z2^3 -> Z2^2 drops a digit
    d8_onto = [(i % 2, j) for i, j in
               (dihedral_exponents(8, x) for x in d8.elements())]
    z2_3_onto = [product_digits([2, 2, 2], x)[:2] for x in z2_3.elements()]

    def from_klein(group, digits, n):
        onto = GroupHom(group, k4, [product_index([2, 2], d) for d in digits])
        return [pullback(onto, gens(k4, n)[0])]

    cases = [(grp, n, gens(grp, n)) for grp in (z4, k4) for n in (1, 2, 3, 4)]
    cases += [(s3, n, gens(s3, n)) for n in (1, 2, 3)] + [(s3, 4, [])]
    cases += [(d8, n, gens(d8, n)) for n in (1, 2, 3)]
    cases += [(d8, 4, from_klein(d8, d8_onto, 4))]
    cases += [(z2_3, n, gens(z2_3, n)) for n in (1, 2)]
    cases += [(z2_3, 3, [type_three_cocycle()] + from_klein(z2_3, z2_3_onto, 3))]
    cases += [(z2_3, 4, from_klein(z2_3, z2_3_onto, 4))]
    cases += [(pauli_group(), n, gens(pauli_group(), n)) for n in (1, 2)]
    return cases


def shifted_cocycles(group, n, classes, rng):
    """Each class and zero shifted by a random coboundary, once as it is
    and once declared at twice its modulus, so that every value's reduced
    modulus properly divides the cochain's."""
    out = []
    for omega in [Cochain.zero(group, n)] + classes:
        mod = 2 * omega.modulus
        shifted = omega + coboundary(random_cochain(group, n - 1, mod, rng))
        out += [shifted, Cochain(group, n, 2 * shifted.modulus, shifted.values)]
    return out


def test_partition_kernel_matches_evaluated_torus_cycles():
    rng = random.Random(41)
    for group, n, classes in kernel_classes():
        for theta in shifted_cocycles(group, n, classes, rng):
            want = torus_reference_sum(group, theta, n)
            got = dw_partition_torus(group, theta, n)
            assert got.phase_sum.counts == want.counts
            assert got.phase_sum.modulus == want.modulus
            assert got.value == want.as_rational()
            if n == 2:
                assert twisted_irrep_count(group, theta) == got.value


def test_torus_term_budget_bounds_every_torus_sum(monkeypatch):
    d8 = dihedral_group(8)
    w = catalog_cocycle("dihedral8_2cocycle", {})
    assert twisted_irrep_count(d8, w) == 2
    info = TupleIndex.cache_info()
    # D8 has 40 commuting pairs: 80 terms
    monkeypatch.setattr(invariants, "TORUS_TERM_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        dw_partition_torus(d8, w, 2)
    with pytest.raises(BudgetExceeded):
        twisted_irrep_count(d8, w)
    # raised before the index lookup, so the memo saw neither call
    assert TupleIndex.cache_info() == info
    with pytest.raises(BudgetExceeded):
        state_space_torus(d8, w)
    monkeypatch.undo()
    # a zero theta is checked too: K4 has 4^7 commuting 7-tuples, 82.6 M terms
    k4 = product_group([2, 2])
    info = TupleIndex.cache_info()
    with pytest.raises(BudgetExceeded):
        dw_partition_torus(k4, Cochain.zero(k4, 7), 7)
    assert TupleIndex.cache_info() == info


def builtin_groups_up_to(order):
    """Every builtin group of order <= ``order``: cyclic, dihedral, products
    of cyclic factors, and Pauli."""
    groups = [cyclic_group(n) for n in range(1, order + 1)]
    groups += [dihedral_group(n) for n in range(4, order + 1, 2)]

    def factorings(limit, least=2):
        for f in range(least, limit + 1):
            yield [f]
            for rest in factorings(limit // f, f):
                yield [f] + rest

    groups += [product_group(f) for f in factorings(order) if len(f) >= 2]
    if order >= 16:
        groups.append(pauli_group())
    return groups


def commuting_tuple_count(group, n):
    """|Hom(Z^n, G)|: the n-tuples of pairwise commuting elements, read off
    the multiplication table."""
    table = group.table
    return sum(
        all(table[a][b] == table[b][a] for a in t for b in t)
        for t in iter_product(range(group.order), repeat=n)
    )


def test_untwisted_partition_is_the_commuting_tuple_count():
    for group in builtin_groups_up_to(16):
        for n in (1, 2, 3):
            want = Fraction(commuting_tuple_count(group, n), group.order)
            for modulus in (1, 4):
                theta = Cochain.zero(group, n, modulus)
                info = TupleIndex.cache_info()
                got = dw_partition_torus(group, theta, n)
                # a zero theta neither reads nor builds a torus table
                assert TupleIndex.cache_info() == info
                assert got.value == want
                assert got.phase_sum == torus_reference_sum(group, theta, n)


def _index_traffic():
    info = TupleIndex.cache_info()
    return info.hits, info.misses


def test_kernel_tables_are_shared_per_group_and_degree():
    z4, k4 = cyclic_group(4), product_group([2, 2])
    a, b = gens(z4, 3)[0], 3 * gens(z4, 3)[0]
    # closedness is decided once per cochain, before the traffic is counted
    assert is_cocycle(a) and is_cocycle(b)
    TupleIndex.cache_clear()
    assert _index_traffic() == (0, 0)
    # a second cocycle on the same (G, n) hits the table the first one built
    for theta, traffic in ((a, (0, 1)), (b, (1, 1))):
        got = dw_partition_torus(z4, theta, 3)
        assert got.phase_sum == torus_reference_sum(z4, theta, 3)
        assert _index_traffic() == traffic
    for theta, traffic in ((a, (1, 2)), (b, (2, 2))):
        got = transgress_circle(theta)
        assert list(got.values.items()) == list(
            reference_transgress_circle(theta).values.items())
        assert _index_traffic() == traffic
    # Z4 and K4 have the same order but tables of their own; a zero theta
    # reads no table, so Z4 takes a closed theta that is nonzero on pairs
    quarter = coboundary(Cochain(z4, 1, 4, {(1,): PhaseValue(1, 4)}))
    for group, theta in ((z4, quarter), (k4, gens(k4, 2)[0])):
        assert is_cocycle(theta)
        before = _index_traffic()
        got = dw_partition_torus(group, theta, 2)
        assert got.phase_sum == torus_reference_sum(group, theta, 2)
        assert _index_traffic() == (before[0], before[1] + 1)
    # tables built again after cache_clear give the same answers
    omega = gens(k4, 2)[0]
    # a keeps its transgression, so a fresh copy of it reads the table
    fresh = Cochain._from_numerators(z4, 3, a.modulus, a.numerators().items())
    assert is_cocycle(omega) and is_cocycle(fresh)
    TupleIndex.cache_clear()
    got = dw_partition_torus(k4, omega, 2)
    assert got.phase_sum == torus_reference_sum(k4, omega, 2)
    assert list(transgress_circle(fresh).values.items()) == list(
        reference_transgress_circle(a).values.items())
    assert _index_traffic() == (0, 2)
    assert TupleIndex.cache_info().maxsize == INDEX_MEMO_SIZE


def test_one_index_per_key_serves_closedness_torus_and_transgression():
    """A closedness check, a torus sum and a transgression each miss the
    index memo once per (group, n, loops) key, then only hit: the check and
    the transgression of a degree-k cochain on m loops share (G, k, m)."""
    z8 = cyclic_group(8)
    theta = catalog_cocycle("cyclic_3cocycle", {"N": 8, "k": 3})
    TupleIndex.cache_clear()
    for traffic in ((2, 3), (7, 3)):
        # a fresh copy decides its closedness again
        fresh = Cochain._from_numerators(z8, 3, 8, theta.numerators().items())
        assert is_cocycle(fresh)  # (Z8, 3, 0)
        assert dw_partition_torus(z8, fresh, 3) == 64  # (Z8, 0, 3)
        loop = transgress_circle(fresh)  # (Z8, 3, 0)
        assert is_cocycle(loop)  # (Z8, 2, 1)
        assert list(transgress_circle(loop).values.items()) == list(
            reference_transgress_circle(loop).values.items())  # (Z8, 2, 1)
        assert _index_traffic() == traffic
    assert TupleIndex.cache_info().currsize == 3
    assert TupleIndex.of(z8, 2, 1) is TupleIndex.of(cyclic_group(8), 2, 1)


# --------------------------------------------------------------------------
# twisted representation counts


def test_twisted_irrep_count_examples():
    k4 = product_group([2, 2])
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    assert twisted_irrep_count(k4, w1) == 1
    assert twisted_irrep_count(k4, Cochain.zero(k4, 2)) == 4
    d8 = dihedral_group(8)
    w = catalog_cocycle("dihedral8_2cocycle", {})
    assert twisted_irrep_count(d8, w) == 2


def test_counts_reject_cocycle_on_another_group():
    # a 2-cocycle on Z2 x Z2 read on Z4 or D8 counts nothing meaningful
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    for grp in (cyclic_group(4), dihedral_group(8)):
        for count in (twisted_irrep_count, omega_regular_class_count):
            with pytest.raises(ValueError, match="different group"):
                count(grp, w1)


def test_twisted_count_matches_regular_classes():
    cases = []
    for n in (2, 3, 4):
        grp = product_group([n, n])
        coh = cohomology(grp, 2)
        cases.extend((grp, gen) for gen in coh.generators)
        cases.append((grp, Cochain.zero(grp, 2)))
    for grp in (dihedral_group(8), pauli_group()):
        coh = cohomology(grp, 2)
        cases.extend((grp, gen) for gen in coh.generators)
    for grp, omega in cases:
        assert twisted_irrep_count(grp, omega) == omega_regular_class_count(
            grp, omega
        )


def test_drinfeld_double_counts():
    z2 = cyclic_group(2)
    assert drinfeld_double_simple_count(z2, Cochain.zero(z2, 3)) == 4
    s3 = dihedral_group(6)
    assert drinfeld_double_simple_count(s3, Cochain.zero(s3, 3)) == 8
    assert drinfeld_double_simple_count(product_group([2, 2, 2]), type_three_cocycle()) == 22


# --------------------------------------------------------------------------
# transgression


def test_transgression_is_closed():
    for group in (cyclic_group(4), product_group([2, 2]), dihedral_group(8)):
        for gen in cohomology(group, 3).generators:
            assert is_cocycle(transgress_circle(gen))


def test_transgression_of_coboundary_is_loop_exact():
    z4 = cyclic_group(4)
    beta = random_cochain(z4, 2, 4, random.Random(31))
    tau = transgress_circle(coboundary(beta))
    # transgression is a chain map: tau(delta beta) = delta of tau(beta)
    assert tau == coboundary(transgress_circle(beta, check=False))


def test_iterated_transgression_matches_torus_evaluation():
    cases = [
        (cyclic_group(2), catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1}), 3),
        (cyclic_group(4), catalog_cocycle("cyclic_3cocycle", {"N": 4, "k": 3}), 3),
        (product_group([2, 2]), catalog_cocycle("product_2cocycle", {"N": 2, "k": 1}), 2),
        (dihedral_group(8), catalog_cocycle("dihedral8_2cocycle", {}), 2),
    ]
    for group, theta, n in cases:
        full = transgress_torus(theta, n)
        for base in gauge_groupoid(group, n).objects():
            assert full.value(base) == evaluate(
                theta, torus_fundamental_cycle(group, base)
            )


def test_transgress_torus_counts_iterations():
    theta = catalog_cocycle("cyclic_3cocycle", {"N": 4, "k": 1})
    for times in (0, -1, theta.degree + 1):
        with pytest.raises(DegreeMismatch):
            transgress_torus(theta, times)
    for times in range(1, theta.degree + 1):
        out = transgress_torus(theta, times)
        assert (out.loops, out.degree) == (times, theta.degree - times)


def reference_transgress_circle(theta):
    """Circle transgression in PhaseValue arithmetic, term by term; an
    independent reference for transgress_circle."""
    g, k = theta.group, theta.degree
    vals = {}
    for base in gauge_groupoid(g, theta.loops + 1).objects():
        phi, loop = base[:-1], base[-1]
        for args in iter_product(g.nonidentity(), repeat=k - 1):
            acc = PhaseValue.zero(theta.modulus)
            sign = 1
            carried = loop
            for i in range(k):
                acc = acc + sign * theta.value(
                    phi + args[:i] + (carried,) + args[i:]
                )
                sign = -sign
                if i < k - 1:
                    x = args[i]
                    carried = g.mul(g.mul(g.inverses[x], carried), x)
            if not acc.is_zero():
                vals[base + args] = acc
    return Cochain(g, k - 1, theta.modulus, vals, theta.loops + 1)


def test_transgression_kernel_matches_reference_loop():
    rng = random.Random(43)
    inputs = []
    for group in (cyclic_group(4), product_group([2, 2]), dihedral_group(6),
                  dihedral_group(8)):
        for theta in shifted_cocycles(group, 3, gens(group, 3), rng):
            inputs += [theta, transgress_circle(theta),
                       transgress_torus(theta, 2)]
        for loops in (0, 1, 2):
            for degree in (1, 2, 3):
                inputs.append(random_cochain(group, degree, 4, rng, loops=loops))
    assert {c.loops for c in inputs} == {0, 1, 2}
    for c in inputs:
        got = transgress_circle(c, check=False)
        want = reference_transgress_circle(c)
        assert loop_cochain_json(got) == loop_cochain_json(want)
        assert list(got.values) == list(want.values)


def dpr_reference(theta, g, x, y):
    grp = theta.group
    cj = lambda a, b: grp.conjugate(grp.inverses[b], a)
    return (
        theta.value((g, x, y))
        - theta.value((x, cj(g, x), y))
        + theta.value((x, y, cj(g, grp.mul(x, y))))
    )


def test_transgression_matches_reference_formula():
    for n in (2, 3, 4):
        grp = cyclic_group(n)
        for k in range(n):
            theta = catalog_cocycle("cyclic_3cocycle", {"N": n, "k": k})
            beta = transgress_circle(theta)
            for g in grp.elements():
                for x in grp.elements():
                    for y in grp.elements():
                        assert beta.value((g, x, y)) == dpr_reference(
                            theta, g, x, y
                        )
            assert matches_dpr(theta)
            assert dpr_double_cocycle(theta) == beta


def test_dpr_on_nonabelian_group():
    s3 = dihedral_group(6)
    for gen in cohomology(s3, 3).generators:
        assert matches_dpr(gen)


def test_transgression_is_kept_on_the_cochain():
    """A second transgression of the same cochain returns the kept result,
    level by level down a torus chain; an equal but distinct cochain
    transgresses for itself."""
    theta = catalog_cocycle("cyclic_3cocycle", {"N": 6, "k": 5})
    loop = transgress_circle(theta)
    assert transgress_circle(theta) is loop
    assert list(loop.values.items()) == list(
        reference_transgress_circle(theta).values.items())
    chain = transgress_torus(theta)
    assert transgress_torus(theta) is chain
    assert transgress_circle(transgress_circle(loop)) is chain
    assert state_space_torus(theta.group, theta).line_bundle is (
        transgress_circle(loop))
    twin = Cochain._from_numerators(theta.group, 3, 6, theta.numerators().items())
    twin_loop = transgress_circle(twin)
    assert twin == theta and twin_loop is not loop and twin_loop == loop


def test_kept_transgression_does_not_skip_the_closedness_check():
    z4 = cyclic_group(4)
    c = random_cochain(z4, 3, 4, random.Random(7))
    assert not is_cocycle(c)
    loop = transgress_circle(c, check=False)
    assert transgress_circle(c, check=False) is loop
    with pytest.raises(NotACocycle):
        transgress_circle(c)
    with pytest.raises(NotACocycle):
        transgress_torus(c)
    assert transgress_torus(c, 1, check=False) is loop


def test_matches_dpr_recomputes_the_double_cocycle(monkeypatch):
    """The kept transgression is compared with a double cocycle computed
    afresh on every call, so a wrong one is caught."""
    theta = catalog_cocycle("cyclic_3cocycle", {"N": 4, "k": 1})
    assert matches_dpr(theta)
    right = dpr_double_cocycle(theta)
    wrong = right + right
    assert wrong != right
    monkeypatch.setattr(invariants, "dpr_double_cocycle", lambda _t: wrong)
    assert transgress_circle(theta) is transgress_circle(theta)
    assert not matches_dpr(theta)
    monkeypatch.undo()
    assert matches_dpr(theta)


# --------------------------------------------------------------------------
# state spaces


def test_state_space_dimensions():
    z2 = cyclic_group(2)
    th = catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1})
    assert state_space_torus(z2, th).dimension == 4
    s3 = dihedral_group(6)
    assert state_space_torus(s3, Cochain.zero(s3, 3)).dimension == 8
    d8 = dihedral_group(8)
    w = catalog_cocycle("dihedral8_2cocycle", {})
    space = state_space_torus(d8, w)
    assert space.dimension == twisted_irrep_count(d8, w) == 2


def test_state_space_dimension_equals_partition():
    k4 = product_group([2, 2])
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    space = state_space_torus(k4, w1)
    assert space.dimension == int(dw_partition_torus(k4, w1, 2))


def brute_force_flat_basis(group, bundle, k):
    """Conjugation-orbit representatives (least by repr, in repr order) of
    commuting k-tuples whose bundle phase vanishes on their centralizer."""
    tuples = [
        t for t in iter_product(group.elements(), repeat=k)
        if all(group.commute(a, b) for a in t for b in t)
    ]
    orbits = {
        frozenset(tuple(group.conjugate(x, a) for a in t) for x in group.elements())
        for t in tuples
    }
    reps = sorted((min(o, key=repr) for o in orbits), key=repr)
    return tuple(
        rep for rep in reps
        if all(bundle.value(rep + (y,)).is_zero() for y in group.centralizer(rep))
    )


def test_state_space_basis_matches_brute_force():
    rng = random.Random(5)
    cases = [(dihedral_group(8), 2), (dihedral_group(8), 3), (pauli_group(), 2)]
    for grp, n in cases:
        gens = cohomology(grp, n).generators
        for _ in range(3):
            theta = coboundary(random_cochain(grp, n - 1, 4, rng))
            for gen in gens:
                theta = theta + rng.randrange(4) * gen
            space = state_space_torus(grp, theta)
            assert space.basis == brute_force_flat_basis(
                grp, space.line_bundle, n - 1
            )


def test_state_space_bases_read_on_stabilizer_generators(monkeypatch):
    """On every H^2 and H^3 class (shifted by a coboundary) of six groups,
    the basis read on each stabilizer's kept generating set is the basis
    read on the whole stabilizer, and each kept set generates it."""
    read, flat_basis = [], invariants.flat_basis

    def both(groupoid, phase):
        read.append((groupoid, flat_basis(groupoid, phase),
                     reference_flat_basis(groupoid, phase)))
        return read[-1][1]

    rng = random.Random(40)
    groups = [dihedral_group(6), dihedral_group(8), dihedral_group(10),
              product_group([2, 2, 2]), product_group([4, 2]), cyclic_group(6)]
    count = 0
    for grp in groups:
        for n in (2, 3):
            h = cohomology(grp, n)
            for coeffs in iter_product(*map(range, h.invariant_factors)):
                theta = coboundary(random_cochain(grp, n - 1, 4, rng))
                for c, gen in zip(coeffs, h.generators):
                    theta = theta + c * gen
                with monkeypatch.context() as patch:
                    patch.setattr(invariants, "flat_basis", both)
                    space = state_space_torus(grp, theta)
                groupoid, got, want = read.pop()
                assert space.basis == tuple(got) == tuple(want)
                assert groupoid is gauge_groupoid(grp, n - 1)
                count += 1
        for k in (1, 2):
            assert aut_generators_generate(gauge_groupoid(grp, k))
    assert count == 197


# --------------------------------------------------------------------------
# symmetry action


def klein_in_d8_extension():
    d8 = dihedral_group(8)
    k4 = product_group([2, 2])
    iota = GroupHom(k4, d8, [0, 2, 4, 6])
    z2 = cyclic_group(2)
    klein = {0, 2, 4, 6}
    lam = GroupHom(d8, z2, [0 if x in klein else 1 for x in d8.elements()])
    return Extension(k4, d8, z2, iota, lam, find_section(lam))


def test_symmetry_action_from_closed_lift_is_exact():
    ext = klein_in_d8_extension()
    k4, z2 = ext.kernel, ext.quotient
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    lift = find_closed_lift(ext, w1)
    assert lift is not None and pullback(ext.iota, lift) == w1

    alpha = ext.action
    phis = {
        g: interval_pairing(lift, ext.section[z2.inverses[g]], ext.iota)
        for g in z2.elements()
    }
    space = state_space_torus(k4, w1)
    matrices, defect = symmetry_action(z2, alpha, phis, space)
    assert defect == {}
    for mat in matrices.values():
        assert len(mat) == space.dimension


def test_symmetry_action_reports_projective_defect():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    space = state_space_torus(z4, Cochain.zero(z4, 2))
    assert space.dimension == 4
    chi = Cochain(z4, 1, 4, {(x,): PhaseValue(x, 4) for x in range(1, 4)})
    phis = {0: Cochain.zero(z4, 1), 1: chi}
    ident = GroupHom(z4, z4, [0, 1, 2, 3])
    _, defect = symmetry_action(z2, lambda g: ident, phis, space)
    assert defect == {(1, 1): {1: PhaseValue(1, 2), 3: PhaseValue(1, 2)}}


def test_symmetry_action_transport_direction():
    """Inner automorphisms act trivially on the states of an exact twist.

    omega = delta beta on S3, with beta taking order-3 values on two of the
    three reflections, and Z3 acts by conjugation with a 3-cycle r through
    Phi_g = beta - alpha(g^{-1})^* beta.  A matrix entry is Phi_g on the
    torus cycle of the basis tuple phi, plus the transport from
    psi = alpha(g^{-1}) phi back to its basis representative along any x with
    x^{-1} psi x = rep.  On the reflection orbit that transport has order 3
    along a transporter of order 3, so reading it in the opposite direction
    changes the matrices.
    """
    s3, z3 = dihedral_group(6), cyclic_group(3)
    r = next(x for x in s3.elements() if s3.element_order(x) == 3)
    refl = [x for x in s3.elements() if s3.element_order(x) == 2]

    def alpha(g):
        c = s3.power(r, g)
        return GroupHom(s3, s3, [s3.conjugate(c, x) for x in s3.elements()])

    third = PhaseValue(1, 3)
    beta = Cochain(s3, 1, 3, {(refl[1],): third, (refl[2],): third})
    space = state_space_torus(s3, coboundary(beta))
    phis = {g: beta - pullback(alpha(z3.inverses[g]), beta)
            for g in z3.elements()}
    matrices, defect = symmetry_action(z3, alpha, phis, space)

    order_three = False
    for g in z3.elements():
        a_inv = alpha(z3.inverses[g])
        want = {}
        for i, phi in enumerate(space.basis):
            psi = tuple(a_inv(x) for x in phi)
            j, x = next(
                (j, x)
                for j, rep in enumerate(space.basis)
                for x in s3.elements()
                if tuple(s3.conjugate(s3.inverses[x], y) for y in psi) == rep
            )
            transport = space.line_bundle.value(psi + (x,)).reduced()
            if transport.modulus == 3 and s3.element_order(x) == 3:
                order_three = True
            phase = evaluate(phis[g], torus_fundamental_cycle(s3, phi))
            want[(i, j)] = (phase + transport).reduced()
        assert matrices[g] == want
    assert order_three
    # psi = beta + const on each orbit is parallel, and U_g fixes it
    assert defect == {}
    assert all(v.is_zero() for mat in matrices.values() for v in mat.values())


def test_symmetry_action_rejects_wrong_phi():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    space = state_space_torus(z4, Cochain.zero(z4, 2))
    bad = Cochain(z4, 1, 4, {(1,): PhaseValue(1, 4)})
    wrong = {0: Cochain.zero(z4, 1), 1: bad}
    ident = GroupHom(z4, z4, [0, 1, 2, 3])
    with pytest.raises(IncompatiblePhases):
        symmetry_action(z2, lambda g: ident, wrong, space)


def test_zero_theta_reads_no_numerators(monkeypatch):
    def unread(self, modulus=None):
        raise AssertionError("a zero theta has no numerators to read")

    cases = [(group, n, Cochain.zero(group, n, 4))
             for group in builtin_groups_up_to(16) for n in (2, 3)]
    with monkeypatch.context() as patch:
        patch.setattr(Cochain, "numerators", unread)
        for group, n, theta in cases:
            assert invariants._torus_residues(theta) == Counter(
                {0: commuting_tuple_count(group, n)})
    # the budget on tuples times n! is still checked first
    monkeypatch.setattr(invariants, "TORUS_TERM_BUDGET", 10)
    over = [(n, theta) for group, n, theta in cases
            if commuting_tuple_count(group, n) * factorial(n) > 10]
    assert len(over) == len(cases) - 3  # all but Z1 (n = 2, 3) and Z2 (n = 2)
    for n, theta in over:
        with pytest.raises(BudgetExceeded):
            dw_partition_torus(theta.group, theta, n)
