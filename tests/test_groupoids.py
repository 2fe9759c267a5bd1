import itertools
from fractions import Fraction

import pytest

from support import (
    cardinality,
    delooping,
    homotopy_fiber,
    integrate,
    scanned_aut,
)

from dwkit.errors import BudgetExceeded, NotGaugeInvariant
from dwkit.groupoids import FinGroupoid, gauge_groupoid
from dwkit.groups import (
    GroupHom,
    cyclic_group,
    dihedral_exponents,
    dihedral_group,
    group_from_table,
    pauli_group,
    product_group,
    product_index,
)
from dwkit.phase import PhaseValue


def reference_homotopy_fiber(hom, y):
    """The homotopy fibre of Bun_Ghat(T^n) -> Bun_G(T^n) over y by a scan
    of object pairs x group elements, with nothing from dwkit.groupoids.

    Objects (x, h) have h F(x) h^{-1} = y; g: (x, h) -> (x', h') is a
    morphism when g x g^{-1} = x' and h' F(g) = h.  Returns (objects,
    classes sorted by repr with the representative first, cardinality).
    """
    src, tgt = hom.source, hom.target

    def conj(group, k, t):
        return tuple(group.conjugate(k, a) for a in t)

    tuples = [
        t for t in itertools.product(src.elements(), repeat=len(y))
        if all(src.commute(a, b) for a in t for b in t)
    ]
    objs = [
        (x, h) for x in tuples for h in tgt.elements()
        if conj(tgt, h, tuple(hom(a) for a in x)) == y
    ]
    hom_sets = {
        (a, b): [
            g for g in src.elements()
            if conj(src, g, a[0]) == b[0] and tgt.mul(b[1], hom(g)) == a[1]
        ]
        for a in objs for b in objs
    }
    parent = {a: a for a in objs}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for (a, b), ms in hom_sets.items():
        if ms:
            parent[find(a)] = find(b)
    buckets = {}
    for a in objs:
        buckets.setdefault(find(a), []).append(a)
    classes = sorted((sorted(c, key=repr) for c in buckets.values()),
                     key=lambda c: repr(c[0]))
    card = sum((Fraction(1, len(hom_sets[(c[0], c[0])])) for c in classes),
               Fraction(0))
    return objs, classes, card


def d8_to_k4():
    """D8 -> D8 / Z(D8) = K4, a^i b^j -> (i mod 2, j)."""
    d8 = dihedral_group(8)
    return GroupHom(d8, product_group([2, 2]), [
        product_index([2, 2], (i % 2, j))
        for i, j in (dihedral_exponents(8, x) for x in d8.elements())
    ])


FIBRE_CASES = [
    (GroupHom(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1]), 1),
    (GroupHom(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1]), 2),
    (GroupHom(dihedral_group(6), cyclic_group(2), [0, 0, 0, 1, 1, 1]), 1),
    (GroupHom(cyclic_group(2), cyclic_group(4), [0, 2]), 2),
    (GroupHom(product_group([2, 2]), cyclic_group(2), [0, 1, 0, 1]), 2),
    (d8_to_k4(), 1),
    (d8_to_k4(), 2),
]


def test_delooping_cardinality():
    s3 = dihedral_group(6)
    assert cardinality(delooping(s3)) == Fraction(1, 6)


def test_two_isolated_objects():
    x = FinGroupoid(cyclic_group(1), ["a", "b"], lambda k, x: x)
    assert cardinality(x) == 2


def test_gauge_groupoid_counts():
    s3 = dihedral_group(6)
    assert cardinality(gauge_groupoid(s3, 1)) == 1
    x2 = gauge_groupoid(s3, 2)
    assert len(x2.objects()) == 18
    assert cardinality(x2) == 3
    x3 = gauge_groupoid(s3, 3)
    assert len(x3.objects()) == 48
    assert cardinality(x3) == 8


def test_gauge_groupoid_abelian():
    z6 = product_group([2, 3])
    x = gauge_groupoid(z6, 2)
    assert len(x.objects()) == 36
    assert cardinality(x) == 6


def test_gauge_groupoid_budget():
    info = gauge_groupoid.cache_info()
    with pytest.raises(BudgetExceeded):
        gauge_groupoid(product_group([4, 4, 4]), 4)
    with pytest.raises(ValueError):
        gauge_groupoid(product_group([4, 4, 4]), -1)
    assert gauge_groupoid.cache_info() == info


def test_equal_groups_share_their_gauge_groupoids():
    d8 = dihedral_group(8)
    copy = group_from_table(d8.order, [list(row) for row in d8.table])
    assert copy is not d8 and copy == d8
    for n in (0, 1, 2):
        x, y = gauge_groupoid(d8, n), gauge_groupoid(copy, n)
        assert x.objects() == y.objects()
        assert x.isomorphism_classes() == y.isomorphism_classes()


def test_integrate_constant_recovers_cardinality():
    x = gauge_groupoid(dihedral_group(6), 2)
    assert integrate(x, lambda t: 1) == cardinality(x)


def test_integrate_indicator():
    x = gauge_groupoid(dihedral_group(6), 1)
    cls = x.isomorphism_classes()[1]
    members = set(cls)
    f = lambda t: 1 if t in members else 0
    assert integrate(x, f) == Fraction(1, len(x.aut(cls[0])))


def test_integrate_rejects_non_invariant():
    x = gauge_groupoid(dihedral_group(6), 1)
    with pytest.raises(NotGaugeInvariant):
        integrate(x, lambda t: t[0])


def test_integrate_phase_values():
    z2 = cyclic_group(2)
    x = gauge_groupoid(z2, 1)
    out = integrate(x, lambda t: PhaseValue(t[0], 2))
    assert out == {
        PhaseValue(0, 1): Fraction(1, 2),
        PhaseValue(1, 2): Fraction(1, 2),
    }


def test_cavalieri_along_reduction():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    hom = GroupHom(z4, z2, [0, 1, 0, 1])
    tgt = gauge_groupoid(z2, 1)
    # generalized Cavalieri: |source| = sum over target classes of |fiber| / |Aut|
    total = sum(
        cardinality(homotopy_fiber(hom, cls[0])) * Fraction(1, len(tgt.aut(cls[0])))
        for cls in tgt.isomorphism_classes()
    )
    assert total == cardinality(gauge_groupoid(z4, 1))


def test_generalized_cavalieri_random_functors():
    cases = [
        (GroupHom(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1]), 2),
        (GroupHom(dihedral_group(6), cyclic_group(2), [0, 0, 0, 1, 1, 1]), 1),
        (GroupHom(cyclic_group(2), cyclic_group(4), [0, 2]), 2),
        (GroupHom(product_group([2, 2]), cyclic_group(2), [0, 1, 0, 1]), 2),
    ]
    for hom, n in cases:
        tgt = gauge_groupoid(hom.target, n)
        total = sum(
            cardinality(homotopy_fiber(hom, cls[0]))
            * Fraction(1, len(tgt.aut(cls[0])))
            for cls in tgt.isomorphism_classes()
        )
        assert total == cardinality(gauge_groupoid(hom.source, n))


def test_homotopy_fiber_of_identity_is_contractible():
    s3 = dihedral_group(6)
    bg = delooping(s3)
    fib = homotopy_fiber(GroupHom(s3, s3, list(s3.elements())), ())
    assert cardinality(fib) == 1
    # this is the total space of the universal covering: |EG| = |G| * |BG|
    assert len(fib.objects()) == s3.order
    assert cardinality(fib) == s3.order * cardinality(bg)


def test_homotopy_fiber_over_unreached_object():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    fib = homotopy_fiber(GroupHom(z2, z4, [0, 2]), (1,))
    assert cardinality(fib) == 0


def test_homotopy_fiber_matches_pair_scan():
    for hom, n in FIBRE_CASES:
        for y in gauge_groupoid(hom.target, n).objects():
            objs, classes, card = reference_homotopy_fiber(hom, y)
            fib = homotopy_fiber(hom, y)
            assert list(fib.objects()) == objs
            assert fib.isomorphism_classes() == classes
            assert cardinality(fib) == card


def test_integrate_is_the_object_sum_over_the_group_order():
    groupoids = [gauge_groupoid(g, n)
                 for g in (dihedral_group(6), dihedral_group(8),
                           product_group([4, 2]))
                 for n in (0, 1, 2)]
    groupoids += [homotopy_fiber(hom, y) for hom, n in FIBRE_CASES
                  for y in gauge_groupoid(hom.target, n).objects()]
    for x in groupoids:
        label = {y: i + 1 for i, cls in enumerate(x.isomorphism_classes())
                 for y in cls}
        order = x.group.order
        assert integrate(x, label.get) == sum(
            (Fraction(label[y], order) for y in x.objects()), Fraction(0)
        )


def test_transporters_and_stabilizers():
    tori = [gauge_groupoid(g, 2)
            for g in (dihedral_group(8), dihedral_group(6), pauli_group())]
    fib = homotopy_fiber(d8_to_k4(), (1, 2))
    for grpd in (*tori, fib):
        for cls in grpd.isomorphism_classes():
            for y in cls:
                rep, k = grpd.transporter(y)
                assert rep == cls[0] and grpd.act(k, rep) == y
                assert grpd.aut(y) == scanned_aut(grpd, y)


def test_aut_is_the_stabilizer_from_the_table():
    cases = [(dihedral_group(8), 1), (dihedral_group(8), 2),
             (dihedral_group(6), 1), (dihedral_group(6), 2), (pauli_group(), 2)]
    for group, n in cases:
        table = group.table
        grpd = gauge_groupoid(group, n)
        for x in grpd.objects():
            want = sorted(k for k in group.elements()
                          if all(table[k][a] == table[a][k] for a in x))
            assert list(grpd.aut(x)) == want


def test_action_must_stay_inside_the_objects():
    x = FinGroupoid(cyclic_group(4), [0, 1], lambda k, a: (a + k) % 4)
    with pytest.raises(ValueError):
        x.isomorphism_classes()
    with pytest.raises(ValueError):
        cardinality(x)


def test_not_gauge_invariant_reports_a_transporter():
    x = gauge_groupoid(dihedral_group(6), 1)
    with pytest.raises(NotGaugeInvariant) as info:
        integrate(x, lambda t: t[0])
    rep, other, k = info.value.morphism
    assert rep != other
    assert x.act(k, rep) == other


def test_isomorphism_classes_partition_objects():
    x = gauge_groupoid(dihedral_group(8), 2)
    classes = x.isomorphism_classes()
    seen = [t for cls in classes for t in cls]
    assert sorted(seen) == sorted(x.objects())
