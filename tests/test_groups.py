import random

import pytest

from support import (
    find_isomorphism,
    product_index_table,
    reference_associativity_witness,
    reference_hom_witness,
    swap_intercalate,
)

from dwkit.errors import NotAGroup, UnknownBuiltin
from dwkit.io import group_json, parse_group
from dwkit.groups import (
    GroupHom,
    builtin_group,
    cyclic_group,
    dihedral_group,
    dihedral_index,
    group_from_table,
    pauli_group,
    product_group,
)


def test_trivial_group():
    g = group_from_table(1, [[0]])
    assert g.order == 1 and g.identity == 0


def test_cyclic_four_inverses():
    g = cyclic_group(4)
    assert list(g.inverses) == [0, 3, 2, 1]


def test_non_latin_square_rejected():
    with pytest.raises(NotAGroup):
        group_from_table(2, [[0, 1], [1, 1]])


# a Latin square with a two-sided identity that is not a group table
ORDER_FIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_non_associative_rejected():
    with pytest.raises(NotAGroup):
        group_from_table(5, ORDER_FIVE_LOOP)


def z128_intercalate_table():
    """Z128 with the intercalate at rows 1, 65 and columns 1, 65 swapped:
    a loop with 1,984 of its 128^3 triples non-associative."""
    return swap_intercalate(cyclic_group(128).table, 1, 65, 1, 65)


def test_non_associative_table_above_order_64_is_rejected():
    with pytest.raises(NotAGroup) as info:
        group_from_table(128, z128_intercalate_table())
    assert info.value.reason == "associativity fails"
    assert info.value.witness == (1, 1, 2)


def intercalates(table, identity):
    """Every intercalate (r1, r2, c1, c2) of a Latin square away from the
    identity's row, column and entries, so a swap keeps the identity and
    every inverse."""
    found = []
    for r1 in range(len(table)):
        for r2 in range(r1 + 1, len(table)):
            for c1 in range(len(table)):
                c2 = table[r1].index(table[r2][c1])
                corners = (r1, r2, c1, c2, table[r1][c1], table[r1][c2])
                if c1 < c2 and table[r2][c2] == table[r1][c1] and identity not in corners:
                    found.append((r1, r2, c1, c2))
    return found


def seeded_loops():
    """Latin squares with identity 0 of orders 5-16: one or two seeded
    intercalate swaps in cyclic and product tables, and the order-5 loop."""
    rng = random.Random(31)
    loops = [ORDER_FIVE_LOOP]
    bases = [cyclic_group(n) for n in (6, 8, 10, 12, 14, 16)]
    bases += [product_group(f) for f in ([2, 4], [2, 2, 2], [3, 4], [2, 6],
                                          [2, 2, 4], [4, 4], [2, 8], [2, 2, 2, 2])]
    for group in bases:
        for swaps in (1, 1, 2):
            table = group.table
            for _ in range(swaps):
                table = swap_intercalate(table, *rng.choice(intercalates(table, 0)))
            loops.append(table)
    return loops


def test_table_checks_match_the_exhaustive_triple_scan():
    verdicts = []
    for table in seeded_loops():
        want = reference_associativity_witness(table)
        try:
            group = group_from_table(len(table), table)
        except NotAGroup as exc:
            assert (exc.reason, exc.witness) == ("associativity fails", want)
            assert str(exc) == f"associativity fails (witness: {want})"
        else:
            assert want is None and group.identity == 0
        verdicts.append(want is None)
    assert len(verdicts) == 43 and 0 < verdicts.count(True) < len(verdicts)


def seeded_maps(rng):
    """Maps between small groups: homomorphisms, homomorphisms with one
    value changed, maps that move the identity and random maps."""
    z2, z4, k4 = cyclic_group(2), cyclic_group(4), product_group([2, 2])
    d6, d8, z2z4 = dihedral_group(6), dihedral_group(8), product_group([2, 4])
    homs = [
        (z4, z2, [0, 1, 0, 1]),
        (d6, z2, [0, 0, 0, 1, 1, 1]),
        (z2z4, z4, [x % 4 for x in range(8)]),
        (z2z4, k4, [(x // 4) * 2 + x % 2 for x in range(8)]),
        (d8, d8, list(range(8))),
        (pauli_group(), d8, [0] * 16),
        (cyclic_group(16), z4, [x % 4 for x in range(16)]),
    ]
    for src, dst, mapping in homs:
        yield src, dst, mapping
        for _ in range(4):
            bent = list(mapping)
            bent[rng.randrange(1, src.order)] = rng.randrange(dst.order)
            yield src, dst, bent
        yield src, dst, [rng.randrange(dst.order) for _ in range(src.order)]
        yield src, dst, [dst.identity] + [rng.randrange(dst.order)
                                          for _ in range(src.order - 1)]
    # multiplicative on right factors in <(0, 1)>, not on (1, 0)
    yield z2z4, z4, [(x // 4 + x) % 4 for x in range(8)]


def test_hom_checks_match_the_exhaustive_pair_scan():
    accepted = 0
    for src, dst, mapping in seeded_maps(random.Random(31)):
        want = reference_hom_witness(src, dst, mapping)
        try:
            GroupHom(src, dst, mapping)
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert want is None
            accepted += 1
    assert 7 <= accepted < 50
    # a value out of range ends the pair scan with an IndexError
    with pytest.raises(IndexError):
        GroupHom(cyclic_group(4), cyclic_group(2), [0, 5, 0, 1])


def test_product_tables_equal_the_pairwise_construction():
    for factors in ([1], [7], [2, 3], [3, 2], [2, 2, 2], [4, 1, 3], [2, 4, 8],
                    [8, 4, 2], [2, 2, 2, 2, 2, 2, 2], [16, 8], [3, 5, 7]):
        table = tuple(map(tuple, product_index_table(factors)))
        assert product_group(factors).table == table


def test_pauli_group_shape():
    p = pauli_group()
    assert p.order == 16
    assert len(p.center()) == 4
    assert len(p.conjugacy_classes()) == 10


def test_dihedral_presentation():
    d8 = dihedral_group(8)
    a = dihedral_index(8, 1, 0)
    b = dihedral_index(8, 0, 1)
    assert d8.power(a, 4) == d8.identity
    assert d8.mul(b, b) == d8.identity
    assert d8.conjugate(b, a) == d8.inverses[a]


def test_builtin_dispatch():
    assert builtin_group("cyclic", {"n": 1}).order == 1
    assert builtin_group("product", {"factors": [2, 3]}).order == 6
    assert builtin_group("dihedral", {"order": 6}).order == 6
    with pytest.raises(UnknownBuiltin):
        builtin_group("simple", {})


def test_builtin_constructors_return_one_group_per_spec():
    def builtin(name, params):
        return parse_group({"kind": "builtin", "name": name, "params": params})

    # a spec no other test asks for: one miss, then hits
    before = builtin_group.cache_info()
    first = product_group([5, 1, 3])
    after = builtin_group.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    assert product_group((5, 1, 3)) is first
    assert builtin_group.cache_info().hits == after.hits + 1
    assert builtin_group.cache_info().misses == after.misses

    z4 = cyclic_group(4)
    assert cyclic_group(4) is z4 and builtin_group("cyclic", {"n": 4}) is z4
    assert builtin("cyclic", {"n": 4}) is z4
    k4 = product_group([2, 2])
    assert product_group((2, 2)) is k4
    assert builtin("product", {"factors": [2, 2]}) is k4
    d8 = dihedral_group(8)
    assert dihedral_group(8) is d8 and builtin("dihedral", {"order": 8}) is d8
    assert pauli_group() is pauli_group() is builtin("pauli", {})
    assert z4.generators() is cyclic_group(4).generators()

    # equal tables, distinct specs: distinct objects with their own spec
    z4p = product_group([4])
    assert z4p == z4 and z4p is not z4
    assert (z4.label, z4.builtin_spec) == ("Z4", ("cyclic", {"n": 4}))
    assert (z4p.label, z4p.builtin_spec) == (
        "Z4", ("product", {"factors": (4,)}))
    doc = group_json(k4)  # the spec of a shared group is copied out
    doc["params"]["factors"].append(3)
    assert k4.builtin_spec == ("product", {"factors": (2, 2)})
    fresh = group_from_table(4, z4.table, label="Z4")
    assert fresh == z4 and fresh is not z4 and fresh.builtin_spec is None

    # every failing spec raises on every call and leaves nothing behind
    before = builtin_group.cache_info()
    for _ in range(2):
        for bad in (lambda: product_group([]), lambda: product_group([2, 0]),
                    lambda: dihedral_group(7), lambda: builtin_group("simple"),
                    lambda: builtin("simple", {})):
            with pytest.raises(UnknownBuiltin):
                bad()
        with pytest.raises(TypeError):
            cyclic_group(4.0)
    assert builtin_group.cache_info() == before
    for _ in range(2):
        with pytest.raises(NotAGroup):
            cyclic_group(0)
    assert builtin_group.cache_info().currsize == before.currsize


def test_builtin_spec_is_read_only():
    k4 = product_group([2, 2])
    before = group_json(product_group([2, 2]))
    assert before["params"] == {"factors": [2, 2]}
    with pytest.raises(AttributeError):
        k4.builtin_spec[1]["factors"].append(3)
    with pytest.raises(TypeError):
        k4.builtin_spec[1]["factors"] = [2, 2, 3]
    with pytest.raises(TypeError):
        cyclic_group(4).builtin_spec[1]["n"] = 5
    assert group_json(product_group([2, 2])) == before
    assert group_json(cyclic_group(4))["params"] == {"n": 4}
    assert parse_group(group_json(k4)) is k4


def test_group_axioms_on_builtins():
    for g in (cyclic_group(5), product_group([2, 4]), dihedral_group(10)):
        for a in g.elements():
            assert g.mul(a, g.inverses[a]) == g.identity
            assert g.mul(g.identity, a) == a
        for a in range(g.order):
            for b in range(g.order):
                for c in range(g.order):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_hom_validation():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = GroupHom(z4, z2, [0, 1, 0, 1])
    assert f.kernel() == [0, 2]
    assert f.is_surjective() and not f.is_injective()
    with pytest.raises(ValueError):
        GroupHom(z4, z2, [0, 1, 1, 0])


def test_find_isomorphism():
    d8 = dihedral_group(8)
    other = group_from_table(8, d8.table)
    iso = find_isomorphism(d8, other)
    assert iso is not None
    assert find_isomorphism(cyclic_group(4), product_group([2, 2])) is None


def test_conjugacy_classes_partition():
    s3 = dihedral_group(6)
    classes = s3.conjugacy_classes()
    assert sorted(x for cls in classes for x in cls) == list(s3.elements())
    assert len(classes) == 3
