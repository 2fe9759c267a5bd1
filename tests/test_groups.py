import pytest

from support import find_isomorphism

from dwkit.errors import NotAGroup, UnknownBuiltin
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


def test_non_associative_rejected():
    # a Latin square that is not a group table
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup):
        group_from_table(5, table)


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
