import hashlib
import json
import random

import pytest

from support import direct_product_extension, random_cochain
from test_invariants import type_three_cocycle

from dwkit.cochains import catalog_cocycle
from dwkit.groups import cyclic_group, dihedral_group, pauli_group, product_group
from dwkit.invariants import transgress_circle, transgress_torus
from dwkit.io import (
    FormatError,
    cochain_json,
    extension_json,
    group_json,
    loop_cochain_json,
    parse_cochain,
    parse_extension,
    parse_group,
)


def test_group_round_trip_builtin():
    for group in (
        cyclic_group(6),
        product_group([2, 4]),
        dihedral_group(8),
        pauli_group(),
    ):
        doc = group_json(group)
        assert doc["kind"] == "builtin"
        back = parse_group(json.loads(json.dumps(doc)))
        assert back.canonical_hash() == group.canonical_hash()


def test_group_round_trip_table():
    from dwkit.groups import group_from_table

    g = group_from_table(3, cyclic_group(3).table)
    doc = group_json(g)
    assert doc["kind"] == "table"
    assert parse_group(doc).canonical_hash() == g.canonical_hash()


def test_group_format_errors():
    with pytest.raises(FormatError):
        parse_group({"kind": "builtin", "name": "cyclic", "extra": 1})
    with pytest.raises(FormatError):
        parse_group({"kind": "mystery"})
    with pytest.raises(FormatError):
        parse_group([1, 2, 3])


def test_cochain_round_trip():
    rng = random.Random(41)
    for group in (product_group([2, 2]), dihedral_group(8)):
        for degree in (1, 2, 3):
            c = random_cochain(group, degree, 4, rng)
            doc = json.loads(json.dumps(cochain_json(c)))
            back = parse_cochain(doc)
            assert back == c


def test_cochain_digit_descriptors():
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    doc = cochain_json(w1)
    doc["values"] = {"1,0|0,1": "1/2", "1,1|0,1": "1/2", "1,0|1,1": "1/2", "1,1|1,1": "1/2"}
    assert parse_cochain(doc) == w1


def test_cochain_group_by_hash():
    z4 = cyclic_group(4)
    c = catalog_cocycle("cyclic_3cocycle", {"N": 4, "k": 1})
    doc = cochain_json(c, group_field=z4.canonical_hash())
    assert parse_cochain(doc, group=z4) == c
    with pytest.raises(FormatError):
        parse_cochain(doc)
    with pytest.raises(FormatError):
        parse_cochain(doc, group=cyclic_group(5))


def test_cochain_format_errors():
    z2 = cyclic_group(2)
    base = {
        "group": group_json(z2),
        "degree": 1,
        "modulus": 2,
        "values": {"1": "1/2"},
    }
    bad_key = dict(base, values={"1|1": "1/2"})
    with pytest.raises(FormatError):
        parse_cochain(bad_key)
    bad_val = dict(base, values={"1": "1/3"})
    with pytest.raises(FormatError):
        parse_cochain(bad_val)
    bad_elt = dict(base, values={"7": "1/2"})
    with pytest.raises(FormatError):
        parse_cochain(bad_elt)
    with pytest.raises(FormatError):
        parse_cochain(dict(base, values=[]))


def test_loop_cochain_emission():
    theta = catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1})
    doc = loop_cochain_json(transgress_circle(theta))
    assert doc["loops"] == 1 and doc["degree"] == 2
    assert all(";" in k for k in doc["values"])
    json.dumps(doc)


# exact emitted documents: the "base;args" keys and their order must not
# drift
Z4_TRANSGRESSED_ONCE = {
    "1;1|3": "1/4", "1;2|2": "1/4", "1;2|3": "1/4",
    "1;3|1": "1/4", "1;3|2": "1/4", "1;3|3": "1/4",
    "2;1|3": "1/2", "2;2|2": "1/2", "2;2|3": "1/2",
    "2;3|1": "1/2", "2;3|2": "1/2", "2;3|3": "1/2",
    "3;1|3": "3/4", "3;2|2": "3/4", "3;2|3": "3/4",
    "3;3|1": "3/4", "3;3|2": "3/4", "3;3|3": "3/4",
}


def cyclic_doc(n, loops, degree, values):
    return {
        "group": {"kind": "builtin", "name": "cyclic", "params": {"n": n}},
        "loops": loops, "degree": degree, "modulus": n, "values": values,
    }


def test_loop_cochain_documents():
    z2_theta = catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1})
    z4_theta = catalog_cocycle("cyclic_3cocycle", {"N": 4, "k": 1})
    cases = [
        (z2_theta, 1, cyclic_doc(2, 1, 2, {"1;1|1": "1/2"})),
        (z4_theta, 1, cyclic_doc(4, 1, 2, Z4_TRANSGRESSED_ONCE)),
        (z4_theta, 2, cyclic_doc(4, 2, 1, {})),
    ]
    for theta, times, want in cases:
        doc = loop_cochain_json(transgress_torus(theta, times))
        assert doc == want
        assert list(doc["values"].items()) == list(want["values"].items())


def test_loop_cochain_document_with_two_loops():
    doc = loop_cochain_json(transgress_torus(type_three_cocycle(), 2))
    keys = list(doc["values"])
    assert len(keys) == 168
    assert keys[:3] == ["1|2;4", "1|2;5", "1|2;6"]
    assert keys[-3:] == ["7|6;3", "7|6;4", "7|6;5"]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == (
        "d84c52ce7bba06d91069136942cef46c47943d934b74f46c87accb27ca7adfaf"
    )


def test_extension_round_trip():
    ext = direct_product_extension(dihedral_group(6), cyclic_group(2))
    doc = json.loads(json.dumps(extension_json(ext)))
    back = parse_extension(doc)
    assert back.total.canonical_hash() == ext.total.canonical_hash()
    assert back.iota.map == ext.iota.map
    assert back.section == ext.section
    del doc["section"]
    again = parse_extension(doc)
    assert again.lam.map == ext.lam.map


def _malformed(kind, path, value):
    """A valid document of ``kind`` with the entry at ``path`` set to
    ``value``; a last path entry None renames the first tuple key instead."""
    k4 = product_group([2, 2])
    doc = json.loads(json.dumps({
        "table": {"kind": "table", "order": 4, "table": k4.table},
        "builtin": group_json(k4),
        "cochain": cochain_json(catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})),
        "extension": extension_json(
            direct_product_extension(cyclic_group(2), cyclic_group(2))),
    }[kind]))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if path[-1] is None:
        target[value] = target.pop(next(iter(target)))
    else:
        target[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind, path, value, field", [
    ("table", ["order"], "x", "group order"),
    ("builtin", ["params", "factors"], ["x", 2], "group params"),
    ("builtin", ["params"], {}, "group params"),
    ("cochain", ["degree"], "x", "cochain degree"),
    ("cochain", ["degree"], [2], "cochain degree"),
    ("cochain", ["modulus"], "x", "cochain modulus"),
    ("cochain", ["values", None], "1,x|0,1", "tuple descriptor"),
    ("cochain", ["values", None], "x|1", "tuple descriptor"),
    ("cochain", ["values", "1|1"], "half", "cochain value"),
    ("cochain", ["values", "1|1"], "1/0", "cochain value"),
    ("extension", ["iota"], ["x", 1], "iota"),
    ("extension", ["lambda"], 5, "lambda"),
    ("extension", ["lambda"], [0, 1], "lambda"),
    ("extension", ["section"], [0, None], "section"),
])
def test_malformed_numbers_raise_a_format_error_naming_the_field(
        kind, path, value, field):
    doc = _malformed(kind, path, value)
    parse = {"table": parse_group, "builtin": parse_group,
             "cochain": parse_cochain, "extension": parse_extension}[kind]
    with pytest.raises(FormatError, match=field):
        parse(doc)
