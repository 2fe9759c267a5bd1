"""JSON file formats for groups, cochains, and extensions.

Group file:
    {"kind": "table", "order": N, "table": [[...], ...]}
    {"kind": "builtin", "name": "cyclic", "params": {"n": 4}}
    {"kind": "builtin", "name": "product", "params": {"factors": [2, 2]}}
    {"kind": "builtin", "name": "dihedral", "params": {"order": 8}}
    {"kind": "builtin", "name": "pauli", "params": {}}

Cochain file:
    {"group": <group object or canonical hash>, "degree": n, "modulus": M,
     "values": {"1|2": "1/2", ...}}
where a tuple key is pipe-separated element descriptors.  A descriptor is
a plain element index, or for product builtins a comma-separated digit
tuple ("1,0").  Omitted keys are zero; values are reduced fractions "p/q"
with q dividing M.

Extension file:
    {"D": <group>, "Ghat": <group>, "G": <group>,
     "iota": [...], "lambda": [...], "section": [... optional]}

Unknown keys are rejected everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotAGroup, UnknownBuiltin
from .groups import FiniteGroup, GroupHom, builtin_group, group_from_table, product_index
from .phase import PhaseValue


class FormatError(ValueError):
    """Malformed document for one of the file formats."""


def _require_keys(obj, required, optional=(), what="object"):
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"{what} is missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise FormatError(f"{what} has unknown keys {unknown}")


def _parse(convert, value, field):
    """convert(value), with a malformed value reported as a FormatError
    naming ``field`` (a bare int() raises ValueError, TypeError or
    OverflowError, and a map value outside its target group IndexError,
    which the CLI does not map)."""
    try:
        return convert(value)
    except (NotAGroup, UnknownBuiltin):
        raise
    except (IndexError, KeyError, TypeError, ValueError, OverflowError,
            ZeroDivisionError) as exc:
        raise FormatError(f"{field} is malformed ({exc})") from None


# -- groups ------------------------------------------------------------------


def parse_group(obj) -> FiniteGroup:
    _require_keys(obj, ["kind"], ["order", "table", "name", "params"], "group")
    kind = obj["kind"]
    if kind == "table":
        _require_keys(obj, ["kind", "order", "table"], what="group")
        return group_from_table(_parse(int, obj["order"], "group order"), obj["table"])
    if kind == "builtin":
        _require_keys(obj, ["kind", "name"], ["params"], "group")
        return _parse(lambda params: builtin_group(obj["name"], params),
                      obj.get("params", {}), "group params")
    raise FormatError(f"unknown group kind {kind!r}")


def group_json(group: FiniteGroup) -> dict:
    spec = getattr(group, "builtin_spec", None)
    if spec is not None:
        name, params = spec  # read-only, with tuples written as lists
        return {"kind": "builtin", "name": name, "params": {
            k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}}
    return {
        "kind": "table",
        "order": group.order,
        "table": [list(row) for row in group.table],
    }


def _product_factors(obj):
    if (
        isinstance(obj, dict)
        and obj.get("kind") == "builtin"
        and obj.get("name") == "product"
    ):
        return _parse(lambda fs: [int(n) for n in fs],
                      obj.get("params", {}).get("factors", []), "product factors")
    return None


# -- cochains ----------------------------------------------------------------


def _parse_phase(text, modulus):
    frac = _parse(Fraction, str(text), "cochain value")
    if frac.denominator == 1:
        return PhaseValue(0, 1)
    if modulus % frac.denominator:
        raise FormatError(
            f"value {text!r} has denominator not dividing modulus {modulus}"
        )
    return PhaseValue(frac.numerator % frac.denominator, frac.denominator)


def _parse_descriptor(desc, factors):
    desc = desc.strip()
    if "," in desc:
        if factors is None:
            raise FormatError(
                "digit descriptors are only valid for product builtins"
            )
        return product_index(factors, [_parse(int, d, "tuple descriptor")
                                       for d in desc.split(",")])
    return _parse(int, desc, "tuple descriptor")


def parse_cochain(obj, group: FiniteGroup | None = None) -> Cochain:
    from .cochains import Cochain
    _require_keys(obj, ["group", "degree", "modulus", "values"], what="cochain")
    gobj = obj["group"]
    if isinstance(gobj, str):
        if group is None:
            raise FormatError(
                "cochain refers to a group by hash but no group was supplied"
            )
        if gobj != group.canonical_hash():
            raise FormatError("cochain group hash does not match the group")
        factors = None
    else:
        parsed = parse_group(gobj)
        if group is None:
            group = parsed
        elif parsed.canonical_hash() != group.canonical_hash():
            raise FormatError("cochain group does not match the given group")
        factors = _product_factors(gobj)
    degree = _parse(int, obj["degree"], "cochain degree")
    modulus = _parse(int, obj["modulus"], "cochain modulus")
    if degree < 0 or modulus < 1:
        raise FormatError("cochain degree/modulus out of range")
    if not isinstance(obj["values"], dict):
        raise FormatError("cochain values must be a JSON object")
    values = {}
    for key, text in obj["values"].items():
        parts = key.split("|") if key else []
        if len(parts) != degree:
            raise FormatError(f"tuple key {key!r} does not have {degree} entries")
        t = tuple(_parse_descriptor(p, factors) for p in parts)
        if any(x < 0 or x >= group.order for x in t):
            raise FormatError(f"tuple key {key!r} has out-of-range elements")
        values[t] = _parse_phase(text, modulus)
    return Cochain(group, degree, modulus, values)


def _values_json(c: Cochain, key) -> dict:
    """{key(t): "p/q"} over the nonzero tuples of c in sorted order, p/q
    the reduced value."""
    m, nums = c.modulus, c.numerators()
    values = {}
    for t in sorted(nums):
        g = gcd(nums[t], m)
        values[key(t)] = f"{nums[t] // g}/{m // g}"
    return values


def cochain_json(c: Cochain, group_field=None) -> dict:
    if group_field is None:
        group_field = group_json(c.group)
    return {
        "group": group_field,
        "degree": c.degree,
        "modulus": c.modulus,
        "values": _values_json(c, lambda t: "|".join(map(str, t))),
    }


def loop_cochain_json(lc: Cochain) -> dict:
    """Serialized loop-groupoid cochain, keyed "base;args" (emitted only;
    not re-read)."""
    loops = lc.loops
    return {
        "group": group_json(lc.group),
        "loops": loops,
        "degree": lc.degree,
        "modulus": lc.modulus,
        "values": _values_json(lc, lambda t: "|".join(map(str, t[:loops]))
                               + ";" + "|".join(map(str, t[loops:]))),
    }


# -- extensions ---------------------------------------------------------------


def parse_extension(obj) -> Extension:
    from .anomalies import Extension, find_section
    _require_keys(
        obj, ["D", "Ghat", "G", "iota", "lambda"], ["section"], "extension"
    )
    d_grp = parse_group(obj["D"])
    ghat = parse_group(obj["Ghat"])
    g_grp = parse_group(obj["G"])
    iota = _parse(lambda m: GroupHom(d_grp, ghat, [int(x) for x in m]),
                  obj["iota"], "iota")
    lam = _parse(lambda m: GroupHom(ghat, g_grp, [int(x) for x in m]),
                 obj["lambda"], "lambda")
    if "section" in obj:
        section = _parse(lambda s: tuple(int(x) for x in s), obj["section"], "section")
    else:
        section = find_section(lam)
    return Extension(d_grp, ghat, g_grp, iota, lam, section)


def extension_json(ext: Extension) -> dict:
    return {
        "D": group_json(ext.kernel),
        "Ghat": group_json(ext.total),
        "G": group_json(ext.quotient),
        "iota": list(ext.iota.map),
        "lambda": list(ext.lam.map),
        "section": list(ext.section),
    }
