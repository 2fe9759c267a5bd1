"""Command-line interface.

Subcommands: group, cohomology, dw, anomaly, transgress.  Exit codes:
0 success (or anomaly-free verdict), 1 fault (bad input, budget, parse
error, or a ``VerificationFailed``, e.g. an anomaly report whose d3 stage
is undecided), 2 definitive negative verdict (an obstruction was found or a
solver proved NoSolution), so shell pipelines can script obstruction
sweeps.

Output is JSON on stdout when --json is given and human-readable text
otherwise; logs go to stderr.  The cohomology cache directory comes from
--cache or the DWKIT_CACHE environment variable.

Imports: the module level takes only argparse, json, os, re and sys and
the light layers errors, groups and io, which parsing and ``group`` need.
Every other layer (cochains, invariants, anomalies) and hashlib, tempfile
and time are imported inside the handler or helper that calls them, so a
fresh interpreter loads only what its subcommand runs.
``tests/test_cli.py::test_cli_imports_only_the_layers_a_subcommand_runs``
enforces this.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    NotACocycle,
    NotAGroup,
    SectionNotValid,
    UnknownBuiltin,
    UnknownFamily,
    VerificationFailed,
)
from .groups import builtin_group, dihedral_group
from .io import (
    FormatError,
    cochain_json,
    loop_cochain_json,
    parse_cochain,
    parse_extension,
    parse_group,
)

CACHE_VERSION = "3"


class CliError(Exception):
    """A fault reportable to the user; maps to exit code 1."""


# -- input specs ---------------------------------------------------------------


def _load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc


def load_group_spec(spec):
    """A group from a shorthand name or a JSON file path."""
    s = spec.strip().lower()
    if s == "pauli":
        return builtin_group("pauli")
    if s == "s3":
        return dihedral_group(6)
    m = re.fullmatch(r"d(\d+)", s)
    if m:
        return dihedral_group(int(m.group(1)))
    m = re.fullmatch(r"(?:z|cyclic[ _])(\d+)", s)
    if m:
        return builtin_group("cyclic", {"n": int(m.group(1))})
    if s.startswith("product "):
        factors = []
        for tok in s.split()[1:]:
            tok = tok.lstrip("z")
            if not tok.isdigit():
                raise CliError(f"bad product factor {tok!r} in {spec!r}")
            factors.append(int(tok))
        return builtin_group("product", {"factors": factors})
    try:
        return parse_group(_load_json_file(spec))
    except (FormatError, NotAGroup, UnknownBuiltin) as exc:
        raise CliError(str(exc)) from exc


def load_cochain_spec(spec, group):
    """A cochain from a shorthand name or a JSON file path.

    Shorthands: ``omegaK`` picks the catalog 2-cocycle for Z_N x Z_N
    groups and the catalog 3-cocycle for cyclic groups; ``d8omega`` is the
    catalog dihedral cocycle.
    """
    from .cochains import catalog_cocycle
    s = spec.strip().lower()
    try:
        if s == "d8omega":
            return catalog_cocycle("dihedral8_2cocycle", {})
        m = re.fullmatch(r"omega(\d+)", s)
        if m:
            k = int(m.group(1))
            bspec = group.builtin_spec
            if bspec and bspec[0] == "product":
                factors = bspec[1]["factors"]
                if len(factors) == 2 and factors[0] == factors[1]:
                    return catalog_cocycle(
                        "product_2cocycle", {"N": factors[0], "k": k}
                    )
                raise CliError(
                    "omega shorthand needs a Z_N x Z_N product group"
                )
            if bspec and bspec[0] == "cyclic":
                return catalog_cocycle(
                    "cyclic_3cocycle", {"N": bspec[1]["n"], "k": k}
                )
            raise CliError(
                f"no omega catalog family for group {group.label or '?'}"
            )
    except UnknownFamily as exc:
        raise CliError(str(exc)) from exc
    try:
        return parse_cochain(_load_json_file(spec), group)
    except FormatError as exc:
        raise CliError(str(exc)) from exc


# -- output ---------------------------------------------------------------------


def _emit(record, as_json):
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        for key, value in record.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")


def _log(msg):
    print(msg, file=sys.stderr)


# -- cohomology cache ------------------------------------------------------------


def _cache_key(group, degree, budget):
    import hashlib
    blob = f"{group.canonical_hash()}:{degree}:{budget}:{CACHE_VERSION}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_load(cache_dir, group, degree, budget):
    from .cochains import is_cocycle
    path = os.path.join(cache_dir, _cache_key(group, degree, budget) + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            return None
        factors, gens = payload["factors"], payload["generators"]
        if not isinstance(factors, list) or not isinstance(gens, list):
            return None
        if len(gens) != len(factors):
            return None
        factors = [int(d) for d in factors]
        gens = [parse_cochain(obj, group) for obj in gens]
        for d, gen in zip(factors, gens):
            if gen.degree != degree or not is_cocycle(gen):
                return None
            if gen.denominator() != d:
                return None
        return factors, gens
    except (OSError, ValueError, KeyError, TypeError, FormatError):
        return None


def _cache_store(cache_dir, group, degree, budget, factors, gens):
    import tempfile
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, _cache_key(group, degree, budget) + ".json")
    payload = {
        "version": CACHE_VERSION,
        "factors": list(factors),
        "generators": [cochain_json(g) for g in gens],
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- subcommands ------------------------------------------------------------------


def cmd_group(args):
    group = load_group_spec(args.spec)
    record = {
        "label": group.label or "group",
        "order": group.order,
        "center_order": len(group.center()),
        "conjugacy_classes": len(group.conjugacy_classes()),
        "valid": True,
    }
    if args.action == "show":
        _emit(record, args.json)
    else:
        _emit({"valid": True}, args.json)
    return 0


def cmd_cohomology(args):
    from .cochains import BAR_MATRIX_NNZ_BUDGET, cohomology
    group = load_group_spec(args.group)
    degree = args.degree
    if degree < 1:
        raise CliError(f"--degree must be >= 1, got {degree}")
    budget = BAR_MATRIX_NNZ_BUDGET
    cache_dir = args.cache or os.environ.get("DWKIT_CACHE")
    cached = None
    if cache_dir:
        cached = _cache_load(cache_dir, group, degree, budget)
        if cached:
            _log("cache hit")
    if cached:
        factors, gens = cached
    else:
        coh = cohomology(group, degree, allow_large=args.allow_large)
        factors, gens = list(coh.invariant_factors), list(coh.generators)
        if cache_dir:
            _cache_store(cache_dir, group, degree, budget, factors, gens)
    record = {
        "group": group.label or "group",
        "degree": degree,
        "factors": factors,
        "generators": [cochain_json(g) for g in gens],
    }
    _emit(record, args.json)
    return 0


def _dw_cocycle(args, group, degree):
    from .cochains import Cochain
    if args.untwisted:
        return Cochain(group, degree, 1, {})
    if not args.cocycle:
        raise CliError("need --cocycle or --untwisted")
    c = load_cochain_spec(args.cocycle, group)
    if c.degree != degree:
        raise CliError(f"cocycle degree {c.degree}, expected {degree}")
    return c


def _dw_dim(args, default, least, only=None):
    if only is not None and args.dim not in (None, only):
        raise CliError(
            f"{args.invariant} is defined for --dim {only} only, got {args.dim}"
        )
    dim = args.dim if args.dim is not None else default
    if dim is None:
        raise CliError(f"{args.invariant} needs --dim")
    if dim < least:
        raise CliError(f"{args.invariant} needs --dim >= {least}, got {dim}")
    return dim


# the partition-sum invariants of ``dwkit dw``: record name and the
# _dw_dim arguments (--dim default, least --dim, the only --dim allowed)
_DW_SUMS = {
    "torus": ("torus_partition", None, 1, None),
    "simples": ("simple_count", 2, 1, None),
    "double": ("drinfeld_double_simples", 3, 3, 3),
}


def cmd_dw(args):
    from .invariants import dw_partition_torus, state_space_torus
    group = load_group_spec(args.group)
    if args.invariant in _DW_SUMS:
        name, *dims = _DW_SUMS[args.invariant]
        dim = _dw_dim(args, *dims)
        theta = _dw_cocycle(args, group, dim)
        zp = dw_partition_torus(group, theta, dim)
        record = {
            "invariant": name,
            "group": group.label or "group",
            "degree": dim,
            "value": str(zp.value),
        }
    else:  # states
        theta = _dw_cocycle(args, group, _dw_dim(args, 2, 2))
        space = state_space_torus(group, theta)
        record = {
            "invariant": "state_space_dimension",
            "group": group.label or "group",
            "degree": theta.degree,
            "torus_dim": space.torus_dim,
            "value": str(space.dimension),
        }
    _emit(record, args.json)
    return 0


def cmd_anomaly(args):
    import time
    from .anomalies import anomaly_report
    ext = parse_extension(_load_json_file(args.extension))
    omega = load_cochain_spec(args.cocycle, ext.kernel)
    started = time.monotonic()
    report = anomaly_report(ext, omega)
    elapsed = time.monotonic() - started
    record = {
        "verdict": report.verdict,
        "invariant_class": report.invariant_class,
        "first_obstruction_trivial": report.first_obstruction_trivial,
        "theta_class": (
            list(report.theta_class) if report.theta_class is not None else None
        ),
        "seconds": round(elapsed, 3),
    }
    if report.phi_witnesses:
        record["phi_witnesses"] = {
            str(g): cochain_json(c) for g, c in report.phi_witnesses.items()
        }
    if report.closed_lift is not None:
        record["closed_lift"] = cochain_json(report.closed_lift)
    if report.boundary_pair is not None:
        omega_p, theta = report.boundary_pair
        record["boundary_pair"] = {
            "omega_prime": cochain_json(omega_p),
            "theta": cochain_json(theta),
        }
    _emit(record, args.json)
    return 0 if report.verdict == "anomaly_free" else 2


def cmd_transgress(args):
    from .cochains import is_cocycle
    from .invariants import matches_dpr, transgress_torus
    group = load_group_spec(args.group)
    theta = load_cochain_spec(args.cocycle, group)
    if not is_cocycle(theta):
        raise NotACocycle("transgression input must be a cocycle")
    out = transgress_torus(theta, args.iterate)
    record = {
        "group": group.label or "group",
        "input_degree": theta.degree,
        "iterations": args.iterate,
        "result": loop_cochain_json(out),
    }
    if theta.degree == 3 and args.iterate == 1:
        record["dpr_matches"] = matches_dpr(theta)
    _emit(record, args.json)
    return 0


# -- driver -----------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dwkit",
        description="Exact finite-group cohomology and Dijkgraaf-Witten "
        "invariants on tori.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="inspect or validate a group")
    p.add_argument("action", choices=["show", "validate"])
    p.add_argument("spec", help="builtin shorthand or JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("cohomology", help="compute H^n(G; U(1))")
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--cache", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("dw", help="Dijkgraaf-Witten invariants on tori")
    p.add_argument("invariant", choices=["torus", "simples", "double", "states"])
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", default=None)
    p.add_argument("--untwisted", action="store_true")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dw)

    p = sub.add_parser("anomaly", help="obstruction report for gauging")
    p.add_argument("--extension", required=True, help="extension JSON file")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_anomaly)

    p = sub.add_parser("transgress", help="circle transgression")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--iterate", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_transgress)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        FormatError,
        NotAGroup,
        NotACocycle,
        SectionNotValid,
        UnknownBuiltin,
        UnknownFamily,
        BudgetExceeded,
        DegreeMismatch,
        VerificationFailed,
    ) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
