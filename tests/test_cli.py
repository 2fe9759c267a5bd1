import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_anomalies import (
    center_of_d8_extension,
    center_sign_character,
    doubling_extension,
    z2_in_z4_extension,
)
from test_io import Z4_TRANSGRESSED_ONCE

from dwkit.cli import main
from dwkit.cochains import cohomology, is_cocycle
from dwkit.groups import cyclic_group, product_group
from dwkit.io import cochain_json, extension_json, group_json, parse_cochain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_show_shorthands(capsys):
    code, out, _ = run(capsys, "group", "show", "pauli", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["order"] == 16
    assert record["center_order"] == 4
    assert record["conjugacy_classes"] == 10
    code, out, _ = run(capsys, "group", "show", "s3", "--json")
    assert json.loads(out)["order"] == 6
    code, out, _ = run(capsys, "group", "show", "product z2 z2", "--json")
    assert json.loads(out)["order"] == 4


def test_group_validate_file(capsys, tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(group_json(cyclic_group(3))))
    code, out, _ = run(capsys, "group", "validate", str(path), "--json")
    assert code == 0 and json.loads(out) == {"valid": True}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "table", "order": 2, "table": [[0, 1], [1, 1]]}))
    code, _, err = run(capsys, "group", "validate", str(bad))
    assert code == 1 and err


def test_malformed_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "table",')
    code, _, err = run(capsys, "group", "show", str(path))
    assert code == 1
    assert "line" in err and "column" in err


def test_malformed_numbers_in_input_files_end_in_an_error_line(capsys, tmp_path):
    group = tmp_path / "badg.json"
    group.write_text(json.dumps({"kind": "table", "order": "x", "table": [[0]]}))
    cocycle = tmp_path / "bad.json"
    doc = cochain_json(cohomology(cyclic_group(2), 3).generators[0])
    cocycle.write_text(json.dumps(dict(doc, degree=[3])))
    for argv, field in ((["group", "show", str(group)], "group order"),
                        (["transgress", "--group", "z2", "--cocycle", str(cocycle)],
                         "cochain degree")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and field in err and err.count("\n") == 1


def test_cohomology_output_and_generators(capsys):
    code, out, _ = run(capsys, "cohomology", "--group", "z4", "--degree", "3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["factors"] == [4]
    z4 = cyclic_group(4)
    for doc in record["generators"]:
        gen = parse_cochain(doc, z4)
        assert gen.degree == 3 and is_cocycle(gen)


def test_cohomology_cache_round_trip(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    argv = [
        "cohomology", "--group", "product z2 z2", "--degree", "2",
        "--json", "--cache", cache,
    ]
    code1, out1, err1 = run(capsys, *argv)
    assert code1 == 0 and "cache hit" not in err1
    assert os.listdir(cache)
    code2, out2, err2 = run(capsys, *argv)
    assert code2 == 0 and "cache hit" in err2
    assert out2 == out1


def test_cohomology_cache_rejects_tampering(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    argv = [
        "cohomology", "--group", "z2", "--degree", "3", "--json",
        "--cache", cache,
    ]
    _, out1, _ = run(capsys, *argv)
    (name,) = os.listdir(cache)
    path = os.path.join(cache, name)
    payload = json.loads(open(path).read())
    payload["factors"] = [7]
    open(path, "w").write(json.dumps(payload))
    code, out2, err = run(capsys, *argv)
    assert code == 0 and "cache hit" not in err
    assert out2 == out1


@pytest.mark.parametrize("entry", [
    [],
    None,
    {"version": "2", "factors": 4, "generators": []},
    {"version": "2", "factors": [2], "generators": {}},
    {"version": "2", "factors": [None], "generators": [{}]},
    {"version": "2", "factors": [2], "generators": [
        {"group": {"kind": "builtin", "name": "cyclic", "params": {"n": 2}},
         "degree": 3, "modulus": 2, "values": []}]},
])
def test_cohomology_cache_entry_of_wrong_shape_is_a_miss(capsys, tmp_path, entry):
    cache = str(tmp_path / "cache")
    argv = [
        "cohomology", "--group", "z2", "--degree", "3", "--json",
        "--cache", cache,
    ]
    _, out1, _ = run(capsys, *argv)
    (name,) = os.listdir(cache)
    Path(cache, name).write_text(json.dumps(entry))
    code, out2, err = run(capsys, *argv)
    assert code == 0 and "cache hit" not in err and "Traceback" not in err
    assert out2 == out1


def test_dw_commands(capsys):
    code, out, _ = run(
        capsys, "dw", "torus", "--group", "s3", "--untwisted", "--dim", "2", "--json"
    )
    assert code == 0 and json.loads(out)["value"] == "3"
    code, out, _ = run(
        capsys, "dw", "simples", "--group", "product z2 z2",
        "--cocycle", "omega1", "--json",
    )
    assert json.loads(out)["value"] == "1"
    for dim in ((), ("--dim", "3")):
        code, out, _ = run(
            capsys, "dw", "double", "--group", "s3", "--untwisted", *dim, "--json"
        )
        assert code == 0 and json.loads(out)["value"] == "8"
    code, out, _ = run(
        capsys, "dw", "states", "--group", "z2", "--cocycle", "omega1",
        "--dim", "3", "--json",
    )
    record = json.loads(out)
    assert record["value"] == "4" and record["torus_dim"] == 2


def test_dw_argument_errors(capsys):
    code, _, err = run(capsys, "dw", "torus", "--group", "s3", "--untwisted")
    assert code == 1 and "dim" in err
    code, _, err = run(capsys, "dw", "simples", "--group", "s3")
    assert code == 1
    # out-of-range dimensions end in one error line, not a traceback
    for invariant, dim in (("torus", "-1"), ("torus", "0"), ("simples", "-1"),
                           ("states", "1"), ("states", "0"), ("states", "-1"),
                           ("double", "7"), ("double", "2"), ("double", "-1")):
        code, out, err = run(capsys, "dw", invariant, "--group", "s3",
                             "--untwisted", "--dim", dim)
        assert code == 1 and not out
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "--dim" in err
    # tuples x n! torus-cycle terms over budget: 82.6 M and 12.9 M
    for group in ("product z2 z2", "s3"):
        code, out, err = run(capsys, "dw", "torus", "--group", group,
                             "--untwisted", "--dim", "7")
        assert code == 1 and not out
        assert err.count("\n") == 1 and "exceeds budget 10000000" in err


def test_anomaly_exit_codes(capsys, tmp_path):
    anomalous = tmp_path / "doubling.json"
    anomalous.write_text(json.dumps(extension_json(doubling_extension(2))))
    code, out, _ = run(
        capsys, "anomaly", "--extension", str(anomalous),
        "--cocycle", "omega1", "--json",
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "first_obstruction_fails"

    free = tmp_path / "z2_in_z4.json"
    free.write_text(json.dumps(extension_json(z2_in_z4_extension())))
    code, out, _ = run(
        capsys, "anomaly", "--extension", str(free),
        "--cocycle", "omega1", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "anomaly_free"
    assert record["theta_class"] == []
    lift = parse_cochain(record["closed_lift"], cyclic_group(4))
    assert is_cocycle(lift)


def test_anomaly_rejects_degree_one_cocycle(capsys, tmp_path):
    ext = tmp_path / "center_of_d8.json"
    ext.write_text(json.dumps(extension_json(center_of_d8_extension())))
    sign = tmp_path / "sign.json"
    sign.write_text(json.dumps(cochain_json(center_sign_character())))
    code, out, err = run(
        capsys, "anomaly", "--extension", str(ext), "--cocycle", str(sign),
    )
    assert code == 1 and not out
    assert "deg omega >= 2" in err


def test_transgress_reports_dpr(capsys):
    code, out, _ = run(
        capsys, "transgress", "--group", "z4", "--cocycle", "omega1", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["dpr_matches"] is True
    assert record["result"]["loops"] == 1


def test_transgress_documents(capsys):
    # exact documents: the "base;args" keys must not drift
    z2 = {"kind": "builtin", "name": "cyclic", "params": {"n": 2}}
    z4 = {"kind": "builtin", "name": "cyclic", "params": {"n": 4}}
    cases = [
        (["--group", "z2", "--cocycle", "omega1"], {
            "dpr_matches": True, "group": "Z2", "input_degree": 3,
            "iterations": 1,
            "result": {"degree": 2, "group": z2, "loops": 1, "modulus": 2,
                       "values": {"1;1|1": "1/2"}},
        }),
        (["--group", "z4", "--cocycle", "omega1", "--iterate", "1"], {
            "dpr_matches": True, "group": "Z4", "input_degree": 3,
            "iterations": 1,
            "result": {"degree": 2, "group": z4, "loops": 1, "modulus": 4,
                       "values": Z4_TRANSGRESSED_ONCE},
        }),
        (["--group", "z4", "--cocycle", "omega1", "--iterate", "2"], {
            "group": "Z4", "input_degree": 3, "iterations": 2,
            "result": {"degree": 1, "group": z4, "loops": 2, "modulus": 4,
                       "values": {}},
        }),
    ]
    for argv, want in cases:
        code, out, _ = run(capsys, "transgress", *argv, "--json")
        assert code == 0
        assert out == json.dumps(want, sort_keys=True) + "\n"


def test_transgress_rejects_iteration_counts_out_of_range():
    src = Path(__file__).resolve().parent.parent / "src"
    for times in ("0", "-1", "4"):
        done = subprocess.run(
            [sys.executable, "-m", "dwkit.cli", "transgress", "--group", "z4",
             "--cocycle", "omega1", "--iterate", times, "--json"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1 and not done.stdout
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in done.stderr


def test_cocycle_file_input(capsys, tmp_path):
    k4 = product_group([2, 2])
    gen = cohomology(k4, 2).generators[0]
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(cochain_json(gen)))
    code, out, _ = run(
        capsys, "dw", "simples", "--group", "product z2 z2",
        "--cocycle", str(path), "--json",
    )
    assert code == 0 and json.loads(out)["value"] == "1"


def test_plain_output_mode(capsys):
    code, out, _ = run(capsys, "group", "show", "z6")
    assert code == 0
    assert "order: 6" in out


def test_cli_import_loads_only_the_standard_library():
    # -S: site hooks of the interpreter may import third-party modules
    src = Path(__file__).resolve().parent.parent / "src"
    check = (
        "import dwkit.cli, sys; "
        "extra = {m.split('.')[0] for m in sys.modules}"
        " - set(sys.stdlib_module_names) - {'__main__', 'dwkit'}; "
        "assert not extra, sorted(extra)"
    )
    subprocess.run(
        [sys.executable, "-S", "-c", check],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )


def test_cli_imports_only_the_layers_a_subcommand_runs():
    # a fresh -S interpreter: the test process has every layer loaded already
    src = Path(__file__).resolve().parent.parent / "src"
    check = (
        "import contextlib, io, json, sys\n"
        "from dwkit.cli import main\n"
        "loaded = [sorted(set(sys.argv[1:]) & set(sys.modules))]\n"
        "for argv in (['group', 'show', 'z6', '--json'],\n"
        "             ['cohomology', '--group', 'z4', '--degree', '3', '--json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if main(argv):\n"
        "            sys.exit(f'{argv} failed')\n"
        "    loaded.append(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
        "print(json.dumps(loaded))\n"
    )
    deferred = [
        "dwkit.cochains", "dwkit.linalg", "dwkit.groupoids",
        "dwkit.invariants", "dwkit.anomalies",
        "hashlib", "tempfile", "dataclasses",
    ]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", check, *deferred],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
        capture_output=True, text=True,
    )
    after_import, after_group, after_cohomology = json.loads(proc.stdout)
    assert after_import == [] and after_group == []
    assert "dwkit.cochains" in after_cohomology
    assert not {"dwkit.invariants", "dwkit.anomalies"} & set(after_cohomology)
