"""Command-line contract: verbs, exit codes, JSON output, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superw
from superw.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FLAG_SHIFT = [[0, 1, 1], [0, 0, 0], [1, 1, 0]]
PY_DOC = {"shift": FLAG_SHIFT, "ell": 4, "signs": "101"}


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def put(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    put("shift.json", FLAG_SHIFT)
    put("py.json", PY_DOC)
    put(
        "tab.json",
        {
            "pyramid": PY_DOC,
            "rows": [["-2", "-2"], ["1", "1", "1"], ["3", "-2", "-2", "-2"]],
        },
    )
    put(
        "bad_tab.json",
        {
            "pyramid": PY_DOC,
            "rows": [["0", "0"], ["1", "1", "1"], ["0", "0", "0", "0"]],
        },
    )
    put("eig.json", {"a": [["2", "1"], ["3"], ["-1"]]})
    put("nonsplit.json", {"a": [["0", "1"], ["0"], ["0"]]})
    put("single.json", {"shift": [[0]], "ell": 1, "signs": "0"})
    put("row2.json", {"shift": [[0]], "ell": 2, "signs": "0"})
    put("row3.json", {"shift": [[0]], "ell": 3, "signs": "0"})
    # (z - 1)(z^2 + 1): one rational root, then an irreducible quadratic
    put("cubic.json", {"a": [["1", "1", "1"]]})
    return paths


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_pyramid_verb(files, capsys):
    code, out, err = run(
        ["pyramid", "--shift", files["shift.json"], "--ell", "4", "--signs", "101"],
        capsys,
    )
    assert code == 0
    assert "p=2,3,4" in out
    assert "M=3 N=6 m=1 n=2 h=-1" in out
    assert "good_pair=ok" in out
    assert "d0=32 d1=26" in out
    assert err == ""


def test_pyramid_json_is_deterministic(files, capsys):
    argv = [
        "pyramid", "--shift", files["shift.json"], "--ell", "4", "--signs", "101",
        "--json",
    ]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across runs
    doc = json.loads(out1)
    assert doc["good_pair"] is True
    assert doc["p"] == [2, 3, 4]


def test_wgen_verify_membership_and_truncation(files, capsys):
    code, out, _ = run(
        ["wgen-verify", "--pyramid", files["py.json"], "--max-level", "2",
         "--suites", "membership,truncation"],
        capsys,
    )
    assert code == 0
    assert "truncation r=3 ok" in out
    assert "overall=ok" in out


def test_wgen_verify_relation_filter(files, capsys):
    code, out, _ = run(
        ["wgen-verify", "--pyramid", files["py.json"], "--max-level", "2",
         "--suites", "relations", "--relations", "dd-comm,d-inverse"],
        capsys,
    )
    assert code == 0
    assert "rel=dd-comm" in out
    assert "rel=d-inverse" in out
    assert "overall=ok" in out
    assert " FAIL" not in out


@pytest.mark.parametrize("suites", [",", "", " , "])
def test_wgen_verify_rejects_empty_suite_list(files, capsys, suites):
    # a run that checks nothing must not report overall=ok
    code, out, err = run(
        ["wgen-verify", "--pyramid", files["py.json"], "--suites", suites], capsys
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == "invalid_input"
    assert "--suites" in doc["message"]


@pytest.mark.parametrize("suites", ["relations", "relations,membership,truncation"])
def test_wgen_verify_rejects_empty_relation_list(files, capsys, suites):
    for relations in (",", ""):
        code, out, err = run(
            ["wgen-verify", "--pyramid", files["py.json"], "--suites", suites,
             "--relations", relations],
            capsys,
        )
        assert code == 2, relations
        assert out == ""
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"] == "invalid_input"
        assert "--relations" in doc["message"]


@pytest.mark.parametrize("suites", ["membership", "membership,truncation"])
def test_wgen_verify_rejects_relation_filter_without_relations_suite(files, capsys, suites):
    # the filter would be ignored, so the run would check none of it
    code, out, err = run(
        ["wgen-verify", "--pyramid", files["py.json"], "--suites", suites,
         "--relations", "dd-comm"],
        capsys,
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == "invalid_input"
    assert "--relations" in doc["message"] and "--suites" in doc["message"]


def test_module_eval(files, capsys):
    code, out, _ = run(["module-eval", "--tableau", files["tab.json"]], capsys)
    assert code == 0
    assert "column_connected=true" in out
    assert "a[1]=2,1" in out
    assert "a[2]=3,3,1" in out
    assert "a[3]=-1,-9,-11,-4" in out
    assert "symbolic=ok" in out


def test_module_eval_json(files, capsys):
    code, out, _ = run(
        ["module-eval", "--tableau", files["tab.json"], "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["column_connected"] is True
    assert doc["symbolic"] is True
    assert doc["eigenvalues"]["a"][2] == ["-1", "-9", "-11", "-4"]


def test_module_eval_disconnected_is_verification_failure(files, capsys):
    code, out, _ = run(["module-eval", "--tableau", files["bad_tab.json"]], capsys)
    assert code == 3
    assert "column_connected=false" in out
    assert "symbolic=skipped" in out


def test_classify_verb(files, capsys):
    code, out, _ = run(
        ["classify", "--pyramid", files["single.json"], "--pool", "0,1"], capsys
    )
    assert code == 0
    assert "classes=2" in out

    code, out, _ = run(
        ["classify", "--pyramid", files["py.json"], "--pool=-2,1,3", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 18
    assert len(doc["classes"]) == 18
    assert doc["pool"] == ["-2", "1", "3"]


def test_solve_verb(files, capsys):
    code, out, _ = run(
        ["solve", "--pyramid", files["py.json"], "--eigenvalues", files["eig.json"]],
        capsys,
    )
    assert code == 0
    assert "column_connected=true" in out
    assert "round_trip=ok" in out

    code, out, _ = run(
        ["solve", "--pyramid", files["py.json"], "--eigenvalues", files["eig.json"],
         "--json"],
        capsys,
    )
    doc = json.loads(out)
    assert set(doc) == {"pyramid", "rows", "column_connected", "round_trip"}
    assert doc["round_trip"] is True
    assert sorted(doc["rows"][1]) == ["1", "1", "1"]


def test_solve_non_split(files, capsys):
    code, out, err = run(
        ["solve", "--pyramid", files["py.json"], "--eigenvalues",
         files["nonsplit.json"]],
        capsys,
    )
    assert code == 4
    assert "non_split" in err
    json.loads(err.strip().splitlines()[-1])

    # the message ends in the exact factor left once the rational root
    # of (z - 1)(z^2 + 1) is divided out
    code, out, err = run(
        ["solve", "--pyramid", files["row3.json"], "--eigenvalues",
         files["cubic.json"]],
        capsys,
    )
    assert code == 4
    assert out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == "non_split"
    assert doc["message"].endswith(": 1 0 1")


def test_dims_verb(files, capsys):
    code, out, _ = run(["dims", "--pyramid", files["py.json"], "--prime", "5"], capsys)
    assert code == 0
    assert "d0=32 d1=26" in out
    assert "min_dim=5^16*2^13=1250000000000000" in out


def test_usage_errors(files, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    _, err = capsys.readouterr()
    assert json.loads(err.strip().splitlines()[-1])["error"] == "usage"

    # solve has no float mode: --numeric and --tol are unknown options
    solve = ["solve", "--pyramid", files["py.json"], "--eigenvalues", files["nonsplit.json"]]
    for extra in (["--numeric"], ["--tol", "1e-9"]):
        code, out, err = run(solve + extra, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "usage"


def test_invalid_inputs(files, capsys, tmp_path):
    code, _, err = run(
        ["pyramid", "--shift", files["shift.json"], "--ell", "4", "--signs", "abc"],
        capsys,
    )
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"]

    code, _, err = run(
        ["pyramid", "--shift", str(tmp_path / "missing.json"), "--ell", "4",
         "--signs", "101"],
        capsys,
    )
    assert code == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run(
        ["pyramid", "--shift", str(garbled), "--ell", "4", "--signs", "101"], capsys
    )
    assert code == 2

    # ell follows the rule of the shift entries: 4.7 is not truncated, and
    # an integral float such as 4.0 is not an integer either
    for name, ell in (("fractional.json", 4.7), ("integral_float.json", 4.0)):
        path = tmp_path / name
        path.write_text(json.dumps({**PY_DOC, "ell": ell}))
        code, out, err = run(["dims", "--pyramid", str(path), "--prime", "2"], capsys)
        assert code == 2, name
        assert out == ""
        assert "ell must be an integer" in json.loads(err.strip().splitlines()[-1])["message"]

    # shift entries and signs are not coerced: 1.5 is not read as 1, nor
    # [0.9, 1] as "01"
    coerced = tmp_path / "coerced.json"
    coerced.write_text(json.dumps({"shift": [[0, 1.5], [0, 0]], "ell": 3, "signs": [0.9, 1]}))
    code, out, err = run(["dims", "--pyramid", str(coerced), "--prime", "2"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "invalid_input"

    # a level bound below 1 would check almost nothing and still say ok
    for level in ("-3", "0"):
        code, out, err = run(
            ["wgen-verify", "--pyramid", files["row2.json"], "--max-level", level],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "invalid_input"

    # reduced tables of the wrong shape for the flagship (row lengths 2, 1, 1):
    # too few rows, and a row 1 of three values that must not be read as a cubic
    for name, a in (("short.json", [["1"]]), ("long_row.json", [["2", "1", "5"], ["3"], ["-1"]])):
        path = tmp_path / name
        path.write_text(json.dumps({"a": a}))
        code, out, err = run(
            ["solve", "--pyramid", files["py.json"], "--eigenvalues", str(path)], capsys
        )
        assert code == 2, name
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "invalid_input"

    # JSON true/false are not scalars: not read as 1/0 in a tableau row or
    # in an eigenvalue table
    bool_tab = tmp_path / "bool_tab.json"
    bool_tab.write_text(json.dumps(
        {"pyramid": PY_DOC, "rows": [["-2", "-2"], [True, True, True], ["3", "-2", "-2", "-2"]]}
    ))
    bool_eig = tmp_path / "bool_eig.json"
    bool_eig.write_text(json.dumps({"a": [["2", "1"], [True], ["-1"]]}))
    for argv in (
        ["module-eval", "--tableau", str(bool_tab)],
        ["solve", "--pyramid", files["py.json"], "--eigenvalues", str(bool_eig)],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "invalid_input"


def _env_with_source():
    """The environment with the directory of the imported superw package
    first on PYTHONPATH, so a subprocess imports the same code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(superw.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return env


def test_console_script(tmp_path):
    # Run the declared `superw` entry the way an installed launcher does:
    # import the object, call it with no arguments, sys.exit the result.
    # Whether an installer put a launcher on PATH is the environment's
    # business, so it is not checked here.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "superw" in scripts, "no superw entry in [project.scripts]"
    module, _, qualname = scripts["superw"].partition(":")
    launcher = (
        "import importlib, sys\n"
        f"obj = importlib.import_module({module!r})\n"
        f"for name in {qualname!r}.split('.'):\n"
        "    obj = getattr(obj, name)\n"
        "sys.exit(obj())\n"
    )
    pyf = tmp_path / "py.json"
    pyf.write_text(json.dumps(PY_DOC))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "dims", "--pyramid", str(pyf),
         "--prime", "2"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=_env_with_source(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "d0=32" in proc.stdout


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "superw.cli", "--help"],
        capture_output=True, text=True, timeout=120, env=_env_with_source(),
    )
    assert proc.returncode == 0
    assert "pyramid" in proc.stdout
