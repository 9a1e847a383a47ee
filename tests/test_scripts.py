"""The scripts under scripts/ still agree with the package.

verify_algebra_symbolic.py audits the hand-coded model algebra and must exit
0 (it needs sympy).  verify_records.py must find no move between a suite's
records and themselves, and must report one it is shown.  line_coverage.py's
tracer must name the one line of a fixture module that did not run.  Every
script under scripts/ is one of these three, so none is kept without a test.
"""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_every_script_is_loaded_or_run_here():
    # the scripts this module names as SCRIPTS / "<file>"; a script added without a test fails
    tree = ast.parse(Path(__file__).read_text())
    named = {node.right.value for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Name)
             and node.left.id == "SCRIPTS" and isinstance(node.right, ast.Constant)}
    assert named == {p.name for p in SCRIPTS.glob("*.py")}


def test_symbolic_algebra_audit_exits_0():
    pytest.importorskip("sympy")
    done = subprocess.run([sys.executable, str(SCRIPTS / "verify_algebra_symbolic.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def load(path, name):
    """The module at path, loaded without running its __main__ block."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_records_diff_reports_each_moved_record(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def script(*args):
        return subprocess.run([sys.executable, str(SCRIPTS / "verify_records.py"), *args],
                              capture_output=True, text=True, env=env)

    grid = tmp_path / "grid.json"
    done = script("write", "grid", str(grid))
    assert done.returncode == 0, done.stderr
    records = json.loads(grid.read_text())
    assert [r["report"] for r in records] == ["grid-calculus"] * 4
    same = script("diff", str(grid), str(grid))
    assert (same.returncode, same.stdout) == (0, "4 records unchanged\n")

    moved = records[-1]
    assert (moved["check"], moved["repr"]) == ("odd_fields_vanish_at_axis", "1.0")
    moved.update(repr="0.5", value=0.5)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(records))
    diff = script("diff", str(grid), str(doctored))
    assert diff.returncode == 1
    assert diff.stdout == ("grid-calculus/odd_fields_vanish_at_axis: 1.0 -> 0.5 "
                           "(relative change 0.5)\n")


def test_line_coverage_names_the_one_line_that_did_not_run(tmp_path):
    tool = load(SCRIPTS / "line_coverage.py", "line_coverage")
    fixture = tmp_path / "fixture.py"
    fixture.write_text("def sign(x):\n"
                       "    if x < 0:\n"
                       "        return -1\n"
                       "    return 1\n"
                       "\n"
                       "\n"
                       "VALUE = sign(2)\n")
    owners = tool.executable_lines(fixture)
    assert set(owners) == {1, 2, 3, 4, 7}
    assert owners[3] == "sign" and owners[7] == "<module>"
    value, missed = tool.unreached([fixture], lambda: load(fixture, "fixture").VALUE)
    assert value == 1
    assert missed == {str(fixture): [3]}
