"""The scripts under scripts/ still agree with the package.

verify_algebra_symbolic.py audits the hand-coded model algebra and must exit
0.  generate_series_constants.py is loaded by path, without calling its main
(which rewrites the table), and must reproduce the shipped Taylor table.
Both need sympy.  verify_records.py must find no move between a suite's
records and themselves, and must report one it is shown.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skyrmelab

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_symbolic_algebra_audit_exits_0():
    pytest.importorskip("sympy")
    done = subprocess.run([sys.executable, str(SCRIPTS / "verify_algebra_symbolic.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_series_constants_match_their_generator():
    pytest.importorskip("sympy")
    path = SCRIPTS / "generate_series_constants.py"
    spec = importlib.util.spec_from_file_location("generate_series_constants", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    table = Path(skyrmelab.__file__).parent / "data" / "series_constants.txt"
    want = [ln for ln in table.read_text().splitlines() if not ln.startswith("#")]
    got = [ln for cid, expr in gen.BASES.items() for ln in gen.taylor_lines(cid, expr)]
    assert got == want


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
