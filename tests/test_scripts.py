"""The sympy scripts under scripts/ still agree with the package.

verify_algebra_symbolic.py audits the hand-coded model algebra and must exit
0.  generate_series_constants.py is loaded by path, without calling its main
(which rewrites the table), and must reproduce the shipped Taylor table.
"""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import skyrmelab

pytest.importorskip("sympy")

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_symbolic_algebra_audit_exits_0():
    done = subprocess.run([sys.executable, str(SCRIPTS / "verify_algebra_symbolic.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_series_constants_match_their_generator():
    path = SCRIPTS / "generate_series_constants.py"
    spec = importlib.util.spec_from_file_location("generate_series_constants", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    table = Path(skyrmelab.__file__).parent / "data" / "series_constants.txt"
    want = [ln for ln in table.read_text().splitlines() if not ln.startswith("#")]
    got = [ln for cid, expr in gen.BASES.items() for ln in gen.taylor_lines(cid, expr)]
    assert got == want
