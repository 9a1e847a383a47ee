"""Acceptance gate: the twelve numbered criteria, one test each, in order.

Each test executes one criterion from skyrmelab.verify at its stated
tolerance and prints a single PASS/FAIL line carrying every measured
value next to the bound it is held to.  Run with -s (or -rA) to see the
lines; any FAIL also appears in the assertion message.
"""
import pytest

from skyrmelab import verify

pytestmark = pytest.mark.slow  # about a minute all told; the long solver runs live here


@pytest.fixture(autouse=True, scope="module")
def _outroot(tmp_path_factory):
    # criteria 4, 5 and 6 replay shipped scenarios and write their artifacts
    mp = pytest.MonkeyPatch()
    mp.setenv("SKYRMELAB_OUT", str(tmp_path_factory.mktemp("acceptance")))
    yield
    mp.undo()


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _check(num):
    rep = verify.CRITERIA[num]()
    detail = "; ".join(f"{c.name}={_fmt(c.value)} (req {c.tolerance})"
                       for c in rep.checks)
    line = f"{'PASS' if rep.passed else 'FAIL'}  [{num:02d}] {rep.scenario}: {detail}"
    print(line)
    assert rep.passed, line


def test_criterion_01_collapse_solution_is_exact():
    _check(1)


def test_criterion_02_coefficient_small_angle_limits():
    _check(2)


def test_criterion_03_coefficient_bounds_and_sine_ratios():
    _check(3)


def test_criterion_04_free_wave_fourth_order_convergence():
    _check(4)


def test_criterion_05_small_data_energy_conservation():
    _check(5)


def test_criterion_06_wave_map_blowup_vs_skyrme_control():
    _check(6)


def test_criterion_07_cubic_deficit_scaling():
    _check(7)


def test_criterion_08_scattering_deficit_decreases():
    _check(8)


def test_criterion_09_spectral_transform_oracles():
    _check(9)


def test_criterion_10_norm_dilation_covariance():
    _check(10)


def test_criterion_11_supremum_tracks_energy():
    _check(11)


def test_criterion_12_dyadic_sobolev_stability():
    _check(12)
