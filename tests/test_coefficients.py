"""Coefficient functions: frozen high-precision oracles, parity, signs, switch continuity."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skyrmelab import verify
from skyrmelab.coefficients import (
    SERIES_SWITCH,
    SINC,
    _SERIES,
    _closed_rows,
    _coefficients,
    _plan,
    _series_rows,
    tilde_h,
)
from skyrmelab.errors import DomainError

# 50-digit mpmath evaluations of the alpha-stripped closed forms, frozen.
# Columns: c1 .. c6.
ORACLE = {
    0.001: [-1.3333330666666920635, -0.66666613333348783066, 0.001333332977777815873,
            1.9999986666669333333, -1.3333330666666920635, 1.3333326222223957672],
    0.02: [-1.3332266707300684316, -0.66645335805132084365, 0.026663822344124094576,
           1.9994667093317079726, -1.3332266707300684316, 1.3330489166544232081],
    0.049: [-1.3326932130547836631, -0.6653870236362117389, 0.065291513337208698087,
            1.9968002035954554644, -1.3326932130547836631, 1.3316269556485453928],
    0.05: [-1.3326668253747815455, -0.6653342985538950819, 0.066622234125220625557,
           1.9966683329365630461, -1.3326668253747815455, 1.3315566398061013375],
    0.051: [-1.332639905123137039, -0.66528051143548575432, 0.067952848341793384649,
            1.9965338036067747206, -1.332639905123137039, 1.3314849069432640352],
    0.3: [-1.3095380224060978814, -0.61990016454407035603, 0.3904920793934144888,
          1.8821415779834511907, -1.3095380224060978814, 1.2707202968664278374],
    1.0: [-1.0907025731743183046, -0.26544808958585878485, 1.0136988194429213832,
          0.9092974268256816954, -1.0907025731743183046, 0.77229749930731948],
    2.0: [-0.59460031191349103142, 0.075045911622559482355, 0.79181215286986710435,
          -0.37840124765396412569, -0.59460031191349103142, 0.12290712659490729373],
    5.0: [-0.084352168887114958507, 0.0041920898893144491247, 0.072946833336372824309,
          -0.10880422217787396268, -0.084352168887114958507, 0.0031025934443228333061],
    -17.3: [-0.0066906839509994366439, 8.1746844773967109441e-6, -0.0010559846459966672389,
            -0.0024547996946213931578, -0.0066906839509994366439, 2.2345102979154365326e-5],
}

# the alpha-stripped closed forms, for m = mpmath or sympy
CLOSED_FORMS = {
    1: lambda u, m: (m.sin(2 * u) - 2 * u) / u**3,
    2: lambda u, m: m.sin(2 * u) * (m.sin(u) ** 2 - u**2) / u**5,
    3: lambda u, m: 4 * m.sin(u) * (m.sin(u) - u * m.cos(u)) / u**3,
    4: lambda u, m: m.sin(2 * u) / u,
    5: lambda u, m: (m.sin(2 * u) - 2 * u) / u**3,
    6: lambda u, m: (u - m.sin(u) * m.cos(u)) * (1 - m.cos(2 * u)) / u**5,
    SINC: lambda u, m: m.sin(u) / u,
}

LIMITS = {1: -4.0 / 3.0, 2: -2.0 / 3.0, 3: 0.0, 4: 2.0, 5: -4.0 / 3.0, 6: 4.0 / 3.0}


@pytest.mark.parametrize("u", sorted(ORACLE))
@pytest.mark.parametrize("cid", range(1, 7))
def test_frozen_oracle(cid, u):
    got = tilde_h(cid, u, alpha=1.0)
    want = ORACLE[u][cid - 1]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_one_pass_matches_frozen_oracle():
    # all six coefficients and sin(u)/u from one pass over every oracle point
    us = np.array(sorted(ORACLE))
    rows = _coefficients((1, 2, 3, 4, 5, 6, SINC), us, alpha=1.0)
    for cid in range(1, 7):
        want = np.array([ORACLE[u][cid - 1] for u in us])
        assert np.all(np.abs(rows[cid - 1] - want) <= 1e-12 * np.abs(want))
    assert np.all(np.abs(rows[6] - np.sin(us) / us) <= 4e-16)


def test_one_pass_is_independent_of_batch_size():
    # each sample gets the same bits alone as in any batch, on both branches
    # and on far-field samples whose u^2 underflows
    us = np.concatenate([np.array(sorted(ORACLE)), [0.0, 1e-155, -3e-160, 1e-200, 0.0499]])
    ids = (1, 2, 3, 4, 6, SINC)
    rows = _coefficients(ids, us, alpha=1.3)
    for k, u in enumerate(us):
        assert np.array_equal(_coefficients(ids, u, alpha=1.3), rows[:, k])
    assert np.array_equal(_coefficients(ids, us[:3], alpha=1.3), rows[:, :3])


# the id sets the models ask for, with the alpha each needs
MODEL_SETS = (((1,), None), ((1, 6), None), ((1, 2, 3, 4, SINC), 1.3))
EDGES = [0.0, -0.0, SERIES_SWITCH, -SERIES_SWITCH, math.nan, math.inf, -math.inf, 1e71, 5e-324]


@pytest.mark.parametrize("mostly_past", [True, False])
def test_batch_independence_in_both_branch_orders(mostly_past):
    # a batch mostly past the switch and one mostly below it put the two
    # branches in opposite orders; a sample alone, or in a batch of its own
    # branch, must get the same bits either way
    rng = np.random.default_rng(11 if mostly_past else 12)
    n_past, n_below = (300, 40) if mostly_past else (40, 300)
    past = rng.uniform(SERIES_SWITCH, 40.0, n_past) * rng.choice([-1.0, 1.0], n_past)
    below = rng.uniform(-SERIES_SWITCH, SERIES_SWITCH, n_below)
    us = np.concatenate([past, below, EDGES])
    rng.shuffle(us)
    small = np.abs(us) < SERIES_SWITCH
    assert (np.count_nonzero(small) < us.size / 2) == mostly_past
    for ids, alpha in MODEL_SETS:
        rows = _coefficients(ids, us, alpha)
        for k, u in enumerate(us):
            assert np.array_equal(_coefficients(ids, u, alpha), rows[:, k], equal_nan=True), (ids, u)
        for part in (small, ~small):
            assert np.array_equal(_coefficients(ids, us[part], alpha), rows[:, part], equal_nan=True)


def test_each_coefficient_is_bit_equal_across_sets():
    # one formula per coefficient: its bits never depend on which set asked
    rng = np.random.default_rng(5)
    us = np.concatenate([rng.uniform(-0.06, 0.06, 200), rng.uniform(-30.0, 30.0, 200),
                         [0.0, SERIES_SWITCH, -SERIES_SWITCH, 1e71, 5e-324]])
    alpha = 1.3
    wm, = _coefficients((1,), us)
    an1, an6 = _coefficients((1, 6), us)
    sk1, sk2, sk3, sk4, sk_sinc = _coefficients((1, 2, 3, 4, SINC), us, alpha)
    for row in (an1, sk1, tilde_h(1, us), tilde_h(5, us)):
        assert np.array_equal(row, wm)
    assert np.array_equal(an6, tilde_h(6, us))
    for cid, row in ((2, sk2), (3, sk3), (4, sk4)):
        assert np.array_equal(row, tilde_h(cid, us, alpha)), cid
    assert np.array_equal(sk_sinc, _coefficients((SINC,), us)[0])


def test_series_matches_high_precision_closed_forms():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    us = rng.uniform(-SERIES_SWITCH, SERIES_SWITCH, 200)
    assert np.all((us != 0.0) & (np.abs(us) < SERIES_SWITCH))
    ids = tuple(CLOSED_FORMS)
    rows = _coefficients(ids, us, alpha=1.0)  # every sample below the switch: series only
    for row, cid in zip(rows, ids):
        with mpmath.workdps(50):
            want = np.array([float(CLOSED_FORMS[cid](mpmath.mpf(float(u)), mpmath)) for u in us])
        assert np.all(np.abs(row - want) <= 4e-16 * np.abs(want)), cid


def test_series_is_each_exact_taylor_coefficient_rounded_once():
    # the mpmath check above cannot see an error in a degree-10 term; this one
    # pins every table word to the exact rational, rounded once, and the
    # coefficients of the other parity to exactly 0
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    assert set(_SERIES) == set(CLOSED_FORMS)
    for cid, form in CLOSED_FORMS.items():
        poly = sympy.Poly(sympy.series(form(u, sympy), u, 0, 11).removeO(), u)
        exact = [poly.coeff_monomial(u**d) for d in range(11)]
        odd, table = _SERIES[cid]
        assert odd == (cid == 3)
        assert all(c == 0 for c in exact[1 - odd::2]), cid
        want = np.array([c.p / c.q for c in exact[odd::2]])  # int / int: one rounding
        assert table.tobytes() == want.tobytes(), cid


def test_alpha_square_scaling():
    for cid in (2, 3, 4):
        base = tilde_h(cid, 1.0, alpha=1.0)
        assert tilde_h(cid, 1.0, alpha=1.3) == pytest.approx(1.69 * base, rel=1e-14)
    for cid in (1, 5, 6):
        assert tilde_h(cid, 1.0) == tilde_h(cid, 1.0, alpha=7.0)


def test_limits_at_zero():
    for cid, lim in LIMITS.items():
        alpha2 = 1.0 if cid in (1, 5, 6) else 1.0  # alpha=1 keeps the stripped values
        assert abs(tilde_h(cid, 0.0, alpha=1.0) - lim * alpha2) <= 1e-10


def test_value_at_half_pi():
    assert tilde_h(1, math.pi / 2) == pytest.approx(-8.0 / math.pi**2, rel=1e-13)


def test_switch_continuity():
    eps = SERIES_SWITCH
    for cid in (1, 2, 3, 4, 5, 6, SINC):
        plan = _plan((cid,))
        for u in (eps, -eps):
            u = np.array([u])
            assert abs(_series_rows(plan, u)[0, 0] - _closed_rows(plan, u)[0, 0]) <= 1e-12


def test_vectorized_matches_scalar():
    us = np.array(sorted(ORACLE))
    vals = tilde_h(3, us, alpha=1.0)
    for u, got in zip(us, vals):
        assert got == pytest.approx(tilde_h(3, float(u), alpha=1.0), rel=0, abs=0)


@given(st.floats(min_value=-80.0, max_value=80.0, allow_nan=False))
def test_parity(u):
    for cid in (1, 2, 4, 5, 6):
        a, b = tilde_h(cid, u, alpha=1.0), tilde_h(cid, -u, alpha=1.0)
        assert a == pytest.approx(b, rel=1e-13, abs=1e-300)
    a, b = tilde_h(3, u, alpha=1.0), tilde_h(3, -u, alpha=1.0)
    assert a == pytest.approx(-b, rel=1e-13, abs=1e-300)


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_signs(u):
    assert tilde_h(1, u) <= 1e-15
    assert tilde_h(5, u) <= 1e-15
    assert tilde_h(6, u) >= -1e-15


def test_domain_errors():
    with pytest.raises(DomainError):
        tilde_h(2, 1.0)  # alpha missing
    with pytest.raises(DomainError):
        tilde_h(4, 1.0, alpha=-0.5)
    with pytest.raises(DomainError):
        tilde_h(7, 1.0)
    with pytest.raises(DomainError):
        tilde_h(1, math.nan)


def test_sin_inequality_bounds():
    checks = {c.name: c for c in verify.coefficient_bounds_suite()}
    assert checks["sine_ratio_j0"].value > 0.99  # bound j=0 is tight as sin(u)/r -> 0
    assert checks["sine_ratio_j2"].tolerance == "<= 0.5"
    assert all(checks[f"sine_ratio_j{j}"].passed for j in (0, 1, 2))
