"""Exact solutions: collapse profile identities and the free-wave formula oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skyrmelab.errors import DomainError
from skyrmelab.exact import GaussianProfile, exact_free_wave_5d, turok_spergel, turok_spergel_collapse_data
from skyrmelab.models import Kind, ModelSpec
from uform import rhs_u

# frozen 50-digit oracle for the default profile (amplitude 1, width 1, center 3)
FREE_WAVE_ORACLE = [
    # t, r, v, v_t
    (0.0, 0.0, -0.01480917649040154594, -0.072071325586620856907),
    (0.0, 0.25, -0.016815633209122015936, -0.079377654451497216723),
    (0.0, 0.5, -0.023337713860849155234, -0.10155118372752035881),
    (0.0, 2.0, -0.13795479047574672324, -0.091969860650475134922),
    (0.0, 3.0, 0.037037037037036719177, 0.22222222222221845944),
    (1.0, 3.7, 0.014899906565526327454, -0.042540440159046516783),
    (0.5, 0.1, -0.12345031314386945795, -0.43530468635475847581),
    (2.5, 0.4, 2.2764058304027477809, -0.73726693185455437582),
    (1.0, 6.0, 2.5528812783535632459e-8, -1.9797854811721510887e-7),
]


def test_turok_spergel_values():
    u, u_t, u_r, u_tt, u_rr = turok_spergel(1.0, 1.0)
    assert u == pytest.approx(math.pi / 2, rel=1e-15)
    assert u_t == pytest.approx(-1.0) and u_r == pytest.approx(1.0)
    assert u_tt == pytest.approx(1.0) and u_rr == pytest.approx(-1.0)
    u_far = turok_spergel(1.0, 1e9)[0]
    assert u_far == pytest.approx(math.pi, rel=1e-8)


def test_turok_spergel_rejects_collapse_time():
    with pytest.raises(DomainError):
        turok_spergel(0.0, 1.0)
    for t0 in (0.0, -1.0):
        with pytest.raises(DomainError, match="t0 must be positive"):
            turok_spergel_collapse_data(t0, np.linspace(0.0, 1.0, 5))


@given(st.floats(min_value=0.1, max_value=10), st.floats(min_value=1e-4, max_value=50))
def test_turok_spergel_solves_wave_map(t, r):
    u, u_t, u_r, u_tt, u_rr = turok_spergel(t, r)
    model = ModelSpec(Kind.WAVE_MAP)
    # the equation's terms cancel; measure the residual against their magnitude
    scale = 1.0 + abs(u_rr) + 2 * abs(u_r) / r + abs(math.sin(2 * u)) / r**2
    assert abs(u_tt - rhs_u(model, r, u, u_r, u_t, u_rr)) <= 1e-13 * scale


def test_wave_map_residual_bulk():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.1, 10.0, 10_000)
    r = rng.uniform(1e-2, 30.0, 10_000)
    u, u_t, u_r, u_tt, u_rr = turok_spergel(t, r)
    res = u_tt - rhs_u(ModelSpec(Kind.WAVE_MAP), r, u, u_r, u_t, u_rr)
    assert np.max(np.abs(res)) <= 1e-12


def test_collapse_data_matches_solution():
    r = np.linspace(0.0, 10.0, 101)
    v, vt = turok_spergel_collapse_data(2.0, r)
    u, u_t, _, _, _ = turok_spergel(2.0, r[1:])
    assert v[1:] == pytest.approx(u / r[1:], rel=1e-14)
    assert vt[1:] == pytest.approx(-u_t / r[1:], rel=1e-14)  # run clock s = t0 - t
    assert v[0] == pytest.approx(2.0 / 2.0, rel=1e-14)  # limit 2/t0 at the axis


@pytest.mark.parametrize("t,r,v,vt", FREE_WAVE_ORACLE)
def test_free_wave_oracle(t, r, v, vt):
    prof = GaussianProfile()
    assert exact_free_wave_5d(prof, t, r) == pytest.approx(v, rel=1e-11, abs=1e-18)
    assert exact_free_wave_5d(prof, t, r, t_order=1) == pytest.approx(vt, rel=1e-11, abs=1e-18)


def test_free_wave_zero_profile():
    class Zero:
        width = 1.0

        def derivative(self, n, s):
            return np.zeros_like(np.asarray(s, dtype=float))

    assert exact_free_wave_5d(Zero(), 0.3, 0.7) == 0.0


def test_free_wave_series_joins_closed_form():
    # compare the two branches just inside/outside the switch radius
    prof = GaussianProfile()
    for t in (0.0, 0.5, 2.0):
        lo = exact_free_wave_5d(prof, t, 0.499)
        hi = exact_free_wave_5d(prof, t, 0.501)
        mid = exact_free_wave_5d(prof, t, 0.5)
        assert lo == pytest.approx(2 * mid - hi, rel=1e-4, abs=1e-10)


def test_free_wave_vectorized():
    prof = GaussianProfile()
    r = np.array([0.0, 0.25, 0.5, 2.0, 3.0])
    vals = exact_free_wave_5d(prof, 0.0, r)
    for rr, got in zip(r, vals):
        assert got == exact_free_wave_5d(prof, 0.0, float(rr))


def test_gaussian_profile_derivatives():
    prof = GaussianProfile(amplitude=2.0, width=1.5, center=1.0)
    h = 1e-5
    for n in (0, 1, 2, 5):
        fd = (prof.derivative(n, 2.0 + h) - prof.derivative(n, 2.0 - h)) / (2 * h)
        assert prof.derivative(n + 1, 2.0) == pytest.approx(fd, rel=1e-8)
