"""Model RHS and energy checks: u/v-form consistency, structure, positivity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skyrmelab.errors import DomainError
from skyrmelab.exact import turok_spergel
from skyrmelab.models import (
    ALPHA_KINDS,
    Kind,
    ModelSpec,
    energy_density_v,
    _neg_nonlinearity,
)
from uform import energy_density, rhs_u

ALL_KINDS = list(Kind)
NONLINEAR = [Kind.WAVE_MAP, Kind.SKYRME, Kind.ADKINS_NAPPI, Kind.SKYRME_APPROX, Kind.ADKINS_NAPPI_APPROX]


def spec_for(kind, alpha=1.0):
    return ModelSpec(kind, alpha if kind in (Kind.SKYRME, Kind.SKYRME_APPROX) else None)


# Smooth synthetic field: v(t, r) = a cos(w t) exp(-(r/s)^2), all derivatives analytic.
class SyntheticField:
    def __init__(self, a=0.7, w=0.9, s=2.0):
        self.a, self.w, self.s = a, w, s

    def v(self, t, r):
        return self.a * math.cos(self.w * t) * math.exp(-((r / self.s) ** 2))

    def v_r(self, t, r):
        return self.v(t, r) * (-2.0 * r / self.s**2)

    def v_rr(self, t, r):
        return self.v(t, r) * (4.0 * r * r / self.s**4 - 2.0 / self.s**2)

    def v_t(self, t, r):
        return -self.a * self.w * math.sin(self.w * t) * math.exp(-((r / self.s) ** 2))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_u_form_equals_v_form(kind):
    """u_tt from the u-equation must equal r*(v-form acceleration) on any field shape."""
    model = spec_for(kind)
    f = SyntheticField()
    for t, r in [(0.0, 0.5), (0.4, 1.3), (1.1, 3.7), (2.0, 0.05)]:
        v, v_r, v_rr, v_t = f.v(t, r), f.v_r(t, r), f.v_rr(t, r), f.v_t(t, r)
        u, u_r, u_t = r * v, v + r * v_r, r * v_t
        u_rr = 2.0 * v_r + r * v_rr
        v_tt = v_rr + 4.0 * v_r / r + float(_neg_nonlinearity(model, r, v, v_r, v_t))
        u_tt = rhs_u(model, r, u, u_r, u_t, u_rr)
        assert u_tt == pytest.approx(r * v_tt, rel=1e-10, abs=1e-12)


def test_rhs_v_trivial_zeros():
    assert _neg_nonlinearity(spec_for(Kind.ADKINS_NAPPI), 2.0, 0.0, 0.3, -0.2) == 0.0
    assert _neg_nonlinearity(spec_for(Kind.FREE_WAVE_5D), 1.0, 1.0, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_nonlinearity_propagates_nan(kind):
    # a NaN sample gives NaN, never an exception, and leaves its neighbours finite
    r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    v = np.array([0.3, np.nan, 1.2, np.nan, -0.7])
    v_r = np.array([0.0, 0.1, -0.4, 0.2, 0.3])
    v_t = np.array([0.1, -0.2, 0.5, 0.0, 0.4])
    got = _neg_nonlinearity(spec_for(kind), r, v, v_r, v_t)
    assert np.array_equal(np.isnan(got), np.isnan(v))
    assert np.isnan(_neg_nonlinearity(spec_for(kind), 1.0, np.nan, 0.1, 0.2))


def test_rhs_v_quintic_truncation_value():
    # the small-u repulsive equation keeps only the quintic term in v-form
    got = _neg_nonlinearity(spec_for(Kind.ADKINS_NAPPI_APPROX), 1.0, 1.0, 0.0, 0.0)
    assert got == pytest.approx(-1.0, rel=1e-14)


def test_skyrme_reduces_to_wave_map():
    # with the quartic terms removed analytically, the Skyrme RHS is the wave-map RHS
    f = SyntheticField()
    for t, r in [(0.3, 0.8), (1.0, 2.5)]:
        v, v_r, v_t = f.v(t, r), f.v_r(t, r), f.v_t(t, r)
        u = r * v
        from skyrmelab.coefficients import _tilde_h_raw

        wm = -_tilde_h_raw(1, u) * v**3
        assert _neg_nonlinearity(spec_for(Kind.WAVE_MAP), r, v, v_r, v_t) == pytest.approx(wm, rel=1e-14)
        # Skyrme u-form with alpha terms zeroed equals wave-map u-form
        u_r, u_t, u_rr = v + r * v_r, r * v_t, 0.7
        got_wm = rhs_u(spec_for(Kind.WAVE_MAP), r, u, u_r, u_t, u_rr)
        alpha_small = rhs_u(spec_for(Kind.SKYRME, alpha=1e-8), r, u, u_r, u_t, u_rr)
        assert alpha_small == pytest.approx(got_wm, rel=1e-9)


def test_small_u_consistency():
    """The truncations keep exactly the scale-critical terms.

    full - approx therefore tends to the frozen subcritical residue as u -> 0,
    and the gap closes at O(u^2) in the field amplitude.
    """
    for r in (1e-4, 3e-4, 1e-3):
        v, v_r, v_t = 0.5, 0.2, -0.4
        u = r * v
        poly = abs(v) ** 3 + abs(v) ** 5 + abs(v) ** 3 * abs(v_r) + abs(v) * (v_t**2 + v_r**2)
        full = _neg_nonlinearity(spec_for(Kind.SKYRME), r, v, v_r, v_t)
        trunc = _neg_nonlinearity(spec_for(Kind.SKYRME_APPROX), r, v, v_r, v_t)
        # subcritical residue with coefficients at their u -> 0 limits (alpha = 1)
        residue = ((4.0 / 3.0) * v**3 + (2.0 / 3.0) * v**5 - (4.0 / 3.0) * u * v**3 * v_r) / (1 + 2 * v * v)
        assert abs((full - trunc) - residue) <= 10.0 * u * u * poly
        full = _neg_nonlinearity(spec_for(Kind.ADKINS_NAPPI), r, v, v_r, v_t)
        trunc = _neg_nonlinearity(spec_for(Kind.ADKINS_NAPPI_APPROX), r, v, v_r, v_t)
        residue = (4.0 / 3.0) * v**3 - (1.0 / 3.0) * v**5
        assert abs((full - trunc) - residue) <= 10.0 * u * u * poly


def test_turok_spergel_residual_through_models():
    t, r = 1.7, 0.9
    u, u_t, u_r, u_tt, u_rr = turok_spergel(t, r)
    got = rhs_u(spec_for(Kind.WAVE_MAP), r, u, u_r, u_t, u_rr)
    assert got == pytest.approx(u_tt, abs=1e-13)


def test_rhs_u_rejects_axis():
    with pytest.raises(DomainError):
        rhs_u(spec_for(Kind.WAVE_MAP), 0.0, 0.0, 1.0, 0.0, 0.0)


def test_alpha_validation():
    with pytest.raises(DomainError):
        ModelSpec(Kind.SKYRME)
    with pytest.raises(DomainError):
        ModelSpec(Kind.SKYRME_APPROX, alpha=-2.0)
    with pytest.raises(DomainError):
        ModelSpec(Kind.SKYRME, alpha=math.inf)
    for alpha in ("1.0", 1 + 0j):
        with pytest.raises(DomainError, match="needs a real alpha > 0"):
            ModelSpec(Kind.SKYRME, alpha=alpha)
    ModelSpec(Kind.WAVE_MAP)  # alpha not needed
    for kind in set(Kind) - set(ALPHA_KINDS):
        with pytest.raises(DomainError, match="takes no alpha"):
            ModelSpec(kind, alpha=1.0)


def test_model_kind_is_a_kind_or_its_name():
    # a name becomes its Kind, so the models' `is Kind.X` dispatch sees it
    for kind in ALL_KINDS:
        assert spec_for(kind.value).kind is kind
    r = np.linspace(0.0, 10.0, 65)
    v, v_r, vt = 0.3 * np.exp(-r * r), -0.6 * r * np.exp(-r * r), np.zeros_like(r)
    assert np.array_equal(energy_density_v(ModelSpec("wave-map"), r, v, v_r, vt),
                          energy_density_v(ModelSpec(Kind.WAVE_MAP), r, v, v_r, vt))
    for bad in ("not-a-model", "Wave-Map", 3, None):
        with pytest.raises(DomainError, match="unknown model"):
            ModelSpec(bad)


def test_energy_density_examples():
    m = spec_for(Kind.ADKINS_NAPPI)
    val = energy_density(m, 1.0, math.pi, 0.0, 0.0)
    assert val == pytest.approx(math.pi**2 / 2, rel=1e-14)
    for kind in ALL_KINDS:
        assert energy_density(spec_for(kind), 1.5, 0.0, 0.0, 0.0) == 0.0


def test_energy_density_axis_rules():
    m = spec_for(Kind.SKYRME)
    assert energy_density(m, 0.0, 0.0, 0.4, 0.0) == pytest.approx(0.0, abs=1e-30)
    with pytest.raises(DomainError):
        energy_density(m, 0.0, 0.3, 0.0, 0.0)


@settings(max_examples=60)
@given(st.floats(min_value=1e-3, max_value=20), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_energy_density_nonnegative(r, u, u_r, u_t):
    for kind in ALL_KINDS:
        assert energy_density(spec_for(kind), r, u, u_r, u_t) >= 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_energy_density_v_matches_u_form(kind):
    model = spec_for(kind)
    f = SyntheticField()
    r = np.linspace(0.25, 6.0, 24)
    v = np.array([f.v(0.3, x) for x in r])
    v_r = np.array([f.v_r(0.3, x) for x in r])
    v_t = np.array([f.v_t(0.3, x) for x in r])
    u, u_r, u_t = r * v, v + r * v_r, r * v_t
    a = energy_density(model, r, u, u_r, u_t)
    b = energy_density_v(model, r, v, v_r, v_t)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-13)


def test_energy_density_v_finite_at_axis():
    for kind in ALL_KINDS:
        val = energy_density_v(spec_for(kind), np.array([0.0]), np.array([0.8]),
                               np.array([0.1]), np.array([-0.2]))
        assert np.isfinite(val[0]) and val[0] >= 0.0


def test_null_form_identity_fd_order():
    """Q(v,v) = -Box(v^2/2) + v Box v with Box = -d_tt + d_rr + (4/r) d_r.

    The centered-difference residual of the identity must shrink at 2nd order.
    """
    f = SyntheticField()

    def box(g, t, r, h):
        d_tt = (g(t + h, r) - 2 * g(t, r) + g(t - h, r)) / h**2
        d_rr = (g(t, r + h) - 2 * g(t, r) + g(t, r - h)) / h**2
        d_r = (g(t, r + h) - g(t, r - h)) / (2 * h)
        return -d_tt + d_rr + 4.0 * d_r / r

    def residual(h):
        t, r = 0.7, 1.9
        v_t = (f.v(t + h, r) - f.v(t - h, r)) / (2 * h)
        v_r = (f.v(t, r + h) - f.v(t, r - h)) / (2 * h)
        q = v_t * v_t - v_r * v_r
        half_sq = lambda tt, rr: 0.5 * f.v(tt, rr) ** 2
        return abs(q + box(half_sq, t, r, h) - f.v(t, r) * box(f.v, t, r, h))

    r1, r2 = residual(2e-2), residual(1e-2)
    assert r1 / r2 > 3.2  # ~4x per halving for a 2nd-order scheme
