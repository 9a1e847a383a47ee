"""Stencil exactness, even-field contract, refinement orders, quadrature oracles."""
import math

import numpy as np
import pytest

from skyrmelab.errors import ConfigError, ContractError, DomainError
from skyrmelab.grid import (FieldSamples, Parity, RadialGrid, d_r, even_d_r, even_derivatives,
                            laplacian5, radial_integral)


def even_field(g, fn):
    return FieldSamples(fn(g.nodes), Parity.EVEN)


def test_grid_validation():
    with pytest.raises(ConfigError):
        RadialGrid(10.0, 4)
    with pytest.raises(ConfigError):
        RadialGrid(-1.0, 64)
    g = RadialGrid(10.0, 64)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0
    assert g.dr == pytest.approx(10.0 / 64)
    assert np.array_equal(RadialGrid(10.0, np.int64(64)).nodes, g.nodes)
    for N in (16.0, "16", None, np.float64(16.0)):
        with pytest.raises(ConfigError, match="must be an integer"):
            RadialGrid(20.0, N)


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_grid_rejects_non_finite_radius(R):
    with pytest.raises(ConfigError):
        RadialGrid(R, 16)


def test_odd_field_must_vanish_at_axis():
    with pytest.raises(ContractError):
        FieldSamples(np.ones(65), Parity.ODD)


def test_d_r_polynomial_exactness():
    g = RadialGrid(4.0, 64)
    f = even_field(g, lambda r: r**2)
    got = d_r(f, g)
    assert got.parity is Parity.ODD
    assert np.max(np.abs(got.values - 2 * g.nodes)) <= 1e-12
    f4 = even_field(g, lambda r: r**4 - 3 * r**2 + 7)
    got4 = d_r(f4, g)
    assert np.max(np.abs(got4.values - (4 * g.nodes**3 - 6 * g.nodes))) <= 1e-10


def _ghost_stencil(values, centered, edges):
    """Reference: even ghost extension, summed term by term in stencil order."""
    n = values.size
    ext = np.concatenate([values[2:0:-1], values])
    out = np.zeros(n)
    for k, w in enumerate(centered):
        if w != 0.0:
            out[:n - 2] += w * ext[k:k + n - 2]
    for j, (weights, first) in zip((n - 2, n - 1), edges):
        out[j] = 0.0
        for w, x in zip(weights, values[j + first:]):
            out[j] += w * x
    return out


D1_REF = ([1.0, -8.0, 0.0, 8.0, -1.0], [([-1.0, 6.0, -18.0, 10.0, 3.0], -3),
                                        ([3.0, -16.0, 36.0, -48.0, 25.0], -4)])
D2_REF = ([-1.0, 16.0, -30.0, 16.0, -1.0], [([1.0, -6.0, 14.0, -4.0, -15.0, 10.0], -4),
                                           ([-10.0, 61.0, -156.0, 214.0, -154.0, 45.0], -5)])


# 4096 and 16384 are the largest grids the lab steps; a spread s scales the
# samples by 10**uniform(-s, s), so rounding meets every exponent
@pytest.mark.parametrize("n, spread", [(8, 0), (9, 0), (64, 0), (1000, 0), (4096, 0), (16384, 0),
                                       (4096, 300), (16384, 300)],
                         ids=["8", "9", "64", "1000", "4096", "16384", "4096-wide", "16384-wide"])
def test_stencils_sum_like_the_ghost_extended_reference(n, spread):
    g = RadialGrid(3.0, n)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-spread, spread, n + 1)
    h = g.dr
    d1 = _ghost_stencil(f, *D1_REF) / (12.0 * h)
    d1[0] = 0.0
    d2 = _ghost_stencil(f, *D2_REF) / (12.0 * h**2)
    assert np.array_equal(d_r(FieldSamples(f, Parity.EVEN), g).values, d1)
    lap = d2.copy()
    lap[1:] += 4.0 * d1[1:] / g.nodes[1:]
    lap[0] *= 5.0
    assert np.array_equal(laplacian5(FieldSamples(f, Parity.EVEN), g).values, lap)


@pytest.mark.parametrize("n", range(6))
def test_stencils_refuse_fewer_samples_than_the_edge_closures_read(n):
    # the closures read 6 samples back from the edge; fewer would index off the array
    g = RadialGrid(3.0, 8)
    with pytest.raises(ContractError, match="at least 6 samples"):
        even_d_r(np.ones(n), g)
    with pytest.raises(ContractError, match="at least 6 samples"):
        even_derivatives(np.ones(n), g)


def test_d_r_constant_is_zero():
    g = RadialGrid(4.0, 32)
    got = d_r(even_field(g, lambda r: np.full_like(r, 2.5)), g)
    assert np.all(got.values == 0.0)


def test_d_r_rejects_odd():
    g = RadialGrid(math.pi, 256)
    with pytest.raises(ContractError, match="even"):
        d_r(FieldSamples(np.sin(g.nodes), Parity.ODD), g)


def test_refinement_order_d_r():
    errs = []
    for n in (64, 128, 256):
        g = RadialGrid(6.0, n)
        f = even_field(g, lambda r: np.exp(-(r**2)) * np.cos(r))
        exact = -np.exp(-(g.nodes**2)) * (2 * g.nodes * np.cos(g.nodes) + np.sin(g.nodes))
        errs.append(np.max(np.abs(d_r(f, g).values - exact)))
    assert errs[0] / errs[1] >= 14 and errs[1] / errs[2] >= 14


def test_laplacian5_polynomial():
    g = RadialGrid(5.0, 64)
    got = laplacian5(even_field(g, lambda r: r**2), g)
    assert got.parity is Parity.EVEN
    assert np.max(np.abs(got.values - 10.0)) <= 1e-11


def test_laplacian5_axis_limit():
    # for even smooth f, (f_rr + 4 f_r / r)(0) = 5 f''(0)
    g = RadialGrid(4.0, 512)
    f = even_field(g, lambda r: np.exp(-(r**2)))
    got = laplacian5(f, g)
    assert got.values[0] == pytest.approx(-10.0, rel=1e-8)


def test_laplacian5_refinement():
    errs = []
    for n in (64, 128, 256):
        g = RadialGrid(6.0, n)
        f = even_field(g, lambda r: np.exp(-(r**2)))
        e = np.exp(-(g.nodes**2))
        exact = e * (4 * g.nodes**2 - 2) - 8 * e  # f_rr + 4 f_r / r for a Gaussian
        errs.append(np.max(np.abs(laplacian5(f, g).values - exact)))
    assert errs[0] / errs[1] >= 14 and errs[1] / errs[2] >= 14


def test_laplacian5_rejects_odd():
    g = RadialGrid(4.0, 32)
    f = FieldSamples(np.zeros(33), Parity.ODD)
    with pytest.raises(ContractError):
        laplacian5(f, g)


def test_checked_forms_refuse_bad_samples():
    g = RadialGrid(4.0, 32)
    for op in (d_r, laplacian5):
        with pytest.raises(ContractError, match=r"field has \(32,\) samples, grid wants 33"):
            op(FieldSamples(np.zeros(32), Parity.EVEN), g)
        with pytest.raises(DomainError, match="non-finite field samples"):
            op(FieldSamples(np.full(33, np.nan), Parity.EVEN), g)
    with pytest.raises(ContractError, match=r"field has \(34,\) samples, grid wants 33"):
        radial_integral(np.zeros(34), g)


def test_radial_integral_exact_cubic():
    g = RadialGrid(1.0, 96)
    val = radial_integral(np.ones_like(g.nodes), g, weight_power=2)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_radial_integral_gaussian_oracle():
    g = RadialGrid(10.0, 4096)
    val = radial_integral(np.exp(-(g.nodes**2)), g, weight_power=2)
    assert val == pytest.approx(math.sqrt(math.pi) / 4, abs=1e-10)


def test_radial_integral_zero():
    g = RadialGrid(3.0, 16)
    assert radial_integral(np.zeros_like(g.nodes), g, weight_power=2) == 0.0


def test_radial_integral_odd_interval_count():
    # N = 9 intervals exercises the 3/8 closure; integrand r^3 is still exact
    g = RadialGrid(2.0, 9)
    val = radial_integral(g.nodes**3, g)
    assert val == pytest.approx(2.0**4 / 4, rel=1e-13)


def test_refinement_order_integral():
    # integral of r^2 cos r on [0, 8]: r^2 sin r + 2 r cos r - 2 sin r at r = 8
    exact = 64 * math.sin(8.0) + 16 * math.cos(8.0) - 2 * math.sin(8.0)
    errs = []
    for n in (16, 32, 64):
        g = RadialGrid(8.0, n)
        errs.append(abs(radial_integral(np.cos(g.nodes), g, weight_power=2) - exact))
    assert errs[0] / errs[1] >= 14 and errs[1] / errs[2] >= 14
