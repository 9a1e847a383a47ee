"""Transform, norm, and dyadic-decomposition oracles.

The reference values are closed forms: the self-dual Gaussian, Gamma-function
norms, Plancherel, and the exact dilation covariance lambda^(a + n/2 - s).
Grids are chosen so each oracle is resolved well past the asserted tolerance.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from skyrmelab import spectral
from skyrmelab.errors import ContractError, DomainError
from skyrmelab.grid import RadialGrid, radial_integral
from skyrmelab.spectral import (SPHERE_AREA, RadialProfile, SpectralProfile,
                                besov_norm, chi, dyadic_band,
                                dyadic_piece, inverse_radial_fourier, lp_norm,
                                radial_fourier, scale, sobolev_norm)

G16 = RadialGrid(16.0, 1024)
GAUSS16 = np.exp(-G16.nodes**2 / 2.0)


def gauss_profile(dim, grid=G16):
    return RadialProfile(np.exp(-grid.nodes**2 / 2.0), grid, dim=dim)


# ----------------------------------------------------------------- transform

@pytest.mark.parametrize("dim", [3, 5])
def test_gaussian_is_self_dual(dim):
    sp = radial_fourier(gauss_profile(dim))
    assert np.max(np.abs(sp.fhat - np.exp(-sp.rho_nodes**2 / 2.0))) <= 1e-8


@pytest.mark.parametrize("dim", [3, 5])
def test_roundtrip_recovers_profile(dim):
    p = gauss_profile(dim)
    back = inverse_radial_fourier(radial_fourier(p))
    assert np.max(np.abs(back.values - p.values)) <= 1e-8


@pytest.mark.parametrize("dim", [3, 5])
def test_plancherel(dim):
    p = gauss_profile(dim)
    phys = math.sqrt(SPHERE_AREA[dim]
                     * radial_integral(p.values**2, p.grid, dim - 1))
    assert sobolev_norm(p, 0.0) == pytest.approx(phys, rel=1e-10)


def test_transform_validation():
    with pytest.raises(DomainError):
        RadialProfile(GAUSS16, G16, dim=4)
    with pytest.raises(ContractError):
        RadialProfile(GAUSS16[:-1], G16, dim=3)
    with pytest.raises(ContractError):
        RadialProfile(np.where(G16.nodes < 1, np.nan, 0.0), G16, dim=3)


def test_lp_norm_guard():
    p = gauss_profile(5)
    for p_exp in (0.5, math.nan):
        with pytest.raises(DomainError, match="p must be >= 1"):
            lp_norm(p, p_exp)


def test_inverse_needs_the_forward_frequencies():
    # a spectrum sits on the first len(fhat) frequencies k pi / R of its grid
    sp = radial_fourier(gauss_profile(5))
    assert np.array_equal(sp.rho_nodes, math.pi / G16.R * np.arange(1, G16.N + 1))
    bad = [sp.fhat[:0],                               # no frequency
           sp.fhat[0],                                # not 1-D
           np.ones((2, G16.N // 2)),
           np.ones(G16.N + 1)]                        # past Nyquist
    for fhat in bad:
        with pytest.raises(ContractError):
            SpectralProfile(5, fhat, G16)
    m = G16.N // 2  # a truncated spectrum is a prefix of the lattice
    cut = SpectralProfile(5, sp.fhat[:m], G16)
    assert np.array_equal(cut.rho_nodes, sp.rho_nodes[:m])
    inverse_radial_fourier(cut)


def test_undecayed_profile_warns():
    p = RadialProfile(np.ones_like(G16.nodes), G16, dim=3)
    assert not p.decay_certified
    with pytest.warns(RuntimeWarning):
        radial_fourier(p)


def test_a_profile_keeps_its_spectrum():
    p = gauss_profile(5)
    first = radial_fourier(p).fhat.copy()
    again = radial_fourier(p)
    assert again.fhat.tobytes() == first.tobytes()
    assert not again.fhat.flags.writeable
    undecayed = RadialProfile(np.ones_like(G16.nodes), G16, dim=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for lam in dyadic_band(G16)[:3]:
            dyadic_piece(undecayed, lam)
        radial_fourier(undecayed)
    assert [str(w.message) for w in caught] == [
        "profile tail is not negligible; transform accuracy degrades"]



def _kernel5_reference(x):
    # the dim-5 kernel as first written: closed form and series on every entry
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.5
    xs = np.where(small, 0.0, x)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (np.sin(xs) / xs - np.cos(xs)) / xs**2
    x2 = x * x
    series = np.zeros_like(x)
    term = np.ones_like(x)
    with np.errstate(over="ignore", invalid="ignore"):  # huge x overflow the series
        for k in range(1, 12):
            series = series + (2.0 * k / math.factorial(2 * k + 1)) * term
            term = term * (-x2)
    return np.where(small, series, direct)


@pytest.mark.parametrize("x", [
    np.array([0.0, 1e-300, -1e-300, 5e-324, 1e-8, 0.1, -0.3, np.nextafter(0.5, 0.0), 0.5,
              -0.5, np.nextafter(0.5, 1.0), 0.7, -1.0, 2.5, 10.0, 1e3, 1e8, 1e150, -1e150]),
    np.outer([0.0, 1e-300, -1e-300, 0.3, 1.7, 40.0, 1e4], np.linspace(0.0, 3.0, 61)),
], ids=["1d", "outer"])
def test_dim5_kernel_bits_match_reference(x):
    got = spectral._kernel(5, x)
    assert got.shape == x.shape
    assert got.tobytes() == _kernel5_reference(x).tobytes()


def test_norms_evaluate_each_node_set_once(monkeypatch):
    sizes = []
    prefixes = []
    fhat_at = spectral._fhat_at
    moment_prefix = spectral._moment_prefix
    monkeypatch.setattr(spectral, "_fhat_at",
                        lambda p, rho: sizes.append(len(rho)) or fhat_at(p, rho))
    monkeypatch.setattr(spectral, "_moment_prefix",
                        lambda cols, vec: prefixes.append(len(cols)) or moment_prefix(cols, vec))
    p = gauss_profile(5)
    first = sobolev_norm(p, 1.5)
    built = len(sizes)
    assert built > 0
    assert prefixes == [G16.N + 1]  # one prefix block serves every panel
    assert sobolev_norm(p, 1.5) == first
    assert len(sizes) == built  # the second call builds no kernel
    warm = besov_norm(p, 1.5, 2, 1)
    warm_builds = len(sizes) - built
    assert prefixes == [G16.N + 1]  # nor does a second norm build a prefix block
    assert all(not y.flags.writeable for y in p._power.values())
    assert all(not a.flags.writeable for a in p._moments)

    del sizes[:]
    assert sobolev_norm(gauss_profile(5), 1.5) == first
    cold = besov_norm(gauss_profile(5), 1.5, 2, 1)
    assert warm_builds < len(sizes) - built  # shells reuse the Sobolev panels
    assert (warm.value, warm.truncation_bound, warm.pieces) == \
        (cold.value, cold.truncation_bound, cold.pieces)


def test_profile_keeps_a_read_only_copy():
    v = np.exp(-(G16.nodes**2))
    p = RadialProfile(v, G16, dim=5)
    assert not p.values.flags.writeable
    with pytest.raises(ValueError):
        p.values[0] = 2.0
    assert v.flags.writeable
    v[0] = 2.0
    assert p.values[0] == 1.0

def _transform_profiles(r, dr):
    # Gaussians of width 1 and 0.3, an axis spike 3 dr wide, a ring, a chirp
    return [np.exp(-r * r / 2.0), np.exp(-r * r / (2.0 * 0.3**2)), np.exp(-(r / (3.0 * dr)) ** 2),
            np.exp(-((r - 8.0) ** 2)), np.exp(-r * r / 2.0) * np.cos(6.0 * r)]


def _direct_transforms(dim, rho, nodes, fwd, inv, rows=512):
    """K @ fwd and K.T @ inv for K[k, j] = kernel(rho_k * r_j), built row block by row block.

    The reference for the lattice transforms: its kernel arguments are the
    products rho_k * r_j themselves, and the transpose serves the inverse
    because rho_k * r_j and r_j * rho_k are the same float.
    """
    out_f = np.empty((len(rho), fwd.shape[1]))
    out_i = np.zeros((len(nodes), inv.shape[1]))
    for k0 in range(0, len(rho), rows):
        block = spectral._kernel(dim, np.outer(rho[k0:k0 + rows], nodes))
        # one vector at a time: a matrix product sums in another order and
        # loses up to 1e-14 relative on these profiles
        for col in range(fwd.shape[1]):
            out_f[k0:k0 + rows, col] = block @ fwd[:, col]
        for col in range(inv.shape[1]):
            out_i[:, col] += inv[k0:k0 + rows, col] @ block
    return out_f, out_i


def _long_double_kernel(dim, x):
    """The kernel in long double: its closed form, and its Taylor series below x = 0.5."""
    x = np.asarray(x, dtype=np.longdouble)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sin(x) / x if dim == 3 else (np.sin(x) / x - np.cos(x)) / (x * x)
    small = np.abs(x) < 0.5
    x2 = x[small] ** 2
    # (-x^2)^k / (2k + 1)! in dim 3; 2 (k + 1) (-x^2)^k / (2k + 3)! in dim 5
    term = np.ones_like(x2) / (1 if dim == 3 else 6)
    series = np.zeros_like(x2)
    for k in range(16):
        series += term if dim == 3 else 2 * (k + 1) * term
        term *= -x2 / ((2 * k + dim - 1) * (2 * k + dim))
    out[small] = series
    return out


def _long_double_transforms(dim, rows, cols, vecs, block=256):
    """K @ vecs for K[j, i] = kernel(rows_j * cols_i), with the products, the kernel
    and the sums in long double.

    The reference for the off-lattice transforms.  A double-precision direct
    sum is itself up to 1.5e-14 of the peak off the exact sum on these
    profiles, more than the moments and the factored far field miss it by.
    """
    cols = cols.astype(np.longdouble)
    vecs = vecs.astype(np.longdouble)
    out = np.empty((len(rows), vecs.shape[1]), dtype=np.longdouble)
    for j in range(0, len(rows), block):
        x = np.outer(rows[j:j + block].astype(np.longdouble), cols)
        out[j:j + block] = _long_double_kernel(dim, x) @ vecs
    return out


@pytest.mark.parametrize("N", [8, 64, 512, 999, 4096])
@pytest.mark.parametrize("dim", [3, 5])
def test_transforms_match_the_direct_kernel(dim, N):
    g = RadialGrid(20.0, N)
    rho = math.pi / g.R * np.arange(1, N + 1)
    profiles = [RadialProfile(v, g, dim) for v in _transform_profiles(g.nodes, g.dr)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the spike is wide at N = 8
        spectra = [radial_fourier(p) for p in profiles]
    cut = int(round(0.6 * N))  # truncated below Nyquist, as a prefix
    spectra += [SpectralProfile(dim, sp.fhat[:cut], g) for sp in spectra]
    inv = np.zeros((N, len(spectra)))
    for col, sp in enumerate(spectra):
        inv[:len(sp.rho_nodes), col] = spectral._inverse_vector(sp)
    fwd = np.stack([spectral._forward_vector(p) for p in profiles], axis=1)
    want_f, want_i = _direct_transforms(dim, rho, g.nodes, fwd, inv)
    want_f *= spectral._SQRT_2_PI
    want_i *= spectral._SQRT_2_PI
    for col, sp in enumerate(spectra):
        m = len(sp.rho_nodes)
        assert m == (N if col < len(profiles) else cut)
        ref = want_f[:m, col % len(profiles)]
        peak = np.max(np.abs(ref))
        assert np.array_equal(sp.rho_nodes, rho[:m])
        assert np.max(np.abs(sp.fhat - ref)) <= 1e-14 * peak
        # the inverse rounds on the scale of its input or of its output,
        # whichever is larger: the spike's spectrum is far below its peak
        back = inverse_radial_fourier(sp).values
        peak = max(np.max(np.abs(sp.fhat)), np.max(np.abs(want_i[:, col])))
        assert np.max(np.abs(back - want_i[:, col])) <= 1e-14 * peak


def test_transform_builds_only_the_near_field(monkeypatch):
    N = 4096
    g = RadialGrid(20.0, N)
    p = RadialProfile(np.exp(-g.nodes**2 / 2.0), g, 5)
    entries = []
    kernel = spectral._kernel
    spectral._near_block.cache_clear()
    monkeypatch.setattr(spectral, "_kernel",
                        lambda dim, x: entries.append(np.size(x)) or kernel(dim, x))
    radial_fourier(p)
    c0 = math.ceil(math.sqrt(2.0 * N / math.pi))
    assert 0 < sum(entries) <= (c0 + 1) * (N + 1)  # the full matrix has N (N + 1)


@pytest.mark.parametrize("dim", [3, 5])
def test_lattice_transforms_share_one_near_block(dim, monkeypatch):
    N = 4096
    c0 = math.ceil(math.sqrt(2.0 * N / math.pi))
    entries = []
    kernel = spectral._kernel
    spectral._near_block.cache_clear()
    monkeypatch.setattr(spectral, "_kernel",
                        lambda d, x: entries.append(np.size(x)) or kernel(d, x))

    def round_trip(R):
        g = RadialGrid(R, N)
        inverse_radial_fourier(radial_fourier(RadialProfile(np.exp(-g.nodes**2 / 2.0), g, dim)))

    round_trip(20.0)
    round_trip(13.0)
    # both directions on both grids: the entries kernel(pi i c / N), i <= c0, once
    assert sum(entries) == (c0 + 1) * (N + 1)
    round_trip(17.0)
    assert sum(entries) == (c0 + 1) * (N + 1)  # a new R at a seen N evaluates none
    block = spectral._near_block(dim, N)
    assert block.shape == (c0 + 1, N + 1)
    assert not block.flags.writeable


def _norm_panels(g, dim, s=1.5):
    """The Gauss-Jacobi head and the Gauss-Legendre panels of _spectral_moment."""
    x, _ = spectral._jacobi_rule(2.0 * s + dim - 1.0)
    xg, _ = spectral._legendre_rule(48)
    hi = math.pi / g.dr
    head = min(1.0, hi)
    edges = spectral._panel_edges(head, hi)
    return [head * x] + [0.5 * (a + b) + 0.5 * (b - a) * xg for a, b in zip(edges[:-1], edges[1:])]


def _check_panel_transforms(dim, g):
    # the profiles at R = 20, stretched to the grid's radius
    stretch = g.R / 20.0
    rho = np.concatenate(_norm_panels(g, dim))
    profiles = [RadialProfile(v, g, dim)
                for v in _transform_profiles(g.nodes / stretch, g.dr / stretch)]
    fwd = np.stack([spectral._forward_vector(p) for p in profiles], axis=1)
    want = spectral._SQRT_2_PI * _long_double_transforms(dim, rho, g.nodes, fwd)
    for col, p in enumerate(profiles):
        peak = np.max(np.abs(want[:, col]))
        with np.errstate(over="raise", invalid="raise"):
            got = spectral._fhat_at(p, rho)
        assert np.max(np.abs(got - want[:, col])) <= 1e-14 * peak


@pytest.mark.parametrize("N", [8, 64, 999, 4096])
@pytest.mark.parametrize("dim", [3, 5])
def test_panel_transforms_match_the_direct_kernel(dim, N):
    _check_panel_transforms(dim, RadialGrid(20.0, N))


@pytest.mark.parametrize("R", [1e4, 1e12])
@pytest.mark.parametrize("dim", [3, 5])
def test_panel_transforms_at_a_large_radius(dim, R):
    # the moments scale the columns by R: unscaled, their 26th powers
    # would overflow from R ~ 1e11 on
    _check_panel_transforms(dim, RadialGrid(R, 64))


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.2, 2.0])
@pytest.mark.parametrize("dim", [3, 5])
def test_scale_matches_the_direct_kernel(dim, lam):
    g = RadialGrid(20.0, 999)
    arg = g.nodes / lam
    inside = arg <= g.R
    assert lam >= 1 or not inside.all()  # contractions drop the nodes past R
    for v in _transform_profiles(g.nodes, g.dr):
        p = RadialProfile(v, g, dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # dilated ring and spike tails
            got = scale(p, lam, 0.75).values
        sp = radial_fourier(p)
        vec = spectral._inverse_vector(sp)
        want = _long_double_transforms(dim, arg[inside], sp.rho_nodes, vec[:, None])[:, 0]
        # a sum rounds on the scale of its terms: near the axis the ring's
        # resampling cancels terms up to 70 times its peak
        terms = np.abs(spectral._kernel(dim, np.outer(arg[inside], sp.rho_nodes))) @ np.abs(vec)
        factor = lam**0.75 * spectral._SQRT_2_PI
        assert np.all(got[~inside] == 0.0)
        assert np.max(np.abs(got[inside] - factor * want)) <= 1e-14 * factor * np.max(terms)


def test_norms_build_no_dense_panel_kernel(monkeypatch):
    N = 16384
    g = RadialGrid(20.0, N)
    p = RadialProfile(np.exp(-g.nodes**2 / 2.0), g, 5)
    args = []
    kernel = spectral._kernel
    monkeypatch.setattr(spectral, "_kernel", lambda dim, x: args.append(x) or kernel(dim, x))
    sobolev_norm(p, 1.5)
    besov_norm(p, 1.5, 2, 1)
    # the x < 2 columns come from the moments; what is left, the x >= 2 rest
    # of each row's first far block, is 56,827 entries (a dense panel has 48 (N + 1))
    assert 0 < sum(np.size(x) for x in args) <= 71_000
    assert all(np.min(x) >= 2.0 for x in args if np.size(x))


def test_scale_builds_no_dense_kernel(monkeypatch):
    N = 2048
    g = RadialGrid(20.0, N)
    p = RadialProfile(np.exp(-g.nodes**2 / 2.0), g, 5)
    entries = []
    kernel = spectral._kernel
    spectral._near_block.cache_clear()
    monkeypatch.setattr(spectral, "_kernel",
                        lambda dim, x: entries.append(np.size(x)) or kernel(dim, x))
    scale(p, 1.2, -1.0)
    assert 0 < sum(entries) <= (N + 1) * N // 8  # the dense resampling has (N + 1) N
    c0 = math.ceil(math.sqrt(2.0 * N / math.pi))
    assert spectral._near_block.cache_info().currsize == 1
    assert spectral._near_block(5, N).shape == (c0 + 1, N + 1)


@pytest.mark.parametrize("dim", [3, 5])
def test_fine_grid_transform_matches_gaussian_oracle(dim):
    g = RadialGrid(20.0, 16384)
    sp = radial_fourier(RadialProfile(np.exp(-g.nodes**2 / 2.0), g, dim))
    assert len(sp.rho_nodes) == g.N
    assert np.max(np.abs(sp.fhat - np.exp(-sp.rho_nodes**2 / 2.0))) <= 1e-10


@pytest.mark.parametrize("N", [8, 9, 64])
def test_sine_and_cosine_sums_match_their_definition(N):
    w = np.random.default_rng(N).standard_normal(N + 1)
    angle = math.pi * np.outer(np.arange(N + 1), np.arange(N + 1)) / N
    dst = np.sin(angle[:, 1:N]) @ w[1:N]
    dct = np.cos(angle) @ w
    assert np.max(np.abs(spectral._dst1(w) - dst)) <= 1e-13
    assert np.max(np.abs(spectral._dct1(w) - dct)) <= 1e-13


# --------------------------------------------------------------- norm oracles

@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("s", [0.0, 1.0, 1.5, 2.0, 2.5])
def test_gaussian_gamma_oracle(dim, s):
    # closed form: squared norm of exp(-r^2/2) is |S^(n-1)| Gamma(s + n/2) / 2
    want = SPHERE_AREA[dim] * gamma(s + dim / 2.0) / 2.0
    got = sobolev_norm(gauss_profile(dim), s) ** 2
    assert got == pytest.approx(want, rel=1e-4)
    assert got == pytest.approx(want, rel=1e-10)  # the quadrature is spectral


@pytest.mark.parametrize("dim", [3, 5])
def test_gaussian_gamma_oracle_at_a_small_radius(dim):
    # at R = 2 no row of a norm's quadrature panels reaches past x = 2 far
    # enough to split off a far field; a Gaussian of width w scales the
    # closed form by w^(n - 2s)
    g, w = RadialGrid(2.0, 256), 0.2
    p = RadialProfile(np.exp(-g.nodes**2 / (2.0 * w * w)), g, dim)
    for s in (0.0, 1.0, 1.5, 2.0, 2.5):
        want = SPHERE_AREA[dim] * gamma(s + dim / 2.0) / 2.0 * w ** (dim - 2.0 * s)
        assert sobolev_norm(p, s) ** 2 == pytest.approx(want, rel=1e-13)


def test_sobolev_domain_guard():
    p = gauss_profile(3)
    with pytest.raises(DomainError):
        sobolev_norm(p, -1.5)  # s <= -n/2 diverges at rho = 0
    assert math.isfinite(sobolev_norm(p, -1.49))


def test_zero_profile_norms_vanish():
    p = RadialProfile(np.zeros_like(G16.nodes), G16, dim=5)
    assert sobolev_norm(p, 1.5) == 0.0
    res = besov_norm(p, 1.5, 2, 1)
    assert float(res) == 0.0 and res.truncation_bound == 0.0


# ------------------------------------------------------------- dyadic cutoff

def test_partition_telescopes_exactly():
    # max |sum_j chi(s/2^j) - 1| over log-spaced s: floating-point dust only
    s = np.geomspace(1e-6, 1e6, 4096)
    total = np.zeros_like(s)
    for j in range(math.floor(math.log2(1e-6)) - 2, math.ceil(math.log2(1e6)) + 3):
        total += chi(s / 2.0**j)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_cutoff_support_and_range():
    s = np.geomspace(1e-3, 1e3, 20_001)
    c = chi(s)
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    assert np.all(c[(s <= 0.5) | (s >= 2.0)] == 0.0)
    assert chi(1.0) == pytest.approx(1.0)


def test_dyadic_band_is_dyadic_and_bounded():
    band = np.asarray(dyadic_band(G16), dtype=float)
    assert np.allclose(band[1:] / band[:-1], 2.0)
    assert band[0] >= 2.0 * math.pi / G16.R * (1 - 1e-12)
    assert band[-1] <= math.pi / G16.dr * (1 + 1e-12)


def test_dyadic_piece_band_guard():
    p = gauss_profile(5)
    with pytest.raises(DomainError):
        dyadic_piece(p, 1e6)
    with pytest.raises(DomainError):
        dyadic_piece(p, 1e-6)


def test_far_shells_are_orthogonal():
    p = gauss_profile(5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        a = dyadic_piece(p, 1.0).values
        b = dyadic_piece(p, 4.0).values
    ip = radial_integral(a * b, G16, 4)
    na = radial_integral(a * a, G16, 4)
    nb = radial_integral(b * b, G16, 4)
    assert abs(ip) / math.sqrt(na * nb) <= 1e-10


def test_shell_reconstruction_on_band_limited_profile():
    p = gauss_profile(5)
    sp = radial_fourier(p)
    band = dyadic_band(G16)
    window = np.zeros_like(sp.rho_nodes)
    for lam in band[1:-1]:
        window += chi(sp.rho_nodes / lam)
    limited = inverse_radial_fourier(SpectralProfile(5, sp.fhat * window, G16))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        recon = np.zeros_like(limited.values)
        for lam in band:
            recon += dyadic_piece(limited, lam).values
    num = radial_integral((recon - limited.values) ** 2, G16, 4)
    den = radial_integral(limited.values**2, G16, 4)
    assert math.sqrt(num / den) <= 1e-6


# ---------------------------------------------------------------- Besov norms

WIDE = RadialGrid(128.0, 512)


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("s", [0.0, 1.0, 1.5])
def test_besov_22_matches_sobolev(dim, s):
    p = gauss_profile(dim, WIDE)
    sob = sobolev_norm(p, s)
    assert float(besov_norm(p, s, 2, 2)) == pytest.approx(sob, rel=1e-3)


@pytest.mark.parametrize("dim", [3, 5])
def test_shell_sum_plus_truncation_recovers_sobolev(dim):
    p = gauss_profile(dim)
    for s in (0.0, 1.0, 1.5):
        res = besov_norm(p, s, 2, 2)
        sob = sobolev_norm(p, s)
        assert res.value**2 + res.truncation_bound**2 == pytest.approx(sob**2, rel=1e-6)


def test_l2_shell_sum_dominates_l1_ordering():
    p = gauss_profile(5)
    fine = float(besov_norm(p, 1.5, 2, 1))
    coarse = float(besov_norm(p, 1.5, 2, 2))
    sup = float(besov_norm(p, 1.5, 2, math.inf))
    assert sup <= coarse <= fine  # ell^q monotone in q


def test_besov_exponent_validation():
    p = gauss_profile(5)
    with pytest.raises(DomainError):
        besov_norm(p, 1.0, 0.5, 2)
    with pytest.raises(DomainError):
        besov_norm(p, 1.0, 2, 0.5)


def test_truncation_reported_for_rough_data():
    v = 1.0 / (1.0 + G16.nodes**2)  # slow decay, visible truncation
    p = RadialProfile(v, G16, dim=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = besov_norm(p, 1.5, 2, 1)
    assert res.truncation_bound > 0.0
    assert res.value > 0.0


# ------------------------------------------------------------------- scaling

G64 = RadialGrid(64.0, 1024)
BUMP64 = G64.nodes**2 * np.exp(-G64.nodes**2)


def test_scale_identity_is_exact():
    p = RadialProfile(BUMP64, G64, dim=3)
    assert np.max(np.abs(scale(p, 1.0, 1.0).values - p.values)) <= 1e-12


@pytest.mark.parametrize("dim,a,s", [(3, 1.0, 2.5), (5, 0.5, 1.5)])
def test_besov_dilation_covariance(dim, a, s):
    p = RadialProfile(BUMP64, G64, dim=dim)
    base = float(besov_norm(p, s, 2, 1))
    lam = 2.0
    scaled = float(besov_norm(scale(p, lam, a), s, 2, 1))
    assert scaled / base == pytest.approx(lam ** (a + dim / 2.0 - s), rel=1e-3)


def test_sobolev_dilation_invariance_at_critical_exponent():
    g = RadialGrid(32.0, 2048)
    u = g.nodes**2 * np.exp(-g.nodes**2)
    p = RadialProfile(u, g, dim=3)
    for a, s in ((1.0, 2.5), (0.5, 2.0)):
        base = sobolev_norm(p, s)
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            got = sobolev_norm(scale(p, lam, a), s)
            assert got == pytest.approx(base, rel=1e-3)


def test_scale_guards():
    p = RadialProfile(BUMP64, G64, dim=3)
    for lam in (0.0, -2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="scaling factor must be positive and finite"):
            scale(p, lam, 1.0)
    undecayed = RadialProfile(np.exp(-G64.nodes / 16.0), G64, dim=3)
    assert not undecayed.decay_certified
    with pytest.warns(RuntimeWarning) as caught:
        scale(undecayed, 0.5, 1.0)
    assert [str(w.message) for w in caught] == [
        "contraction pushes unresolved tail mass off the grid",
        "profile tail is not negligible; transform accuracy degrades"]


# ------------------------------------------------------------ property tests

@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.1, max_value=1.0))
def test_norm_scales_linearly_with_amplitude(width, amp):
    g = RadialGrid(16.0, 256)
    base = RadialProfile(np.exp(-(g.nodes / width) ** 2), g, dim=5)
    scaled = RadialProfile(amp * base.values, g, dim=5)
    n1 = sobolev_norm(base, 1.5)
    n2 = sobolev_norm(scaled, 1.5)
    assert n2 == pytest.approx(amp * n1, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.5, max_value=2.5))
def test_triangle_inequality_for_besov(width):
    g = RadialGrid(16.0, 256)
    a = RadialProfile(np.exp(-(g.nodes / width) ** 2), g, dim=5)
    b = RadialProfile(g.nodes**2 * np.exp(-g.nodes**2), g, dim=5)
    ab = RadialProfile(a.values + b.values, g, dim=5)
    na = float(besov_norm(a, 1.5, 2, 1))
    nb = float(besov_norm(b, 1.5, 2, 1))
    nab = float(besov_norm(ab, 1.5, 2, 1))
    assert nab <= (na + nb) * (1 + 1e-10)
