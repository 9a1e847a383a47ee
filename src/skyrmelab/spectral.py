"""Radial Fourier analysis: Sobolev and Besov norms, dyadic pieces, scaling.

Transforms use the unitary convention, in which the radial transform in
dimension n is its own inverse and the Gaussian e^{-r^2/2} is a fixed point:

    n=3:  fhat(rho) = sqrt(2/pi) rho^-1 int_0^inf f(r) sin(rho r) r dr
    n=5:  fhat(rho) = sqrt(2/pi) rho^-2 int_0^inf f(r) (sin x/x - cos x) r^2 dr,  x = rho r

Both kernels, divided by their rho-powers, extend to smooth even functions of
x = rho r, so the trapezoid rule over the sample grid integrates them with
spectral accuracy for data that decay before r = R (the quadrature error is a
periodization image at distance 2R, not a power of dr).  The frequency grid is
uniform with spacing pi/R up to the Nyquist limit pi/dr, matching the
information content of the spatial samples.

Norm quadratures never touch the uniform frequency grid: the transform can be
evaluated at arbitrary rho, so moments int rho^(2s+n-1)|fhat|^2 are computed
on Gauss panels, with a Gauss-Jacobi rule absorbing the fractional power on
[0,1].  Dyadic pieces multiply fhat by the one cutoff chi, supported in
(1/2,2) and built from an order-7 polynomial smoothstep, so the shifted
cutoffs telescope to an exact partition of unity; the ell^2 frequency-side
Besov route therefore reproduces the Sobolev norm up to the reported
band-truncation term.

On the uniform grids every kernel argument is x = pi i c / N, i and c in
0..N, whatever R is, and the matrix is symmetric.  Both transforms split it
at c0 = ceil(sqrt(2N/pi)): its first c0 + 1 rows, which are also its first
c0 + 1 columns, are evaluated directly, once per dimension and N for both
directions and every R.  On the rest x > 2, and the closed form is a sine
sum (plus a cosine sum in dim 5), one DST-I (and one DCT-I) by FFT of size 2N.
A new N costs (c0 + 1)(N + 1) kernel entries, not N^2; a new R none.  The
dim-5 kernel takes the closed form on every entry it evaluates and runs its
series only where |x| < 0.5, the entries whose cancellation it avoids.
Off-lattice arguments (Gauss panels, the resampling in scale) still meet
uniformly spaced columns, the nodes or the frequency lattice.  Where x < 2
the kernel is its Taylor series sum_k a_k x^(2k), so the sum over a row's
first `reach` columns is sum_k a_k rho^(2k) P_k(reach), with P_k the prefix
sums of vec_c c^(2k): 14 prefix arrays serve every row, whatever rho is.
Past them the closed form is a sum of weighted exponentials exp(i rho c), and
splitting c into blocks of about sqrt(n) columns factors it into one matrix
product and a contraction, with about 2 sqrt(n) complex exponentials per row
in place of n kernel entries.  The kernel itself is evaluated only on the
x >= 2 columns before a row's first whole block.  Townsend, SIAM J. Numer.
Anal. 53 (2015), splits the Hankel transform the same way.

Each profile keeps |fhat|^2 per quadrature node set, so the dyadic panels
that sobolev_norm, the Besov shells and the truncation moment share, within
one call or across calls, are transformed once.  It also keeps its forward
weights and their prefix sums, built by its first norm for all its panels,
and its lattice spectrum, which every dyadic piece of it filters.  These
memos are why a profile holds a read-only copy of its samples.  The sampled
weighted dyadic Sobolev constants are acceptance criterion 12,
verify.dyadic_sobolev_stability.
"""
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, roots_jacobi

from .errors import ContractError, DomainError
from .grid import RadialGrid

SPHERE_AREA = {3: 4.0 * math.pi, 5: 8.0 * math.pi**2 / 3.0}
_SQRT_2_PI = math.sqrt(2.0 / math.pi)
_DECAY_FRACTION = 1e-10
# Taylor coefficients a_k of the kernels, sum_k a_k x^(2k); at x = 2 the first
# term left out is below 1e-20 of the kernel
_MOMENTS = 14
_TAYLOR = {3: np.array([(-1) ** k / math.factorial(2 * k + 1) for k in range(_MOMENTS)]),
           5: np.array([(-1) ** k * 2 * (k + 1) / math.factorial(2 * k + 3)
                        for k in range(_MOMENTS)])}


@dataclass
class RadialProfile:
    values: np.ndarray
    grid: RadialGrid
    dim: int
    decay_certified: bool = field(init=False)
    _power: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _moments: tuple = field(init=False, default=None, repr=False, compare=False)
    _spectrum: "SpectralProfile" = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        # a private read-only copy: decay_certified and the memos describe
        # these samples and must not go stale under the caller
        self.values = np.array(self.values, dtype=float)
        self.values.flags.writeable = False
        if self.dim not in SPHERE_AREA:
            raise DomainError(f"dim must be one of {sorted(SPHERE_AREA)}, got {self.dim}")
        if self.values.shape != self.grid.nodes.shape:
            raise ContractError("profile samples must match the grid nodes")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("profile samples must be finite")
        peak = float(np.max(np.abs(self.values)))
        tail = float(np.abs(self.values[-1]))
        self.decay_certified = peak == 0.0 or tail <= _DECAY_FRACTION * peak


@dataclass
class SpectralProfile:
    """fhat at the frequencies k pi/R, k = 1..len(fhat) <= N, of the grid: rho_nodes."""
    dim: int
    fhat: np.ndarray
    grid: RadialGrid
    rho_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = np.shape(self.fhat)
        if not (len(shape) == 1 and 1 <= shape[0] <= self.grid.N):
            raise ContractError("fhat must hold the first 1..N lattice frequencies of its grid")
        self.rho_nodes = _frequency_lattice(self.grid)[1:shape[0] + 1]


def _kernel(dim, x):
    """The transform kernel divided by rho^(n-2)/r^(n-2): smooth and even in x."""
    if dim == 3:
        return np.sinc(x / math.pi)
    # (sin x / x - cos x) / x^2, then the series below x=0.5 to dodge the
    # cancellation; every step is elementwise, so no entry depends on the rest
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sin(x)
        out /= x
        out -= np.cos(x)
        out /= x**2
    small = np.abs(x) < 0.5
    xs = x[small]
    x2 = xs * xs
    series = np.zeros_like(x2)
    term = np.ones_like(x2)
    for k in range(1, 12):
        series = series + (2.0 * k / math.factorial(2 * k + 1)) * term
        term = term * (-x2)
    out[small] = series
    return out


def _trapezoid_weights(n):
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _forward_vector(p):
    g = p.grid
    return _trapezoid_weights(g.N + 1) * g.nodes ** (p.dim - 1) * p.values * g.dr


def _inverse_vector(sp):
    """Trapezoid weights on (0, rho_max]: the rho=0 node contributes nothing (rho^(n-1))."""
    rho = sp.rho_nodes
    w = np.ones(len(rho))
    w[-1] = 0.5
    return w * rho ** (sp.dim - 1) * sp.fhat * float(rho[0])


def _fhat_at(p, rho):
    """Transform values at arbitrary frequencies (not tied to the uniform grid)."""
    if p._moments is None:
        vec = _forward_vector(p)
        vec.flags.writeable = False
        p._moments = vec, _moment_prefix(p.grid.nodes, vec)
    return _SQRT_2_PI * _factored_matvec(p.dim, np.asarray(rho, float), p.grid.nodes,
                                         *p._moments)


def _dst1(w):
    """sum_{c=1}^{N-1} w[c] sin(pi k c / N) for k = 0..N, from the odd extension."""
    n = len(w) - 1
    odd = np.concatenate(([0.0], w[1:n], [0.0], -w[n - 1:0:-1]))
    return -0.5 * np.fft.rfft(odd).imag


def _dct1(w):
    """sum_{c=0}^{N} w[c] cos(pi k c / N) for k = 0..N, from the even extension."""
    n = len(w) - 1
    even = np.concatenate((w, w[n - 1:0:-1]))
    sign = np.ones(n + 1)
    sign[1::2] = -1.0
    return 0.5 * (np.fft.rfft(even).real + w[0] + sign * w[n])


@functools.lru_cache(maxsize=4)
def _near_block(dim, n):
    """Read-only B[i, c] = kernel(pi i c / n) for i <= c0 = ceil(sqrt(2n/pi)), c = 0..n.

    The directly evaluated entries of every lattice transform with n cells,
    forward and inverse, at every R.  It holds 8 (c0 + 1)(n + 1) bytes:
    13.6 MB at n = 16384.
    """
    c0 = math.ceil(math.sqrt(2.0 * n / math.pi))
    block = _kernel(dim, (math.pi / n) * np.outer(np.arange(c0 + 1.0), np.arange(n + 1.0)))
    block.flags.writeable = False
    return block


def _lattice_matvec(dim, vec):
    """K @ vec with K[i, c] = kernel(pi i c / N) for i, c = 0..N, N = len(vec) - 1.

    K serves both directions at every R: the forward transform pairs the
    frequencies i pi / R with the nodes c R / N, the inverse the nodes i R / N
    with the frequencies c pi / R, and K is symmetric.  Its rows i <= c0 and,
    by symmetry, its columns c <= c0 of the other rows come from the shared
    _near_block.  Everywhere else x > pi (c0 + 1)^2 / N > 2, so the closed
    form has no cancellation to dodge and its sums over c are one DST-I (and
    in dim 5 one DCT-I), scaled by powers of N / (pi i) afterwards.
    """
    n = len(vec) - 1
    near = _near_block(dim, n)
    c0 = len(near) - 1  # < n, as RadialGrid has N >= 8
    out = np.empty(n + 1)
    out[:c0 + 1] = near @ vec
    out[c0 + 1:] = vec[:c0 + 1] @ near[:, c0 + 1:]
    k = np.arange(c0 + 1, n + 1, dtype=float)  # the far rows i, and the far columns c
    t = n / (math.pi * k)  # x = c / t[i]
    far = np.zeros(n + 1)
    far[c0 + 1:] = vec[c0 + 1:] / k
    if dim == 3:
        # sin x / x
        out[c0 + 1:] += t * _dst1(far)[c0 + 1:]
        return out
    # sin x / x^3 - cos x / x^2
    far[c0 + 1:] /= k
    cos_sum = _dct1(far)[c0 + 1:]
    far[c0 + 1:] /= k
    out[c0 + 1:] += t**3 * _dst1(far)[c0 + 1:] - t**2 * cos_sum
    return out


def _moment_prefix(cols, vec):
    """Read-only P[k, m] = sum_(i < m) vec_i (cols_i / cols_-1)^(2k), k < _MOMENTS, m = 0..n.

    The near-field moments of _factored_matvec for every row at once.  The
    columns are scaled by the last one, so no power exceeds 1 at any R.
    """
    n = len(cols)
    width = math.ceil(math.sqrt(n))
    count = -(-n // width)
    terms = np.zeros((_MOMENTS, count * width))
    terms[0, :n] = vec
    u2 = (cols / cols[-1]) ** 2
    for k in range(1, _MOMENTS):
        np.multiply(terms[k - 1, :n], u2, out=terms[k, :n])
    # running sums within blocks of about sqrt(n) columns, offset by the
    # running sum of the block totals: a prefix then rounds like a sum of
    # about 2 sqrt(n) terms, not of up to n
    blocks = terms.reshape(_MOMENTS, count, width)
    np.cumsum(blocks, axis=2, out=blocks)
    blocks[:, 1:] += np.cumsum(blocks[:, :-1, -1], axis=1)[:, :, None]
    prefix = np.zeros((_MOMENTS, n + 1))
    prefix[:, 1:] = terms[:, :n]
    prefix.flags.writeable = False
    return prefix


def _factored_matvec(dim, rows, cols, vec, prefix):
    """K @ vec with K[j,i] = kernel(rows[j] * cols[i]), rows >= 0, cols[i] = cols[0] + i h.

    prefix is _moment_prefix(cols, vec).  On the columns of a row with
    x < 2 the kernel is its Taylor series sum_k a_k x^(2k), so their sum is
    sum_k a_k (rho c_-1)^(2k) P[k, reach]: _MOMENTS terms per row, whatever
    the number of columns.  Past them the closed form is a sum of
    vec_i c_i^-k exp(i rho c_i) (k = 1 in dim 3, k = 3 and 2 in dim 5),
    where every term is below |vec_i| / 2: no cancellation is amplified.
    Writing the far columns as c = c_f + (q B + p) h with B = ceil(sqrt(n_far))
    factors the exponential as E_q(rho) e_p(rho), so each sum is one real
    matrix product of the (Q x B) weights with e, then a contraction over q
    with E.  A row takes the blocks past its x < 2 columns and evaluates the
    rest of the block it lands in directly; it evaluates all its x >= 2
    columns directly when the blocks would save fewer entries than the
    B + Q exponentials it needs.
    """
    n = len(cols)
    h = (cols[-1] - cols[0]) / (n - 1)
    with np.errstate(divide="ignore"):
        reach = np.ceil((2.0 / rows - cols[0]) / h)
    near = np.clip(reach, 0, n).astype(int)
    # past rounding, x < 2 exactly on the columns i < near
    near -= (near > 0) & (rows * cols[near - 1] >= 2.0)
    near += (near < n) & (rows * cols[np.minimum(near, n - 1)] < 2.0)
    y = (rows * cols[-1]) ** 2
    taylor = _TAYLOR[dim]
    out = taylor[-1] * prefix[-1, near]
    for k in range(_MOMENTS - 2, -1, -1):
        out *= y
        out += taylor[k] * prefix[k, near]

    first = int(near.min())  # the first far column of the largest row
    n_far = n - first
    width = max(math.ceil(math.sqrt(n_far)), 1)
    count = -(-n_far // width)
    block = -(-(near - first) // width)  # each row's first far block
    split = n_far - block * width > width + count
    stop = np.where(split, first + block * width, n)

    # direct entries, row j on columns near[j] .. stop[j] - 1, summed per row
    size = stop - near
    starts = np.cumsum(size) - size
    ii = np.arange(starts[-1] + size[-1]) - np.repeat(starts - near, size)
    terms = _kernel(dim, np.repeat(rows, size) * cols[ii])
    terms *= vec[ii]
    out[size > 0] += np.add.reduceat(terms, starts[size > 0])
    if not split.any():
        return out

    rho = rows[split]
    powers = (1,) if dim == 3 else (3, 2)
    weights = np.zeros((len(powers), count * width))
    for w, k in zip(weights, powers):
        w[:n_far] = vec[first:] / cols[first:] ** k
    inner = np.exp(1j * np.outer(h * np.arange(width), rho))
    sums = (weights.reshape(-1, width) @ inner.view(float)).view(complex)
    outer = np.exp(1j * np.outer(cols[first] + (width * h) * np.arange(count), rho))
    outer[np.arange(count)[:, None] < block[split]] = 0.0
    sums = (sums.reshape(len(powers), count, -1) * outer).sum(axis=1)
    if dim == 3:
        # sin x / x
        out[split] += sums[0].imag / rho
    else:
        # sin x / x^3 - cos x / x^2
        out[split] += sums[0].imag / rho**3 - sums[1].real / rho**2
    return out


def _frequency_lattice(g):
    """The N + 1 frequencies k pi / R, k = 0..N: spacing pi/R up to Nyquist pi/dr."""
    return (math.pi / g.R) * np.arange(g.N + 1)


def radial_fourier(p):
    """Transform onto the uniform frequency grid k pi/R, k = 1..N, up to Nyquist pi/dr.

    A spectrum truncated to its first m frequencies is
    SpectralProfile(dim, fhat[:m], grid), and inverts as such.  The profile
    keeps its spectrum, with a read-only fhat: a second call returns it and
    does not warn again.
    """
    if p._spectrum is None:
        if not p.decay_certified:
            warnings.warn("profile tail is not negligible; transform accuracy degrades",
                          RuntimeWarning, stacklevel=2)
        fhat = _SQRT_2_PI * _lattice_matvec(p.dim, _forward_vector(p))[1:]
        fhat.flags.writeable = False
        p._spectrum = SpectralProfile(p.dim, fhat, p.grid)
    return p._spectrum


def inverse_radial_fourier(sp):
    """Back to the source grid from the first len(sp.fhat) lattice frequencies k pi/R.

    In dim 5 the weights rho^4 reach (pi N / R)^4, about 4e13 at N = 16384 and
    R = 20, so the forward transform's rounding noise where the true fhat has
    underflowed dominates a round trip: exp(-r^2/2) comes back 1.7e-13 off at
    N = 2048 but about 1.5e-10 off at N = 16384, while the inverse alone is
    within 1.6e-15 of a long-double sum of the same kernel (N = 2048).
    """
    g = sp.grid
    vec = np.zeros(g.N + 1)
    vec[1:len(sp.fhat) + 1] = _inverse_vector(sp)
    return RadialProfile(_SQRT_2_PI * _lattice_matvec(sp.dim, vec), sp.grid, sp.dim)


def lp_norm(p, p_exp):
    """L^p norm of the radial function on R^n by trapezoid quadrature."""
    if p_exp == math.inf:
        return float(np.max(np.abs(p.values)))
    if not p_exp >= 1:
        raise DomainError("p must be >= 1")
    g = p.grid
    w = _trapezoid_weights(g.N + 1)
    integral = float(np.sum(w * np.abs(p.values) ** p_exp * g.nodes ** (p.dim - 1)) * g.dr)
    return (SPHERE_AREA[p.dim] * integral) ** (1.0 / p_exp)


@functools.lru_cache(maxsize=64)
def _jacobi_rule(beta):
    nodes, weights = roots_jacobi(48, 0.0, beta)
    x = (nodes + 1.0) / 2.0
    w = weights * 2.0 ** (-beta - 1.0)
    return x, w


@functools.lru_cache(maxsize=4)
def _legendre_rule(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_edges(lo, hi):
    if hi <= lo:
        return []
    edges = [lo]
    width = max(lo, 1.0)
    while edges[-1] + width < hi:
        edges.append(edges[-1] + width)
        width *= 2.0
    edges.append(hi)
    return edges


def _spectral_moment(p, s, weight=None, lo=0.0, hi=None):
    """int_lo^hi rho^(2s+n-1) |fhat|^2 weight(rho) drho on Gauss panels.

    The fractional power at rho=0 is handed to a Gauss-Jacobi rule on the
    first panel; away from zero the integrand is smooth and plain
    Gauss-Legendre panels of doubling width converge spectrally.
    """
    beta = 2.0 * s + p.dim - 1.0
    if not -1.0 < beta < math.inf:
        raise DomainError(f"s={s} must be finite and above the integrability threshold -n/2")
    if hi is None:
        hi = math.pi / p.grid.dr

    def mass(rho):
        # |fhat|^2 once per profile and node set: panels that sobolev_norm,
        # the Besov shells and the truncation moment share are bit-identical
        key = rho.tobytes()
        y = p._power.get(key)
        if y is None:
            y = p._power[key] = np.abs(_fhat_at(p, rho)) ** 2
            y.flags.writeable = False
        return y if weight is None else y * weight(rho)

    total = 0.0
    if lo == 0.0:
        head = min(1.0, hi)
        x, w = _jacobi_rule(beta)
        total += head ** (beta + 1.0) * float(np.dot(w, mass(head * x)))
        lo = head
    xg, wg = _legendre_rule(48)
    for a, b in zip(*(lambda e: (e[:-1], e[1:]))(_panel_edges(lo, hi))):
        half = 0.5 * (b - a)
        rho = 0.5 * (a + b) + half * xg
        total += half * float(np.dot(wg, rho**beta * mass(rho)))
    return total


def sobolev_norm(p, s):
    """Homogeneous Sobolev norm of exponent s of a radial function on R^n."""
    if s <= -p.dim / 2.0:
        raise DomainError(f"s must exceed -n/2 = {-p.dim / 2.0}")
    return math.sqrt(SPHERE_AREA[p.dim] * _spectral_moment(p, s))


def _phi(s):
    # the descending order-7 smoothstep, 1 below s = 1 and 0 above s = 2, via
    # the regularized incomplete beta, which is accurate at both endpoints;
    # the polynomial form loses ~1e-11 near 1
    return betainc(8, 8, np.clip(2.0 - s, 0.0, 1.0))


def chi(s):
    """Smooth dyadic bump supported in (1/2, 2), telescoping to 1.

    chi(s) = phi(s) - phi(2s) with phi the descending order-7 polynomial
    smoothstep: the shifted copies chi(s/2^j) sum to exactly 1 because every
    phi value cancels pairwise.  Every dyadic piece and shell uses it.
    """
    s = np.asarray(s, dtype=float)
    return _phi(s) - _phi(2.0 * s)


def dyadic_band(grid):
    """Dyadic frequencies resolvable on the grid: 2^j within [2 pi/R, pi/dr]."""
    j_lo = math.ceil(math.log2(2.0 * math.pi / grid.R) - 1e-12)
    j_hi = math.floor(math.log2(math.pi / grid.dr) + 1e-12)
    return tuple(2.0**j for j in range(j_lo, j_hi + 1))


def dyadic_piece(p, lam):
    """Littlewood-Paley piece: multiply the transform by chi(rho/lam) and invert."""
    lo, hi = 2.0 * math.pi / p.grid.R, math.pi / p.grid.dr
    if not lo * (1 - 1e-12) <= lam <= hi * (1 + 1e-12):
        raise DomainError(f"lambda={lam} outside the resolvable band [{lo}, {hi}]")
    sp = radial_fourier(p)
    filtered = SpectralProfile(sp.dim, sp.fhat * chi(sp.rho_nodes / lam), sp.grid)
    return inverse_radial_fourier(filtered)


@dataclass
class BesovResult:
    value: float
    truncation_bound: float
    pieces: tuple

    def __float__(self):
        return self.value


def _band_complement_weight(band):
    def weight(rho):
        total = np.zeros_like(rho)
        for lam in band:
            total += chi(rho / lam)
        return np.clip(1.0 - total, 0.0, None)

    return weight


def besov_norm(p, s, p_exp, q_exp):
    """Homogeneous Besov norm: ell^q over the dyadic shells of dyadic_band(p.grid).

    For p=2 the shell norm is measured on the frequency side with the actual
    rho^s weight and a single chi factor per shell, so the q=2 sum telescopes
    to the Sobolev norm exactly up to band truncation.  Other p go through the
    physical-space piece via lam^s ||S_lam f||_p.  The reported
    truncation_bound is the rho^s-weighted mass left outside the band.
    """
    if not (1 <= p_exp) or not (1 <= q_exp):
        raise DomainError("exponents must satisfy 1 <= p, q <= inf")
    band = dyadic_band(p.grid)
    area = SPHERE_AREA[p.dim]
    pieces = []
    if p_exp == 2:
        for lam in band:
            mass = _spectral_moment(p, s, weight=lambda rho: chi(rho / lam),
                                    lo=lam / 2.0, hi=min(2.0 * lam, math.pi / p.grid.dr))
            pieces.append(math.sqrt(area * max(mass, 0.0)))
    else:
        for lam in band:
            piece = dyadic_piece(p, lam)
            pieces.append(lam**s * lp_norm(piece, p_exp))
    b = np.array(pieces)
    if q_exp == math.inf:
        value = float(np.max(b)) if len(b) else 0.0
    else:
        value = float(np.sum(b**q_exp) ** (1.0 / q_exp))
    trunc = math.sqrt(area * max(_spectral_moment(
        p, s, weight=_band_complement_weight(band)), 0.0))
    return BesovResult(value=value, truncation_bound=trunc, pieces=tuple(pieces))


def scale(p, lam, a):
    """r -> lam^a p(r/lam), resampled onto the same grid; lam must be positive and finite.

    Resampling evaluates the band-limited interpolant (the inverse transform
    at the scaled arguments) rather than a local spline: spline error rides at
    the Nyquist frequency, where the rho^(2s) weight of high-order Sobolev
    norms amplifies it by orders of magnitude, while the band-limited values
    keep the rescaled norms invariant to quadrature precision.  Arguments that
    land beyond the grid take the value zero, with a warning when the profile
    has not decayed by then.
    """
    if not 0 < lam < math.inf:
        raise DomainError(f"scaling factor must be positive and finite, got {lam}")
    g = p.grid
    if lam < 1 and not p.decay_certified:
        warnings.warn("contraction pushes unresolved tail mass off the grid",
                      RuntimeWarning, stacklevel=2)
    sp = radial_fourier(p)
    arg = g.nodes / lam
    inside = arg <= g.R
    out = np.zeros_like(arg)
    vec = _inverse_vector(sp)
    out[inside] = _SQRT_2_PI * _factored_matvec(p.dim, arg[inside], sp.rho_nodes, vec,
                                                _moment_prefix(sp.rho_nodes, vec))
    result = RadialProfile(lam**a * out, g, p.dim)
    if lam > 1 and not result.decay_certified:
        warnings.warn("dilated support does not fit the grid", RuntimeWarning,
                      stacklevel=2)
    return result
