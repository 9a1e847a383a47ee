"""Coefficient functions of the semilinear 5+1 radial wave equations.

After the substitution u = r v, the angular field equations studied here become
semilinear wave equations for v on R^{5+1} whose nonlinearities are polynomial
in (v, v_r, v_t) with analytic coefficient functions of u alone.  With the
common factor D = 1 + 2 alpha^2 sin(u)^2 / r^2 stripped off, the six
coefficients are

    c1(u) = (sin 2u - 2u) / u^3                      (cubic term)
    c2(u) = alpha^2 sin 2u (sin^2 u - u^2) / u^5     (quintic term)
    c3(u) = 4 alpha^2 sin u (sin u - u cos u) / u^3  (cubic-derivative term)
    c4(u) = alpha^2 sin 2u / u                       (null-form term)
    c5(u) = c1(u)                                    (cubic term, repulsive model)
    c6(u) = (u - sin u cos u)(1 - cos 2u) / u^5      (quintic term, repulsive model)

All are even in u except c3, which is odd; c1 = c5 <= 0 and c6 >= 0.  Each has
a removable singularity at u = 0, so for |u| < SERIES_SWITCH the closed forms
are replaced by truncated Taylor series whose coefficients are precomputed by
scripts/generate_series_constants.py (the alpha^2 prefactor of c2, c3, c4 is
applied at evaluation time).  With the switch at 0.05 the relative error of
either branch stays below 2e-13 in double precision; at 1e-2 the closed forms
already lose 1e-12 to cancellation, which is why the switch sits where it does.

A model evaluates all the coefficients it needs in one pass: one Horner
sweep gives the series of every id on every sample, and the closed forms,
sharing sin u and cos u, replace it on the samples past the switch.
"""
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError

SERIES_SWITCH = 0.05
# pseudo-id for sin(u)/u, the factor that keeps the Skyrme denominator finite
# at the axis; it goes through the same series/closed-form switch
SINC = 0

ALPHA_FREE = frozenset({SINC, 1, 5, 6})  # ids whose closed form carries no alpha factor


def _load_series_table():
    text = resources.files("skyrmelab").joinpath("data/series_constants.txt").read_text()
    raw = {i: {} for i in range(1, 7)}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cid, degree, value = line.split()
        raw[int(cid)][int(degree)] = float(value)
    table = {}
    for cid, by_degree in raw.items():
        degrees = sorted(by_degree)
        odd = degrees[0] % 2 == 1
        # ascending coefficients in u^2 (c3 carries one extra factor of u)
        expected = range(1 if odd else 0, degrees[-1] + 1, 2)
        if list(expected) != degrees:
            raise DomainError(f"series table for coefficient {cid} has gaps: {degrees}")
        table[cid] = (odd, np.array([by_degree[d] for d in degrees]))
    return table


_SERIES = _load_series_table()
_N_TERMS = max(coeffs.size for _, coeffs in _SERIES.values())
# sin(u)/u = sum_k (-1)^k u^2k / (2k+1)!, as many terms as the tables carry
_SERIES[SINC] = (False, np.array([(-1) ** k / math.factorial(2 * k + 1) for k in range(_N_TERMS)]))
# one zero-padded row per id; the leading zeros leave Horner's sums unchanged
_SERIES_ROWS = np.zeros((len(_SERIES), _N_TERMS))
for _cid, (_, _coeffs) in _SERIES.items():
    _SERIES_ROWS[_cid, :_coeffs.size] = _coeffs


def _series_eval(cid, u):
    """Taylor branch of coefficient cid, or one row per id if cid is a sequence.

    Horner's rule in u^2, element by element over all rows at once: each
    sample gets the bits polyval would give it, whatever the batch size.
    """
    ids = list(np.atleast_1d(cid))
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    x2 = flat * flat
    coeffs = _SERIES_ROWS[ids]
    rows = np.repeat(coeffs[:, -1:], flat.size, axis=1)
    for k in range(_N_TERMS - 2, -1, -1):
        rows *= x2
        rows += coeffs[:, k:k + 1]
    for row, i in zip(rows, ids):
        if _SERIES[i][0]:  # odd: one extra factor of u
            row *= flat
    rows = rows.reshape((len(ids),) + u.shape)
    return rows if np.ndim(cid) else rows[0]


def _closed_eval(cid, u):
    """Closed form of coefficient cid, or a list of rows if cid is a sequence.

    sin u, cos u and sin 2u are each computed once, if any row needs them.
    """
    ids = set(np.atleast_1d(cid).tolist())
    su = np.sin(u) if ids & {SINC, 2, 3, 6} else None
    cu = np.cos(u) if ids & {3, 6} else None
    s2u = np.sin(2 * u) if ids & {1, 2, 4, 5} else None
    forms = {
        SINC: lambda: su / u,
        1: lambda: (s2u - 2 * u) / u**3,
        2: lambda: s2u * (su * su - u * u) / u**5,
        3: lambda: 4 * su * (su - u * cu) / u**3,
        4: lambda: s2u / u,
        6: lambda: (u - su * cu) * (1 - np.cos(2 * u)) / u**5,
    }
    forms[5] = forms[1]
    rows = [forms[i]() for i in np.atleast_1d(cid)]
    return rows if np.ndim(cid) else rows[0]


def _coefficients(ids, u, alpha=None):
    """Rows c_id(u), one per id in ids, from one pass over u.

    The series runs on every sample; the closed forms replace it on the
    samples at or past the switch.  No finiteness validation: NaN propagates,
    which the solver relies on.  alpha is needed for ids 2, 3, 4.
    """
    for i in ids:
        if i not in _SERIES:
            raise DomainError(f"coefficient id must be in 1..6, got {i}")
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    big = np.abs(flat) >= SERIES_SWITCH
    with np.errstate(invalid="ignore", over="ignore"):
        rows = _series_eval(ids, flat)
        for row, values in zip(rows, _closed_eval(ids, flat[big])):
            row[big] = values
    for row, i in zip(rows, ids):
        if i not in ALPHA_FREE:
            if alpha is None:
                raise DomainError(f"coefficient {i} needs alpha")
            row *= alpha * alpha
    return rows.reshape((len(ids),) + u.shape)


def _tilde_h_raw(cid, u, alpha=None):
    """Evaluate without finiteness validation; NaN propagates (solver relies on it)."""
    return _coefficients((cid,), u, alpha)[0]


def tilde_h(cid, u, alpha=None):
    """Coefficient c_cid evaluated at u (scalar or array).

    Relative accuracy is <= 1e-12 everywhere including across the
    series/closed-form switch.  alpha is required for ids 2, 3, 4 and must be
    positive; it is ignored for ids 1, 5, 6.
    """
    if cid not in range(1, 7):
        raise DomainError(f"coefficient id must be in 1..6, got {cid}")
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise DomainError("u must be finite")
    if cid not in ALPHA_FREE:
        if alpha is None or not np.isfinite(alpha) or alpha <= 0:
            raise DomainError(f"coefficient {cid} needs alpha > 0, got {alpha}")
    out = _tilde_h_raw(cid, u_arr, alpha)
    return float(out) if np.ndim(u) == 0 else out


def sinc(u):
    """sin(u)/u with the removable singularity handled exactly at u = 0."""
    return _tilde_h_raw(SINC, u)


def _skyrme_denominator(v, sinc_u, alpha):
    """1 + 2 alpha^2 (v sin(u)/u)^2 from samples of sin(u)/u; no validation."""
    s = v * sinc_u
    return 1.0 + 2.0 * alpha * alpha * s * s


def skyrme_denominator(r, v, alpha):
    """D = 1 + 2 alpha^2 (sin(u)/r)^2 with u = r v, stable down to r = 0.

    sin(u)/r is evaluated as v * sin(u)/u, whose r -> 0 limit is v.  Always >= 1.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v)) and np.isfinite(alpha)):
        raise DomainError("inputs must be finite")
    if np.any(r < 0):
        raise DomainError("r must be >= 0")
    out = _skyrme_denominator(v, sinc(r * v), alpha)
    return float(out) if np.ndim(r) == 0 and np.ndim(v) == 0 else out


# ---------------------------------------------------------------------------
# sampled verification of the decay/sign/parity structure of c1..c6
# ---------------------------------------------------------------------------

# <u>^k decay weights per (id, derivative order); derivatives of c1 decay one
# power faster than c1 itself
DECAY_WEIGHTS = {
    1: {0: 2, 1: 3, 2: 3},
    2: {0: 3, 1: 3, 2: 3},
    3: {0: 2, 1: 2, 2: 2},
    4: {0: 1, 1: 1, 2: 1},
    5: {0: 2, 1: 3, 2: 3},
    6: {0: 4, 1: 4, 2: 4},
}

SIGN = {1: -1, 5: -1, 6: +1}  # c1 = c5 <= 0, c6 >= 0

_FD_STEP = 1e-3
# 6th-order central first/second derivative stencils
_FD1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_FD2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def default_u_samples():
    lin = np.linspace(-100.0, 100.0, 100001)
    tail = np.array([2.0**k for k in range(7, 21)])
    return np.concatenate([lin, tail, -tail])


@dataclass
class CoeffBoundReport:
    cid: int
    alpha: float
    weighted_sup: dict  # derivative order -> sup |d^j c| <u>^k over samples
    sign_ok: bool | None  # only for ids 1, 5, 6


def _fd_derivative(cid, u, alpha, order):
    if order == 0:
        return tilde_h(cid, u, alpha)
    stencil = _FD1 if order == 1 else _FD2
    h = _FD_STEP
    acc = np.zeros_like(np.asarray(u, dtype=float))
    for k, w in enumerate(stencil):
        if w != 0.0:
            acc = acc + w * tilde_h(cid, u + (k - 3) * h, alpha)
    return acc / h**order


def check_coeff_bounds(cid, alpha=1.0, u_samples=None):
    """Sampled suprema of <u>^k-weighted coefficient derivatives plus sign verdicts.

    The weights are the decay rates the coefficients are expected to satisfy;
    the returned suprema are empirical constants, finite on any sample set.
    """
    if u_samples is None:
        u_samples = default_u_samples()
    u = np.asarray(u_samples, dtype=float)
    bracket = np.sqrt(1.0 + u * u)
    weighted = {}
    for order, k in DECAY_WEIGHTS[cid].items():
        vals = np.abs(_fd_derivative(cid, u, alpha, order)) * bracket**k
        weighted[order] = float(np.max(vals))
    sign_ok = None
    if cid in SIGN:
        vals = tilde_h(cid, u, alpha)
        sign_ok = bool(np.all(SIGN[cid] * vals >= -1e-15))
    return CoeffBoundReport(cid=cid, alpha=alpha, weighted_sup=weighted, sign_ok=sign_ok)


@dataclass
class SinInequalityReport:
    alpha: float
    sampled_sup: dict  # j -> sup of |sin u / r|^j / (1 + 2 alpha^2 sin^2 u / r^2)
    analytic_bound: dict


def check_sin_inequality(alpha, r_samples=None, u_samples=None):
    """Sampled ratios |sin u / r|^j / D for j in {0,1,2} against the analytic bounds.

    The single-variable maxima of x^j/(1+2 alpha^2 x^2) give the exact bounds
    1, 1/(2 sqrt(2) alpha) and 1/(2 alpha^2) for j = 0, 1, 2.
    """
    if alpha <= 0 or not np.isfinite(alpha):
        raise DomainError("alpha must be positive")
    if r_samples is None:
        r_samples = np.logspace(-6, 3, 400)
    if u_samples is None:
        u_samples = np.linspace(-20.0, 20.0, 801)
    r = np.asarray(r_samples, dtype=float)[:, None]
    u = np.asarray(u_samples, dtype=float)[None, :]
    x = np.abs(np.sin(u) / r)
    denom = 1.0 + 2.0 * alpha * alpha * x * x
    sampled = {j: float(np.max(x**j / denom)) for j in (0, 1, 2)}
    analytic = {0: 1.0, 1: 1.0 / (2.0 * math.sqrt(2.0) * alpha), 2: 1.0 / (2.0 * alpha * alpha)}
    return SinInequalityReport(alpha=alpha, sampled_sup=sampled, analytic_bound=analytic)
