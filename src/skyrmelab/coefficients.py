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
are replaced by Taylor series through degree 10, whose coefficients are exact
rationals computed at import in integers, from numerators written with
sin^2 u = (1 - cos 2u)/2 and sin 2u cos 2u = sin 4u / 2, and rounded once
(the alpha^2 prefactor of c2, c3, c4 is applied at evaluation time).  The
first term dropped stays under 1.7e-19 of the value below the switch.  With
the switch at 0.05 the relative error of either branch stays below 2e-13 in
double precision; at 1e-2 the closed forms already lose 1e-12 to
cancellation, which is why the switch sits where it does.

A model evaluates all the coefficients it needs through a plan built once
per id set.  Each sample takes exactly one branch: the branch holding most
samples runs on the whole array, the other on the gathered rest.  The series
is one Horner sweep; the closed forms share sin 2u, sin u, cos u and 1/u^k.
The sampled checks of their parity, signs, decay and the sine-ratio bounds
are acceptance criterion 3, verify.coefficient_bounds_suite.
"""
import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import DomainError

SERIES_SWITCH = 0.05
_TINY = np.finfo(float).tiny  # the smallest normal double
# pseudo-id for sin(u)/u, the factor that keeps the Skyrme denominator finite
# at the axis; it goes through the same series/closed-form switch
SINC = 0

ALPHA_FREE = frozenset({SINC, 1, 5, 6})  # ids whose closed form carries no alpha factor


# Each closed form's numerator, the coefficient times u^k, as (k, terms): a
# term (c, m, f, a) is c u^m f(a u) / 4.  Polynomial terms of degree below k
# are left out, since dividing by u^k cancels them.
_NUMERATORS = {
    SINC: (1, [(4, 0, "sin", 1)]),  # sin u
    1: (3, [(4, 0, "sin", 2)]),  # sin 2u - 2u
    2: (5, [(2, 0, "sin", 2), (-1, 0, "sin", 4), (-4, 2, "sin", 2)]),  # sin 2u/2 - sin 4u/4 - u^2 sin 2u
    3: (3, [(-8, 0, "cos", 2), (-8, 1, "sin", 2)]),  # 2 - 2 cos 2u - 2u sin 2u
    4: (1, [(4, 0, "sin", 2)]),  # sin 2u
    6: (5, [(-4, 1, "cos", 2), (-2, 0, "sin", 2), (1, 0, "sin", 4)]),  # u - u cos 2u - sin 2u/2 + sin 4u/4
}
_NUMERATORS[5] = _NUMERATORS[1]


def _series(k, terms):
    """(odd, Taylor coefficients through degree 10) of sum(terms) / u^k, each
    exact in integers over the denominator 4 (n + k)! and rounded once."""
    _, m0, f0, _ = terms[0]
    odd = (k + m0 + (f0 == "sin")) % 2 == 1  # all terms share one parity
    coeffs = []
    for n in range(odd, 11, 2):
        d, num = n + k, 0
        for c, m, f, a in terms:
            p = d - m  # u^m f(a u) meets u^d in f's term (-1)^(p//2) (a u)^p / p!
            if p >= 0 and p % 2 == (f == "sin"):
                num += c * (-1) ** (p // 2) * a ** p * math.perm(d, m)
        coeffs.append(num / (4 * math.factorial(d)))
    return odd, np.array(coeffs)


_SERIES = {i: _series(k, terms) for i, (k, terms) in _NUMERATORS.items()}


_Plan = namedtuple("_Plan", "ids columns odd scaled")


@lru_cache(maxsize=None)
def _plan(ids):
    """One id set's plan, built once: its Horner columns, highest degree first
    and zero-padded at the top (the leading zeros leave every sum unchanged),
    and the rows that take an extra factor u (odd) or alpha^2 (scaled)."""
    table = np.zeros((len(ids), max(_SERIES[i][1].size for i in ids)))
    for row, i in zip(table, ids):
        row[:_SERIES[i][1].size] = _SERIES[i][1]
    return _Plan(ids, tuple(table.T[::-1, :, None]), tuple(k for k, i in enumerate(ids) if _SERIES[i][0]),
                 tuple(k for k, i in enumerate(ids) if i not in ALPHA_FREE))


def _series_rows(plan, u):
    """Taylor branch on the 1-D array u: Horner in u^2 over all rows at once."""
    x2 = u * u
    x2[x2 < _TINY] = 0.0  # a subnormal square changes no rounded sum but slows products
    rows = plan.columns[0] * x2
    for column in plan.columns[1:-1]:
        rows += column
        rows *= x2
    rows += plan.columns[-1]
    for k in plan.odd:
        rows[k] *= u
    return rows


def _closed_rows(plan, u):
    """Closed forms on the 1-D array u, one formula per id whichever set asks
    (c1 = c5 always from sin 2u), sharing sin 2u, sin u, cos u and 1/u^k."""
    ids = set(plan.ids)
    s2u = np.sin(2.0 * u) if ids - {SINC, 3} else None
    su = np.sin(u) if ids & {SINC, 2, 3, 6} else None
    cu = np.cos(u) if 3 in ids else None
    inv = 1.0 / u
    inv3 = inv * inv * inv
    inv5 = inv3 * inv * inv if ids & {2, 6} else None
    rows = np.empty((len(plan.ids), u.size))
    for row, i in zip(rows, plan.ids):
        if i in (SINC, 4):
            np.multiply(su if i == SINC else s2u, inv, out=row)
        elif i in (1, 5):
            np.multiply(s2u - 2.0 * u, inv3, out=row)
        elif i == 2:
            np.multiply(s2u * (su * su - u * u), inv5, out=row)
        elif i == 3:
            np.multiply(4.0 * su * (su - u * cu), inv3, out=row)
        else:  # (u - sin u cos u)(1 - cos 2u) = (2u - sin 2u) sin^2 u
            np.multiply((2.0 * u - s2u) * su * su, inv5, out=row)
    return rows


def _coefficients(ids, u, alpha=None):
    """Rows c_id(u), one per id in ids, each sample through exactly one branch.

    The branch holding most samples runs on the whole array, the other on the
    gathered rest, written back row by row.  Every step is elementwise, so a
    sample gets the same bits alone as in any batch.  No check: NaN
    propagates, which the solver relies on, and tilde_h and ModelSpec
    validate the ids and the alpha that ids 2, 3, 4 need.
    """
    plan = _plan(tuple(ids))
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    small = np.abs(flat) < SERIES_SWITCH
    with np.errstate(all="ignore"):
        if 2 * np.count_nonzero(small) >= flat.size:
            rows, rest, other = _series_rows(plan, flat), np.flatnonzero(~small), _closed_rows
        else:
            rows, rest, other = _closed_rows(plan, flat), np.flatnonzero(small), _series_rows
        if rest.size:
            for row, values in zip(rows, other(plan, flat[rest])):
                row[rest] = values
    for k in plan.scaled:
        rows[k] *= alpha * alpha
    return rows.reshape((len(plan.ids),) + u.shape)


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
    if cid not in ALPHA_FREE and (alpha is None or not np.isfinite(alpha) or alpha <= 0):
        raise DomainError(f"coefficient {cid} needs alpha > 0, got {alpha}")
    out = _tilde_h_raw(cid, u_arr, alpha)
    return float(out) if np.ndim(u) == 0 else out

