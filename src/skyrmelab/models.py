"""Field equations in the semilinear v-form, u = r v.

Each model evolves one angular field u(t, r) on r >= 0.  The substitution
u = r v turns every model's u-equation into a semilinear wave equation for v
with the 5D radial d'Alembertian as linear part:

    v_tt - v_rr - (4/r) v_r + N(r, v, v_r, v_t) = 0

with nonlinearities (c_i = tilde_h coefficients, functions of u = rv; D the
quartic-term denominator):

    wave map            N = c1 v^3
    Skyrme              N = [c1 v^3 + c2 v^5 + c3 v^3 v_r + c4 v (v_t^2 - v_r^2)] / D
    repulsive (AN)      N = c1 v^3 + c6 v^5
    Skyrme, small-u     N = 2 a^2 v (v_t^2 - v_r^2) / (1 + 2 a^2 v^2)
    repulsive, small-u  N = v^5
    free 5D wave        N = 0

The small-u variants are the scale-critical truncations of the full equations;
their v-forms above are exact consequences of the u-forms (the cubic 2u/r^2
pieces cancel against the Laplacian shift), not small-u limits of N.  All six
conversions, the energy fluxes below, and the exactness of the closed-form
collapse solution are checked symbolically by scripts/verify_algebra_symbolic.py;
the u-forms that the tests compare against live in tests/uform.py.

The energy density is returned as (integrand) * r^2 so a plain dr-integral
gives the conserved total.
"""
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coefficients import SINC, _coefficients, _tilde_h_raw
from .errors import DomainError


class Kind(str, Enum):
    WAVE_MAP = "wave-map"
    SKYRME = "skyrme"
    ADKINS_NAPPI = "adkins-nappi"
    SKYRME_APPROX = "skyrme-approx"
    ADKINS_NAPPI_APPROX = "adkins-nappi-approx"
    FREE_WAVE_5D = "free-wave-5d"


ALPHA_KINDS = (Kind.SKYRME, Kind.SKYRME_APPROX)


@dataclass(frozen=True)
class ModelSpec:
    """A model and its Skyrme coupling: the one place the alpha rule lives.

    kind is a Kind or its name; any other value is a DomainError.  The models
    in ALPHA_KINDS need a finite alpha > 0; the other four take none, and
    giving them one is a DomainError rather than a silent no-op.
    """
    kind: Kind
    alpha: float = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", Kind(self.kind))
        except ValueError:
            raise DomainError(f"unknown model {self.kind!r}, expected one of "
                              f"{[k.value for k in Kind]}") from None
        if self.kind in ALPHA_KINDS:
            if self.alpha is None or not np.isfinite(self.alpha) or self.alpha <= 0:
                raise DomainError(f"{self.kind.value} needs alpha > 0, got {self.alpha}")
        elif self.alpha is not None:
            raise DomainError(f"{self.kind.value} takes no alpha, got {self.alpha}")


def _neg_nonlinearity(model, r, v, v_r, v_t):
    """-N(r, v, v_r, v_t), vectorized; NaN propagates (the solver's blow-up flag).

    Every coefficient a model needs comes from one pass of the evaluator, and
    the algebra runs in place on its rows.
    """
    kind, alpha = model.kind, model.alpha
    if kind is Kind.FREE_WAVE_5D:
        return v - v  # zero, and NaN where v is not finite
    if kind is Kind.ADKINS_NAPPI_APPROX:
        return -(v * v * v * v * v)
    if kind is Kind.SKYRME_APPROX:
        a2 = alpha * alpha
        return -(2.0 * a2 * v * (v_t * v_t - v_r * v_r)) / (1.0 + 2.0 * a2 * v * v)
    u = r * v
    neg_v3 = -v * v * v
    if kind is Kind.WAVE_MAP:
        c1 = _tilde_h_raw(1, u)
        c1 *= neg_v3
        return c1
    if kind is Kind.ADKINS_NAPPI:  # -(c1 + c6 v^2) v^3
        c1, c6 = _coefficients((1, 6), u)
        c6 *= v
        c6 *= v
        c6 += c1
        c6 *= neg_v3
        return c6
    # full Skyrme: -[v^3 (c1 + c2 v^2 + c3 v_r) + c4 v (v_t^2 - v_r^2)] / D
    c1, c2, c3, c4, sin_over_r = _coefficients((1, 2, 3, 4, SINC), np.atleast_1d(u), alpha)
    c2 *= v
    c2 *= v
    c2 += c1
    c3 *= v_r
    c2 += c3
    c2 *= neg_v3
    q = np.multiply(v_t, v_t, out=c1)  # c1 and c3 are spent: scratch from here
    q -= np.multiply(v_r, v_r, out=c3)
    c4 *= v
    c4 *= q
    c2 -= c4
    sin_over_r *= v  # sin(u)/r, finite at the axis
    d = np.multiply(sin_over_r, 2.0 * alpha * alpha, out=c1)
    d *= sin_over_r
    d += 1.0
    c2 /= d
    return c2.reshape(np.shape(u))


def energy_density_v(model, r, v, v_r, v_t):
    """Conserved-energy integrand times r^2, stably from v-variables; valid down to r = 0."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    u = r * v
    u_t = r * np.asarray(v_t)
    u_r = v + r * np.asarray(v_r)
    kind, alpha = model.kind, model.alpha
    kin = (u_t * u_t + u_r * u_r) * r * r / 2.0
    if kind is Kind.FREE_WAVE_5D:
        return r**4 * (np.asarray(v_t) ** 2 + np.asarray(v_r) ** 2) / 2.0
    if kind is Kind.WAVE_MAP:
        return kin + np.sin(u) ** 2
    if kind is Kind.SKYRME:
        a2, su = alpha * alpha, np.sin(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            sin_over_r = np.where(r > 0, su / r, v)  # sin(u)/r, and its limit v at the axis
        D = 1.0 + 2.0 * a2 * sin_over_r * sin_over_r
        return D * kin + su * su + a2 * su * su * sin_over_r * sin_over_r / 2.0
    if kind is Kind.ADKINS_NAPPI:
        su = np.sin(u)
        q = -0.5 * _tilde_h_raw(1, u)  # (u - sin u cos u)/u^3, even, -> 2/3
        return kin + su * su + q * q * u**4 * v * v / 2.0
    if kind is Kind.SKYRME_APPROX:
        a2 = alpha * alpha
        return (1.0 + 2.0 * a2 * v * v) * kin + u * u + a2 * u * u * v * v / 2.0
    return kin + u * u + u**4 * v * v / 6.0

