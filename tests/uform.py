"""The u-form references: each model's equation and energy density in u = r v.

The library evolves only the v-form.  These are the u-forms that the tests
check it against (tests/test_models.py, tests/test_exact.py);
scripts/verify_algebra_symbolic.py audits the same algebra symbolically.
"""
import numpy as np

from skyrmelab.errors import DomainError
from skyrmelab.models import Kind


def rhs_u(model, r, u, u_r, u_t, u_rr):
    """u_tt solved explicitly from the u-form equation; r > 0 only."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("u-form needs r > 0; use the v-form at the axis")
    kind, alpha = model.kind, model.alpha
    r2 = r * r
    if kind is Kind.FREE_WAVE_5D:
        return u_rr + 2.0 * u_r / r - 2.0 * u / r2
    if kind is Kind.WAVE_MAP:
        return u_rr + 2.0 * u_r / r - np.sin(2.0 * u) / r2
    if kind is Kind.ADKINS_NAPPI:
        su, cu = np.sin(u), np.cos(u)
        return (u_rr + 2.0 * u_r / r - np.sin(2.0 * u) / r2
                - (u - su * cu) * (1.0 - np.cos(2.0 * u)) / (r2 * r2))
    if kind is Kind.ADKINS_NAPPI_APPROX:
        return u_rr + 2.0 * u_r / r - 2.0 * u / r2 - u**5 / (r2 * r2)
    a2 = alpha * alpha
    if kind is Kind.SKYRME_APPROX:
        den = 1.0 + 2.0 * a2 * u * u / r2
        return u_rr + (2.0 * u_r / r
                       - (2.0 * u / r2) * (1.0 + a2 * (u_t**2 - u_r**2 + u * u / r2))) / den
    su = np.sin(u)
    den = 1.0 + 2.0 * a2 * su * su / r2
    return u_rr + (2.0 * u_r / r
                   - (np.sin(2.0 * u) / r2) * (1.0 + a2 * (u_t**2 - u_r**2 + su * su / r2))) / den


def energy_density(model, r, u, u_r, u_t):
    """Conserved-energy integrand times r^2, in u-variables; r > 0 (or r = 0 with u = 0)."""
    r = np.asarray(r, dtype=float)
    scalar = np.ndim(r) == 0 and np.ndim(u) == 0
    u = np.broadcast_to(np.asarray(u, dtype=float), r.shape) if not scalar else u
    if np.any(r < 0):
        raise DomainError("r must be >= 0")
    if np.any((np.asarray(r) == 0) & (np.asarray(u) != 0)):
        raise DomainError("at r = 0 the angular field must vanish")
    rs = np.where(np.asarray(r) == 0, 1.0, r)  # axis rows are all-zero anyway
    kind, alpha = model.kind, model.alpha
    kin = (np.asarray(u_t) ** 2 + np.asarray(u_r) ** 2) * r * r / 2.0
    if kind is Kind.FREE_WAVE_5D:
        out = np.asarray(u_t) ** 2 * r * r / 2.0 + (r * np.asarray(u_r) - u) ** 2 / 2.0
    elif kind is Kind.WAVE_MAP:
        out = kin + np.sin(u) ** 2
    elif kind is Kind.SKYRME:
        a2, su = alpha * alpha, np.sin(u)
        D = 1.0 + 2.0 * a2 * (su / rs) ** 2
        out = D * kin + su * su + a2 * su**4 / (2.0 * rs * rs)
    elif kind is Kind.ADKINS_NAPPI:
        su, cu = np.sin(u), np.cos(u)
        out = kin + su * su + (u - su * cu) ** 2 / (2.0 * rs * rs)
    elif kind is Kind.SKYRME_APPROX:
        a2 = alpha * alpha
        out = (1.0 + 2.0 * a2 * (u / rs) ** 2) * kin + u * u + a2 * u**4 / (2.0 * rs * rs)
    else:  # ADKINS_NAPPI_APPROX
        out = kin + u * u + u**6 / (6.0 * rs * rs)
    return float(out) if scalar else out
