"""Closed-form reference solutions.

Two exact families anchor the solver tests:

* the self-similar collapse u(t, r) = 2 arctan(r/t) of the wave-map equation,
  which concentrates at the origin as t -> 0 (derivatives below are analytic,
  so residual checks probe pure floating-point error), and

* smooth solutions of the free radial wave equation on R^{5+1},
  v_tt = v_rr + (4/r) v_r, obtained from a scalar profile F by

      v(t, r) = [F(t+r) - F(t-r)] / r^3 - [F'(t+r) + F'(t-r)] / r^2,

  the (1/r d/dr)-descendant of the 1D d'Alembert solution.  Near the axis the
  closed form loses all digits to cancellation, so for r below half the
  profile width it is replaced by the Taylor series in r

      v(t, r) = -4 sum_{j>=1} j F^(2j+1)(t) r^(2j-2) / (2j+1)!

  whose terms fall off fast enough that truncation error is far below 1e-13
  at the switch radius.  Time derivatives shift every F-order up by one.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TAU = 2.0  # numerator constant of the collapse solution's derivatives


def turok_spergel(t, r):
    """Collapse solution sample: (u, u_t, u_r, u_tt, u_rr) of 2 arctan(r/t)."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(t == 0):
        raise DomainError("t = 0 is the collapse time")
    w = t * t + r * r
    u = 2.0 * np.arctan2(r, t)
    u_t = -TAU * r / w
    u_r = TAU * t / w
    u_tt = 2.0 * TAU * r * t / (w * w)
    u_rr = -2.0 * TAU * t * r / (w * w)
    return u, u_t, u_r, u_tt, u_rr


def turok_spergel_collapse_data(t0, r):
    """(v, v_t) at the start of a forward run that collapses at run time t0.

    The run clock s relates to the solution clock by t = t0 - s, so the time
    derivative flips sign relative to turok_spergel.
    """
    if t0 <= 0:
        raise DomainError("t0 must be positive")
    r = np.asarray(r, dtype=float)
    v = np.empty_like(r)
    pos = r > 0
    v[pos] = 2.0 * np.arctan(r[pos] / t0) / r[pos]
    v[~pos] = 2.0 / t0
    vt = TAU / (t0 * t0 + r * r)
    return v, vt


@dataclass(frozen=True)
class GaussianProfile:
    """F(s) = amplitude * exp(-((s - center)/width)^2) with all derivatives closed-form."""
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 3.0

    def derivative(self, n, s):
        """F^(n)(s) via Hermite polynomials: F^(n) = A (-1/w)^n H_n(x) e^{-x^2}."""
        x = (np.asarray(s, dtype=float) - self.center) / self.width
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        hermite = np.polynomial.hermite.hermval(x, coeffs)
        return self.amplitude * (-1.0 / self.width) ** n * hermite * np.exp(-x * x)


_SERIES_TERMS = 14


def exact_free_wave_5d(profile, t, r, t_order=0):
    """Exact solution at (t, r); t_order = k returns d^k/dt^k of it.

    profile must expose derivative(n, s) and width, below half of which the
    Taylor series replaces the closed form; GaussianProfile is the shipped one.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    scalar = t.ndim == 0 and r.ndim == 0
    t, r = np.broadcast_arrays(np.atleast_1d(t), np.atleast_1d(r))
    k = int(t_order)
    switch = 0.5 * profile.width
    out = np.empty(r.shape, dtype=float)

    far = np.abs(r) >= switch
    if np.any(far):
        tf, rf = t[far], r[far]
        out[far] = ((profile.derivative(k, tf + rf) - profile.derivative(k, tf - rf)) / rf**3
                    - (profile.derivative(k + 1, tf + rf) + profile.derivative(k + 1, tf - rf)) / rf**2)
    near = ~far
    if np.any(near):
        tn, rn = t[near], r[near]
        acc = np.zeros_like(tn)
        r2 = rn * rn
        for j in range(_SERIES_TERMS, 0, -1):
            acc = acc * r2 + j * profile.derivative(2 * j + 1 + k, tn) / math.factorial(2 * j + 1)
        out[near] = -4.0 * acc
    return float(out[0]) if scalar else out
