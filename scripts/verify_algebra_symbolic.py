"""Symbolic audit of the algebra hard-coded in skyrmelab.models and skyrmelab.exact.

Checks, with sympy, that

  * substituting u = r v into each of the six u-form field equations yields
    exactly the v-form nonlinearity implemented in models._neg_nonlinearity
    (coefficients c1..c6 in their closed forms, common denominator D for the
    full Skyrme flow);
  * each model's energy density obeys a local conservation law
    d/dt e = d/dr F on solutions, with the flux F stated per model, so the
    total energy reported by the solver is conserved in the continuum;
  * the collapse solution 2 arctan(r/t) solves the wave-map equation, its
    tabulated derivatives are correct, and the forward-clock initial data
    (v, v_t) used by the turok-spergel data family match it;
  * the spherical-means formula behind exact_free_wave_5d solves the linear
    5D radial wave equation for an arbitrary smooth profile.

Pure algebra, no numerics.  Run from the repository root:

    python3 scripts/verify_algebra_symbolic.py

Exits 0 and prints one line per identity when everything holds.
"""
import sys

import sympy as sp

t, r, t0, s0 = sp.symbols("t r t_0 s", positive=True)
alpha = sp.symbols("alpha", positive=True)

failures = []


def check(label, expr):
    ok = sp.simplify(expr) == 0
    print(("ok   " if ok else "FAIL ") + label)
    if not ok:
        failures.append(label)


# ---------------------------------------------------------------------------
# u-form residuals, written exactly as rhs_u in tests/uform.py solves them
# ---------------------------------------------------------------------------

def u_residual(kind, U):
    """u_tt minus the model's right-hand side, as an expression in U(t, r)."""
    U_t, U_r = U.diff(t), U.diff(r)
    U_tt, U_rr = U.diff(t, 2), U.diff(r, 2)
    lin = U_tt - U_rr - 2 * U_r / r
    if kind == "free-wave-5d":
        return lin + 2 * U / r**2
    if kind == "wave-map":
        return lin + sp.sin(2 * U) / r**2
    if kind == "adkins-nappi":
        return (lin + sp.sin(2 * U) / r**2
                + (U - sp.sin(U) * sp.cos(U)) * (1 - sp.cos(2 * U)) / r**4)
    if kind == "adkins-nappi-approx":
        return lin + 2 * U / r**2 + U**5 / r**4
    if kind == "skyrme-approx":
        den = 1 + 2 * alpha**2 * U**2 / r**2
        return U_tt - U_rr - (2 * U_r / r
                              - (2 * U / r**2)
                              * (1 + alpha**2 * (U_t**2 - U_r**2 + U**2 / r**2))) / den
    if kind == "skyrme":
        su = sp.sin(U)
        den = 1 + 2 * alpha**2 * su**2 / r**2
        return U_tt - U_rr - (2 * U_r / r
                              - (sp.sin(2 * U) / r**2)
                              * (1 + alpha**2 * (U_t**2 - U_r**2 + su**2 / r**2))) / den
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# v-form nonlinearities with the closed-form coefficients
# ---------------------------------------------------------------------------

def coeff(cid, u):
    if cid in (1, 5):
        return (sp.sin(2 * u) - 2 * u) / u**3
    if cid == 2:
        return alpha**2 * sp.sin(2 * u) * (sp.sin(u) ** 2 - u**2) / u**5
    if cid == 3:
        return 4 * alpha**2 * sp.sin(u) * (sp.sin(u) - u * sp.cos(u)) / u**3
    if cid == 4:
        return alpha**2 * sp.sin(2 * u) / u
    if cid == 6:
        return (u - sp.sin(u) * sp.cos(u)) * (1 - sp.cos(2 * u)) / u**5
    raise ValueError(cid)


def v_nonlinearity(kind, V, V_r, V_t):
    u = r * V
    if kind == "free-wave-5d":
        return sp.Integer(0)
    if kind == "wave-map":
        return coeff(1, u) * V**3
    if kind == "adkins-nappi":
        return coeff(1, u) * V**3 + coeff(6, u) * V**5
    if kind == "adkins-nappi-approx":
        return V**5
    if kind == "skyrme-approx":
        return 2 * alpha**2 * V * (V_t**2 - V_r**2) / (1 + 2 * alpha**2 * V**2)
    if kind == "skyrme":
        D = 1 + 2 * alpha**2 * sp.sin(u) ** 2 / r**2
        return (coeff(1, u) * V**3 + coeff(2, u) * V**5
                + coeff(3, u) * V**3 * V_r
                + coeff(4, u) * V * (V_t**2 - V_r**2)) / D
    raise ValueError(kind)


MODELS = ("wave-map", "skyrme", "adkins-nappi",
          "skyrme-approx", "adkins-nappi-approx", "free-wave-5d")


def check_conversions():
    v = sp.Function("v")(t, r)
    for kind in MODELS:
        res_u = u_residual(kind, r * v)
        res_v = (v.diff(t, 2) - v.diff(r, 2) - 4 * v.diff(r) / r
                 + v_nonlinearity(kind, v, v.diff(r), v.diff(t)))
        # the u-equation is r times the v-equation
        diff = sp.expand_trig(sp.together(res_u - r * res_v))
        check(f"u = r v conversion: {kind}", diff)


# ---------------------------------------------------------------------------
# energy conservation: d/dt (density) = d/dr (flux) on solutions
# ---------------------------------------------------------------------------

def density_and_flux(kind, U):
    U_t, U_r = U.diff(t), U.diff(r)
    kin = (U_t**2 + U_r**2) * r**2 / 2
    base_flux = r**2 * U_t * U_r
    if kind == "free-wave-5d":
        return U_t**2 * r**2 / 2 + (r * U_r - U) ** 2 / 2, base_flux - r * U * U_t
    if kind == "wave-map":
        return kin + sp.sin(U) ** 2, base_flux
    if kind == "adkins-nappi":
        return (kin + sp.sin(U) ** 2
                + (U - sp.sin(U) * sp.cos(U)) ** 2 / (2 * r**2)), base_flux
    if kind == "adkins-nappi-approx":
        return kin + U**2 + U**6 / (6 * r**2), base_flux
    if kind == "skyrme-approx":
        D = 1 + 2 * alpha**2 * U**2 / r**2
        return D * kin + U**2 + alpha**2 * U**4 / (2 * r**2), D * base_flux
    if kind == "skyrme":
        D = 1 + 2 * alpha**2 * sp.sin(U) ** 2 / r**2
        return D * kin + sp.sin(U) ** 2 + alpha**2 * sp.sin(U) ** 4 / (2 * r**2), D * base_flux
    raise ValueError(kind)


def check_energy_fluxes():
    U = sp.Function("u")(t, r)
    for kind in MODELS:
        dens, flux = density_and_flux(kind, U)
        # the residual is u_tt minus the right-hand side, so this is the RHS
        u_tt = U.diff(t, 2) - u_residual(kind, U)
        balance = dens.diff(t) - flux.diff(r)
        balance = balance.subs(U.diff(t, 2), u_tt)
        check(f"energy flux identity: {kind}", sp.together(balance))


# ---------------------------------------------------------------------------
# the closed-form collapse solution and its forward-clock data
# ---------------------------------------------------------------------------

def check_collapse_solution():
    u_c = 2 * sp.atan(r / t)
    check("collapse solution solves the wave-map equation",
          u_residual("wave-map", u_c))

    w = t**2 + r**2
    tabulated = {
        "u_t": (u_c.diff(t), -2 * r / w),
        "u_r": (u_c.diff(r), 2 * t / w),
        "u_tt": (u_c.diff(t, 2), 4 * r * t / w**2),
        "u_rr": (u_c.diff(r, 2), -4 * t * r / w**2),
    }
    for name, (exact, table) in tabulated.items():
        check(f"collapse derivative table: {name}", exact - table)

    # forward run clock: t = t0 - s, collapse at s = t0
    u_fwd = u_c.subs(t, t0 - s0)
    check("collapse data: v at s = 0",
          (u_fwd / r).subs(s0, 0) - 2 * sp.atan(r / t0) / r)
    check("collapse data: v_t at s = 0",
          (u_fwd / r).diff(s0).subs(s0, 0) - 2 / (t0**2 + r**2))


# ---------------------------------------------------------------------------
# spherical-means solution of the linear 5D radial wave equation
# ---------------------------------------------------------------------------

def check_free_wave_formula():
    F = sp.Function("F")
    v = ((F(t + r) - F(t - r)) / r**3
         - (F(t + r).diff(r) + F(t - r).diff(t)) / r**2)
    res = v.diff(t, 2) - v.diff(r, 2) - 4 * v.diff(r) / r
    check("spherical-means formula solves the 5D free wave equation",
          res.doit())


def main():
    check_conversions()
    check_energy_fluxes()
    check_collapse_solution()
    check_free_wave_formula()
    if failures:
        print(f"\n{len(failures)} identity(ies) FAILED")
        return 1
    print("\nall identities hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
