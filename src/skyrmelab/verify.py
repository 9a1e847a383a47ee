"""Acceptance checklist: every release-gating property as a callable check.

Each criterion function reruns its scenario from scratch and returns its
checks, each carrying the measured value next to the required bound; nothing
is cached between runs.  A criterion that samples holds its sample sets
itself (3: the coefficient decay, sign and sine-ratio samples; 12: the
dyadic Sobolev test family), so it computes and judges its values in one
function.  One table names each report once, with its criterion number and
suite; CRITERIA, SUITES and the order of `all` are read from it, and one
timer turns a criterion's checks into its ScenarioReport.
The smallness gate is two constants beside the one check that reads them.
The CLI's `verify` subcommand is a thin wrapper over run_suite.
"""
import math
import time
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
from scipy.special import gamma

from .coefficients import tilde_h
from .config import initial_state, load_scenario
from .errors import ConfigError, DomainError
from .exact import turok_spergel
from .grid import FieldSamples, Parity, RadialGrid, d_r, laplacian5, radial_integral
from .models import Kind, ModelSpec
from .runio import CheckResult, ScenarioReport, output_root, run_scenario
from .solver import FieldState, integrate, scattering_deficit
from .spectral import (SPHERE_AREA, RadialProfile, SpectralProfile, besov_norm, chi,
                       dyadic_band, dyadic_piece, inverse_radial_fourier, lp_norm,
                       radial_fourier, scale, sobolev_norm)


def _artifact_dir(name):
    return output_root() / "verify-artifacts" / name


def _shipped_scenarios(*names):
    """Run shipped scenarios; their [expect] checks, each prefixed with its scenario."""
    return [replace(c, name=f"{name}/{c.name}") for name in names
            for c in run_scenario(load_scenario(name), outdir=_artifact_dir(name)).checks]


# ---------------------------------------------------------------- criterion 1

def shrinker_exactness():
    """The closed-form collapse solves the wave map u_tt = u_rr + 2 u_r / r - sin(2u) / r^2."""
    rng = np.random.default_rng(20260819)
    t = rng.uniform(0.1, 10.0, 10_000)
    r = rng.uniform(1e-2, 30.0, 10_000)
    u, u_t, u_r, u_tt, u_rr = turok_spergel(t, r)
    res = u_tt - (u_rr + 2.0 * u_r / r - np.sin(2.0 * u) / (r * r))
    worst = float(np.max(np.abs(res)))
    return [CheckResult("collapse_solution_residual", worst <= 1e-12, worst, "<= 1e-12")]


# ---------------------------------------------------------------- criterion 2

def coefficient_limits():
    """Axis limits of the six stripped nonlinearity coefficients."""
    checks = []
    for alpha in (1.0, 0.7):
        limits = {1: -4.0 / 3.0, 2: -2.0 * alpha**2 / 3.0, 3: 0.0,
                  4: 2.0 * alpha**2, 5: -4.0 / 3.0, 6: 4.0 / 3.0}
        worst = max(abs(tilde_h(cid, 0.0, alpha=alpha) - lim)
                    for cid, lim in limits.items())
        checks.append(CheckResult(f"axis_limits_alpha_{alpha:g}", worst <= 1e-10,
                                  worst, "<= 1e-10"))
    return checks


# ---------------------------------------------------------------- criterion 3

def coefficient_bounds_suite():
    """Parity, signs, weighted boundedness, and the sine-ratio bounds."""
    checks = []
    u = np.concatenate([np.linspace(1e-8, 60.0, 20_001),
                        np.geomspace(1e-12, 1e-2, 500)])
    parity_defect = 0.0
    for cid in range(1, 7):
        sign = -1.0 if cid == 3 else 1.0
        a = tilde_h(cid, u, alpha=1.0)
        b = tilde_h(cid, -u, alpha=1.0)
        parity_defect = max(parity_defect,
                            float(np.max(np.abs(a - sign * b) / (1.0 + np.abs(a)))))
    checks.append(CheckResult("parity", parity_defect <= 1e-12, parity_defect, "<= 1e-12"))

    sign_worst = max(float(np.max(tilde_h(1, u))), float(np.max(tilde_h(5, u))),
                     float(np.max(-tilde_h(6, u))))
    checks.append(CheckResult("signs_h1_h5_h6", sign_worst <= 1e-15, sign_worst, "<= 1e-15"))

    # <u>^k decay weights per id, for derivative orders j = 0, 1, 2: the decay
    # rates c1..c6 are expected to satisfy; derivatives of c1 decay one power
    # faster than c1 itself.  j = 1, 2 by 6th-order central stencils
    weights = {1: (2, 3, 3), 2: (3, 3, 3), 3: (2, 2, 2), 4: (1, 1, 1), 5: (2, 3, 3), 6: (4, 4, 4)}
    d1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    d2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    h = 1e-3
    tail = np.array([2.0**k for k in range(7, 21)])
    wide = np.concatenate([np.linspace(-100.0, 100.0, 100001), tail, -tail])
    bracket = np.sqrt(1.0 + wide * wide)
    bound_worst = 0.0
    for cid, decay in weights.items():
        for order, k in enumerate(decay):
            if order == 0:
                derivative = tilde_h(cid, wide, alpha=1.0)
            else:
                acc = np.zeros_like(wide)
                for m, w in enumerate(d1 if order == 1 else d2):
                    if w != 0.0:
                        acc = acc + w * tilde_h(cid, wide + (m - 3) * h, alpha=1.0)
                derivative = acc / h**order
            bound_worst = max(bound_worst, float(np.max(np.abs(derivative) * bracket**k)))
    # the suprema are empirical constants, finite on any sample set; and on
    # these samples too c1 = c5 <= 0, c6 >= 0
    signs_ok = all(np.all(sign * tilde_h(cid, wide) >= -1e-15)
                   for cid, sign in ((1, -1), (5, -1), (6, 1)))
    checks.append(CheckResult("weighted_suprema_finite", signs_ok and math.isfinite(bound_worst),
                              bound_worst, "finite, signs hold"))

    # |sin u / r|^j / (1 + 2 sin^2 u / r^2) for j = 0, 1, 2, sampled; the
    # single-variable maxima of x^j/(1+2x^2) give the exact bounds 1,
    # 1/(2 sqrt(2)) and 1/2
    r = np.logspace(-6, 3, 400)[:, None]
    x = np.abs(np.sin(np.linspace(-20.0, 20.0, 801)[None, :]) / r)
    denom = 1.0 + 2.0 * x * x
    for j, bound in enumerate((1.0, 1.0 / (2.0 * math.sqrt(2.0)), 0.5)):
        value = float(np.max(x**j / denom))
        checks.append(CheckResult(f"sine_ratio_j{j}", value <= bound * (1 + 1e-12),
                                  value, f"<= {bound:g}"))
    return checks


# ---------------------------------------------------------------- criterion 4

def solver_convergence():
    """4th-order convergence against the closed-form linear solution.

    The shipped free-wave-convergence scenario runs at N = 512, 1024 and 2048,
    as `sweep --axis run.N` runs it; each report carries its error_vs_exact.
    """
    cfg = load_scenario("free-wave-convergence")
    resolutions = (512, 1024, 2048)
    errors = []
    for n in resolutions:
        rep = run_scenario(replace(cfg, N=n), outdir=_artifact_dir(f"{cfg.name}-N{n}"))
        if rep.blew_up:
            raise DomainError(f"blow-up during the N={n} run")
        errors.append(rep.error_vs_exact)
    order = float(np.polyfit(np.log([cfg.R / n for n in resolutions]), np.log(errors), 1)[0])
    return [CheckResult("observed_order", order >= 3.5, order, ">= 3.5")]


# ---------------------------------------------------------------- criterion 5

def energy_conservation():
    """Small-data Skyrme and Adkins-Nappi runs conserve energy to 1e-6."""
    return _shipped_scenarios("skyrme-small", "adkins-nappi-small")


# ---------------------------------------------------------------- criterion 6

def blowup_vs_regularization():
    """Identical large data: wave map collapses, Skyrme flow stays regular."""
    return _shipped_scenarios("wavemap-blowup", "skyrme-blowup-control")


# ---------------------------------------------------------------- criterion 7

def cubic_smallness_scaling():
    """Halving small data amplitudes cuts the nonlinear deficit ~8x."""
    R, N, T2 = 18.0, 2048, 10.0
    g = RadialGrid(R, N)
    dt = 0.5 * g.dr
    model = ModelSpec(Kind.ADKINS_NAPPI)
    deltas = (0.2, 0.1, 0.05)
    deficits, sups = [], []
    for amp in deltas:
        # the free twin steps beside the run: its last row's deficit is the
        # handoff-at-0 scattering deficit at T2, bit for bit
        v0 = amp * np.exp(-g.nodes**2)
        tr = integrate(FieldState(0.0, v0, np.zeros_like(v0), g, model), dt, T2,
                       cadence=50, track_deficit=True)
        if tr.blew_up:
            raise DomainError(f"blow-up of the amplitude-{amp:g} run")
        deficits.append(tr.rows[-1].deficit)
        sups.append(float(np.nanmax(tr.column("sup_abs_u"))))
    checks = [CheckResult("largest_amplitude_sup_u", sups[0] <= 0.1, sups[0], "<= 0.1")]
    for k in range(len(deltas) - 1):
        ratio = deficits[k] / deficits[k + 1]
        checks.append(CheckResult(f"deficit_ratio_{deltas[k]:g}_to_{deltas[k+1]:g}",
                                  6.0 <= ratio <= 10.0, ratio, "in [6, 10]"))
    return checks


# ---------------------------------------------------------------- criterion 8

def scattering_trend():
    """Deficit to the free flow shrinks as the handoff time grows."""
    R, N, T2 = 28.0, 2048, 20.0
    g = RadialGrid(R, N)
    dt = 0.5 * g.dr
    handoffs = (0.0, 2.5, 5.0, 7.5)
    checks = []
    for model in (ModelSpec(Kind.SKYRME, alpha=1.0), ModelSpec(Kind.ADKINS_NAPPI)):
        v0 = 0.2 * np.exp(-g.nodes**2)
        st = FieldState(0.0, v0, np.zeros_like(v0), g, model)
        deficits = []
        for T1 in handoffs:
            if T1 > 0:  # 2.5/366, 5/732 and 7.5/1098 are one double: chaining keeps the bits
                tr = integrate(st, dt, 2.5, cadence=10**9)
                if tr.blew_up:
                    raise DomainError("blow-up before the handoff time")
                st = tr.final_state
            deficits.append(scattering_deficit(st, dt, 0.0, T2 - T1).deficit)
        drops = np.diff(deficits)
        tag = model.kind.value
        checks.append(CheckResult(f"{tag}/deficit_5_below_0",
                                  deficits[2] < deficits[0],
                                  deficits[2] / deficits[0], "ratio < 1"))
        checks.append(CheckResult(f"{tag}/monotone_decrease",
                                  bool(np.all(drops < 0.0)),
                                  float(np.max(drops)), "all successive drops < 0"))
    return checks


# ---------------------------------------------------------------- criterion 9

def spectral_oracles():
    """Closed-form Gaussian norms, Besov/Sobolev match, shell reconstruction."""
    checks = []

    g = RadialGrid(16.0, 1024)
    gauss = np.exp(-g.nodes**2 / 2.0)
    worst = 0.0
    for n in (3, 5):
        p = RadialProfile(gauss, g, dim=n)
        for s in (0.0, 1.0, 1.5, 2.0, 2.5):
            exact = SPHERE_AREA[n] * gamma(s + n / 2.0) / 2.0
            got = sobolev_norm(p, s) ** 2
            worst = max(worst, abs(got - exact) / exact)
    checks.append(CheckResult("gaussian_norm_oracle", worst <= 1e-4, worst, "<= 1e-4 rel"))

    g2 = RadialGrid(128.0, 512)
    gauss2 = np.exp(-g2.nodes**2 / 2.0)
    worst = 0.0
    for n in (3, 5):
        p = RadialProfile(gauss2, g2, dim=n)
        for s in (0.0, 1.0, 1.5):
            sob = sobolev_norm(p, s)
            bes = float(besov_norm(p, s, 2, 2))
            worst = max(worst, abs(bes - sob) / sob)
    checks.append(CheckResult("besov_22_matches_sobolev", worst <= 1e-3, worst, "<= 1e-3 rel"))

    p = RadialProfile(gauss, g, dim=5)
    sp = radial_fourier(p)
    band = dyadic_band(g)
    window = np.zeros_like(sp.rho_nodes)
    for lam in band[1:-1]:
        window += chi(sp.rho_nodes / lam)
    limited = inverse_radial_fourier(SpectralProfile(5, sp.fhat * window, g))
    with warnings.catch_warnings():
        # band-limiting leaves harmless ringing at the grid edge
        warnings.simplefilter("ignore", RuntimeWarning)
        recon = np.zeros_like(limited.values)
        for lam in band:
            recon += dyadic_piece(limited, lam).values
    num = radial_integral((recon - limited.values) ** 2, g, 4)
    den = radial_integral(limited.values**2, g, 4)
    err = math.sqrt(num / den)
    checks.append(CheckResult("shell_reconstruction", err <= 1e-6, err, "<= 1e-6 rel"))
    return checks


# --------------------------------------------------------------- criterion 10

def scaling_invariance():
    """Critical-norm invariance of the dilation family u_lam = lam^a u(r/lam)."""
    g = RadialGrid(32.0, 2048)
    u = g.nodes**2 * np.exp(-g.nodes**2)
    p = RadialProfile(u, g, dim=3)
    checks = []
    for a, s in ((1.0, 2.5), (0.5, 2.0)):
        base = sobolev_norm(p, s)
        worst = 0.0
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            value = sobolev_norm(scale(p, lam, a), s)
            worst = max(worst, abs(value - base) / base)
        checks.append(CheckResult(f"dilation_a_{a:g}_s_{s:g}", worst <= 1e-3,
                                  worst, "<= 1e-3 rel"))
    return checks


# --------------------------------------------------------------- criterion 11

def supremum_vs_energy_trend():
    """Lower energy data never peak higher: rank correlation exactly 1."""
    g = RadialGrid(12.0, 2048)
    dt = 0.5 * g.dr
    model = ModelSpec(Kind.SKYRME, alpha=1.0)
    amplitudes = (0.8, 0.65, 0.5, 0.35, 0.2)
    energies, sups = [], []
    for amp in amplitudes:
        v0 = amp * np.exp(-g.nodes**2)
        st = FieldState(0.0, v0, np.zeros_like(v0), g, model)
        tr = integrate(st, dt, 5.0, cadence=25)
        energies.append(tr.column("total_energy")[0])
        sups.append(float(np.nanmax(tr.column("sup_abs_u"))))
    energies = np.array(energies)
    sups = np.array(sups)
    checks = [CheckResult("energies_strictly_decreasing",
                          bool(np.all(np.diff(energies) < 0)),
                          float(np.max(np.diff(energies))), "all drops < 0")]
    ranks_e = np.argsort(np.argsort(energies))
    ranks_s = np.argsort(np.argsort(sups))
    identical = bool(np.array_equal(ranks_e, ranks_s))
    checks.append(CheckResult("sup_ranks_follow_energy_ranks", identical,
                              1.0 if identical else 0.0, "rank correlation == 1"))
    checks.append(CheckResult("sup_strictly_decreasing",
                              bool(np.all(np.diff(sups) < 0)),
                              float(np.max(np.diff(sups))), "all drops < 0"))
    return checks


# --------------------------------------------------------------- criterion 12

def dyadic_sobolev_stability():
    """Sampled shell-sum constants stay within 2x across dilations.

    On RadialGrid(16, 512), for each shell projection S_lam, lam = 1, 2, 4,
    8, 16, of each of 20 radial test functions, forms
    || r^(alpha(1/p-1/q)) S_lam phi ||_q / (lam^((n-alpha)(1/p-1/q)) ||phi||_p)
    and keeps the per-lambda supremum over the family.  The estimate being
    scale-correct means these constants should not drift with lambda: the
    check is their max over their min.
    """
    grid = RadialGrid(16.0, 512)
    r = grid.nodes
    family = []  # spectral mass spread over several octaves
    for w in (0.25, 0.5, 1.0, 1.5, 2.0):
        family.append(np.exp(-((r / w) ** 2)))
        family.append(r**2 * np.exp(-((r / w) ** 2)))
        family.append(np.exp(-((r / w) ** 2)) * np.cos(4.0 * r / w))
    for c in (1.0, 2.0, 4.0, 8.0, 16.0):
        family.append(np.exp(-(r**2)) * np.cos(c * r))
    checks = []
    for n, alpha, p_exp, q_exp in ((5, 4, 2, math.inf), (3, 2, 2, 4), (5, 0, 2, 4)):
        profiles = [RadialProfile(v, grid, n) for v in family]
        gap = alpha * (1.0 / p_exp - 1.0 / q_exp)
        rate = (n - alpha) * (1.0 / p_exp - 1.0 / q_exp)
        constants = []
        for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
            best = 0.0
            for prof in profiles:
                weighted = RadialProfile(r**gap * dyadic_piece(prof, lam).values, grid, n)
                best = max(best, lp_norm(weighted, q_exp) / (lam**rate * lp_norm(prof, p_exp)))
            constants.append(best)
        stability = max(constants) / min(constants)
        checks.append(CheckResult(f"stability_n{n}_a{alpha}_p{p_exp}_q{q_exp:g}",
                                  stability <= 2.0, stability, "<= 2.0"))
    return checks


# --------------------------------------------------------- structural suites

def grid_calculus_checks():
    """Stencils and quadrature are exact on low-degree polynomials."""
    g = RadialGrid(10.0, 128)
    r = g.nodes
    checks = []

    f = FieldSamples(r**2, Parity.EVEN)
    f_r = d_r(f, g).values
    err = float(np.max(np.abs(f_r - 2.0 * r)))
    checks.append(CheckResult("derivative_exact_quadratic", err <= 1e-11, err, "<= 1e-11"))

    lap = laplacian5(f, g).values
    err = float(np.max(np.abs(lap - 10.0)))
    checks.append(CheckResult("laplacian_exact_quadratic", err <= 1e-10, err, "<= 1e-10"))

    got = radial_integral(r**3, g, weight_power=0)
    err = abs(got - 10.0**4 / 4.0) / (10.0**4 / 4.0)
    checks.append(CheckResult("simpson_exact_cubic", err <= 1e-14, err, "<= 1e-14 rel"))

    # the axis rule both kernels apply: the slope of an even field is 0.0 at r = 0
    ok = bool(f_r[0] == 0.0)
    checks.append(CheckResult("odd_fields_vanish_at_axis", ok, float(ok), "contract enforced"))
    return checks


# The small-data admission gate: the dyadic Besov size (s = 3/2, p = 2, q = 1)
# and the L^2 size over R^5 of the skyrme-small profile v(r) = 0.5 exp(-r^2)
# on its own grid, the largest data the suite certifies as globally regular.
# To record them again, paste the repr of each float that
# _data_size(load_scenario("skyrme-small")) returns.
_GATE_BESOV = 4.964081005575176
_GATE_L2 = 0.8792651308620089


def _data_size(cfg):
    """(besov, l2) of the configured initial position data over R^5.

    Slow decay at the grid edge only biases the measurement low, so the
    gate comparison stays one-sided.
    """
    state = initial_state(cfg)
    besov = besov_norm(RadialProfile(state.v, state.grid, dim=5), 1.5, 2, 1).value
    l2 = math.sqrt(SPHERE_AREA[5] * radial_integral(state.v**2, state.grid, weight_power=4))
    return float(besov), l2


def smallness_gate_consistency():
    """The recorded gate matches a recomputation and sorts the data."""
    besov, l2 = _data_size(load_scenario("skyrme-small"))
    rel = abs(besov - _GATE_BESOV) / _GATE_BESOV
    rel_l2 = abs(l2 - _GATE_L2) / _GATE_L2
    checks = [
        CheckResult("gate_besov_reproducible", rel <= 1e-9, rel, "<= 1e-9 rel"),
        CheckResult("gate_l2_reproducible", rel_l2 <= 1e-9, rel_l2, "<= 1e-9 rel"),
    ]
    b_big, _ = _data_size(replace(load_scenario("wavemap-blowup"), N=2048))
    checks.append(CheckResult("collapse_data_above_gate", b_big > 10.0 * _GATE_BESOV,
                              b_big / _GATE_BESOV, "> 10x gate"))
    return checks


# (criterion number or None, report name, suite, criterion), in `verify all` order
_TABLE = (
    (2, "coefficient-limits", "coefficients", coefficient_limits),
    (3, "coefficient-bounds", "coefficients", coefficient_bounds_suite),
    (None, "grid-calculus", "grid", grid_calculus_checks),
    (1, "shrinker-exactness", "solver", shrinker_exactness),
    (4, "solver-convergence", "solver", solver_convergence),
    (5, "energy-conservation", "solver", energy_conservation),
    (9, "spectral-oracles", "spectral", spectral_oracles),
    (10, "scaling-invariance", "spectral", scaling_invariance),
    (12, "dyadic-sobolev-stability", "spectral", dyadic_sobolev_stability),
    (6, "blowup-vs-regularization", "theorems", blowup_vs_regularization),
    (7, "cubic-smallness-scaling", "theorems", cubic_smallness_scaling),
    (8, "scattering-trend", "theorems", scattering_trend),
    (11, "supremum-vs-energy", "theorems", supremum_vs_energy_trend),
    (None, "smallness-gate", "theorems", smallness_gate_consistency),
)


def _run(name, criterion):
    """The criterion's checks as the report `name`, timed."""
    started = time.perf_counter()
    checks = criterion()
    return ScenarioReport(scenario=name, checks=checks, runtime_s=time.perf_counter() - started)


_RUNS = [(num, suite, partial(_run, name, criterion)) for num, name, suite, criterion in _TABLE]
CRITERIA = dict(sorted(((num, run) for num, _, run in _RUNS if num), key=lambda item: item[0]))
SUITES = {suite: tuple(run for _, s, run in _RUNS if s == suite) for _, suite, _ in _RUNS}


def run_suite(name):
    """Execute a named suite; returns the list of ScenarioReports."""
    if name == "all":
        runs = [run for _, _, run in _RUNS]
    elif name in SUITES:
        runs = SUITES[name]
    else:
        raise ConfigError(f"unknown suite {name!r}; "
                          f"choose from {', '.join(sorted(SUITES))} or all")
    return [run() for run in runs]


def format_reports(reports):
    lines = []
    for rep in reports:
        for c in rep.checks:
            lines.append(f"{c.line()}   [{rep.scenario}]")
        lines.append(f"{'PASS' if rep.passed else 'FAIL'}  {rep.scenario} "
                     f"({rep.runtime_s:.1f}s)")
    total = sum(len(r.checks) for r in reports)
    bad = sum(1 for r in reports for c in r.checks if not c.passed)
    lines.append(f"{total - bad}/{total} checks passed")
    return "\n".join(lines)
