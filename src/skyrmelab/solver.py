"""Method-of-lines evolution of the 5+1 semilinear v-equation.

The PDE is reduced to the first-order system (v, v_t) on the radial grid and
stepped with classical RK4.  Spatial derivatives are the 4th-order parity
stencils from grid, so refinement at fixed cfl converges at 4th order overall.

Outer boundary.  The default closure pins the last two nodes (their time
derivatives are forced to zero).  With data that decays before r = R and a run
no longer than the light-travel margin R - r_support, the pinned nodes are
never reached by the solution and the closure is exact by finite speed of
propagation.  For runs that violate that budget a first-order outgoing-wave
closure is available (boundary="sommerfeld"): v ~ G(t-r)/r^2 gives
v_t + v_r + 2 v / r = 0, imposed on the evolved v_t at the last two nodes.
Either way, values at r <= R - t are exactly independent of the choice; the
optional sup_window confines reported sup-norms to that causally clean region.

Blow-up is a flag, not an exception, and integrate alone raises it: the
gradient trip (a sampled sup|u_r| above growth_threshold times its initial
value) and the hard stop (sup|v| > HARD_SUP, or a non-finite v or v_t) end the
run, set trace.blew_up and flag the last row.  detect_blowup only measures a
finished trace.  One exception remains: when an RK4 stage overflows, as 1e70
data does under skyrme, adkins-nappi and adkins-nappi-approx, _rhs raises
DomainError("non-finite field samples") before integrate sees the state
(ROADMAP item 3).
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .grid import (RadialGrid, _simpson, even_d_r, even_derivatives, laplacian5_from,
                   radial_integral)
from .models import Kind, ModelSpec, _neg_nonlinearity, energy_density_v

GROWTH_THRESHOLD = 100.0
HARD_SUP = 1.0e6
CFL_ENVELOPE = 0.9
BOUNDARIES = ("pin", "sommerfeld")

# integrate's option -> (test, what the test demands); config's [run] rules are these
OPTION_RULES = {
    "dt": (lambda x: x > 0, "must be positive"),
    "T": (lambda x: x >= 0, "must be >= 0"),
    "cadence": (lambda n: n >= 0, "must be >= 0"),
    "boundary": (BOUNDARIES.__contains__, f"must be one of {BOUNDARIES}"),
    "sup_window": (lambda x: x > 0, "must be positive"),
    "growth_threshold": (lambda x: x > 1, "must exceed 1"),
}


@dataclass
class FieldState:
    t: float
    v: np.ndarray
    vt: np.ndarray
    grid: RadialGrid
    model: ModelSpec

    def __post_init__(self):
        want = (self.grid.N + 1,)
        if self.v.shape != want or self.vt.shape != want:
            raise ContractError(f"v and vt need one sample per node, shape {want}; "
                                f"got {self.v.shape} and {self.vt.shape}")

    def copy(self):
        return FieldState(self.t, self.v.copy(), self.vt.copy(), self.grid, self.model)


@dataclass(slots=True)
class TraceRow:
    t: float
    total_energy: float
    sup_abs_u: float
    sup_abs_u_r: float
    lightcone_energy: float
    deficit: float
    blowup_flag: int


@dataclass
class DiagnosticsTrace:
    rows: list = field(default_factory=list)
    blew_up: bool = False
    final_state: FieldState = None

    def column(self, name):
        return np.array([getattr(row, name) for row in self.rows])


@dataclass
class BlowupReport:
    t_star_estimate: float
    growth_factor: float
    profile_fit_error: float


@dataclass
class ScatteringDeficit:
    T1: float
    T2: float
    deficit: float


def _rhs(state, v, vt, boundary):
    """(dv/dt, dvt/dt) with the boundary closure folded in.

    The samples the stencils read must be finite (DomainError otherwise);
    what the nonlinearity makes of them is not checked.
    """
    g = state.grid
    if not np.isfinite(v).all() or (boundary == "sommerfeld" and not np.isfinite(vt).all()):
        raise DomainError("non-finite field samples")
    v_r, v_rr = even_derivatives(v, g)
    acc = laplacian5_from(v_r, v_rr, g)
    acc += _neg_nonlinearity(state.model, g.nodes, v, v_r, vt)
    dv = vt.copy()
    if boundary == "pin":
        dv[-2:] = 0.0
        acc[-2:] = 0.0
    else:  # sommerfeld
        vt_r = even_d_r(vt, g)
        acc[-2:] = -vt_r[-2:] - 2.0 * vt[-2:] / g.nodes[-2:]
    return dv, acc


def step_rk4(state, dt, boundary="pin"):
    """One classical RK4 step of the (v, v_t) system; deterministic."""
    test, demand = OPTION_RULES["boundary"]
    if not test(boundary):
        raise ConfigError(f"boundary {demand}, got {boundary!r}")
    if not abs(dt) <= CFL_ENVELOPE * state.grid.dr * (1 + 1e-12):  # NaN fails it too
        raise ConfigError(f"dt={dt} violates the CFL budget {CFL_ENVELOPE} * dr={state.grid.dr}")
    v, vt = state.v, state.vt
    kv, ka = _rhs(state, v, vt, boundary)
    sum_v, sum_a = kv, ka  # k1 + 2 k2 + 2 k3 + k4, added up as the stages come
    for c, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        kv, ka = _rhs(state, v + c * dt * kv, vt + c * dt * ka, boundary)
        sum_v += weight * kv
        sum_a += weight * ka
    return FieldState(state.t + dt, v + dt / 6.0 * sum_v, vt + dt / 6.0 * sum_a,
                      state.grid, state.model)


def sup_abs_u(state, window=None):
    u = np.abs(state.grid.nodes * state.v)
    return float(np.max(u if window is None else u[state.grid.nodes <= window]))


def sup_abs_u_r(state, window=None, v_r=None):
    """sup |u_r| = sup |v + r v_r|; v_r, if given, is the radial derivative of state.v."""
    if v_r is None:
        v_r = even_d_r(state.v, state.grid)
    u_r = np.abs(state.v + state.grid.nodes * v_r)
    return float(np.max(u_r if window is None else u_r[state.grid.nodes <= window]))


def total_energy(state, v_r=None):
    """The model's conserved energy; v_r, if given, is the radial derivative of state.v."""
    if v_r is None:
        v_r = even_d_r(state.v, state.grid)
    dens = energy_density_v(state.model, state.grid.nodes, state.v, v_r, state.vt)
    return radial_integral(dens, state.grid, weight_power=0)


def lightcone_energy(state, t0, v_r=None):
    """Energy inside the backward cone r <= t0 - t, truncated to whole cells.

    v_r, if given, is the radial derivative of state.v.
    """
    radius = t0 - state.t
    if radius <= 0:
        return 0.0
    g = state.grid
    k = min(int(math.floor(radius / g.dr)), g.N)
    if k < 1:  # the cone holds no whole cell
        return 0.0
    if v_r is None:
        v_r = even_d_r(state.v, state.grid)
    cone = slice(k + 1)
    dens = energy_density_v(state.model, g.nodes[cone], state.v[cone], v_r[cone],
                            state.vt[cone])
    return _simpson(dens, g.nodes[k] / k)  # dr of the k-cell grid on [0, nodes[k]]


def _deficit_norm(grid, dv, dvt):
    """sqrt( integral of (dv_r^2 + dvt^2 + dv^2) r^4 dr ): the discrete energy proxy."""
    dv_r = even_d_r(dv, grid)
    dens = dv_r * dv_r + dvt * dvt + dv * dv
    return math.sqrt(max(radial_integral(dens, grid, weight_power=4), 0.0))


def integrate(init, dt, T, cadence=0, lightcone_t0=None, track_deficit=False,
              boundary="pin", sup_window=None, growth_threshold=GROWTH_THRESHOLD):
    """Evolve to time init.t + T (or blow-up), sampling diagnostics as it goes.

    cadence is the step stride between trace rows (0 picks ~256 rows).  The
    deficit column co-evolves a free-wave twin from the same data and measures
    the energy-proxy distance to it.  A hard stop appends a row of NaN
    diagnostics; either trip sets trace.blew_up and the last row's blowup_flag.
    """
    for name, value in dict(dt=dt, T=T, cadence=cadence, boundary=boundary, sup_window=sup_window,
                            growth_threshold=growth_threshold, lightcone_t0=lightcone_t0).items():
        test, demand = OPTION_RULES.get(name, (None, None))
        if value is not None and test and not test(value):  # None leaves an option unset
            raise ConfigError(f"{name} {demand}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    n_steps = max(math.ceil(T / dt - 1e-12), 1) if T > 0 else 0
    dt_actual = T / n_steps if n_steps else 0.0
    if cadence <= 0:
        cadence = max(1, n_steps // 256)
    trace = DiagnosticsTrace()
    state = init.copy()
    twin = None
    if track_deficit and init.model.kind is not Kind.FREE_WAVE_5D:
        twin = FieldState(init.t, init.v.copy(), init.vt.copy(), init.grid,
                          ModelSpec(Kind.FREE_WAVE_5D))

    initial_gradient = None

    def sample(state, twin):
        nonlocal initial_gradient
        v_r = even_d_r(state.v, state.grid)
        sup_u = sup_abs_u(state, sup_window)
        sup_ur = sup_abs_u_r(state, sup_window, v_r)
        if initial_gradient is None:
            initial_gradient = max(sup_ur, 1e-300)
        deficit = math.nan
        if twin is not None:
            deficit = _deficit_norm(state.grid, state.v - twin.v, state.vt - twin.vt)
        row = TraceRow(
            t=state.t,
            total_energy=total_energy(state, v_r),
            sup_abs_u=sup_u,
            sup_abs_u_r=sup_ur,
            lightcone_energy=(lightcone_energy(state, lightcone_t0, v_r)
                              if lightcone_t0 is not None else math.nan),
            deficit=deficit,
            blowup_flag=0,
        )
        trace.rows.append(row)
        return sup_ur > growth_threshold * initial_gradient

    stopped = sample(state, twin)
    for step in range(1, n_steps + 1):
        if stopped:
            break
        state = step_rk4(state, dt_actual, boundary)
        if twin is not None:
            twin = step_rk4(twin, dt_actual, boundary)
        # NaN in v fails the comparison too
        if not (np.abs(state.v).max() <= HARD_SUP and np.isfinite(state.vt).all()):
            trace.rows.append(TraceRow(state.t, math.nan, math.nan, math.nan, math.nan,
                                       math.nan, 0))
            stopped = True
        elif step % cadence == 0 or step == n_steps:
            stopped = sample(state, twin)
    if stopped:
        trace.blew_up = True
        trace.rows[-1].blowup_flag = 1
    trace.final_state = state
    return trace


def detect_blowup(trace):
    """Growth, collapse-time and profile diagnostics of a finished trace.

    The verdict is the run's: trace.blew_up, set by integrate.  growth is the
    largest sampled sup|u_r| over the first.  Only on a blown-up trace, t*
    comes from a straight-line fit of 1/sup|u_r| against t over the final
    decade of growth; the profile check rescales u(t_end, rho (t* - t_end))
    of trace.final_state and measures the relative L^2(rho <= 5) misfit
    against 2 arctan(rho).
    """
    rows = [row for row in trace.rows if math.isfinite(row.sup_abs_u_r)]
    if not rows:
        return BlowupReport(t_star_estimate=math.nan, growth_factor=math.nan,
                            profile_fit_error=math.nan)
    sup = np.array([row.sup_abs_u_r for row in rows])
    times = np.array([row.t for row in rows])
    growth = float(np.max(sup) / max(sup[0], 1e-300))
    t_star = math.inf
    fit_error = math.nan
    if trace.blew_up and np.max(sup) > 0:
        late = sup >= 0.1 * np.max(sup)
        if np.count_nonzero(late) >= 2:
            # 1/sup ~ a (t* - t): intercept of the fitted line with zero
            slope, intercept = np.polyfit(times[late], 1.0 / sup[late], 1)
            if slope < 0:
                t_star = float(-intercept / slope)
        state = trace.final_state
        if math.isfinite(t_star) and t_star > state.t:
            delta = t_star - state.t
            rho = np.linspace(0.0, 5.0, 501)
            u_resc = np.interp(rho * delta, state.grid.nodes, state.grid.nodes * state.v)
            target = 2.0 * np.arctan(rho)
            fit_error = float(np.sqrt(np.trapezoid((u_resc - target) ** 2, rho)
                                      / np.trapezoid(target**2, rho)))
    return BlowupReport(t_star_estimate=t_star, growth_factor=growth,
                        profile_fit_error=fit_error)


def scattering_deficit(init, dt, T1, T2):
    """Distance at T2 between the nonlinear flow and the free flow handed off at T1.

    It reads the free twin of a track_deficit run from the T1 state; a free wave gives 0.0."""
    if not T2 > T1 >= 0:
        raise ConfigError("need T2 > T1 >= 0")
    free = init.model.kind is Kind.FREE_WAVE_5D
    if T1 > 0:
        tr = integrate(init, dt, T1, cadence=10**9)
        if tr.blew_up:
            raise DomainError("blow-up before the handoff time")
        init = tr.final_state
    tr = integrate(init, dt, T2 - T1, cadence=10**9, track_deficit=True)
    if tr.blew_up:
        raise DomainError("blow-up before the measurement time")
    return ScatteringDeficit(T1=T1, T2=T2, deficit=0.0 if free else tr.rows[-1].deficit)

