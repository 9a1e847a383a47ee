"""Evolution tests: convergence, conservation, reversal, blow-up plumbing."""
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skyrmelab import solver
from skyrmelab.errors import ConfigError, ContractError, DomainError
from skyrmelab.exact import GaussianProfile, exact_free_wave_5d, turok_spergel_collapse_data
from skyrmelab.grid import RadialGrid, _simpson, even_d_r, radial_integral
from skyrmelab.models import ALPHA_KINDS, Kind, ModelSpec, energy_density_v
from skyrmelab.solver import (
    DiagnosticsTrace,
    FieldState,
    TraceRow,
    _deficit_norm,
    detect_blowup,
    integrate,
    lightcone_energy,
    scattering_deficit,
    step_rk4,
    sup_abs_u,
    sup_abs_u_r,
    total_energy,
)

WAVE_MAP = ModelSpec(Kind.WAVE_MAP)
SKYRME1 = ModelSpec(Kind.SKYRME, alpha=1.0)
ADKINS_NAPPI = ModelSpec(Kind.ADKINS_NAPPI)
FREE = ModelSpec(Kind.FREE_WAVE_5D)


def gaussian_state(grid, model, amplitude=0.5, width=1.0, center=0.0):
    r = grid.nodes
    v0 = amplitude * np.exp(-(((r - center) / width) ** 2))
    return FieldState(0.0, v0, np.zeros_like(r), grid, model)


def test_cfl_envelope_rejected():
    st = gaussian_state(RadialGrid(10.0, 64), FREE)
    for dt in (st.grid.dr, math.nan, math.inf):  # 1.0 * dr > 0.9 * dr; NaN is no step size
        with pytest.raises(ConfigError, match=f"^dt={dt} violates the CFL budget"):
            step_rk4(st, dt)


def test_unknown_boundary_rejected():
    st = gaussian_state(RadialGrid(10.0, 64), FREE)
    with pytest.raises(ConfigError):
        step_rk4(st, 0.01, boundary="open")


def test_zero_state_is_fixed_point():
    g = RadialGrid(10.0, 64)
    st = FieldState(0.0, np.zeros(g.N + 1), np.zeros(g.N + 1), g, SKYRME1)
    out = step_rk4(st, 0.05)
    assert np.all(out.v == 0.0) and np.all(out.vt == 0.0)
    assert out.t == 0.05


def test_time_reversal_recovers_data():
    # negate v_t, evolve the same number of steps, land back on the data;
    # the residual is pure RK4 truncation (the scheme is not time-symmetric)
    g = RadialGrid(10.0, 64)
    r = g.nodes
    v0 = 0.3 * np.exp(-(r**2))
    vt0 = 0.1 * np.exp(-((r - 1.0) ** 2))
    st = FieldState(0.0, v0.copy(), vt0.copy(), g, SKYRME1)
    for _ in range(50):
        st = step_rk4(st, 0.002)
    st = FieldState(st.t, st.v, -st.vt, g, SKYRME1)
    for _ in range(50):
        st = step_rk4(st, 0.002)
    assert np.max(np.abs(st.v - v0)) < 1e-9
    assert np.max(np.abs(st.vt + vt0)) < 1e-9


def test_integration_is_deterministic():
    def run():
        st = gaussian_state(RadialGrid(12.0, 256), SKYRME1)
        return integrate(st, 0.5 * st.grid.dr, 1.0, cadence=8)

    a, b = run(), run()
    assert np.array_equal(a.final_state.v, b.final_state.v)
    assert np.array_equal(a.final_state.vt, b.final_state.vt)
    assert [row.total_energy for row in a.rows] == [row.total_energy for row in b.rows]


def test_free_wave_matches_exact_solution():
    prof = GaussianProfile()
    g = RadialGrid(20.0, 512)
    st = FieldState(
        0.0,
        np.asarray(exact_free_wave_5d(prof, 0.0, g.nodes)),
        np.asarray(exact_free_wave_5d(prof, 0.0, g.nodes, t_order=1)),
        g,
        FREE,
    )
    tr = integrate(st, 0.5 * g.dr, 1.0, cadence=10**9)
    exact = exact_free_wave_5d(prof, 1.0, g.nodes)
    err = math.sqrt(np.sum((tr.final_state.v - exact) ** 2 * g.nodes**4) * g.dr)
    assert err < 1e-5


def _self_convergence_order(model, resolutions, R, T):
    """Observed order at T with the finest run, restricted by stride, as reference.

    Errors are L^2(r^4 dr) of v on each coarser grid, at dt = 0.5 dr.
    """
    finals = []
    for n in resolutions:
        g = RadialGrid(R, n)
        st = FieldState(0.0, 0.3 * np.exp(-(g.nodes**2)), np.zeros(n + 1), g, model)
        tr = integrate(st, 0.5 * g.dr, T, cadence=10**9)
        assert not tr.blew_up, n
        finals.append(tr.final_state)
    ref = finals[-1]
    errors = []
    for st in finals[:-1]:
        diff = st.v - ref.v[::ref.grid.N // st.grid.N]
        errors.append(math.sqrt(radial_integral(diff * diff, st.grid, 4)))
    return np.polyfit(np.log([R / n for n in resolutions[:-1]]), np.log(errors), 1)[0]


@pytest.mark.parametrize("model", [SKYRME1, ADKINS_NAPPI, WAVE_MAP, FREE],
                         ids=lambda m: m.kind.value)
def test_convergence_study_nonlinear_fourth_order(model):
    # self-convergence of the nonlinear flows, and of the free wave beside them
    assert 3.7 <= _self_convergence_order(model, (128, 256, 512, 1024), 10.0, 1.0) <= 4.3


def test_energy_conservation_skyrme():
    st = gaussian_state(RadialGrid(20.0, 1024), SKYRME1)
    tr = integrate(st, 0.5 * st.grid.dr, 2.0, cadence=32)
    energies = tr.column("total_energy")
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    assert drift < 1e-5


def test_lightcone_energy_of_collapse_data_is_one():
    # closed form: the cone integral of the self-similar data at unit time
    # reduces to 2*int_0^1 (1 + 1/(1+r^2) - 2/(1+r^2)^2) dr = 1 exactly
    g = RadialGrid(8.0, 2048)
    v0, vt0 = turok_spergel_collapse_data(1.0, g.nodes)
    st = FieldState(0.0, v0, vt0, g, WAVE_MAP)
    assert lightcone_energy(st, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_lightcone_energy_monotone_along_collapse():
    g = RadialGrid(8.0, 1024)
    v0, vt0 = turok_spergel_collapse_data(1.0, g.nodes)
    st = FieldState(0.0, v0, vt0, g, WAVE_MAP)
    tr = integrate(st, 0.5 * g.dr, 0.9, cadence=16, lightcone_t0=1.0, sup_window=6.0)
    cone = tr.column("lightcone_energy")
    assert np.all(np.diff(cone) < 0)
    assert lightcone_energy(st, -1.0) == 0.0  # empty cone



@pytest.mark.parametrize("N", [256, 16384])
@pytest.mark.parametrize("amplitude", [0.3, 3.0])
@pytest.mark.parametrize("kind", list(Kind))
def test_lightcone_energy_equals_full_grid_density_sliced(kind, amplitude, N):
    # the cone density is evaluated on the cone's nodes only; it must carry
    # the bits of the density over the whole grid, cut to the cone
    g = RadialGrid(10.0, N)
    model = ModelSpec(kind, alpha=1.1 if kind in ALPHA_KINDS else None)
    r = g.nodes
    st = FieldState(0.0, amplitude * np.exp(-(r**2)), -amplitude * r * np.exp(-(r**2)), g,
                    model)
    k = int(math.floor(5.0 / g.dr))
    v_r = even_d_r(st.v, g)
    dens = energy_density_v(model, g.nodes, st.v, v_r, st.vt)
    full = radial_integral(dens[:k + 1], RadialGrid(g.nodes[k], k), weight_power=0)
    assert lightcone_energy(st, 5.0) == full
    assert lightcone_energy(st, 5.0, v_r) == full

@pytest.mark.parametrize("k", range(10))
def test_lightcone_energy_down_to_one_cell(k):
    # the cone keeps its energy until it holds no whole cell: k = 0 is empty
    g = RadialGrid(8.0, 1024)
    st = FieldState(0.0, np.exp(-(g.nodes**2)), np.zeros(g.N + 1), g, WAVE_MAP)
    dens = energy_density_v(WAVE_MAP, g.nodes, st.v, even_d_r(st.v, g), st.vt)
    want = _simpson(dens[:k + 1], g.nodes[k] / k) if k else 0.0
    got = lightcone_energy(st, (k + 0.5) * g.dr)
    assert got == want
    assert (got > 0.0) == (k > 0)


def test_blowup_detector_on_wave_map_collapse():
    g = RadialGrid(4.0, 2048)
    v0, vt0 = turok_spergel_collapse_data(1.0, g.nodes)
    st = FieldState(0.0, v0, vt0, g, WAVE_MAP)
    tr = integrate(st, 0.5 * g.dr, 0.99, cadence=16, sup_window=3.0)
    assert tr.blew_up
    assert tr.rows[-1].blowup_flag == 1
    rep = detect_blowup(tr)
    assert rep.growth_factor >= 100.0
    assert abs(rep.t_star_estimate - 1.0) < 0.01
    assert rep.profile_fit_error < 0.05


def test_no_blowup_report_on_quiet_run():
    st = gaussian_state(RadialGrid(12.0, 256), SKYRME1, amplitude=0.1)
    tr = integrate(st, 0.5 * st.grid.dr, 1.0, cadence=8)
    assert not tr.blew_up
    rep = detect_blowup(tr)
    assert rep.t_star_estimate == math.inf


def runaway_state():
    # sup|v| passes HARD_SUP within the first step, so any run of it blows up at once
    g = RadialGrid(10.0, 64)
    return FieldState(0.0, 1e7 * np.exp(-(g.nodes**2)), np.zeros(g.N + 1), g,
                      ModelSpec(Kind.ADKINS_NAPPI_APPROX))


def test_hard_stop_on_runaway_state():
    st = runaway_state()
    tr = integrate(st, 0.5 * st.grid.dr, 1.0, cadence=4)
    assert tr.blew_up
    assert tr.rows[-1].blowup_flag == 1
    assert tr.final_state.t < 1.0


@pytest.mark.parametrize("model", [WAVE_MAP, ModelSpec(Kind.SKYRME_APPROX, alpha=1.0), FREE],
                         ids=lambda m: m.kind.value)
def test_hard_stop_on_huge_data(model):
    # 1e70 data: the wave map's first step overflows v to inf, the other two
    # stay finite above HARD_SUP; either way the run stops after one step
    g = RadialGrid(8.0, 256)
    dt = 0.5 * g.dr
    st = gaussian_state(g, model, amplitude=1e70)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = integrate(st, dt, 1.0)
    assert tr.blew_up
    assert len(tr.rows) == 2
    last = tr.rows[-1]
    assert (last.t, last.blowup_flag) == (dt, 1)
    assert all(math.isnan(getattr(last, name)) for name in
               ("total_energy", "sup_abs_u", "sup_abs_u_r", "lightcone_energy", "deficit"))
    assert tr.final_state.t == dt


def test_blown_up_runs_are_domain_errors_where_a_value_is_measured():
    st = runaway_state()
    dt = 0.5 * st.grid.dr
    with pytest.raises(DomainError, match="blow-up before the handoff time"):
        scattering_deficit(st, dt, 0.5, 1.0)
    with pytest.raises(DomainError, match="blow-up before the measurement time"):
        scattering_deficit(st, dt, 0.0, 1.0)


def test_blowup_report_of_a_trace_with_no_finite_row():
    trace = DiagnosticsTrace(rows=[TraceRow(0.1, *[math.nan] * 5, 1)], blew_up=True)
    rep = detect_blowup(trace)
    assert all(math.isnan(x) for x in
               (rep.t_star_estimate, rep.growth_factor, rep.profile_fit_error))


def test_sup_abs_u_r_differentiates_when_not_given_v_r():
    g = RadialGrid(6.0, 128)
    st = gaussian_state(g, FREE, amplitude=1.0)
    # u_r = (1 - 2 r^2) exp(-r^2) peaks at the axis, where it is v(0) = 1
    assert sup_abs_u_r(st) == sup_abs_u_r(st, v_r=even_d_r(st.v, g)) == 1.0


def test_integrate_rejects_bad_dt():
    st = gaussian_state(RadialGrid(10.0, 64), FREE)
    for dt in (0.0, -0.01, math.nan):
        with pytest.raises(ConfigError):
            integrate(st, dt, 1.0)


def test_integrate_rejects_bad_T():
    st = gaussian_state(RadialGrid(10.0, 64), FREE)
    for T in (-0.5, math.nan, math.inf):
        with pytest.raises(ConfigError):
            integrate(st, 0.01, T)


@pytest.mark.parametrize("dt,T", [(0.01, 1e-14), (1e13, 0.05)])
def test_integrate_steps_to_any_positive_T(dt, T):
    # T / dt below 1e-12 once rounded to zero steps: a trace ending at t = 0
    trace = integrate(gaussian_state(RadialGrid(10.0, 64), FREE), dt, T)
    assert [row.t for row in trace.rows] == [0.0, T]
    assert trace.final_state.t == T


def test_trace_rows_carry_no_instance_dict():
    trace = DiagnosticsTrace(rows=[TraceRow(t, 1.0, 0.1, 0.2, math.nan, math.nan, 0)
                                   for t in (0.0, 0.5)])
    assert not hasattr(trace.rows[-1], "__dict__")
    trace.rows[-1].blowup_flag = 1  # integrate flags the last row this way
    assert list(trace.column("blowup_flag")) == [0, 1]
    with pytest.raises(AttributeError):
        trace.rows[-1].stop_reason = "growth"


def test_blowup_verdict_uses_the_given_threshold():
    # integrate trips on the threshold it is given; detect_blowup measures the
    # growth either way but fits t* only on a trace the run flagged
    g = RadialGrid(4.0, 256)
    v0, vt0 = turok_spergel_collapse_data(1.0, g.nodes)
    st = FieldState(0.0, v0, vt0, g, WAVE_MAP)
    quiet = integrate(st, 0.5 * g.dr, 0.9, cadence=4, growth_threshold=1e300)
    rep = detect_blowup(quiet)
    assert not quiet.blew_up and rep.growth_factor > 2.0
    assert rep.t_star_estimate == math.inf
    tripped = integrate(st, 0.5 * g.dr, 0.9, cadence=4,
                        growth_threshold=rep.growth_factor / 2.0)
    assert tripped.blew_up and tripped.rows[-1].blowup_flag == 1
    assert len(tripped.rows) < len(quiet.rows)
    tripped_rep = detect_blowup(tripped)
    assert rep.growth_factor / 2.0 < tripped_rep.growth_factor <= rep.growth_factor
    assert math.isfinite(tripped_rep.t_star_estimate)


def test_deficit_column_tracks_free_twin():
    st = gaussian_state(RadialGrid(14.0, 512), SKYRME1, amplitude=0.2)
    tr = integrate(st, 0.5 * st.grid.dr, 2.0, cadence=32, track_deficit=True)
    deficits = tr.column("deficit")
    assert deficits[0] == 0.0
    assert deficits[-1] > 0.0
    assert np.all(np.isfinite(deficits))


@pytest.mark.parametrize("boundary", solver.BOUNDARIES)
@pytest.mark.parametrize("kind", [kind for kind in Kind if kind is not Kind.FREE_WAVE_5D])
def test_free_twin_leaves_the_nonlinear_run_unchanged(kind, boundary):
    # tracking the twin adds the deficit column and changes no other bit
    g = RadialGrid(6.0, 128)
    r = g.nodes
    model = ModelSpec(kind, alpha=1.1 if kind in ALPHA_KINDS else None)
    st = FieldState(0.0, 0.3 * np.exp(-(r**2)), -0.2 * r * np.exp(-(r**2)), g, model)
    runs = [integrate(st, 0.5 * g.dr, 8.0, cadence=16, boundary=boundary, lightcone_t0=4.0,
                      track_deficit=track) for track in (False, True)]
    for name in TraceRow.__slots__:
        if name != "deficit":
            a, b = (run.column(name) for run in runs)
            assert a.tobytes() == b.tobytes(), name
    assert np.isnan(runs[0].column("deficit")).all()
    assert (runs[1].column("deficit")[1:] > 0.0).all()
    (a, b) = (run.final_state for run in runs)
    assert (a.t, a.v.tobytes(), a.vt.tobytes()) == (b.t, b.v.tobytes(), b.vt.tobytes())
    assert runs[0].blew_up == runs[1].blew_up
    # and the twin is the free run on its own
    free = integrate(FieldState(0.0, st.v, st.vt, g, FREE), 0.5 * g.dr, 8.0, cadence=10**9,
                     boundary=boundary).final_state
    assert runs[1].rows[-1].deficit == _deficit_norm(g, a.v - free.v, a.vt - free.vt)


def test_deficit_column_ends_on_the_scattering_deficit():
    # a tracked run's last deficit is the handoff-at-0 scattering deficit
    st = gaussian_state(RadialGrid(14.0, 256), ADKINS_NAPPI, amplitude=0.2)
    dt = 0.5 * st.grid.dr
    tr = integrate(st, dt, 2.0, cadence=50, track_deficit=True)
    assert tr.rows[-1].deficit == scattering_deficit(st, dt, 0.0, 2.0).deficit


def test_deficit_column_disabled_is_nan():
    st = gaussian_state(RadialGrid(14.0, 256), SKYRME1, amplitude=0.2)
    tr = integrate(st, 0.5 * st.grid.dr, 0.5, cadence=16)
    assert np.all(np.isnan(tr.column("deficit")))


def test_scattering_deficit_vanishes_for_free_model():
    st = gaussian_state(RadialGrid(14.0, 256), FREE, amplitude=0.3)
    d = scattering_deficit(st, 0.5 * st.grid.dr, 1.0, 3.0)
    assert d.deficit == 0.0


def test_scattering_deficit_decreases_with_handoff_time():
    g = RadialGrid(16.0, 512)
    d0 = scattering_deficit(gaussian_state(g, SKYRME1, 0.3), 0.5 * g.dr, 0.0, 8.0)
    d1 = scattering_deficit(gaussian_state(g, SKYRME1, 0.3), 0.5 * g.dr, 4.0, 8.0)
    assert 0.0 < d1.deficit < d0.deficit


def test_scattering_deficit_validates_times():
    st = gaussian_state(RadialGrid(10.0, 64), FREE)
    with pytest.raises(ConfigError):
        scattering_deficit(st, 0.01, 3.0, 2.0)


def _two_run_scattering_deficit(init, dt, T1, T2):
    """Reference: run to T1, then step the nonlinear and the free flow apart and measure."""
    state = init.copy()
    if T1 > 0:
        state = integrate(state, dt, T1, cadence=10**9).final_state
    free = FieldState(state.t, state.v.copy(), state.vt.copy(), state.grid, FREE)
    a = integrate(state, dt, T2 - T1, cadence=10**9).final_state
    b = integrate(free, dt, T2 - T1, cadence=10**9).final_state
    return _deficit_norm(init.grid, a.v - b.v, a.vt - b.vt)


def test_scattering_deficit_equals_two_separate_runs(monkeypatch):
    # the tracked twin gives the two-run value bit for bit, and the same
    # n(T1) + 2 n(T2 - T1) member-steps (a free-wave state has no twin to step)
    calls = []

    def counted_stepper(init, dt, boundary, members):
        Y, step = stepper(init, dt, boundary, members)

        def counted_step():
            calls.append(members)
            step()

        return Y, counted_step

    stepper = solver._rk4_stepper
    monkeypatch.setattr(solver, "_rk4_stepper", counted_stepper)
    g = RadialGrid(12.0, 128)
    dt = 0.5 * g.dr
    T2 = 1.5

    def n(T):
        return math.ceil(T / dt - 1e-12) if T > 0 else 0

    models = [WAVE_MAP, SKYRME1, ADKINS_NAPPI, ModelSpec(Kind.SKYRME_APPROX, alpha=0.9),
              ModelSpec(Kind.ADKINS_NAPPI_APPROX), FREE]
    for model in models:
        st = gaussian_state(g, model, amplitude=0.2)
        for T1 in (0.0, 0.5):
            expected = _two_run_scattering_deficit(st, dt, T1, T2)
            calls.clear()
            got = scattering_deficit(st, dt, T1, T2)
            assert (got.T1, got.T2, got.deficit) == (T1, T2, expected), (model.kind, T1)
            twins = 1 if model is FREE else 2
            assert sum(calls) == n(T1) + twins * n(T2 - T1), (model.kind, T1)
            assert (expected == 0.0) == (model is FREE)


def test_chained_handoff_runs_equal_one_run():
    # criterion 8 steps each handoff state on from the last: at its dt,
    # 2.5/366 and 5/732 are one double and t sums the same increments
    g = RadialGrid(4.0, 512)
    dt = 0.5 * 28.0 / 2048
    for model in (SKYRME1, ADKINS_NAPPI):
        st = gaussian_state(g, model, amplitude=0.2)
        one = integrate(st, dt, 5.0, cadence=10**9)
        first = integrate(st, dt, 2.5, cadence=10**9)
        second = integrate(first.final_state, dt, 2.5, cadence=10**9)
        assert not (one.blew_up or first.blew_up or second.blew_up)
        a, b = one.final_state, second.final_state
        assert a.t == b.t
        assert a.v.tobytes() == b.v.tobytes()
        assert a.vt.tobytes() == b.vt.tobytes()


def test_sup_window_masks_outer_junk():
    g = RadialGrid(10.0, 128)
    v = np.zeros(g.N + 1)
    v[-5] = 7.0  # artefact near the boundary
    v[32] = 0.1
    st = FieldState(0.0, v, np.zeros(g.N + 1), g, FREE)
    assert sup_abs_u(st) > 1.0
    assert sup_abs_u(st, window=5.0) == pytest.approx(g.nodes[32] * 0.1)


@pytest.mark.parametrize("window", [0.0, -1.0, math.nan])
def test_integrate_refuses_a_sup_window_that_is_not_positive(window):
    st = gaussian_state(RadialGrid(10.0, 64), FREE, amplitude=0.1)
    with pytest.raises(ConfigError, match="sup_window must be positive"):
        integrate(st, 0.05, 0.1, sup_window=window)


@pytest.mark.parametrize("option,value", [
    ("lightcone_t0", math.nan), ("lightcone_t0", math.inf), ("lightcone_t0", -math.inf),
    ("growth_threshold", math.nan), ("growth_threshold", math.inf),
    ("growth_threshold", 1.0), ("growth_threshold", 0.5),
    ("cadence", -1), ("cadence", math.nan), ("boundary", "open"),
])
def test_integrate_refuses_a_bad_option_by_name(option, value):
    # T = 0 takes no step: integrate itself must refuse the value
    st = gaussian_state(RadialGrid(10.0, 64), FREE, amplitude=0.1)
    with pytest.raises(ConfigError, match=f"^{option} must "):
        integrate(st, 0.05, 0.0, **{option: value})


@pytest.mark.parametrize("option,value", [
    ("cadence", 2.5), ("cadence", "3"), ("cadence", np.float64(3.0)), ("dt", "0.1"),
    ("T", "1"), ("T", 1 + 0j), ("sup_window", "5"), ("growth_threshold", "100"),
    ("lightcone_t0", "1"),
])
def test_integrate_refuses_an_option_of_the_wrong_type_by_name(option, value):
    # a float cadence would sample rows only at the steps it divides, and a string
    # would meet the range rules as a bare TypeError
    st = gaussian_state(RadialGrid(10.0, 64), FREE, amplitude=0.1)
    options = dict(dt=0.05, T=0.0) | {option: value}
    with pytest.raises(ConfigError, match=f"^{option} must be (an integer|a real number), got"):
        integrate(st, **options)


def test_integrate_takes_a_numpy_integer_cadence():
    st = gaussian_state(RadialGrid(10.0, 64), FREE, amplitude=0.1)
    times = integrate(st, 0.05, 0.5, cadence=np.int64(3)).column("t")
    assert times.tolist() == integrate(st, 0.05, 0.5, cadence=3).column("t").tolist()
    assert len(times) == 5  # steps 0, 3, 6, 9 and the last, 10


@pytest.mark.parametrize("t0", [0.0, -1.0, 1e-9])
def test_a_cone_that_has_closed_reads_zero_not_nan(t0):
    # a cone with no whole cell holds no energy: 0.0, and NaN only when unset
    st = gaussian_state(RadialGrid(10.0, 64), FREE, amplitude=0.1)
    tr = integrate(st, 0.05, 0.1, cadence=1, lightcone_t0=t0)
    assert list(tr.column("lightcone_energy")) == [0.0, 0.0, 0.0]
    unset = integrate(st, 0.05, 0.1, cadence=1)
    assert np.isnan(unset.column("lightcone_energy")).all()


def test_sommerfeld_lets_pulse_leave_while_pin_reflects():
    g = RadialGrid(10.0, 512)
    mk = lambda: gaussian_state(g, FREE, amplitude=0.5, center=3.0)
    e0 = total_energy(mk())
    out = integrate(mk(), 0.5 * g.dr, 14.0, cadence=10**9, boundary="sommerfeld")
    kept = integrate(mk(), 0.5 * g.dr, 14.0, cadence=10**9, boundary="pin")
    assert total_energy(out.final_state) < 0.15 * e0
    assert total_energy(kept.final_state) > 0.9 * e0


def test_trace_reaches_final_time_with_ragged_cadence():
    st = gaussian_state(RadialGrid(10.0, 64), FREE, amplitude=0.1)
    tr = integrate(st, 0.013, 0.1, cadence=3)  # 8 steps, stride 3
    assert tr.rows[-1].t == pytest.approx(0.1, abs=1e-14)
    assert not tr.blew_up


STEP_GOLDEN = Path(__file__).parent / "golden" / "step_rk4.sha256"


def _collapse_step_digest(kind, boundary):
    """sha256 of the float64 bytes of t, v and vt after 50 RK4 steps of collapse data."""
    g = RadialGrid(8.0, 16384)
    v0, vt0 = turok_spergel_collapse_data(1.0, g.nodes)
    st = FieldState(0.0, v0, vt0, g, ModelSpec(kind, alpha=1.0 if kind in ALPHA_KINDS else None))
    for _ in range(50):
        st = step_rk4(st, 0.5 * g.dr, boundary)
    return hashlib.sha256(np.float64(st.t).tobytes() + st.v.tobytes() + st.vt.tobytes()).hexdigest()


def test_step_rk4_refuses_a_state_too_short_for_the_stencils():
    # refused where the state is made: 5 samples, which the stencils refuse too, and 7 in
    # both arrays or in vt alone, which used to reach them and fail in numpy broadcasting
    g = RadialGrid(3.0, 8)
    for v_len, vt_len in ((5, 5), (7, 7), (9, 7)):
        with pytest.raises(ContractError, match=rf"\(9,\); got \({v_len},\) and \({vt_len},\)"):
            step_rk4(FieldState(0.0, np.ones(v_len), np.zeros(vt_len), g, WAVE_MAP), 0.1 * g.dr)


def test_step_rk4_matches_golden_digests():
    # frozen before any rewrite of the stepper: every bit of 50 steps per model
    golden = dict(ln.split(" = ") for ln in STEP_GOLDEN.read_text().splitlines()
                  if ln and not ln.startswith("#"))
    written = golden.pop("numpy")
    assert written == np.__version__, (
        f"digests were written under numpy {written}, this is numpy {np.__version__}")
    want = {kind.value: _collapse_step_digest(kind, "pin") for kind in Kind}
    want.update({f"{kind.value} sommerfeld": _collapse_step_digest(kind, "sommerfeld")
                 for kind in Kind})
    assert golden == want


# the allocation peak of one warm step, in arrays of N + 1 doubles, of the
# stepper integrate runs: it owns its stage buffers, so what is left is the
# nonlinearity's temporaries and the N + 1 byte finiteness mask (0.125).  Small
# objects weigh 4x more at N = 4096 than at 16384, so each N has its own bounds,
# the larger of the peaks measured alone and under scripts/line_coverage.py's
# tracer, whose frames add up to 0.06 at N = 4096
STEP_PEAK_ARRAYS = {
    16384: {Kind.WAVE_MAP: 8.16, Kind.SKYRME: 16.16, Kind.ADKINS_NAPPI: 11.16,
            Kind.SKYRME_APPROX: 4.02, Kind.ADKINS_NAPPI_APPROX: 2.01, Kind.FREE_WAVE_5D: 0.15},
    4096: {Kind.WAVE_MAP: 8.25, Kind.SKYRME: 16.27, Kind.ADKINS_NAPPI: 11.25,
           Kind.SKYRME_APPROX: 4.05, Kind.ADKINS_NAPPI_APPROX: 2.04, Kind.FREE_WAVE_5D: 0.19},
}
# small Python objects move the peak by up to ~0.01 between processes at N = 16384,
# a few hundredths at 4096; the slack stays below one more temporary, of which the
# smallest is an N + 1 byte mask (0.125)
STEP_PEAK_SLACK = 0.05


@pytest.mark.parametrize("kind, N, boundary", [
    pytest.param(kind, N, boundary, id="-".join([kind.value] + [f"N{N}"] * (N != 16384)
                                                + [boundary] * (boundary != "pin")))
    for boundary in solver.BOUNDARIES for N in STEP_PEAK_ARRAYS for kind in Kind])
def test_step_rk4_allocation_peak_is_bounded(kind, N, boundary):
    # a warm step of the stepper that integrate runs; sommerfeld reads v_t's edge
    # slopes from the kernel's own products, so it keeps pin's bounds
    g = RadialGrid(8.0, N)
    v0, vt0 = turok_spergel_collapse_data(1.0, g.nodes)
    st = FieldState(0.0, v0, vt0, g, ModelSpec(kind, alpha=1.0 if kind in ALPHA_KINDS else None))
    _, step = solver._rk4_stepper(st, 0.5 * g.dr, boundary, 1)
    step()  # warm: whatever a first step caches (the stencil matrices) is not counted
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * (g.N + 1)) <= STEP_PEAK_ARRAYS[N][kind] + STEP_PEAK_SLACK
