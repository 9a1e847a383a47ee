"""On-disk artifacts: diagnostics traces (CSV) and field snapshots (text).

Everything is written with repr-faithful %.17g formatting so a written file
reproduces the in-memory doubles bit for bit when read back.  The output root
comes from SKYRMELAB_OUT when set, else the working directory; run_scenario
nests per-run directories under it.
"""
import math
import operator
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import initial_state, parse_finite
from .errors import ConfigError
from .exact import GaussianProfile, exact_free_wave_5d
from .grid import RadialGrid, radial_integral
from .models import Kind, ModelSpec
from .solver import FieldState, detect_blowup, integrate

TRACE_COLUMNS = ("t", "total_energy", "sup_abs_u", "sup_abs_u_r",
                 "lightcone_energy", "deficit", "blowup_flag")
_FMT = "%.17g"
_TRACE_ROW = ",".join([_FMT] * (len(TRACE_COLUMNS) - 1) + ["%d"]) + "\n"
_trace_cells = operator.attrgetter(*TRACE_COLUMNS)


def output_root():
    return Path(os.environ.get("SKYRMELAB_OUT") or os.getcwd())


def _fmt(x):
    return _FMT % x


def write_trace(path, trace):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(_TRACE_ROW % _trace_cells(row) for row in trace.rows)
    return path


def read_trace(path):
    """Columns as a dict of arrays; validates the header."""
    lines = Path(path).read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise ConfigError(f"{path}: not a trace file (bad header)")
    body = lines[1:]
    if not body or any(ln.count(",") != len(TRACE_COLUMNS) - 1 for ln in body):
        raise ConfigError(f"{path}: malformed trace rows")
    try:
        table = np.array(",".join(body).split(","), dtype=float).reshape(len(body), -1)
    except ValueError as e:
        raise ConfigError(f"{path}: non-numeric trace cell ({e})") from e
    return {name: table[:, j] for j, name in enumerate(TRACE_COLUMNS)}


def write_snapshot(path, state):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    g = state.grid
    model = state.model
    alpha = "" if model.alpha is None else f" alpha={_fmt(model.alpha)}"
    with open(path, "w") as fh:  # row by row: no copy of the whole file in memory
        fh.write(f"# t={_fmt(state.t)}\n# model={model.kind.value}{alpha}\n# N={g.N}  R={_fmt(g.R)}\n")
        fh.writelines("%.17g %.17g %.17g\n" % row
                      for row in zip(g.nodes.tolist(), state.v.tolist(), state.vt.tolist()))
    return path


def read_snapshot(path):
    """Inverse of write_snapshot; OSError propagates, bad content is ConfigError."""
    path = Path(path)
    lines = path.read_text().splitlines()
    meta = {}
    body = []
    for ln in lines:
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            for tok in ln[1:].split():
                if "=" in tok:
                    k, _, val = tok.partition("=")
                    meta[k] = val
        else:
            body.append(ln)
    for key in ("t", "model", "N", "R"):
        if key not in meta:
            raise ConfigError(f"{path}: snapshot header lacks {key}=")
    try:
        t, N, R = parse_finite(meta["t"]), int(meta["N"]), parse_finite(meta["R"])
        alpha = parse_finite(meta["alpha"]) if "alpha" in meta else None
        model = ModelSpec(Kind(meta["model"]), alpha=alpha)
    except ValueError as e:  # DomainError from ModelSpec included
        raise ConfigError(f"{path}: bad snapshot header value ({e})") from e
    if len(body) != N + 1:
        raise ConfigError(f"{path}: expected {N + 1} rows, found {len(body)}")
    cells = " ".join(body).split()
    if len(cells) != 3 * len(body):
        raise ConfigError(f"{path}: snapshot rows must be 'r v vt'")
    try:
        table = np.array(cells, dtype=float).reshape(len(body), 3)
    except ValueError as e:
        raise ConfigError(f"{path}: non-numeric snapshot cell ({e})") from e
    grid = RadialGrid(R, N)
    if not np.allclose(table[:, 0], grid.nodes, rtol=0.0, atol=1e-12 * R):
        raise ConfigError(f"{path}: radius column does not match a uniform grid on (0, {R}]")
    return FieldState(t, table[:, 1].copy(), table[:, 2].copy(), grid, model)


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: str

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name}: measured {self.value:.6g}  (required {self.tolerance})"


@dataclass
class ScenarioReport:
    scenario: str
    checks: list
    runtime_s: float
    outdir: Path = None
    trace_path: Path = None
    snapshot_path: Path = None
    blew_up: bool = False
    blowup: object = None
    final_sup_u: float = math.nan
    final_energy: float = math.nan
    energy_drift: float = math.nan
    final_deficit: float = math.nan
    error_vs_exact: float = math.nan

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def table(self):
        return "\n".join(c.line() for c in self.checks)


def _error_vs_exact(cfg, state):
    """L2(r^4 dr) distance to the exact free-wave solution; nan if unavailable."""
    if cfg.model != "free-wave-5d" or cfg.data.family != "free-wave":
        return math.nan
    prof = GaussianProfile(amplitude=cfg.data.amplitude, width=cfg.data.width,
                           center=cfg.data.center)
    exact = np.asarray(exact_free_wave_5d(prof, state.t, state.grid.nodes))
    diff = state.v - exact
    return float(np.sqrt(radial_integral(diff * diff, state.grid, weight_power=4)))


def _finite_le(value, bound):
    return math.isfinite(value) and value <= bound


# [expect] key -> (check name, measured quantity, comparison, tolerance text);
# t_star, which also reads t_star_tol, is the one key _evaluate_checks writes out
_EXPECT_CHECKS = {
    "energy_drift_max": ("energy_drift", "energy_drift", operator.le, "<= {:g}"),
    "blowup": ("blowup", "blew_up", operator.eq, "detector == {}"),
    "growth_min": ("growth_min", "growth_factor", operator.ge, ">= {:g}"),
    "growth_max": ("growth_max", "growth_factor", operator.le, "<= {:g}"),
    "profile_fit_max": ("profile_fit", "profile_fit_error", _finite_le, "<= {:g}"),
    "sup_u_max": ("sup_u", "peak_sup_u", operator.le, "<= {:g}"),
}


def _evaluate_checks(cfg, measured):
    """One check per [expect] key, in section order; `completed` when there is none."""
    checks = []
    for key, bound in cfg.expect.items():
        if key == "t_star":
            value, tol = measured["t_star_estimate"], cfg.expect.t_star_tol
            checks.append(CheckResult("t_star", math.isfinite(value) and abs(value - bound) <= tol,
                                      value, f"within {tol:g} of {bound:g}"))
        else:
            name, quantity, holds, text = _EXPECT_CHECKS[key]
            value = measured[quantity]
            checks.append(CheckResult(name, holds(value, bound), value, text.format(bound)))
    return checks or [CheckResult("completed", not measured["blew_up"], measured["final_sup_u"],
                                  "finite run to T")]


def run_scenario(cfg, outdir=None):
    """Integrate cfg and persist trace.csv plus the final snapshot.

    T=0 still produces one trace row and one snapshot (the initial data),
    so a scenario file is inspectable without committing to a full run.
    Checks from the config's [expect] section become the report's criteria.
    """
    started = time.perf_counter()
    state = initial_state(cfg)
    trace = integrate(
        state, cfg.dt_effective, cfg.T,
        cadence=cfg.cadence,
        lightcone_t0=cfg.lightcone_t0,
        track_deficit=cfg.track_deficit,
        boundary=cfg.boundary,
        sup_window=cfg.sup_window,
        growth_threshold=cfg.growth_threshold,
    )
    if outdir is None:
        outdir = output_root() / (cfg.outdir or cfg.name)
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        trace_path = write_trace(outdir / "trace.csv", trace)
        snapshot_path = write_snapshot(outdir / "final.snap", trace.final_state)
        (outdir / "config.echo").write_text(cfg.echo())
    except OSError as e:
        raise IOError(f"cannot write run artifacts under {outdir}: {e}") from e
    verdict = detect_blowup(trace)
    # integrate samples the initial state, so every column has a row
    sup, energy, deficit = map(trace.column, ("sup_abs_u", "total_energy", "deficit"))
    finite = energy[np.isfinite(energy)]
    drift = math.nan
    if len(finite) >= 2 and abs(finite[0]) > 0:
        drift = float(np.max(np.abs(finite - finite[0])) / abs(finite[0]))
    measured = {"energy_drift": drift, "blew_up": float(trace.blew_up),
                "growth_factor": verdict.growth_factor,
                "profile_fit_error": verdict.profile_fit_error,
                "peak_sup_u": float(np.fmax.reduce(sup)),  # nanmax without its all-NaN warning
                "t_star_estimate": verdict.t_star_estimate, "final_sup_u": float(sup[-1])}
    return ScenarioReport(
        scenario=cfg.name,
        checks=_evaluate_checks(cfg, measured),
        runtime_s=time.perf_counter() - started,
        outdir=outdir,
        trace_path=trace_path,
        snapshot_path=snapshot_path,
        blew_up=trace.blew_up,
        blowup=verdict,
        final_sup_u=measured["final_sup_u"],
        final_energy=float(energy[-1]),
        energy_drift=drift,
        final_deficit=float(deficit[-1]),
        error_vs_exact=_error_vs_exact(cfg, trace.final_state),
    )
