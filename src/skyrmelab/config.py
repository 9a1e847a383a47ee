"""Run configuration: parsing, validation, and initial-data construction.

Config files are plain key = value lines grouped under [run] and [data]
sections, with # comments.  Parsing validates everything it can and raises a
single ConfigError carrying every problem with its line number, so a bad file
is fixed in one pass.  A minimal file (even empty) is valid: defaults fill in
a small wave-map run with Gaussian data.
"""
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, DomainError
from .exact import GaussianProfile, exact_free_wave_5d, turok_spergel_collapse_data
from .grid import RadialGrid
from .models import ALPHA_KINDS, Kind, ModelSpec
from .solver import FieldState

DATA_FAMILIES = ("gaussian", "turok-spergel", "free-wave", "file")
BOUNDARIES = ("pin", "sommerfeld")


@dataclass
class DataSpec:
    family: str = "gaussian"
    amplitude: float = 0.5
    width: float = 1.0
    center: float = 0.0
    snapshot_time: float = 1.0
    path: str = ""


@dataclass
class ExpectSpec:
    """Per-scenario acceptance checks evaluated after a run.

    All fields optional; unset checks are skipped.  blowup expects the
    run's verdict (trace.blew_up), the rest bound measured diagnostics.
    """
    energy_drift_max: float = None
    blowup: bool = None
    growth_min: float = None
    growth_max: float = None
    profile_fit_max: float = None
    sup_u_max: float = None
    t_star: float = None
    t_star_tol: float = 0.05

    def items(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and f.name != "t_star_tol":
                yield f.name, value


@dataclass
class RunConfig:
    name: str = "run"
    model: str = "wave-map"
    alpha: float = None
    R: float = 20.0
    N: int = 1024
    cfl: float = 0.5
    dt: float = None
    T: float = 1.0
    boundary: str = "pin"
    cadence: int = 0
    lightcone_t0: float = None
    track_deficit: bool = False
    sup_window: float = None
    growth_threshold: float = 100.0
    outdir: str = ""
    data: DataSpec = field(default_factory=DataSpec)
    expect: ExpectSpec = field(default_factory=ExpectSpec)

    @property
    def model_spec(self):
        return ModelSpec(Kind(self.model), alpha=self.alpha)

    @property
    def grid(self):
        return RadialGrid(self.R, self.N)

    @property
    def dt_effective(self):
        return self.dt if self.dt is not None else self.cfl * self.grid.dr

    def echo(self):
        out = ["[run]"]
        for f in fields(self):
            if f.name in ("data", "expect", "name"):
                continue
            value = getattr(self, f.name)
            if value is not None and value != "":
                out.append(f"{f.name} = {value}")
        out.append("[data]")
        out.append(f"family = {self.data.family}")
        for key in ("amplitude", "width", "center", "snapshot_time", "path"):
            value = getattr(self.data, key)
            if value != "" and not (key == "snapshot_time" and self.data.family != "turok-spergel"):
                out.append(f"{key} = {value}")
        expected = list(self.expect.items())
        if expected:
            out.append("[expect]")
            for key, value in expected:
                out.append(f"{key} = {value}")
            if self.expect.t_star is not None:
                out.append(f"t_star_tol = {self.expect.t_star_tol}")
        return "\n".join(out) + "\n"


def _parse_bool(s):
    low = s.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(s)


def _parsers(spec):
    """key -> parser for each field of a config dataclass; the nested sections are not keys."""
    return {f.name: _parse_bool if f.type is bool else f.type
            for f in fields(spec) if f.name not in ("data", "expect")}


_PARSERS = {"run": _parsers(RunConfig), "data": _parsers(DataSpec),
            "expect": _parsers(ExpectSpec)}


def parse_config(text, name=None):
    """Parse and validate; raises ConfigError listing every problem found."""
    cfg = RunConfig()
    if name:
        cfg.name = name
    problems = []
    section = "run"
    key_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("run", "data", "expect"):
                problems.append((lineno, f"unknown section [{section}]"))
                section = None
            continue
        if "=" not in line:
            problems.append((lineno, f"expected key = value, got {line!r}"))
            continue
        if section is None:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        parsers = _PARSERS[section]
        if key not in parsers:
            problems.append((lineno, f"unknown key {key!r} in section [{section}]"))
            continue
        try:
            parsed = parsers[key](value)
        except ValueError:
            problems.append((lineno, f"cannot parse {key} = {value!r}"))
            continue
        key_lines[(section, key)] = lineno
        setattr(cfg if section == "run" else getattr(cfg, section), key, parsed)

    def where(section, key):
        return key_lines.get((section, key))

    try:
        Kind(cfg.model)
    except ValueError:
        problems.append((where("run", "model"), f"unknown model {cfg.model!r}"))
    else:
        if Kind(cfg.model) in ALPHA_KINDS:
            if cfg.alpha is None:
                problems.append((where("run", "model"), f"model {cfg.model!r} requires alpha"))
            elif not cfg.alpha > 0:
                problems.append((where("run", "alpha"), "alpha must be positive"))
        elif cfg.alpha is not None:
            problems.append((where("run", "alpha"), f"model {cfg.model!r} takes no alpha"))
    if not cfg.R > 0:
        problems.append((where("run", "R"), "R must be positive"))
    if cfg.N < 8 or cfg.N % 8 != 0:
        problems.append((where("run", "N"), "N must be a multiple of 8, at least 8"))
    if not 0.0 < cfg.cfl <= 0.9:
        problems.append((where("run", "cfl"), f"cfl must lie in (0, 0.9], got {cfg.cfl}"))
    if cfg.dt is not None and not cfg.dt > 0:
        problems.append((where("run", "dt"), "dt must be positive"))
    if cfg.dt is not None and ("run", "cfl") in key_lines:
        problems.append((where("run", "dt"), "give either dt or cfl, not both"))
    if not cfg.T >= 0:
        problems.append((where("run", "T"), "T must be >= 0"))
    for key in ("R", "dt", "T"):
        if getattr(cfg, key) == math.inf:  # NaN and -inf fail the checks above
            problems.append((where("run", key), f"{key} must be finite"))
    if cfg.boundary not in BOUNDARIES:
        problems.append((where("run", "boundary"),
                         f"boundary must be one of {BOUNDARIES}, got {cfg.boundary!r}"))
    if not cfg.cadence >= 0:
        problems.append((where("run", "cadence"), "cadence must be >= 0"))
    if cfg.lightcone_t0 is not None and not math.isfinite(cfg.lightcone_t0):
        problems.append((where("run", "lightcone_t0"), "lightcone_t0 must be finite"))
    if cfg.sup_window is not None and not cfg.sup_window > 0:
        problems.append((where("run", "sup_window"), "sup_window must be positive"))
    if not cfg.growth_threshold > 1:
        problems.append((where("run", "growth_threshold"), "growth_threshold must exceed 1"))
    if cfg.data.family not in DATA_FAMILIES:
        problems.append((where("data", "family"),
                         f"family must be one of {DATA_FAMILIES}, got {cfg.data.family!r}"))
    elif cfg.data.family == "gaussian":
        if not cfg.data.width > 0:
            problems.append((where("data", "width"), "width must be positive"))
    elif cfg.data.family == "turok-spergel":
        if not cfg.data.snapshot_time > 0:
            problems.append((where("data", "snapshot_time"), "snapshot_time must be positive"))
    elif cfg.data.family == "free-wave":
        if not cfg.data.width > 0:
            problems.append((where("data", "width"), "width must be positive"))
    elif cfg.data.family == "file" and not cfg.data.path:
        problems.append((where("data", "family"), "family 'file' requires a path"))
    for key in ("energy_drift_max", "growth_min", "growth_max",
                "profile_fit_max", "sup_u_max"):
        bound = getattr(cfg.expect, key)
        if bound is not None and not bound > 0:
            problems.append((where("expect", key), f"{key} must be positive"))
    if not cfg.expect.t_star_tol > 0:
        problems.append((where("expect", "t_star_tol"), "t_star_tol must be positive"))
    if problems:
        raise ConfigError(sorted(problems, key=lambda p: (p[0] is None, p[0] or 0)))
    return cfg


def initial_state(cfg):
    """FieldState at t=0 for the configured data family."""
    g = cfg.grid
    r = g.nodes
    d = cfg.data
    if d.family == "gaussian":
        v0 = d.amplitude * np.exp(-(((r - d.center) / d.width) ** 2))
        if d.center != 0.0:
            # keep the profile even at the axis
            v0 = v0 + d.amplitude * np.exp(-(((r + d.center) / d.width) ** 2))
        vt0 = np.zeros_like(r)
    elif d.family == "turok-spergel":
        v0, vt0 = turok_spergel_collapse_data(d.snapshot_time, r)
    elif d.family == "free-wave":
        prof = GaussianProfile(amplitude=d.amplitude, width=d.width, center=d.center)
        v0 = np.asarray(exact_free_wave_5d(prof, 0.0, r))
        vt0 = np.asarray(exact_free_wave_5d(prof, 0.0, r, t_order=1))
    elif d.family == "file":
        from .runio import read_snapshot

        state = read_snapshot(d.path)
        if state.grid.N != cfg.N or abs(state.grid.R - cfg.R) > 1e-12 * cfg.R:
            raise ConfigError(f"snapshot grid (R={state.grid.R}, N={state.grid.N}) "
                              f"does not match the configured grid (R={cfg.R}, N={cfg.N})")
        return FieldState(state.t, state.v, state.vt, cfg.grid, cfg.model_spec)
    else:
        raise DomainError(f"unhandled data family {d.family!r}")
    return FieldState(0.0, v0, vt0, g, cfg.model_spec)
