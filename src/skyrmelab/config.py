"""Run configuration: parsing, validation, and initial-data construction.

Config files are plain key = value lines grouped under [run], [data] and
[expect] sections, with # comments.  Every number must be finite.  Parsing
validates everything it can and raises a single ConfigError carrying every
problem with its line number, so a bad file is fixed in one pass.  A minimal
file (even empty) is valid: defaults fill in a small wave-map run with
Gaussian data.  The shipped scenarios are such files under data/scenarios/,
read by name.
"""
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .exact import GaussianProfile, exact_free_wave_5d, turok_spergel_collapse_data
from .grid import RadialGrid
from .models import Kind, ModelSpec
from .solver import CFL_ENVELOPE, GROWTH_THRESHOLD, OPTION_RULES, FieldState

DATA_FAMILIES = ("gaussian", "turok-spergel", "free-wave", "file")
_SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"


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
    growth_threshold: float = GROWTH_THRESHOLD
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
        """The config as parser input: every key with a value but the run's name,
        snapshot_time unless the family is turok-spergel, and t_star_tol unless t_star is set."""
        hidden = {"name"}
        if self.data.family != "turok-spergel":
            hidden.add("snapshot_time")
        if self.expect.t_star is None:
            hidden.add("t_star_tol")
        out = []
        for section, spec in (("run", self), ("data", self.data), ("expect", self.expect)):
            lines = [f"{key} = {value}" for key in _PARSERS[section] if key not in hidden
                     and (value := getattr(spec, key)) is not None and value != ""]
            if lines:
                out += [f"[{section}]", *lines]
        return "\n".join(out) + "\n"


def _parse_bool(s):
    low = s.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(s)


def parse_finite(s):
    """float(s), refusing NaN and +-inf: every number read from a file must be finite."""
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {s!r}")
    return value


_NOUNS = {parse_finite: "a finite number", int: "an integer", _parse_bool: "a boolean"}


def _parsers(spec):
    """key -> parser for each field of a config dataclass; the nested sections are not keys."""
    by_type = {float: parse_finite, bool: _parse_bool}
    return {f.name: by_type.get(f.type, f.type)
            for f in fields(spec) if f.name not in ("data", "expect")}


_PARSERS = {"run": _parsers(RunConfig), "data": _parsers(DataSpec),
            "expect": _parsers(ExpectSpec)}

_POSITIVE = (lambda x: x > 0, "must be positive")
_MODELS = tuple(kind.value for kind in Kind)

# (section, key) -> (test, what the test demands) for each key whose value
# alone can be out of range; alpha's rule is ModelSpec's, the run options' are solver's
_RULES = {
    ("run", "model"): (_MODELS.__contains__, f"must be one of {_MODELS}"),
    ("run", "R"): _POSITIVE,
    ("run", "N"): (lambda n: n >= 8 and n % 8 == 0, "must be a multiple of 8, at least 8"),
    ("run", "cfl"): (lambda x: 0.0 < x <= CFL_ENVELOPE, f"must lie in (0, {CFL_ENVELOPE}]"),
    **{("run", key): rule for key, rule in OPTION_RULES.items()},
    ("data", "family"): (DATA_FAMILIES.__contains__, f"must be one of {DATA_FAMILIES}"),
    ("data", "width"): _POSITIVE,
    ("data", "snapshot_time"): _POSITIVE,
    **{("expect", key): _POSITIVE for key in ("energy_drift_max", "growth_min", "growth_max",
                                              "profile_fit_max", "sup_u_max", "t_star_tol")},
}


def parse_config(text, name=None):
    """Parse and validate; raises ConfigError listing every problem found.

    A value that does not parse or breaks its key's rule is one problem on
    its own line and is not applied, so the checks that span keys (the
    model's alpha, dt against cfl, a file family's path) see only accepted
    values and do not report the same line again.
    """
    cfg = RunConfig()
    if name:
        cfg.name = name
    problems = []
    section = "run"
    key_lines = {}
    rejected = set()
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
        parser = _PARSERS[section].get(key)
        if parser is None:
            problems.append((lineno, f"unknown key {key!r} in section [{section}]"))
            continue
        try:
            parsed = parser(value)
        except ValueError:
            problems.append((lineno, f"{key} must be {_NOUNS[parser]}, got {value!r}"))
            rejected.add((section, key))
            continue
        test, demand = _RULES.get((section, key), (None, None))
        if test and not test(parsed):
            problems.append((lineno, f"{key} {demand}, got {value!r}"))
            rejected.add((section, key))
            continue
        key_lines[(section, key)] = lineno
        setattr(cfg if section == "run" else getattr(cfg, section), key, parsed)

    if not rejected & {("run", "model"), ("run", "alpha")}:
        try:
            cfg.model_spec
        except DomainError as e:
            key = "model" if cfg.alpha is None else "alpha"
            problems.append((key_lines.get(("run", key)), str(e)))
    if ("run", "dt") in key_lines and ("run", "cfl") in key_lines:
        problems.append((key_lines[("run", "dt")], "give either dt or cfl, not both"))
    if cfg.data.family == "file" and not cfg.data.path:
        problems.append((key_lines.get(("data", "family")), "family 'file' requires a path"))
    if problems:
        raise ConfigError(sorted(problems, key=lambda p: (p[0] is None, p[0] or 0)))
    return cfg


def scenario_names():
    return tuple(sorted(p.stem for p in _SCENARIO_DIR.glob("*.cfg")))


def scenario_path(name):
    path = _SCENARIO_DIR / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"no shipped scenario named {name!r}; "
                          f"available: {', '.join(scenario_names())}")
    return path


def load_scenario(name):
    path = scenario_path(name)
    return parse_config(path.read_text(), name=name)


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
