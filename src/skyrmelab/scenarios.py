"""Shipped scenario configs and the small-data admission gate.

Scenarios live as plain .cfg files under data/scenarios/ so they can be run
from the CLI, inspected, and copied as starting points.  The smallness gate
is a recorded constant: the dyadic Besov size (s=3/2, p=2, q=1 over R^5,
together with the L^2 size) of the largest initial data the acceptance suite
treats as globally regular.  Data measuring above the gate are outside the
certified small-data regime and get no global-existence expectations.
"""
import math
from pathlib import Path

from .config import initial_state, parse_config, parse_finite
from .errors import ConfigError
from .grid import radial_integral
from .spectral import SPHERE_AREA, RadialProfile, besov_norm

_SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"
_GATE_FILE = Path(__file__).parent / "data" / "smallness_gate.txt"

GATE_S = 1.5
GATE_P = 2
GATE_Q = 1
GATE_DIM = 5
# the gate file's record of what data_size measures with
_GATE_MEASURE = {"dim": GATE_DIM, "besov_s": GATE_S, "besov_p": GATE_P, "besov_q": GATE_Q}


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


def data_size(cfg):
    """(besov, truncation, l2) of the configured initial position data over R^5.

    Slow decay at the grid edge only biases the measurement low, so the
    gate comparison stays one-sided.
    """
    state = initial_state(cfg)
    profile = RadialProfile(state.v, state.grid, dim=GATE_DIM)
    result = besov_norm(profile, GATE_S, GATE_P, GATE_Q)
    l2 = math.sqrt(SPHERE_AREA[GATE_DIM]
                   * radial_integral(state.v**2, state.grid, weight_power=4))
    return float(result.value), float(result.truncation_bound), l2


def smallness_gate():
    """Recorded gate constants, keyed as in the file: profile as text, the rest finite floats."""
    out = {}
    for ln in _GATE_FILE.read_text().splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln or "=" not in ln:
            continue
        key, _, value = ln.partition("=")
        key, value = key.strip(), value.strip()
        try:
            out[key] = value if key == "profile" else parse_finite(value)
        except ValueError:
            raise ConfigError(f"{_GATE_FILE}: {key} must be a finite number, got {value!r}") from None
    for key in ("profile", "besov_value", "l2_value", *_GATE_MEASURE):
        if key not in out:
            raise ConfigError(f"{_GATE_FILE}: gate file lacks {key}=")
    for key, want in _GATE_MEASURE.items():
        if out[key] != want:
            raise ConfigError(f"{_GATE_FILE}: {key} = {out[key]}, but data_size measures "
                              f"with {key} = {want}")
    return out

