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

from .config import initial_state, parse_config
from .errors import ConfigError
from .grid import radial_integral
from .spectral import SPHERE_AREA, RadialProfile, besov_norm

_SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"
_GATE_FILE = Path(__file__).parent / "data" / "smallness_gate.txt"

GATE_S = 1.5
GATE_P = 2
GATE_Q = 1
GATE_DIM = 5


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
    """Recorded gate constants as a dict; keys match the file's keys."""
    out = {}
    for ln in _GATE_FILE.read_text().splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln or "=" not in ln:
            continue
        key, _, value = ln.partition("=")
        key, value = key.strip(), value.strip()
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    for key in ("profile", "besov_value", "l2_value", "besov_s", "dim"):
        if key not in out:
            raise ConfigError(f"{_GATE_FILE}: gate file lacks {key}=")
    return out

