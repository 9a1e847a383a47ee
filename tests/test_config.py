"""Config parsing: defaults, validation, error accumulation, data builders."""
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from skyrmelab.config import (_RULES, DataSpec, ExpectSpec, RunConfig, initial_state,
                              load_scenario, parse_config, scenario_names)
from skyrmelab.errors import ConfigError, DomainError
from skyrmelab.exact import exact_free_wave_5d, GaussianProfile, turok_spergel_collapse_data
from skyrmelab.models import Kind
from skyrmelab import solver

GOLDEN = Path(__file__).parent / "golden"


def test_empty_config_gets_defaults():
    cfg = parse_config("")
    assert cfg.model == "wave-map" and cfg.alpha is None
    assert cfg.R == 20.0 and cfg.N == 1024
    assert cfg.cfl == 0.5 and cfg.dt is None
    assert cfg.boundary == "pin"
    assert cfg.data.family == "gaussian"
    assert cfg.dt_effective == pytest.approx(0.5 * 20.0 / 1024)


def test_echo_round_trips():
    cfg = parse_config("[run]\nmodel = skyrme\nalpha = 1.5\nT = 2\n"
                       "[expect]\nenergy_drift_max = 1e-5\n")
    again = parse_config(cfg.echo())
    assert again.model == "skyrme" and again.alpha == 1.5 and again.T == 2.0
    assert again.expect.energy_drift_max == 1e-5


def test_run_option_rules_are_the_solvers():
    # one rule per option: the parser and integrate read the same entry
    for key in ("dt", "T", "cadence", "boundary", "sup_window", "growth_threshold"):
        assert _RULES[("run", key)] is solver.OPTION_RULES[key]


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\n[run]\nT = 3  # trailing\n")
    assert cfg.T == 3.0


def test_single_range_error_names_the_key():
    with pytest.raises(ConfigError) as e:
        parse_config("[run]\ncfl = 2.0\n")
    assert "cfl" in str(e.value) and "line 2" in str(e.value)


def test_all_errors_reported_at_once():
    text = """[run]
model = skyrme
cfl = 2.0
N = 100
boundary = teleport
[data]
family = blob
"""
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    lines = [ln for ln, _ in e.value.errors]
    assert len(e.value.errors) == 5
    assert lines == sorted(lines)  # reported in file order


def test_unknown_key_and_section():
    with pytest.raises(ConfigError) as e:
        parse_config("[run]\nwarp = 9\n[plasma]\nx = 1\n")
    msgs = " | ".join(m for _, m in e.value.errors)
    assert "warp" in msgs and "plasma" in msgs


def test_malformed_line_reported():
    with pytest.raises(ConfigError) as e:
        parse_config("[run]\nthis is not a key value pair\n")
    assert "key = value" in str(e.value)


def test_dt_and_cfl_are_exclusive():
    with pytest.raises(ConfigError) as e:
        parse_config("[run]\ncfl = 0.4\ndt = 0.001\n")
    assert "either dt or cfl" in str(e.value)
    cfg = parse_config("[run]\ndt = 0.001\n")  # dt alone is fine
    assert cfg.dt_effective == 0.001


def test_alpha_requirements():
    for text, line in (("[run]\nmodel = skyrme\n", 2),  # needs alpha: the model's line
                       ("[run]\nmodel = wave-map\nalpha = 1.0\n", 3),  # takes none
                       ("[run]\nmodel = skyrme\nalpha = -1\n", 3)):
        with pytest.raises(ConfigError) as e:
            parse_config(text)
        assert [ln for ln, _ in e.value.errors] == [line]
    cfg = parse_config("[run]\nmodel = adkins-nappi\n")
    assert cfg.model_spec.kind is Kind.ADKINS_NAPPI


def test_file_family_needs_path():
    with pytest.raises(ConfigError):
        parse_config("[data]\nfamily = file\n")


def test_expect_section_parsed_and_validated():
    cfg = parse_config("[expect]\nblowup = true\ngrowth_min = 100\n")
    assert cfg.expect.blowup is True and cfg.expect.growth_min == 100.0
    with pytest.raises(ConfigError):
        parse_config("[expect]\ngrowth_min = -3\n")
    with pytest.raises(ConfigError):
        parse_config("[expect]\nblowup = maybe\n")


# a key that needs a neighbour to be read at all gets it on the line before
_CONTEXT = {"alpha": "model = skyrme\n", "snapshot_time": "family = turok-spergel\n"}


def _non_finite_cases():
    """NaN, inf and -inf for every float key of every section, so no new key can skip the rule."""
    for section, spec in (("run", RunConfig), ("data", DataSpec), ("expect", ExpectSpec)):
        for f in fields(spec):
            if f.type is float:
                for bad in ("nan", "inf", "-inf"):
                    yield pytest.param(section, f.name, bad, _CONTEXT.get(f.name, ""),
                                       id=f"{f.name}-{bad}")
    # width is read by both families that take it; the rule holds under each one named
    for family in ("gaussian", "free-wave"):
        yield pytest.param("data", "width", "nan", f"family = {family}\n",
                           id=f"{family}-width-nan")


@pytest.mark.parametrize("section,key,bad,context", _non_finite_cases())
def test_non_finite_values_are_rejected_on_their_line(section, key, bad, context):
    text = f"[{section}]\n{context}{key} = {bad}\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert [ln for ln, _ in e.value.errors] == [text.count("\n")]
    assert key in e.value.errors[0][1]


@pytest.mark.parametrize("name", scenario_names())
def test_echo_of_shipped_scenarios_is_frozen(name):
    assert load_scenario(name).echo() == (GOLDEN / f"{name}.echo").read_text()


def test_unknown_scenario_name_is_a_config_error():
    with pytest.raises(ConfigError, match="no shipped scenario named 'nope'; available: .*skyrme-small"):
        load_scenario("nope")


def test_gaussian_data_symmetrized_off_axis():
    cfg = parse_config("[run]\nN = 64\nR = 10\n"
                       "[data]\nfamily = gaussian\namplitude = 0.4\ncenter = 2.0\n")
    st = initial_state(cfg)
    # even extension: value at the axis has both image terms
    assert st.v[0] == pytest.approx(2 * 0.4 * math.exp(-4.0))
    assert np.all(st.vt == 0.0)


def test_turok_spergel_data_family():
    cfg = parse_config("[run]\nN = 64\nR = 10\n"
                       "[data]\nfamily = turok-spergel\nsnapshot_time = 2.0\n")
    st = initial_state(cfg)
    v, vt = turok_spergel_collapse_data(2.0, st.grid.nodes)
    assert np.array_equal(st.v, v) and np.array_equal(st.vt, vt)


def test_free_wave_data_family():
    cfg = parse_config("[run]\nmodel = free-wave-5d\nN = 64\nR = 10\n"
                       "[data]\nfamily = free-wave\namplitude = 1.0\nwidth = 1.0\ncenter = 3.0\n")
    st = initial_state(cfg)
    prof = GaussianProfile(amplitude=1.0, width=1.0, center=3.0)
    want = exact_free_wave_5d(prof, 0.0, st.grid.nodes)
    assert np.allclose(st.v, want, rtol=0, atol=1e-15)


def test_unhandled_data_family_is_a_domain_error():
    # parse_config admits only DATA_FAMILIES; a family set after parsing still gets a message
    cfg = parse_config("[run]\nN = 64\nR = 10\n")
    cfg = replace(cfg, data=replace(cfg.data, family="bogus"))
    with pytest.raises(DomainError, match="unhandled data family 'bogus'"):
        initial_state(cfg)


def test_defaults_are_runnable_dataclass():
    cfg = RunConfig()
    assert isinstance(cfg.data, DataSpec)
    assert cfg.grid.N == 1024
