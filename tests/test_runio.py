"""Artifact I/O: trace CSV schema, snapshot round trips, scenario reports."""
import math
from pathlib import Path

import numpy as np
import pytest

from skyrmelab import runio
from skyrmelab.config import parse_config
from skyrmelab.errors import ConfigError
from skyrmelab.grid import RadialGrid
from skyrmelab.models import Kind, ModelSpec
from skyrmelab.runio import (TRACE_COLUMNS, output_root, read_snapshot, read_trace,
                             run_scenario, write_snapshot)
from skyrmelab.solver import BlowupReport, DiagnosticsTrace, FieldState, TraceRow

SMALL = """[run]
model = wave-map
R = 10
N = 64
T = 0.5
name = tiny
[data]
family = gaussian
amplitude = 0.3
"""


def small_report(tmp_path, extra=""):
    cfg = parse_config(SMALL + extra, name="tiny")
    return cfg, run_scenario(cfg, outdir=tmp_path / "tiny")


def test_output_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("SKYRMELAB_OUT", str(tmp_path))
    assert output_root() == tmp_path
    monkeypatch.delenv("SKYRMELAB_OUT")
    assert output_root() == Path.cwd()


def test_trace_schema_and_roundtrip(tmp_path):
    cfg, rep = small_report(tmp_path)
    text = Path(rep.trace_path).read_text()
    assert text.splitlines()[0] == ",".join(TRACE_COLUMNS)
    cols = read_trace(rep.trace_path)
    assert set(cols) == set(TRACE_COLUMNS)
    assert cols["t"][0] == 0.0 and cols["t"][-1] == pytest.approx(0.5)
    assert np.all(cols["blowup_flag"] == 0)
    # deficit disabled -> nan column
    assert np.all(np.isnan(cols["deficit"]))


def test_trace_rejects_foreign_header(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_trace(bad)


def test_trace_rejects_non_numeric_cell(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text(",".join(TRACE_COLUMNS) + "\n0,1,2,3,nan,nan,0\n0.5,1,two,3,nan,nan,0\n")
    with pytest.raises(ConfigError):
        read_trace(bad)


def test_byte_identical_reruns(tmp_path):
    cfg = parse_config(SMALL, name="tiny")
    r1 = run_scenario(cfg, outdir=tmp_path / "a")
    r2 = run_scenario(cfg, outdir=tmp_path / "b")
    assert Path(r1.trace_path).read_bytes() == Path(r2.trace_path).read_bytes()
    assert Path(r1.snapshot_path).read_bytes() == Path(r2.snapshot_path).read_bytes()


def test_snapshot_round_trip_bitstable(tmp_path):
    g = RadialGrid(7.0, 48)
    rng = np.random.default_rng(3)
    st = FieldState(1.25, rng.normal(size=g.N + 1), rng.normal(size=g.N + 1),
                    g, ModelSpec(Kind.SKYRME, alpha=1.5))
    p1 = write_snapshot(tmp_path / "one.snap", st)
    back = read_snapshot(p1)
    assert back.t == st.t
    assert np.array_equal(back.v, st.v) and np.array_equal(back.vt, st.vt)
    assert back.model == st.model and back.grid.N == g.N and back.grid.R == g.R
    p2 = write_snapshot(tmp_path / "two.snap", back)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_header_validation(tmp_path):
    p = tmp_path / "bad.snap"
    p.write_text("# t=0\n# model=wave-map\n0 0 0\n")
    with pytest.raises(ConfigError):
        read_snapshot(p)  # missing N/R header
    with pytest.raises(FileNotFoundError):
        read_snapshot(tmp_path / "absent.snap")


def test_snapshot_row_count_enforced(tmp_path):
    g = RadialGrid(4.0, 8)
    st = FieldState(0.0, np.zeros(9), np.zeros(9), g, ModelSpec(Kind.WAVE_MAP))
    p = write_snapshot(tmp_path / "s.snap", st)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ConfigError):
        read_snapshot(p)


def test_zero_horizon_run_writes_initial_state(tmp_path):
    cfg = parse_config(SMALL.replace("T = 0.5", "T = 0"), name="tiny")
    rep = run_scenario(cfg, outdir=tmp_path / "t0")
    cols = read_trace(rep.trace_path)
    assert len(cols["t"]) == 1 and cols["t"][0] == 0.0
    snap = read_snapshot(rep.snapshot_path)
    assert snap.t == 0.0


def test_expect_checks_fail_loudly(tmp_path):
    cfg, rep = small_report(tmp_path, "[expect]\nsup_u_max = 1e-9\n")
    assert not rep.passed
    names = [c.name for c in rep.checks]
    assert "sup_u" in names
    assert all(math.isfinite(c.value) for c in rep.checks)


def test_report_carries_measurements(tmp_path):
    cfg, rep = small_report(tmp_path)
    assert rep.scenario == "tiny"
    assert math.isfinite(rep.final_energy) and math.isfinite(rep.final_sup_u)
    assert rep.energy_drift >= 0.0
    assert rep.runtime_s > 0.0
    assert (rep.outdir / "config.echo").is_file()


def test_file_family_resumes_snapshot(tmp_path):
    cfg, rep = small_report(tmp_path)
    resume_text = f"""[run]
model = wave-map
R = 10
N = 64
T = 0.25
name = resumed
[data]
family = file
path = {rep.snapshot_path}
"""
    cfg2 = parse_config(resume_text, name="resumed")
    rep2 = run_scenario(cfg2, outdir=tmp_path / "resumed")
    cols = read_trace(rep2.trace_path)
    assert cols["t"][0] == pytest.approx(0.5)  # clock carries over
    assert cols["t"][-1] == pytest.approx(0.75)


def test_file_family_rejects_grid_mismatch(tmp_path):
    cfg, rep = small_report(tmp_path)
    bad = SMALL.replace("N = 64", "N = 128") + f"[data]\nfamily = file\npath = {rep.snapshot_path}\n"
    # second [data] section overrides the first: family becomes file
    cfg2 = parse_config(bad, name="clash")
    from skyrmelab.config import initial_state
    with pytest.raises(ConfigError):
        initial_state(cfg2)


def test_blowup_verdict_uses_the_run_threshold(tmp_path):
    # the collapse grows sup|u_r| about 200x by T; under a threshold of 1000
    # neither the run nor the reported verdict calls that a blow-up
    text = """[run]
name = collapse
model = wave-map
R = 4
N = 2048
T = 0.995
sup_window = 3.0
growth_threshold = 1000
[data]
family = turok-spergel
snapshot_time = 1.0
"""
    rep = run_scenario(parse_config(text, name="collapse"), outdir=tmp_path / "collapse")
    assert 100.0 < rep.blowup.growth_factor < 1000.0
    assert not rep.blew_up
    assert rep.blowup.t_star_estimate == math.inf


INF, NAN = math.inf, math.nan


def fake_report(monkeypatch, tmp_path, expect, sup=(0.5, 0.5), energy=(1.0, 1.0), blew_up=False,
                growth=2.0, fit=0.01, t_star=1.0):
    """run_scenario's report when the run and its verdict measure the given values."""
    g = RadialGrid(4.0, 8)
    final = FieldState(0.5, np.zeros(9), np.zeros(9), g, ModelSpec(Kind.WAVE_MAP))
    rows = [TraceRow(0.5 * k, e, s, 1.0, NAN, NAN, 0)
            for k, (e, s) in enumerate(zip(energy, sup))]
    trace = DiagnosticsTrace(rows=rows, blew_up=blew_up, final_state=final)
    monkeypatch.setattr(runio, "integrate", lambda *a, **k: trace)
    monkeypatch.setattr(runio, "detect_blowup",
                        lambda tr: BlowupReport(t_star, growth, fit))
    cfg = parse_config(f"[run]\nR = 4\nN = 8\n[expect]\n{expect}", name="fake")
    return run_scenario(cfg, outdir=tmp_path / "fake")


# (expect lines, measured values) -> the one check record they give:
# (name, passed, repr(value), tolerance)
EXPECT_RECORDS = [
    ("", dict(sup=(0.5, 0.25)), ("completed", True, "0.25", "finite run to T")),
    ("", dict(sup=(NAN,), blew_up=True), ("completed", False, "nan", "finite run to T")),
    ("", dict(sup=(INF,), blew_up=True), ("completed", False, "inf", "finite run to T")),
    ("", dict(sup=(-INF,)), ("completed", True, "-inf", "finite run to T")),
    ("energy_drift_max = 0.5", dict(energy=(1.0, 1.25)),
     ("energy_drift", True, "0.25", "<= 0.5")),
    ("energy_drift_max = 0.5", dict(energy=(NAN, 1.0)),
     ("energy_drift", False, "nan", "<= 0.5")),
    ("energy_drift_max = 0.5", dict(energy=(1e-300, 1e300)),
     ("energy_drift", False, "inf", "<= 0.5")),
    ("blowup = true", dict(blew_up=True), ("blowup", True, "1.0", "detector == True")),
    ("blowup = false", dict(blew_up=True), ("blowup", False, "1.0", "detector == False")),
    ("blowup = false", dict(), ("blowup", True, "0.0", "detector == False")),
    ("growth_min = 1.5", dict(growth=2.0), ("growth_min", True, "2.0", ">= 1.5")),
    ("growth_min = 1.5", dict(growth=NAN), ("growth_min", False, "nan", ">= 1.5")),
    ("growth_min = 1.5", dict(growth=INF), ("growth_min", True, "inf", ">= 1.5")),
    ("growth_min = 1.5", dict(growth=-INF), ("growth_min", False, "-inf", ">= 1.5")),
    ("growth_max = 1.5", dict(growth=2.0), ("growth_max", False, "2.0", "<= 1.5")),
    ("growth_max = 1.5", dict(growth=NAN), ("growth_max", False, "nan", "<= 1.5")),
    ("growth_max = 1.5", dict(growth=INF), ("growth_max", False, "inf", "<= 1.5")),
    ("growth_max = 1.5", dict(growth=-INF), ("growth_max", True, "-inf", "<= 1.5")),
    ("profile_fit_max = 0.1", dict(fit=0.01), ("profile_fit", True, "0.01", "<= 0.1")),
    ("profile_fit_max = 0.1", dict(fit=NAN), ("profile_fit", False, "nan", "<= 0.1")),
    ("profile_fit_max = 0.1", dict(fit=INF), ("profile_fit", False, "inf", "<= 0.1")),
    ("profile_fit_max = 0.1", dict(fit=-INF), ("profile_fit", False, "-inf", "<= 0.1")),
    ("sup_u_max = 1", dict(sup=(0.5, NAN, 0.75), energy=(1.0,) * 3), ("sup_u", True, "0.75", "<= 1")),
    ("sup_u_max = 1", dict(sup=(NAN,)), ("sup_u", False, "nan", "<= 1")),
    ("sup_u_max = 1", dict(sup=(INF,)), ("sup_u", False, "inf", "<= 1")),
    ("sup_u_max = 1", dict(sup=(-INF,)), ("sup_u", True, "-inf", "<= 1")),
    ("t_star = 1\nt_star_tol = 0.1", dict(t_star=1.05),
     ("t_star", True, "1.05", "within 0.1 of 1")),
    ("t_star = 1", dict(t_star=NAN), ("t_star", False, "nan", "within 0.05 of 1")),
    ("t_star = 1", dict(t_star=INF), ("t_star", False, "inf", "within 0.05 of 1")),
    ("t_star = 1", dict(t_star=-INF), ("t_star", False, "-inf", "within 0.05 of 1")),
]


@pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("expect,measured,record", EXPECT_RECORDS,
                         ids=[f"{name}-{value}-{'pass' if ok else 'fail'}"
                              for _, _, (name, ok, value, _) in EXPECT_RECORDS])
def test_each_expect_key_gives_its_record(monkeypatch, tmp_path, expect, measured, record):
    rep = fake_report(monkeypatch, tmp_path, expect + "\n", **measured)
    assert [(c.name, c.passed, repr(c.value), c.tolerance) for c in rep.checks] == [record]


def test_expect_records_come_in_section_order(monkeypatch, tmp_path):
    expect = ("t_star = 1\nsup_u_max = 1\nprofile_fit_max = 0.1\ngrowth_max = 3\n"
              "growth_min = 1.5\nblowup = false\nenergy_drift_max = 0.5\n")
    rep = fake_report(monkeypatch, tmp_path, expect)
    assert [c.name for c in rep.checks] == ["energy_drift", "blowup", "growth_min",
                                            "growth_max", "profile_fit", "sup_u", "t_star"]
    assert rep.passed
