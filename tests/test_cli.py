"""CLI contract: subcommands, exit codes, emitted artifacts."""
import numpy as np
import pytest

from skyrmelab.cli import main
from skyrmelab.grid import RadialGrid
from skyrmelab.models import Kind, ModelSpec
from skyrmelab.runio import read_snapshot, write_snapshot
from skyrmelab.solver import FieldState
from skyrmelab.spectral import SPHERE_AREA, RadialProfile, besov_norm

TINY = """[run]
model = wave-map
R = 10
N = 64
T = 0.5
name = tiny
[data]
family = gaussian
amplitude = 0.3
[expect]
energy_drift_max = 1e-2
"""


@pytest.fixture()
def outroot(tmp_path, monkeypatch):
    monkeypatch.setenv("SKYRMELAB_OUT", str(tmp_path))
    return tmp_path


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_ok_and_artifacts(outroot, tmp_path, capsys):
    rc = main(["run", write_cfg(tmp_path, TINY)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[run]" in out and "PASS" in out
    assert (outroot / "tiny" / "trace.csv").is_file()
    assert (outroot / "tiny" / "final.snap").is_file()


def test_run_failing_expectation_exits_1(outroot, tmp_path, capsys):
    text = TINY.replace("energy_drift_max = 1e-2", "sup_u_max = 1e-9")
    rc = main(["run", write_cfg(tmp_path, text)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_bad_config_exits_2(outroot, tmp_path, capsys):
    rc = main(["run", write_cfg(tmp_path, "[run]\ncfl = 7\nN = 3\n")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 2" in err and "line 3" in err


@pytest.mark.parametrize("old,new", [
    ("T = 0.5", "T = nan"),
    ("T = 0.5", "T = inf"),
    ("R = 10", "R = inf"),
    ("[run]", "[run]\ngrowth_threshold = nan"),
    ("[run]", "[run]\nsup_window = nan"),
    ("amplitude = 0.3", "center = inf"),
    ("energy_drift_max = 1e-2", "t_star = nan"),
], ids=["T-nan", "T-inf", "R-inf", "growth_threshold-nan", "sup_window-nan", "center-inf",
        "t_star-nan"])
def test_run_non_finite_config_exits_2(outroot, tmp_path, capsys, old, new):
    text = TINY.replace(old, new, 1)
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    rc = main(["run", write_cfg(tmp_path, text)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"configuration error: line {line}: " in err


def test_run_missing_file_exits_3(outroot, capsys):
    rc = main(["run", "/no/such/place.cfg"])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def test_run_into_an_unwritable_output_root_exits_3(tmp_path, monkeypatch, capsys):
    # a regular file where the output root should be: unlike a chmod, this stops root too
    blocker = tmp_path / "out"
    blocker.write_text("")
    monkeypatch.setenv("SKYRMELAB_OUT", str(blocker))
    rc = main(["run", write_cfg(tmp_path, TINY)])
    assert rc == 3
    assert f"i/o error: cannot write run artifacts under {blocker / 'tiny'}" in capsys.readouterr().err


def test_run_accepts_shipped_scenario_names(outroot, capsys):
    rc = main(["run", "free-wave-convergence"])
    assert rc == 0
    assert (outroot / "free-wave-convergence" / "trace.csv").is_file()


def test_sweep_amplitude_reports_cubic_ratio(outroot, tmp_path, capsys):
    text = """[run]
model = adkins-nappi
R = 12
N = 512
T = 5
track_deficit = true
name = an-light
[data]
family = gaussian
amplitude = 0.2
"""
    rc = main(["sweep", write_cfg(tmp_path, text), "--axis",
               "data.amplitude=0.2,0.1,0.05"])
    assert rc == 0
    csv = (outroot / "case-sweep" / "sweep.csv").read_text().splitlines()
    header = csv[0].split(",")
    ratios = [float(row.split(",")[header.index("deficit_ratio")]) for row in csv[2:]]
    assert all(6.0 <= r <= 10.0 for r in ratios)


def test_sweep_resolution_reports_observed_order(outroot, tmp_path):
    text = """[run]
model = free-wave-5d
R = 10
N = 64
T = 0.5
name = fw-light
[data]
family = free-wave
amplitude = 1.0
width = 1.0
center = 3.0
"""
    rc = main(["sweep", write_cfg(tmp_path, text), "--axis", "run.N=64,128,256"])
    assert rc == 0
    csv = (outroot / "case-sweep" / "sweep.csv").read_text().splitlines()
    header = csv[0].split(",")
    orders = [float(row.split(",")[header.index("observed_order")]) for row in csv[2:]]
    assert all(order >= 3.5 for order in orders)


def test_sweep_partial_failure_recorded_and_continues(outroot, tmp_path, capsys):
    rc = main(["sweep", write_cfg(tmp_path, TINY), "--axis",
               "data.amplitude=0.1,bogus,0.2"])
    assert rc == 1
    lines = (outroot / "case-sweep" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # header + three rows, bad row included
    statuses = [row.split(",")[2] for row in lines[1:]]
    assert statuses[0] == "ok" and statuses[2] == "ok"
    assert statuses[1].startswith("error:")


def test_sweep_rows_whose_checks_fail_are_check_failed(outroot, tmp_path, capsys):
    text = TINY.replace("energy_drift_max = 1e-2", "sup_u_max = 1e-9")
    rc = main(["sweep", write_cfg(tmp_path, text), "--axis", "data.amplitude=0.1,0.2"])
    assert rc == 1
    lines = (outroot / "case-sweep" / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [(row["status"], row["checks_failed"]) for row in rows] == [("check-failed", "1")] * 2


def test_sweep_axis_key_without_section_means_run(outroot, tmp_path, capsys):
    rc = main(["sweep", write_cfg(tmp_path, TINY), "--axis", "T=0.1,0.2"])
    assert rc == 0
    lines = (outroot / "case-sweep" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [["run.T", "0.1", "ok"],
                                                          ["run.T", "0.2", "ok"]]


def test_sweep_axis_without_values_exits_2(outroot, tmp_path, capsys):
    rc = main(["sweep", write_cfg(tmp_path, TINY), "--axis", "data.amplitude"])
    assert rc == 2
    assert "--axis wants section.key=v1,v2,..." in capsys.readouterr().err


def test_sweep_single_value_axis_rejected(outroot, tmp_path, capsys):
    rc = main(["sweep", write_cfg(tmp_path, TINY), "--axis", "data.amplitude=0.1"])
    assert rc == 2
    assert "at least two" in capsys.readouterr().err


def test_sweep_axis_must_target_known_section(outroot, tmp_path, capsys):
    rc = main(["sweep", write_cfg(tmp_path, TINY), "--axis", "expect.blowup=0,1"])
    assert rc == 2


def test_sweep_axis_key_unknown_to_its_section_exits_2_before_any_run(outroot, tmp_path, capsys):
    rc = main(["sweep", write_cfg(tmp_path, TINY), "--axis", "run.bogus=1,2"])
    assert rc == 2
    assert "unknown key 'bogus' in section [run]" in capsys.readouterr().err
    assert not (outroot / "case-sweep").exists()


def test_norms_csv_schema(outroot, tmp_path, capsys):
    assert main(["run", write_cfg(tmp_path, TINY)]) == 0
    capsys.readouterr()
    snap = str(outroot / "tiny" / "final.snap")
    rc = main(["norms", snap, "--s", "1.0", "1.5", "--p", "2", "--q", "inf",
               "--dim", "5", "--out", str(tmp_path / "norms.csv")])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "profile_id,n,s,p,q,value,truncation_bound"
    assert len(out) == 3
    row = out[1].split(",")
    assert row[0] == "final" and row[1] == "5" and row[4] == "inf"
    assert float(row[5]) > 0 and float(row[6]) >= 0
    assert (tmp_path / "norms.csv").read_text().splitlines()[0] == out[0]


def test_norms_p4_prints_besov_norm_exactly(tmp_path, capsys):
    # p != 2 goes through the uniform-grid transforms: N = 4096 must stay quick
    g = RadialGrid(20.0, 4096)
    v = 1.3 * np.exp(-g.nodes**2 / 2.0)
    snap = write_snapshot(tmp_path / "fine.snap",
                          FieldState(0.0, v, np.zeros_like(v), g, ModelSpec(Kind.WAVE_MAP)))
    rc = main(["norms", str(snap), "--s", "1.5", "--p", "4", "--q", "2"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    want = besov_norm(RadialProfile(read_snapshot(snap).v, g, 5), 1.5, 4, 2)
    assert out[1] == f"fine,5,1.5,4,2,{want.value:.17g},{want.truncation_bound:.17g}"


def test_norms_rejects_bad_exponents(outroot, tmp_path, capsys):
    assert main(["run", write_cfg(tmp_path, TINY)]) == 0
    capsys.readouterr()
    snap = str(outroot / "tiny" / "final.snap")
    rc = main(["norms", snap, "--s", "1.0", "--p", "0.5"])
    assert rc == 2
    with pytest.raises(SystemExit) as e:  # --q is a float, like --p
        main(["norms", snap, "--s", "1.0", "--q", "abc"])
    assert e.value.code == 2


def test_norms_dim_takes_the_dimensions_spectral_supports(tmp_path, capsys):
    g = RadialGrid(10.0, 16)
    v = np.exp(-g.nodes**2)
    snap = str(write_snapshot(tmp_path / "d.snap",
                              FieldState(0.0, v, np.zeros_like(v), g, ModelSpec(Kind.WAVE_MAP))))
    for dim in SPHERE_AREA:
        assert main(["norms", snap, "--s", "1.0", "--dim", str(dim)]) == 0
    with pytest.raises(SystemExit) as e:
        main(["norms", snap, "--s", "1.0", "--dim", "4"])
    assert e.value.code == 2


@pytest.mark.parametrize("s", ["nan", "inf"])
def test_norms_rejects_non_finite_s(tmp_path, capsys, s):
    g = RadialGrid(10.0, 16)
    v = np.exp(-g.nodes**2)
    snap = write_snapshot(tmp_path / "s.snap",
                          FieldState(0.0, v, np.zeros_like(v), g, ModelSpec(Kind.WAVE_MAP)))
    assert main(["norms", str(snap), "--s", s]) == 2
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("model=skyrme", "model=bogus"),
    ("N=16", "N=sixteen"),
    ("t=0 ", "t=zero "),
    ("alpha=1.5", "alpha=one"),
    ("\n0.625 ", "\n0.625x "),
    ("t=0 ", "t=nan "),
    ("t=0 ", "t=inf "),
    ("alpha=1.5", "alpha=inf"),
    ("model=skyrme", "model=wave-map"),
    ("\n0 1 0\n", "\n0 nan 0\n"),
    ("\n0 1 0\n", "\n0 inf 0\n"),
], ids=["model", "N", "t", "alpha", "cell", "t-nan", "t-inf", "alpha-inf", "alpha-on-wave-map",
        "cell-nan", "cell-inf"])
def test_norms_malformed_snapshot_exits_2(tmp_path, capsys, old, new):
    g = RadialGrid(10.0, 16)
    v = np.exp(-g.nodes**2)
    snap = write_snapshot(tmp_path / "bad.snap", FieldState(0.0, v, np.zeros_like(v), g,
                                                            ModelSpec(Kind.SKYRME, alpha=1.5)))
    text = snap.read_text().replace("# t=0\n", "# t=0 \n")
    assert old in text
    snap.write_text(text.replace(old, new, 1))
    assert main(["norms", str(snap), "--s", "1.0"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_from_non_finite_snapshot_names_the_file(outroot, tmp_path, capsys):
    g = RadialGrid(10.0, 16)
    v = np.exp(-g.nodes**2)
    v[3] = np.nan
    snap = write_snapshot(tmp_path / "nan.snap",
                          FieldState(0.0, v, np.zeros_like(v), g, ModelSpec(Kind.WAVE_MAP)))
    text = f"[run]\nR = 10\nN = 16\nT = 0.1\n[data]\nfamily = file\npath = {snap}\n"
    assert main(["run", write_cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(snap) in err and "row 4" in err


def test_norms_missing_snapshot_exits_3(outroot, capsys):
    rc = main(["norms", "/no/such.snap", "--s", "1.0"])
    assert rc == 3


def test_verify_grid_suite(outroot, capsys):
    rc = main(["verify", "grid"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in out and "FAIL" not in out


def test_verify_unknown_suite_is_usage_error(outroot, capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "everything"])
    assert e.value.code == 2
