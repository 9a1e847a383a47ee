"""The verify registry: report names, suites and the order of `verify all`.

The time stepping behind criteria 4-8 and 11 is stubbed, so these tests see
which reports each suite yields, not what they measure (test_acceptance.py
does that), and that criteria 4, 7 and 8 refuse a run that blew up.  The
smallness gate steps nothing, so it runs unstubbed and its verdicts count.
"""
from types import SimpleNamespace

import pytest

from skyrmelab import verify
from skyrmelab.errors import ConfigError, DomainError
from skyrmelab.runio import ScenarioReport
from skyrmelab.solver import DiagnosticsTrace, TraceRow

ALL = ["coefficient-limits", "coefficient-bounds", "grid-calculus", "shrinker-exactness",
       "solver-convergence", "energy-conservation", "spectral-oracles", "scaling-invariance",
       "dyadic-sobolev-stability", "blowup-vs-regularization", "cubic-smallness-scaling",
       "scattering-trend", "supremum-vs-energy", "smallness-gate"]

NUMBERED = {1: "shrinker-exactness", 2: "coefficient-limits", 3: "coefficient-bounds",
            4: "solver-convergence", 5: "energy-conservation", 6: "blowup-vs-regularization",
            7: "cubic-smallness-scaling", 8: "scattering-trend", 9: "spectral-oracles",
            10: "scaling-invariance", 11: "supremum-vs-energy", 12: "dyadic-sobolev-stability"}

BY_SUITE = {
    "coefficients": ["coefficient-limits", "coefficient-bounds"],
    "grid": ["grid-calculus"],
    "solver": ["shrinker-exactness", "solver-convergence", "energy-conservation"],
    "spectral": ["spectral-oracles", "scaling-invariance", "dyadic-sobolev-stability"],
    "theorems": ["blowup-vs-regularization", "cubic-smallness-scaling", "scattering-trend",
                 "supremum-vs-energy", "smallness-gate"],
}


@pytest.fixture()
def no_stepping(monkeypatch):
    def integrate(state, dt, T, **kw):
        row = TraceRow(T, 1.0, 0.01, 1.0, 1.0, 1.0, 0)
        return DiagnosticsTrace(rows=[row], final_state=state)

    monkeypatch.setattr(verify, "integrate", integrate)
    monkeypatch.setattr(verify, "scattering_deficit",
                        lambda *a, **k: SimpleNamespace(deficit=1.0))
    monkeypatch.setattr(verify, "run_scenario", lambda cfg, outdir=None: ScenarioReport(
        cfg.name, [], 0.0, error_vs_exact=cfg.N ** -4.0))


def test_verify_all_runs_fourteen_reports_in_order(no_stepping):
    reports = verify.run_suite("all")
    assert [rep.scenario for rep in reports] == ALL
    assert all(rep.runtime_s >= 0.0 for rep in reports)


def test_criteria_are_numbered_1_to_12_each_once(no_stepping):
    assert list(verify.CRITERIA) == list(range(1, 13))
    assert {n: fn().scenario for n, fn in verify.CRITERIA.items()} == NUMBERED


@pytest.mark.parametrize("suite", sorted(BY_SUITE))
def test_each_suite_runs_its_reports(no_stepping, suite):
    assert [rep.scenario for rep in verify.run_suite(suite)] == BY_SUITE[suite]


def test_suite_names():
    assert sorted(verify.SUITES) == sorted(BY_SUITE)
    with pytest.raises(ConfigError):
        verify.run_suite("everything")


@pytest.mark.parametrize("criterion,message", [
    (verify.solver_convergence, "blow-up during the N=512 run"),
    (verify.cubic_smallness_scaling, "blow-up of the amplitude-0.2 run"),
    (verify.scattering_trend, "blow-up before the handoff time"),
], ids=["criterion-4", "criterion-7", "criterion-8"])
def test_a_blown_up_run_is_a_domain_error(monkeypatch, criterion, message):
    monkeypatch.setattr(verify, "integrate", lambda state, dt, T, **kw: DiagnosticsTrace(
        rows=[TraceRow(T, *[float("nan")] * 5, 1)], blew_up=True, final_state=state))
    monkeypatch.setattr(verify, "scattering_deficit",
                        lambda *a, **k: SimpleNamespace(deficit=1.0))
    monkeypatch.setattr(verify, "run_scenario",
                        lambda cfg, outdir=None: ScenarioReport(cfg.name, [], 0.0, blew_up=True))
    with pytest.raises(DomainError, match=message):
        criterion()


def test_smallness_gate_checks_pass():
    # the recorded gate constants still match their recomputation and sort the data
    checks = verify.smallness_gate_consistency()
    assert [c.name for c in checks] == ["gate_besov_reproducible", "gate_l2_reproducible",
                                        "collapse_data_above_gate"]
    assert all(c.passed for c in checks), [c.line() for c in checks]
