"""The verify registry: report names, suites and the order of `verify all`.

The time stepping behind criteria 4-8 and 11 is stubbed, so these tests see
which reports each suite yields, not what they measure (test_acceptance.py
does that).
"""
from types import SimpleNamespace

import pytest

from skyrmelab import verify
from skyrmelab.errors import ConfigError
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
    monkeypatch.setattr(verify, "convergence_study",
                        lambda *a, **k: SimpleNamespace(observed_order=4.0))
    monkeypatch.setattr(verify, "run_scenario",
                        lambda cfg, outdir=None: ScenarioReport(cfg.name, [], 0.0))


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
