"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests`.

The traced-run tests start the benchmark twice per workload and take a few
minutes in all.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import micro  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that are counts, or ratios of counts, and so must repeat exactly
EXACT = ("runio.bytes_written", "ops_failed_ratio", "work.units",
         "spectral.kernel_cache.hit_ratio", "coefficients.series_share")


def bench(workload, trace, seed=7, seconds=1):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    for name in names:
        assert first["metrics"][name]["unit"] == second["metrics"][name]["unit"]
        if name.endswith(".calls") or name in EXACT:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["attempted"] == second["attempted"] and first["failed"] == second["failed"]
    assert first["correct"] and second["correct"]
    if workload == "stepping":  # the DomainError at amplitude 1e70 is counted
        assert first["failed"] >= 1
        ratio = first["metrics"]["ops_failed_ratio"]["value"]
        assert ratio == first["failed"] / first["attempted"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def lib():
    return run.import_lib()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_second_seed_changes_inputs_keeps_mix(lib, tmp_path, workload):
    a = workloads.make_pass(workload, lib, 1, 0, tmp_path)
    b = workloads.make_pass(workload, lib, 2, 0, tmp_path)
    again = workloads.make_pass(workload, lib, 1, 0, tmp_path)
    assert [(op.kind, op.N, op.work) for op in a] == [(op.kind, op.N, op.work) for op in b]
    assert [op.params for op in a] == [op.params for op in again]
    seeded = [(x.params, y.params) for x, y in zip(a, b) if x.params != {"snapshot_time": 1.0}]
    assert seeded and all(x != y for x, y in seeded)


def test_only_allowed_raises_keep_the_result_correct(lib, tmp_path, monkeypatch):
    ops = {op.kind: op for op in workloads.make_pass("stepping", lib, 1, 0, tmp_path)}
    integrate, huge = ops["integrate/skyrme"], ops["blowup-huge/skyrme"]
    results = [(op,) + run.Runner.run_op(op) for op in (integrate, huge)]
    assert run.tally(results)["correct"]
    assert run.work_done(results) == integrate.work

    def broken(*args, **kwargs):
        raise lib.errors.DomainError("broken integrate")

    monkeypatch.setattr(lib.solver, "integrate", broken)
    results = [(op,) + run.Runner.run_op(op) for op in (integrate, huge)]
    assert [status.split(":")[0] for _, _, status in results] == ["raised", "known"]
    assert run.tally(results) == {"correct": False, "attempted": 2, "failed": 2}
    assert run.work_done(results) == 0


def test_missing_micro_target_is_left_out(lib, tmp_path, monkeypatch):
    monkeypatch.setattr(micro, "MICRO_N", (64,))
    monkeypatch.setattr(micro, "FOURIER_N", ())
    monkeypatch.delattr(lib.grid, "laplacian5")
    metrics, gone = micro.micro_metrics(lib, tmp_path)
    assert gone == ["grid.laplacian5"]
    assert "grid.laplacian5.call_us.N64" not in metrics
    assert metrics["grid.d_r.call_us.N64"] > 0


def test_missing_wrap_target_reports_zero_calls(lib, monkeypatch):
    monkeypatch.delattr(lib.grid, "laplacian5")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        f = lib.grid.FieldSamples(lib.grid.RadialGrid(1.0, 8).nodes ** 2, lib.grid.Parity.EVEN)
        lib.grid.d_r(f, lib.grid.RadialGrid(1.0, 8))
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer)
    assert metrics["grid.laplacian5.calls"] == 0 and metrics["grid.d_r.calls"] == 1


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["solver.rhs", 0.0, 10.0, -1, 0.0], ["grid.d_r", 1.0, 4.0, 0, 0.0],
                       ["coefficients.tilde_h", 5.0, 9.0, 0, 1.0]]
    calls, self_s, _ = tracer.summary()
    assert self_s["solver.rhs"] == 3.0 and self_s["grid.d_r"] == 3.0
    assert self_s["coefficients.tilde_h"] == 3.0
