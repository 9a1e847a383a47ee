"""Benchmark of skyrmelab: seeded workloads run by one client in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded process runs ops back to back, each op starting when the
previous one has returned and been checked.  BLAS and OpenMP are pinned to
one thread before numpy loads.  Workloads (see workloads.py):

  stepping           config text to run_scenario at N = 16384, Skyrme and
                     Adkins-Nappi, where `coefficients` takes most of the
                     time, then many short integrate, scattering, free-wave
                     and large-data ops at N <= 1024 over all six models,
                     bound by per-call overhead in the `grid` stencils.
  snapshot-analysis  snapshots written, read back and measured by the
                     spectral norms at N = 2048, 4096 and 16384; bound by
                     `spectral` kernel builds.

--trace 0 runs passes (one pass is one op mix) until --seconds have gone and
prints the end-to-end metrics.  --trace 1 runs one untraced pass, one traced
pass and the layer micro-timings, prints the per-layer metrics and writes
the spans to .perfbench-out/.  Every stdout line but the last starts with
'#'; the last is the JSON result.  Set-up (a cold import of skyrmelab and
making one pass's inputs) is timed SETUP_PER_PASS times before every pass,
so that its median, like the pass times, samples the whole run.
"""
import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
LIB_MODULES = ("grid", "coefficients", "models", "solver", "spectral", "runio", "config", "exact",
               "errors")
WORKLOADS = ("stepping", "snapshot-analysis")
SETUP_PER_PASS = 3
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def loaded_lib():
    """The skyrmelab modules in sys.modules, by name."""
    return {n: m for n, m in sys.modules.items() if n == "skyrmelab" or n.startswith("skyrmelab.")}


def import_lib():
    """Fresh import of the library modules (series table included); a new kernel cache."""
    for name in loaded_lib():
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("skyrmelab." + m) for m in LIB_MODULES})


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in (SRC / "skyrmelab").glob("*.py"))


class Runner:
    def __init__(self, workloads_module, workload, seed, out_dir):
        self.w = workloads_module
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.lib = import_lib()

    def make_pass(self, index):
        return self.w.make_pass(self.workload, self.lib, self.seed, index, self.out_dir)

    def setup_time(self, index):
        """Seconds for a cold import of skyrmelab plus the inputs of pass `index`.

        That import is thrown away, and collected so that it adds nothing to
        peak_rss_mb, and the modules in use are put back: passes run on one
        import however often set-up is timed.
        """
        in_use = loaded_lib()
        start = time.perf_counter()
        lib = import_lib()
        self.w.make_pass(self.workload, lib, self.seed, index, self.out_dir)
        elapsed = time.perf_counter() - start
        for name in loaded_lib():
            del sys.modules[name]
        sys.modules.update(in_use)
        del lib
        gc.collect()
        return elapsed

    @staticmethod
    def run_op(op, tracer=None):
        """(seconds, status): status is 'ok', 'known: ...' (a raise the op's
        may_raise allows), 'raised: ...' or 'wrong: ...'."""
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("bench.op:" + op.kind):
                    result = op.run()
        except Exception as exc:  # a raising op is counted as failed, never dropped
            kind = "known" if isinstance(exc, op.may_raise) else "raised"
            return time.perf_counter() - start, f"{kind}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        try:
            reason = op.check(result)
        except Exception as exc:  # output too malformed to check
            reason = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.active = True
        return elapsed, "ok" if reason is None else "wrong: " + reason

    def run_pass(self, ops, tracer=None):
        return [(op,) + self.run_op(op, tracer) for op in ops]

    def timed(self, seconds):
        """(passes, set-up times): passes back to back, each after SETUP_PER_PASS
        timed set-ups, until the next would overrun `seconds`."""
        passes, setups, start = [], [], time.perf_counter()
        while True:
            index = len(passes)
            setups += [self.setup_time(index) for _ in range(SETUP_PER_PASS)]
            passes.append(self.run_pass(self.make_pass(index)))
            walls = [sum(t for _, t, _ in p) for p in passes]
            next_pass = statistics.median(walls) + SETUP_PER_PASS * statistics.median(setups)
            if time.perf_counter() - start + next_pass > seconds:
                return passes, setups


def work_done(results):
    """The specified work of the ops that returned a right result."""
    return sum(op.work for op, _, status in results if status == "ok")


def tally(results):
    """correct, attempted and failed over (op, seconds, status) results.

    Every op that is not 'ok' failed; the result is wrong unless each of
    those raised only what its op's may_raise allows.
    """
    return {
        "correct": all(status == "ok" or status.startswith("known:") for _, _, status in results),
        "attempted": len(results),
        "failed": sum(1 for _, _, status in results if status != "ok"),
    }


def end_to_end(passes, setup_s):
    walls = [sum(t for _, t, _ in p) for p in passes]
    op_times = [t for p in passes for _, t, _ in p]
    p90 = (statistics.quantiles(op_times, n=10, method="inclusive")[8]
           if len(op_times) > 1 else op_times[0])
    return {
        "wall_s": statistics.median(walls),
        "op_s.p50": statistics.median(op_times),
        "op_s.p90": p90,
        "work_per_s": sum(work_done(p) for p in passes) / sum(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(runner, workload, seed):
    """One untraced pass, one traced pass (pass 0, as the timed run starts) and micro-timings."""
    import micro
    import tracing

    untraced = sum(t for _, t, _ in runner.run_pass(runner.make_pass(1)))
    ops = runner.make_pass(0)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        results = runner.run_pass(ops, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics, self_s = tracing.layer_metrics(tracer)
    wall = sum(t for _, t, _ in results)
    metrics["trace.overhead_s"] = wall - untraced
    metrics["ops_failed_ratio"] = tally(results)["failed"] / len(results)
    metrics["work.units"] = work_done(results)
    metrics["src.lines"] = src_line_count()
    micro_values, gone = micro.micro_metrics(runner.lib, runner.out_dir)
    metrics.update(micro_values)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.csv")
    ranked = sorted(((v, k) for k, v in metrics.items() if k.startswith("layer.")), reverse=True)
    lines = [f"traced pass {wall:.3f} s, untraced pass {untraced:.3f} s",
             "layer self time: " + ", ".join(f"{k[6:-7]} {v / wall:.1%}" for v, k in ranked),
             "top spans: " + ", ".join(f"{k} {v / wall:.1%}" for k, v in
                                       sorted(self_s.items(), key=lambda kv: -kv[1])[:6])]
    if gone:
        lines.append("micro-timings left out, the program no longer has: " + ", ".join(gone))
    return results, metrics, lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "skyrmelab" / "__init__.py").is_file():
        print(f"perfbench: no skyrmelab sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    # numpy loads only now, after the thread pins; scipy.special is a
    # dependency, imported here so that set-up times skyrmelab alone
    import numpy
    import scipy
    import scipy.special  # noqa: F401

    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    os.environ["SKYRMELAB_OUT"] = str(tmp)
    try:
        runner = Runner(workloads, args.workload, args.seed, tmp)
        if args.trace:
            results, metrics, notes = traced(runner, args.workload, args.seed)
        else:
            passes, setups = runner.timed(args.seconds)
            results = [r for p in passes for r in p]
            metrics = end_to_end(passes, statistics.median(setups))
            notes = [f"{len(passes)} passes of {len(passes[0])} ops; wall_s is the median pass; "
                     f"op_s percentiles over {len(results)} samples; setup_s is the median "
                     f"of {len(setups)} set-ups; work unit: {workloads.WORK_UNIT[args.workload]}"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    statuses = Counter((op.kind, status) for op, _, status in results if status != "ok")
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": threads, "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "src_lines": src_line_count(), "setup_per_pass": SETUP_PER_PASS,
    }
    print("# provenance " + json.dumps(provenance))
    for note in notes:
        print("# " + note)
    for (kind, status), n in sorted(statuses.items()):
        print(f"# {n} x {kind}: {status}")
    # names and units come from BENCHMARK.json: per-layer metrics when traced
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace
                                                                else "end_to_end"]
    result = tally(results)
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in listed if m["name"] in metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
