"""Per-call layer timings at N = 1024, 4096 and 16384, untraced.

Each figure is the median of repeated calls, in microseconds.  Spectral
calls use a slightly different outer radius on every repeat, so each one
builds its kernels cold, as a `skyrmelab norms` process does.  The full
transform is timed at N = 1024 and 4096 only: at N = 16384 one call takes
about 40 s on a 2-vCPU Xeon virtual machine.  A timing whose target
function the program no longer has is left out, and the target is named;
an exception raised inside a timed call propagates.
"""
import statistics
import time

import numpy as np

from workloads import ALPHA_MODELS, MODELS

MICRO_N = (1024, 4096, 16384)
FOURIER_N = (1024, 4096)
BUDGET_S = 0.4
MAX_REPEATS = 15


def _median_us(call):
    """Median wall time of call(k) over repeats k = 0, 1, ... within the budget."""
    start = time.perf_counter()
    call(0)
    first = time.perf_counter() - start
    samples = [first]
    for k in range(1, max(1, min(MAX_REPEATS, int(BUDGET_S / max(first, 1e-9))))):
        start = time.perf_counter()
        call(k)
        samples.append(time.perf_counter() - start)
    return 1e6 * statistics.median(samples)


def micro_metrics(lib, out_dir):
    """(metrics, targets): per-call timings, and the targets missing from the program."""
    grid, solver, models, spectral, runio = lib.grid, lib.solver, lib.models, lib.spectral, lib.runio
    out, gone = {}, set()

    def timed(name, call, *targets):
        missing = {t for t in targets if not hasattr(getattr(lib, t.split(".")[0]), t.split(".")[1])}
        if missing:
            gone.update(missing)
        else:
            out[name] = _median_us(call)

    for N in MICRO_N:
        R = 20.0
        g = grid.RadialGrid(R, N)
        r = g.nodes
        v = 0.3 * np.exp(-r * r)
        vt = 0.1 * np.exp(-r * r) * (1.0 - r * r)
        v_r = -2.0 * r * v
        f = grid.FieldSamples(v, grid.Parity.EVEN)
        timed(f"grid.d_r.call_us.N{N}", lambda k: grid.d_r(f, g), "grid.d_r")
        timed(f"grid.laplacian5.call_us.N{N}", lambda k: grid.laplacian5(f, g), "grid.laplacian5")
        dt = 0.5 * g.dr
        for model in MODELS:
            spec = models.ModelSpec(models.Kind(model), 1.0 if model in ALPHA_MODELS else None)
            st = solver.FieldState(0.0, v, vt, g, spec)
            timed(f"solver.step_rk4.call_us.{model}.N{N}", lambda k: solver.step_rk4(st, dt),
                  "solver.step_rk4")
            timed(f"models.nonlinearity.call_us.{model}.N{N}",
                  lambda k: models._neg_nonlinearity(spec, r, v, v_r, vt),
                  "models._neg_nonlinearity")
        st = solver.FieldState(0.0, v, vt, g, models.ModelSpec(models.Kind.SKYRME, 1.0))

        def sample(k):
            solver.sup_abs_u(st)
            solver.sup_abs_u_r(st)
            solver.total_energy(st)
            solver.lightcone_energy(st, 0.5 * R)
            solver._deficit_norm(g, v, vt)

        timed(f"solver.sample.call_us.N{N}", sample, "solver.sup_abs_u", "solver.sup_abs_u_r",
              "solver.total_energy", "solver.lightcone_energy", "solver._deficit_norm")

        def profile(k):
            gk = grid.RadialGrid(R * (1.0 + 1e-6 * k), N)
            return spectral.RadialProfile(np.exp(-gk.nodes**2 / 2.0), gk, 5)

        timed(f"spectral.sobolev_norm.call_us.N{N}",
              lambda k: spectral.sobolev_norm(profile(k), 1.5), "spectral.sobolev_norm")
        if N in FOURIER_N:
            timed(f"spectral.radial_fourier.call_us.N{N}",
                  lambda k: spectral.radial_fourier(profile(k)), "spectral.radial_fourier")
        path = out_dir / f"micro-{N}.snap"
        timed(f"runio.snapshot_rw.call_us.N{N}",
              lambda k: runio.read_snapshot(runio.write_snapshot(path, st)),
              "runio.write_snapshot", "runio.read_snapshot")
    return out, sorted(gone)
