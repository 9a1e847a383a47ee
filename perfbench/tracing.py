"""Spans around calls into skyrmelab, recorded from outside the program.

Each target function is wrapped once and the wrapper is installed under every
name a skyrmelab module holds for it: `solver` does `from .grid import d_r`,
so `skyrmelab.solver.d_r` is replaced as well as `skyrmelab.grid.d_r`.
Spans (name, start, end, parent) stay in memory until the run ends.  A
target the program no longer has is skipped and reports zero calls.
"""
import contextlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("grid", "coefficients", "models", "solver", "spectral", "runio", "config", "exact")

# span name -> (module, attribute)
TARGETS = {
    "grid.d_r": ("grid", "d_r"),
    "grid.laplacian5": ("grid", "laplacian5"),
    "grid.radial_integral": ("grid", "radial_integral"),
    "coefficients.tilde_h": ("coefficients", "_tilde_h_raw"),
    "coefficients.sinc": ("coefficients", "sinc"),
    "coefficients.skyrme_denominator": ("coefficients", "skyrme_denominator"),
    "models.nonlinearity": ("models", "_neg_nonlinearity"),
    "models.energy_density_v": ("models", "energy_density_v"),
    "solver.integrate": ("solver", "integrate"),
    "solver.step_rk4": ("solver", "step_rk4"),
    "solver.rhs": ("solver", "_rhs"),
    "solver.scattering_deficit": ("solver", "scattering_deficit"),
    "solver.detect_blowup": ("solver", "detect_blowup"),
    "solver.sample.sup_abs_u": ("solver", "sup_abs_u"),
    "solver.sample.sup_abs_u_r": ("solver", "sup_abs_u_r"),
    "solver.sample.total_energy": ("solver", "total_energy"),
    "solver.sample.lightcone_energy": ("solver", "lightcone_energy"),
    "solver.sample.deficit_norm": ("solver", "_deficit_norm"),
    "spectral.kernel_build": ("spectral", "_kernel"),
    "spectral.kernel_matvec": ("spectral", "_kernel_matvec"),
    "spectral.sobolev_norm": ("spectral", "sobolev_norm"),
    "spectral.besov_norm": ("spectral", "besov_norm"),
    "spectral.radial_fourier": ("spectral", "radial_fourier"),
    "spectral.inverse_radial_fourier": ("spectral", "inverse_radial_fourier"),
    "spectral.scale": ("spectral", "scale"),
    "runio.run_scenario": ("runio", "run_scenario"),
    "runio.write_snapshot": ("runio", "write_snapshot"),
    "runio.read_snapshot": ("runio", "read_snapshot"),
    "runio.write_trace": ("runio", "write_trace"),
    "runio.read_trace": ("runio", "read_trace"),
    "config.parse_config": ("config", "parse_config"),
    "config.initial_state": ("config", "initial_state"),
    "exact.exact_free_wave_5d": ("exact", "exact_free_wave_5d"),
    "exact.turok_spergel_collapse_data": ("exact", "turok_spergel_collapse_data"),
}

# per-layer metrics read straight off the spans, named <span>.<calls|self_s>
SPAN_METRICS = (
    "grid.d_r.calls", "grid.d_r.self_s", "grid.laplacian5.calls", "grid.laplacian5.self_s",
    "grid.radial_integral.self_s", "coefficients.tilde_h.calls", "coefficients.tilde_h.self_s",
    "models.nonlinearity.calls", "models.nonlinearity.self_s", "models.energy_density_v.self_s",
    "solver.step_rk4.calls", "solver.step_rk4.self_s", "solver.rhs.calls", "solver.rhs.self_s",
    "solver.detect_blowup.self_s", "spectral.kernel_build.calls", "spectral.kernel_build.self_s",
    "spectral.kernel_matvec.calls", "spectral.besov_norm.self_s", "spectral.sobolev_norm.self_s",
    "spectral.radial_fourier.self_s", "runio.write_snapshot.self_s", "runio.read_snapshot.self_s",
    "runio.write_trace.self_s", "config.parse_config.self_s", "config.initial_state.self_s",
    "exact.exact_free_wave_5d.self_s",
)


class Tracer:
    """Records spans while active; install() wraps the targets, uninstall() undoes it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, excluded]; end covers counting
        self.active = False
        self.series_small = 0
        self.series_total = 0
        self.bytes_written = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                excluded = 0.0
                if count is not None:
                    count(args, result)
                    excluded = clock() - end
                stack.pop()
                spans[idx] = [name, start, end + excluded, parent, excluded]

        return traced

    def _count_series(self, args, result):
        switch = getattr(sys.modules["skyrmelab.coefficients"], "SERIES_SWITCH", 0.05)
        u = np.asarray(args[1])
        self.series_small += int(np.count_nonzero(np.abs(u) < switch))
        self.series_total += u.size

    def _count_bytes(self, args, result):
        if result is not None:
            self.bytes_written += result.stat().st_size

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("skyrmelab.") and m]
        counters = {"coefficients.tilde_h": self._count_series,
                    "runio.write_snapshot": self._count_bytes,
                    "runio.write_trace": self._count_bytes}
        for name, (module, attr) in TARGETS.items():
            orig = getattr(sys.modules.get("skyrmelab." + module), attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig, counters.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, value))

    def uninstall(self):
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span around code that is not a library call (an op)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = [name, start, end, parent, 0.0]

    def summary(self):
        """Per-span-name call counts and self times, plus matvecs that built nothing."""
        child = defaultdict(float)
        built = set()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "spectral.kernel_build":
                    built.add(parent)
        calls, self_s = Counter(), defaultdict(float)
        matvec_hits = 0
        for idx, (name, start, end, parent, excluded) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx] - excluded
            if name == "spectral.kernel_matvec" and idx not in built:
                matvec_hits += 1
        return calls, self_s, matvec_hits

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by name."""
    calls, self_s, matvec_hits = tracer.summary()
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = calls[span] if field == "calls" else self_s[span]
    out["solver.sample.self_s"] = sum(v for k, v in self_s.items()
                                      if k.startswith("solver.sample."))
    matvecs = calls["spectral.kernel_matvec"]
    out["spectral.kernel_cache.hit_ratio"] = matvec_hits / matvecs if matvecs else 0.0
    out["coefficients.series_share"] = (tracer.series_small / tracer.series_total
                                        if tracer.series_total else 0.0)
    out["runio.bytes_written"] = tracer.bytes_written
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items()
                                           if k.split(".")[0] == layer)
    out["layer.bench.self_s"] = sum(v for k, v in self_s.items() if k.startswith("bench."))
    return out, self_s
