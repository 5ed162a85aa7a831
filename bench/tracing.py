"""Spans and counts around the public callables of spherecurv's layers.

The tracer wraps functions from the benchmark's side: every module attribute
of the package that *is* a target function (``pde.build_grid`` is the same
object as ``geometry.build_grid``) is replaced by one wrapper, and the
transform methods are replaced on ``SphereGrid``.  ``uninstall`` puts the
originals back, so untraced phases run the program exactly as shipped.

A span is ``(name, op, parent, start, end)`` kept in memory; a layer's self
time is its duration minus the time its child spans cover, less the speed
probe's own time, scaled to reference speed by the probe's slowdown over
the span (see speed.py).
"""

from __future__ import annotations

import functools
import gzip
import math
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name; div_classifier is split by its `exact` flag
FUNCTIONS = {
    ("geometry", "build_grid"): "geometry.build_grid",
    ("bundles", "phi_norm_sq"): "bundles.phi_norm_sq",
    ("bundles", "pair_weight_h0"): "bundles.pair_weight_h0",
    ("pde", "solve_phi_system"): "pde.solve_phi_system",
    ("cohomology", "b_coords"): "cohomology.b_coords",
    ("cohomology", "dual_map_H0"): "cohomology.dual_map_H0",
    ("cohomology", "dbar_solve"): "cohomology.dbar_solve",
    ("strata", "div_classifier"): "strata.div_classifier",
    ("strata", "existence_range"): "strata.existence_range",
    ("_rational", "solve_exact"): "rational.solve_exact",
    ("lab", "run_existence_sweep"): "lab.run_existence_sweep",
}
METHODS = ("analyze", "synthesize", "evaluate")

# per-layer metric names with a call count and a self time
SPAN_METRICS = (
    "geometry.analyze",
    "geometry.synthesize",
    "geometry.evaluate",
    "bundles.phi_norm_sq",
    "bundles.pair_weight_h0",
    "pde.solve_phi_system",
    "cohomology.b_coords",
    "cohomology.dual_map_H0",
    "cohomology.dbar_solve",
    "strata.div_classifier_float",
    "strata.div_classifier_exact",
    "strata.existence_range",
    "rational.solve_exact",
    "lab.run_existence_sweep",
)
COUNT_METRICS = (
    "pde.newton_steps",
    "pde.minres_calls",
    "pde.minres_iters",
    "pde.lambda_steps_accepted",
    "pde.lambda_steps_rejected",
    "lab.cold_retries",
)


class Tracer:
    def __init__(self, sc, probe, kernel):
        self.sc = sc
        self.probe, self.kernel = probe, kernel  # a speed.SpeedProbe and its kernel name
        self.spans = []  # [name, op, parent, start, end]
        self.stack = []
        self.counts = defaultdict(int)
        self.op = "setup"
        self.sweep_solves = None  # (lam, cold, converged) per solve inside a sweep
        self._saved = []

    # -- wrapping --------------------------------------------------------

    def _span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][4] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        if name == "strata.div_classifier":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                kind = "exact" if kwargs.get("exact") else "float"
                return self._span(f"{name}_{kind}", fn, *args, **kwargs)

        elif name == "pde.solve_phi_system":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                res = self._span(name, fn, *args, **kwargs)
                self._count_solve(res, args, kwargs)
                return res

        elif name == "lab.run_existence_sweep":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.sweep_solves = []
                try:
                    return self._span(name, fn, *args, **kwargs)
                finally:
                    self._count_cold_retries()
                    self.sweep_solves = None

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._span(name, fn, *args, **kwargs)

        return wrapper

    def _count_solve(self, res, args, kwargs):
        initial = kwargs.get("initial", args[3] if len(args) > 3 else None)
        lam = kwargs.get("lam", args[1] if len(args) > 1 else None)
        for _, iters, rnorm in res.continuation_trace:
            self.counts["pde.newton_steps"] += int(iters)
            key = "accepted" if math.isfinite(rnorm) else "rejected"
            self.counts[f"pde.lambda_steps_{key}"] += 1
        if self.sweep_solves is not None:
            self.sweep_solves.append((float(lam), initial is None, bool(res.converged)))

    def _count_cold_retries(self):
        # a cold solve straight after a failed warm solve at the same coupling
        prev = None
        for lam, cold, converged in self.sweep_solves or ():
            if cold and prev is not None and not prev[1] and not prev[2] and prev[0] == lam:
                self.counts["lab.cold_retries"] += 1
            prev = (lam, cold, converged)

    def _minres(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = kwargs.pop("callback", None)

            def callback(xk):
                self.counts["pde.minres_iters"] += 1
                if inner is not None:
                    inner(xk)

            self.counts["pde.minres_calls"] += 1
            return fn(*args, callback=callback, **kwargs)

        return wrapper

    def install(self):
        sc = self.sc
        modules = [m for key, m in sys.modules.items() if key == sc.__name__ or key.startswith(sc.__name__ + ".")]
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(getattr(sc, mod), attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._saved.append((m, key, val))
                        setattr(m, key, wrapper)
        grid_cls = sc.geometry.SphereGrid
        for meth in METHODS:
            original = grid_cls.__dict__[meth]
            self._saved.append((grid_cls, meth, original))
            setattr(grid_cls, meth, self._wrap(f"geometry.{meth}", original))
        self._saved.append((sc.pde, "minres", sc.pde.minres))
        sc.pde.minres = self._minres(sc.pde.minres)

    def uninstall(self):
        while self._saved:
            obj, key, val = self._saved.pop()
            setattr(obj, key, val)

    # -- aggregation -----------------------------------------------------

    def self_times(self, ops):
        """Per span name: (calls, self seconds) over spans tagged with one of ops."""
        net = [end - start - self.probe.busy_between(start, end) for _, _, _, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += net[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            if op in ops:
                calls[name] += 1
                self_s[name] += (net[i] - child[i]) / self.probe.slowdown(self.kernel, start, end)
        return calls, self_s

    def total_time(self, name, op):
        return sum(self.probe.scaled(self.kernel, start, end) for n, o, _, start, end in self.spans if n == name and o == op)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{start:.9f},{end:.9f}\n")


def layer_metrics(tracer, cycle_ops, n_cycles, setup_reps):
    """Per-layer metrics for one cycle of the traced phase.

    ``cycle_ops`` are the op tags of the traced phase; counts and self times
    are divided by ``n_cycles`` so they read per cycle of the input list.
    """
    calls, self_s = tracer.self_times(set(cycle_ops))
    out = {
        "geometry.build_grid.total_s": float(
            statistics.median(tracer.total_time("geometry.build_grid", f"setup-{r}") for r in range(setup_reps))
        ),
    }
    for name in SPAN_METRICS:
        out[f"{name}.calls"] = calls[name] / n_cycles
        out[f"{name}.self_s"] = self_s[name] / n_cycles
    counts = {name: tracer.counts[name] / n_cycles for name in COUNT_METRICS}
    out.update(counts)
    calls_ = counts["pde.minres_calls"]
    out["pde.minres_iters_per_newton"] = counts["pde.minres_iters"] / calls_ if calls_ else 0.0
    steps = counts["pde.lambda_steps_accepted"] + counts["pde.lambda_steps_rejected"]
    out["pde.lambda_accept_ratio"] = counts["pde.lambda_steps_accepted"] / steps if steps else 0.0
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_newton"):
        return "iter/step"
    return "count"
