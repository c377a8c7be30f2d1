"""Spans and counters around gbass's layer functions, for the traced run only.

``install`` replaces each listed function, in every gbass module that binds
it, by a pass-through wrapper: same arguments, same result, plus a span
(name, start, end, parent, run id) kept in memory and, for some functions, a
work counter. Nothing is patched outside the freshly imported gbass modules,
so an untraced repetition that re-imports gbass runs the original code.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Spans and counters of one repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return traced

    # counters: each returns a shim that counts, then calls the original

    def count_evals(self, name: str, fn, size_of_support):
        """Points times support size, for kernels evaluated densely."""
        key = name + ".evals"

        def counted(*args, **kwargs):
            x = args[2] if len(args) > 2 else kwargs["x"]
            self.counts[key] += np.size(x) * size_of_support(args[0])
            return fn(*args, **kwargs)
        return counted

    def count_inversion(self, name: str, fn):
        """Targets solved and rows of f evaluated by a bracketed inversion."""
        counts = self.counts

        def counted(f, fprime, targets, *args, **kwargs):
            def f_counted(x):
                counts[name + ".rows_evaluated"] += np.size(x)
                return f(x)
            counts[name + ".targets"] += np.size(targets)
            return fn(f_counted, fprime, targets, *args, **kwargs)
        return counted

    def count_calls(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def count_bytes(self, key: str, fn):
        def counted(ens, path, *args, **kwargs):
            result = fn(ens, path, *args, **kwargs)
            self.counts[key] += os.path.getsize(path)
            return result
        return counted

    def count_clamps(self, key: str, fn):
        def counted(*args, **kwargs):
            ens = fn(*args, **kwargs)
            self.counts[key] += ens.clamp_count
            return ens
        return counted

    def layer_metrics(self) -> dict[str, float]:
        """Calls and seconds per span name, and self time per module."""
        out: dict[str, float] = defaultdict(float)
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name.split(".")[0] + ".self_s"] += end - start - covered
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return dict(out)


# (module, attribute, shim factory or None, span?): "Class.method" patches the class.
def _targets(tracer: Tracer):
    def thresholds(fn):
        return fn.thresholds.size

    def atoms(alpha):
        return alpha.n

    return [
        ("measures", "check_convex_order", None, True),
        ("measures", "irreducible_components", None, True),
        ("measures", "make_grid_measure", None, True),
        ("measures", "wasserstein1", None, True),
        ("discretize", "discretize_family", None, True),
        ("gaussian", "StepFn.heat_convolve",
         lambda fn: tracer.count_evals("gaussian.heat_convolve", fn, thresholds), True),
        ("gaussian", "StepFn.heat_convolve_deriv",
         lambda fn: tracer.count_evals("gaussian.heat_convolve_deriv", fn, thresholds),
         True),
        ("gaussian", "smoothed_cdf",
         lambda fn: tracer.count_evals("gaussian.smoothed_cdf", fn, atoms), False),
        ("gaussian", "smoothed_sf",
         lambda fn: tracer.count_evals("gaussian.smoothed_sf", fn, atoms), False),
        ("gaussian", "invert_increasing",
         lambda fn: tracer.count_inversion("gaussian.invert_increasing", fn), True),
        ("bass_solver", "monotone_rearrangement", None, True),
        ("bass_solver", "update_alpha", None, True),
        ("bass_solver", "solve_component", None, True),
        ("geometric_bridge", "solve_geometric", None, True),
        ("geometric_bridge", "marginal_flow", None, True),
        ("geometric_bridge", "sde_volatility", None, True),
        ("duality_values", "primal_value", None, True),
        ("duality_values", "dual_value", None, True),
        ("simulate", "simulate_arithmetic", None, True),
        ("simulate", "simulate_geometric_sde",
         lambda fn: tracer.count_clamps("simulate.sde.clamp_count", fn), True),
        ("simulate", "ensemble_stats", None, True),
        ("simulate", "_path_uniforms",
         lambda fn: tracer.count_calls("simulate.path_streams", fn), False),
        ("simulate", "export_paths_csv",
         lambda fn: tracer.count_bytes("simulate.export_paths_csv.bytes", fn), True),
        ("cli", "build_marginals", None, True),
    ]


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the currently imported gbass modules."""
    modules = [m for n, m in sys.modules.items() if n == "gbass" or n.startswith("gbass.")]
    for module_name, attribute, shim, spanned in _targets(tracer):
        module = sys.modules["gbass." + module_name]
        owner_name, _, fn_name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, fn_name)
        wrapped = shim(original) if shim else original
        if spanned:
            wrapped = tracer.wrap(f"{module_name}.{fn_name}", wrapped)
        if owner_name:
            setattr(owner, fn_name, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
