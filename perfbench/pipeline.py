"""Repetitions of the gbass pipeline on one generated config, with their checks.

A repetition mirrors the CLI commands check, solve, value, flow and simulate
on the config the workload generator wrote, solving once instead of once per
command, and adds a volatility surface. Each stage is timed; the
benchmark's own correctness checks run outside the timed regions.

Every check is counted as one operation. An operation fails when it raises
or breaks an invariant the library keeps today; an exception also fails
every operation of the repetition that could not run after it.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtr

from . import tracing
from .spec import END_TO_END, FLOW_TIMES, GBM_SIGMA, MU0, MU1, PER_LAYER, Workload

STAGES = ("setup", "check", "solve", "value", "flow", "surface", "simulate", "export")

# |primal - sigma| <= PRIMAL_BOUND / grid_size. The error of the equal-mass
# lognormal discretization falls like 1/n: 0.112/n, 0.080/n and 0.062/n at
# n = 41, 201 and 1001, so the constant leaves a margin of 1.8 or more.
PRIMAL_BOUND = 0.2
# Monte Carlo checks of the weighted engine allow this many standard errors.
MC_SIGMAS = 5.0

# On a shared host the throughput of one core swings by a quarter or more
# over minutes, with co-tenant load, and a whole run can sit in a slow phase.
# So every time is reported in reference seconds: a fixed kernel made of the
# pipeline's kinds of work (Gaussian-kernel sweeps in and out of cache,
# per-call stream set-up, CSV formatting) is timed between the library calls,
# and each call's wall seconds are scaled by REFERENCE_S over the mean of the
# kernel's times just before and after it. Wall seconds go to the result file.
REFERENCE_S = 0.03


class _Reference:
    def __init__(self):
        def sweep(n, m):
            return np.linspace(-3.0, 3.0, n)[:, None] - np.linspace(-2.0, 2.0, m)[None, :]
        cached, uncached = sweep(256, 512), sweep(1024, 768)
        self.sweeps = [(z, np.full(z.shape[1], 1.0 / z.shape[1]))
                       for z in (cached, cached, uncached)]
        self.table = np.random.default_rng(0).random((100, 20))

    def __call__(self) -> float:
        start = perf_counter()
        for z, w in self.sweeps:
            ndtr(z) @ w
            np.exp(-z * z / 2.0) @ w
        for i in range(20):
            Generator(Philox(key=np.array([1, i], dtype=np.uint64))).random(100)
        np.savetxt(io.StringIO(), self.table, fmt="%.17g", delimiter=",")
        return perf_counter() - start


reference = _Reference()


def make_config(w: Workload, seed: int) -> str:
    """The generated input: a CLI config, plus the surface points to probe."""
    surface = [[t, math.exp(GBM_SIGMA * math.sqrt(t) * z - GBM_SIGMA ** 2 * t / 2.0)]
               for t in w.surface_times for z in w.surface_scores]
    return json.dumps({
        "mu0": dict(MU0, grid_size=w.grid_size),
        "mu1": dict(MU1, grid_size=w.grid_size),
        "flow_times": list(FLOW_TIMES),
        "simulation": {"engines": ["weighted", "sde"], "n_steps": w.n_steps,
                       "n_paths": w.n_paths, "seed": seed},
        "surface": surface,
    })


def import_gbass():
    """Import gbass afresh, so set-up pays the import and traced code never leaks."""
    for name in [n for n in sys.modules if n == "gbass" or n.startswith("gbass.")]:
        del sys.modules[name]
    importlib.import_module("gbass.cli")
    return importlib.import_module("gbass")


@dataclass
class Rep:
    """Timings, checks and results of one repetition."""

    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    times: dict[str, float] = field(default_factory=dict)  # reference seconds
    wall: dict[str, float] = field(default_factory=dict)   # wall seconds
    errors: dict[str, float] = field(default_factory=dict)
    solution: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    tracer: tracing.Tracer | None = None
    _done: int = 0
    _last_reference: float | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self._done += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def abort(self, exc: Exception) -> None:
        self.failed += self.attempted - self._done
        self._done = self.attempted
        self.failures.append(f"aborted: {type(exc).__name__}: {exc}")

    def timed(self, stage: str, fn, *args):
        """Call ``fn(*args)`` as part of ``stage`` and add its time, in reference seconds."""
        before = self._last_reference or reference()
        with self.tracer.span("bench." + stage) if self.tracer else nullcontext():
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
        self._last_reference = after = reference()
        self.wall[stage] = self.wall.get(stage, 0.0) + elapsed
        scaled = elapsed * REFERENCE_S / ((before + after) / 2.0)
        self.times[stage] = self.times.get(stage, 0.0) + scaled
        return result

    @property
    def total_s(self) -> float:
        return sum(self.times.values())

    @property
    def slowdown(self) -> float:
        """Wall seconds per reference second over the repetition."""
        return sum(self.wall.values()) / self.total_s


def ops_per_rep(config: dict) -> int:
    # check, solve, value, one per flow time and surface point, two engines, two files
    return 3 + len(config["flow_times"]) + len(config["surface"]) + 4


def run_rep(config_text: str, workdir: Path, tracer: tracing.Tracer | None = None) -> Rep:
    config = json.loads(config_text)
    rep = Rep(attempted=ops_per_rep(config), tracer=tracer)
    try:
        _stages(rep, config_text, workdir)
    except Exception as exc:  # a failed operation is counted, never fatal
        rep.abort(exc)
    return rep


def _setup(config_text: str, workdir: Path, tracer: tracing.Tracer | None):
    g = import_gbass()
    if tracer is not None:
        tracing.install(tracer)
    config = json.loads(config_text)
    mu0, mu1 = sys.modules["gbass.cli"].build_marginals(config, workdir)
    return g, config, mu0, mu1, g.SolverParams.from_dict(config.get("solver", {}))


def _stages(rep: Rep, config_text: str, workdir: Path) -> None:
    g, config, mu0, mu1, params = rep.timed("setup", _setup, config_text, workdir, rep.tracer)

    order, decomp = rep.timed("check", lambda: (g.check_convex_order(mu0, mu1),
                                                g.irreducible_components(mu0, mu1)))
    rep.check("check", order.in_convex_order and len(decomp.components) == 1
              and decomp.identity_set_mass == 0.0,
              "the lognormal pair must be one irreducible component in convex order")

    gsol = rep.timed("solve", g.solve_geometric, mu0, mu1, params)
    comps = gsol.arithmetic.component_solutions
    rep.solution = [(c.alpha.atoms.copy(), c.fn.thresholds.copy()) for c in comps]
    rep.iterations = [c.iterations for c in comps]
    residual = max(max(c.residual_source, c.residual_target) for c in comps)
    rep.check("solve", residual <= params.fit_tolerance,
              f"residual {residual:.3e} above fit tolerance {params.fit_tolerance:.1e}")

    report = rep.timed("value", g.make_value_report, gsol, float(config.get("sigma_bar", 1.0)),
                       float(config.get("Sigma_bar", 1.0)))
    gap = abs(report.duality_gap)
    primal_err = abs(report.geometric_primal - GBM_SIGMA)
    gap_bound = params.fit_tolerance * max(1.0, abs(report.geometric_primal))
    primal_bound = PRIMAL_BOUND / config["mu0"]["grid_size"]
    rep.check("value", gap <= gap_bound and primal_err <= primal_bound,
              f"gap {gap:.3e} (bound {gap_bound:.1e}), primal error {primal_err:.3e} "
              f"(bound {primal_bound:.1e})")

    flows = [rep.timed("flow", g.marginal_flow, gsol, float(t)) for t in config["flow_times"]]
    for t, mu_t in zip(config["flow_times"], flows):
        rep.check(f"flow t={t}", math.isfinite(mu_t.mean), f"mean {mu_t.mean}")
    flow_err = max(abs(mu_t.mean - gsol.m) for mu_t in flows)

    vols = rep.timed("surface", lambda: [g.sde_volatility(gsol, 0, t, s)
                                         for t, s in config["surface"]])
    for (t, s), vol in zip(config["surface"], vols):
        rep.check(f"surface t={t} s={s}", math.isfinite(vol) and vol > 0.0, f"volatility {vol}")
    vol_err = max(abs(vol - GBM_SIGMA) for vol in vols)

    sim = config["simulation"]
    n_steps, n_paths, seed = sim["n_steps"], sim["n_paths"], sim["seed"]
    refs = (gsol.mu0, gsol.mu1)

    def engine(simulate, *args):
        ens = simulate(*args)
        return ens, g.ensemble_stats(ens, refs)

    weighted, weighted_stats = rep.timed("simulate", engine, g.simulate_geometric_weighted,
                                         gsol, n_steps, n_paths, seed)
    sde, _ = rep.timed("simulate", engine, g.simulate_geometric_sde,
                       gsol, 0, n_steps, n_paths, seed)
    rep.check("simulate weighted", *_check_weighted(weighted, weighted_stats, report, refs))
    rep.check("simulate sde", bool(np.all(np.isfinite(sde.paths)) and np.all(sde.paths > 0)),
              "non-finite or nonpositive price")

    files = {workdir / "paths_weighted.csv": weighted, workdir / "paths_sde.csv": sde}
    for path, ens in files.items():
        rep.timed("export", g.export_paths_csv, ens, path)
    for path, ens in files.items():
        rep.check(f"export {path.name}", *_check_export(path, ens))
        path.unlink()

    rep.errors = {"primal": primal_err, "gap": gap, "residual": residual,
                  "flow_mean": flow_err, "vol": vol_err}


def _w1_scale(mu) -> float:
    """Integral of sqrt(F (1 - F)): n^-1/2 times it bounds E[W1] of an n-sample."""
    c = mu.cum_weights[:-1]
    return float(np.sqrt(c * (1.0 - c)) @ np.diff(mu.atoms))


def _check_weighted(ens, stats, report, refs) -> tuple[bool, str]:
    """Marginals, martingale tests and log quadratic variation of the weighted engine."""
    w = ens.weights
    n_eff = w.sum() ** 2 / (w @ w)
    problems = []
    for label, dist, ref in (("W1 to mu0", stats.w1_initial, refs[0]),
                             ("W1 to mu1", stats.w1_terminal, refs[1])):
        bound = MC_SIGMAS * _w1_scale(ref) / math.sqrt(n_eff)
        if not dist <= bound:
            problems.append(f"{label} {dist:.3e} > {bound:.3e}")
    for label, (mean, se) in stats.martingale_tests.items():
        if not abs(mean) <= MC_SIGMAS * se:
            problems.append(f"martingale test {label}: z = {mean / se:.2f}")
    # E[<log S>_1] = 2 (E log S_0 - E log S_1); the grid adds sigma^4 sum(dt^2) / 4
    var = report.log_moment_diff
    expected = var + var ** 2 * float(np.sum(np.diff(ens.time_grid) ** 2)) / 4.0
    if not abs(stats.log_qv_mean - expected) <= MC_SIGMAS * stats.log_qv_se:
        problems.append(f"log-QV {stats.log_qv_mean:.5f} +- {stats.log_qv_se:.1e}, "
                        f"expected {expected:.5f}")
    return not problems, "; ".join(problems)


def _check_export(path: Path, ens) -> tuple[bool, str]:
    """Header width, one line per path, and the last row read back exactly."""
    size = path.stat().st_size
    with open(path, "rb") as fh:
        columns = fh.readline().count(b",") + 1
        lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        fh.seek(max(0, size - (1 << 16)))
        last = fh.read().splitlines()[-1]
    row = np.array([float(v) for v in last.split(b",")])
    expected = np.append(ens.paths[-1], ens.weights[-1])
    ok = (columns == expected.size and lines == ens.n_paths + 1
          and row.shape == expected.shape and np.array_equal(row, expected))
    return ok, f"{lines} lines of {columns} columns, last row matches: {ok}"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 min_reps: int = 3) -> list[Rep]:
    """Repeat the pipeline until the next repetition would overrun ``seconds``.

    With ``trace`` the repetitions alternate untraced and traced, so both
    see the same machine state; at least two of each are run.
    """
    config_text = make_config(w, seed)
    min_reps = max(min_reps, 4 if trace else 1)
    reps: list[Rep] = []
    start = perf_counter()
    while True:
        tracer = tracing.Tracer(f"{w.name}/seed{seed}/rep{len(reps)}") \
            if trace and len(reps) % 2 == 1 else None
        reps.append(run_rep(config_text, workdir, tracer))
        elapsed = perf_counter() - start
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def digits(err: float) -> float:
    return -math.log10(max(err, 1e-16))


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """Stage medians over the untraced repetitions and the worst accuracy seen."""
    plain = [r for r in reps if r.tracer is None and r.errors]
    out = {f"{s}_s": statistics.median(r.times[s] for r in plain) for s in STAGES}
    out["total_s"] = statistics.median(r.total_s for r in plain)
    for key in ("primal", "gap", "residual", "flow_mean", "vol"):
        out[f"{key}_digits"] = digits(max(r.errors[key] for r in plain))
    return out


def per_layer(reps: list[Rep]) -> dict[str, float]:
    """Medians over the traced repetitions, and the tracing overhead."""
    traced = [r for r in reps if r.tracer is not None and r.errors]
    plain = [r for r in reps if r.tracer is None and r.errors]
    samples = []
    for r in traced:
        m = r.tracer.layer_metrics()
        for key in [k for k in m if k.endswith(".s") or k.endswith(".self_s")]:
            m[key] /= r.slowdown
        m["bass_solver.outer_iterations"] = sum(r.iterations)
        m["bass_solver.outer_iterations.max"] = max(r.iterations)
        m["gaussian.invert_increasing.rows_per_target"] = (
            m["gaussian.invert_increasing.rows_evaluated"]
            / m["gaussian.invert_increasing.targets"])
        samples.append(m)
    out = {k: statistics.median(m.get(k, 0.0) for m in samples) for k in samples[0]}
    out["trace.overhead_s"] = (statistics.median(r.total_s for r in traced)
                               - statistics.median(r.total_s for r in plain))
    return out


def metrics(reps: list[Rep], trace: bool) -> dict[str, dict]:
    """The reported metrics by name: per-layer with ``trace``, else end-to-end."""
    if trace:
        values = per_layer(reps)
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = end_to_end(reps)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = [(name, unit) for name, unit, _, _ in END_TO_END]
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units}
