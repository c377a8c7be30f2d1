"""What the benchmark runs and reports: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 perfbench/run.py --write-spec``; the tests check the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 60
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# The reference pair of the roadmap: lognormal(-0.02, 0.04) -> lognormal(-0.08, 0.16).
# Both have mean one, and the geometric Bass martingale between them is a
# geometric Brownian motion with constant volatility sqrt(0.16 - 0.04).
MU0 = {"family": "lognormal", "meanlog": -0.02, "varlog": 0.04}
MU1 = {"family": "lognormal", "meanlog": -0.08, "varlog": 0.16}
GBM_SIGMA = 0.12 ** 0.5
FLOW_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Workload:
    """One input set. Every workload runs every stage, at its own sizes.

    The volatility surface is probed at each time in ``surface_times`` and at
    the prices whose GBM log-return z-scores are ``surface_scores``.
    """

    name: str
    why: str
    grid_size: int
    n_paths: int
    n_steps: int
    surface_times: tuple[float, ...]
    surface_scores: tuple[float, ...]


def _grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(round(lo + (hi - lo) * i / (n - 1), 12) for i in range(n))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lognormal-1001",
        why=("dense n_thr x n_atoms Gaussian kernels (gaussian, bass_solver) do nearly all "
             "the work over 10 outer iterations; the GBM closed form gives exact oracles"),
        grid_size=1001, n_paths=2000, n_steps=10,
        surface_times=_grid(0.05, 0.95, 19), surface_scores=_grid(-2.5, 2.5, 21)),
    Workload(
        name="paths-201",
        why=("path engines and CSV export dominate (per-path streams, per-step SDE tables, "
             "savetxt) while solver kernels stay light; stream, table and export changes show here"),
        grid_size=201, n_paths=20000, n_steps=100,
        surface_times=_grid(0.1, 0.9, 9), surface_scores=_grid(-2.0, 2.0, 9)),
)}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. Times
# are in reference seconds (see pipeline.REFERENCE_S); their run-to-run
# spread on a shared 2-core host is up to 0.08 of the median, hence 0.25.
# Accuracy is in decimal digits, -log10(max(err, 1e-16)), so higher is better;
# it does not depend on the seed, and the bounds allow roundoff-level moves.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("value_s", "s", "lower", 0.25),
    ("flow_s", "s", "lower", 0.25),
    ("surface_s", "s", "lower", 0.25),
    ("simulate_s", "s", "lower", 0.25),
    ("export_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("primal_digits", "digits", "higher", 0.05),
    ("gap_digits", "digits", "higher", 0.1),
    ("residual_digits", "digits", "higher", 0.1),
    ("flow_mean_digits", "digits", "higher", 0.05),
    ("vol_digits", "digits", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better); reported by the traced run only.
PER_LAYER = [
    ("measures.check_convex_order.calls", "count", "lower"),
    ("measures.check_convex_order.s", "s", "lower"),
    ("measures.irreducible_components.calls", "count", "lower"),
    ("measures.irreducible_components.s", "s", "lower"),
    ("measures.make_grid_measure.calls", "count", "lower"),
    ("measures.make_grid_measure.s", "s", "lower"),
    ("measures.wasserstein1.calls", "count", "lower"),
    ("measures.wasserstein1.s", "s", "lower"),
    ("measures.self_s", "s", "lower"),
    ("discretize.discretize_family.s", "s", "lower"),
    ("discretize.self_s", "s", "lower"),
    ("gaussian.heat_convolve.calls", "count", "lower"),
    ("gaussian.heat_convolve.s", "s", "lower"),
    ("gaussian.heat_convolve.evals", "count", "lower"),
    ("gaussian.heat_convolve_deriv.calls", "count", "lower"),
    ("gaussian.heat_convolve_deriv.s", "s", "lower"),
    ("gaussian.heat_convolve_deriv.evals", "count", "lower"),
    ("gaussian.smoothed_cdf.evals", "count", "lower"),
    ("gaussian.smoothed_sf.evals", "count", "lower"),
    ("gaussian.invert_increasing.calls", "count", "lower"),
    ("gaussian.invert_increasing.targets", "count", "lower"),
    ("gaussian.invert_increasing.rows_evaluated", "count", "lower"),
    ("gaussian.invert_increasing.rows_per_target", "ratio", "lower"),
    ("gaussian.self_s", "s", "lower"),
    ("bass_solver.outer_iterations", "count", "lower"),
    ("bass_solver.outer_iterations.max", "count", "lower"),
    ("bass_solver.monotone_rearrangement.calls", "count", "lower"),
    ("bass_solver.monotone_rearrangement.s", "s", "lower"),
    ("bass_solver.update_alpha.calls", "count", "lower"),
    ("bass_solver.update_alpha.s", "s", "lower"),
    ("bass_solver.solve_component.calls", "count", "lower"),
    ("bass_solver.solve_component.s", "s", "lower"),
    ("bass_solver.self_s", "s", "lower"),
    ("geometric_bridge.solve_geometric.calls", "count", "lower"),
    ("geometric_bridge.solve_geometric.s", "s", "lower"),
    ("geometric_bridge.marginal_flow.calls", "count", "lower"),
    ("geometric_bridge.marginal_flow.s", "s", "lower"),
    ("geometric_bridge.sde_volatility.calls", "count", "lower"),
    ("geometric_bridge.sde_volatility.s", "s", "lower"),
    ("geometric_bridge.self_s", "s", "lower"),
    ("duality_values.primal_value.s", "s", "lower"),
    ("duality_values.dual_value.s", "s", "lower"),
    ("duality_values.self_s", "s", "lower"),
    ("simulate.simulate_arithmetic.s", "s", "lower"),
    ("simulate.simulate_geometric_sde.s", "s", "lower"),
    ("simulate.ensemble_stats.s", "s", "lower"),
    ("simulate.path_streams", "count", "lower"),
    ("simulate.export_paths_csv.s", "s", "lower"),
    ("simulate.export_paths_csv.bytes", "bytes", "lower"),
    ("simulate.sde.clamp_count", "count", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("cli.build_marginals.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
