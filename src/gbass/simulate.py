"""Monte Carlo engines for solved transport instances.

Exact-marginal path sampling of the arithmetic martingale (component pasting
plus static mass), the reweighted representation of the price process, and an
Euler scheme driven by the local lognormal volatility. Every path owns a
counter-based random stream keyed by (seed, path index), so ensembles are
reproducible independently of chunking.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .bass_solver import BassSolution
from .geometric_bridge import GeometricSolution
from .gaussian import StepFn, heat_convolve_span
from .measures import GridMeasure, make_grid_measure, quantile, wasserstein1

_CHUNK = 16384
_MIN_U = 2.0 ** -53


@dataclass(frozen=True)
class PathEnsemble:
    time_grid: np.ndarray
    paths: np.ndarray
    weights: np.ndarray
    seed: int
    kind: str
    clamp_count: int = 0

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def _time_grid(n_steps: int, time_grid) -> np.ndarray:
    if time_grid is None:
        return np.linspace(0.0, 1.0, n_steps + 1)
    grid = np.asarray(time_grid, dtype=float)
    if grid[0] != 0.0 or grid[-1] != 1.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must increase strictly from 0 to 1")
    return grid


def power_time_grid(n_steps: int, power: float = 3.0) -> np.ndarray:
    """Grid on [0, 1] refined toward t = 1, where step targets steepen the dynamics."""
    u = np.linspace(0.0, 1.0, n_steps + 1)
    grid = 1.0 - (1.0 - u) ** power
    grid[0], grid[-1] = 0.0, 1.0
    return grid


def _path_uniforms(seed: int, index: int, count: int) -> np.ndarray:
    gen = Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))
    return np.maximum(gen.random(count), _MIN_U)


def _eval_smoothed(fn: StepFn, s: float, x: np.ndarray, table_size: int) -> np.ndarray:
    """fn * gamma_s at many points: exact for small support, tabulated otherwise."""
    if s == 0.0 or fn.thresholds.size == 0:
        return fn(x)
    if fn.thresholds.size <= 64 or x.size <= 2 * table_size:
        return fn.heat_convolve(s, x)
    lo, hi = float(x.min()), float(x.max())
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    grid = np.linspace(lo - pad, hi + pad, table_size)
    return np.interp(x, grid, fn.heat_convolve(s, grid))


def simulate_arithmetic(sol: BassSolution, n_steps: int, n_paths: int, seed: int,
                        time_grid=None, table_size: int = 1025) -> PathEnsemble:
    """Sample martingale paths as the smoothed generating function of a Brownian path.

    Each path draws its component, its initial point, and its increments from
    its own stream; marginals at grid times are exact up to the tabulation of
    the smoothed generating function.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need at least one step and one path")
    grid = _time_grid(n_steps, time_grid)
    k_steps = grid.size - 1
    decomp = sol.decomposition
    probs = np.array([decomp.identity_set_mass] +
                     [c.mass for c in decomp.components])
    cum_probs = np.cumsum(probs)
    cum_probs[-1] = 1.0

    paths = np.empty((n_paths, k_steps + 1))
    labels = np.empty(n_paths, dtype=np.int64)
    sqrt_dt = np.sqrt(np.diff(grid))

    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        block = np.empty((stop - start, k_steps + 2))
        for i in range(start, stop):
            block[i - start] = _path_uniforms(seed, i, k_steps + 2)
        lab = np.searchsorted(cum_probs, block[:, 0], side="right")
        labels[start:stop] = lab
        w0 = np.empty(stop - start)
        for ci in np.unique(lab):
            rows = lab == ci
            if ci == 0:
                w0[rows] = quantile(decomp.identity_restriction, block[rows, 1])
            else:
                w0[rows] = quantile(sol.component_solutions[ci - 1].alpha,
                                    block[rows, 1])
        incr = ndtri(block[:, 2:]) * sqrt_dt[None, :]
        paths[start:stop, 0] = w0
        paths[start:stop, 1:] = w0[:, None] + np.cumsum(incr, axis=1)

    for ci, csol in enumerate(sol.component_solutions, start=1):
        rows = np.flatnonzero(labels == ci)
        if rows.size == 0:
            continue
        for k, t in enumerate(grid):
            paths[rows, k] = _eval_smoothed(csol.fn, 1.0 - t, paths[rows, k],
                                            table_size)
    static = np.flatnonzero(labels == 0)
    if static.size:
        paths[static, 1:] = paths[static, :1]

    return PathEnsemble(grid, paths, np.ones(n_paths), seed, "arithmetic")


def simulate_geometric_weighted(gsol: GeometricSolution, n_steps: int, n_paths: int,
                                seed: int, time_grid=None,
                                table_size: int = 1025) -> PathEnsemble:
    """Price paths as m over the arithmetic paths, importance-weighted by the terminal value.

    Expectations of path functionals under the price measure are weighted
    averages over this ensemble; the weights have mean one in law.
    """
    base = simulate_arithmetic(gsol.arithmetic, n_steps, n_paths, seed,
                               time_grid, table_size)
    if np.any(base.paths <= 0):
        raise RuntimeError(
            "internal error: nonpositive driving value; the terminal marginal "
            "must have strictly positive support for the price representation")
    weights = base.paths[:, -1].copy()
    return PathEnsemble(base.time_grid, gsol.m / base.paths, weights, seed,
                        "geometric_weighted")


def simulate_geometric_sde(gsol: GeometricSolution, component_index: int,
                           n_steps: int, n_paths: int, seed: int, time_grid=None,
                           table_size: int = 1025,
                           range_epsilon: float = 1e-9) -> PathEnsemble:
    """Euler scheme for the price dynamics on a single component.

    The local volatility is read off tabulated values and slopes of the
    smoothed generating function; states are clamped into the open component
    range, where the dynamics degenerate, and clamps are counted.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need at least one step and one path")
    grid = _time_grid(n_steps, time_grid)
    k_steps = grid.size - 1
    if not gsol.arithmetic.component_solutions:
        # nothing moves: constant paths drawn from the initial marginal
        start = np.empty(n_paths)
        for i in range(n_paths):
            start[i] = quantile(gsol.mu0, _path_uniforms(seed, i, 1)[0])
        paths = np.repeat(start[:, None], k_steps + 1, axis=1)
        return PathEnsemble(grid, paths, np.ones(n_paths), seed, "geometric_sde")
    csol = gsol.arithmetic.component_solutions[component_index]
    m = gsol.m
    s_lo = m / csol.fn.upper * (1.0 + range_epsilon)
    s_hi = m / csol.fn.lower * (1.0 - range_epsilon)
    mu0_restricted = make_grid_measure(m / csol.source.atoms,
                                       csol.source.weights * csol.source.atoms)

    paths = np.empty((n_paths, k_steps + 1))
    incr = np.empty((n_paths, k_steps))
    sqrt_dt = np.sqrt(np.diff(grid))
    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        block = np.empty((stop - start, k_steps + 1))
        for i in range(start, stop):
            block[i - start] = _path_uniforms(seed, i, k_steps + 1)
        paths[start:stop, 0] = quantile(mu0_restricted, block[:, 0])
        incr[start:stop] = ndtri(block[:, 1:]) * sqrt_dt[None, :]

    clamps = 0
    state = np.clip(paths[:, 0], s_lo, s_hi)
    paths[:, 0] = state
    for k in range(k_steps):
        xg = np.linspace(*heat_convolve_span(csol.fn, 1.0 - grid[k]), table_size)
        vals = csol.fn.heat_convolve(1.0 - grid[k], xg)
        slopes = csol.fn.heat_convolve_deriv(1.0 - grid[k], xg)
        x_star = np.interp(m / state, vals, xg)
        sigma = state / m * np.interp(x_star, xg, slopes)
        proposal = state * (1.0 + sigma * incr[:, k])
        clamped = np.clip(proposal, s_lo, s_hi)
        clamps += int(np.count_nonzero(clamped != proposal))
        state = clamped
        paths[:, k + 1] = state

    return PathEnsemble(grid, paths, np.ones(n_paths), seed, "geometric_sde",
                        clamp_count=clamps)


def _weighted_mean_se(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    total = weights.sum()
    mean = float(weights @ values / total)
    se = float(np.sqrt(np.sum((weights * (values - mean)) ** 2)) / total)
    return mean, se


@dataclass(frozen=True)
class SimulationStats:
    time_grid: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    weight_mean: float
    weight_se: float
    w1_initial: float | None
    w1_terminal: float | None
    log_qv_mean: float | None
    log_qv_se: float | None
    martingale_tests: dict = field(default_factory=dict)
    clamp_count: int = 0

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in asdict(self).items()}


def ensemble_stats(ens: PathEnsemble, reference_marginals=None,
                   martingale_time: float = 0.5, log_qv: bool | None = None) -> SimulationStats:
    """Weighted summary of an ensemble.

    Reports per-time weighted means and variances, distances of the weighted
    initial/terminal laws to reference marginals when given, the realized
    quadratic variation of log paths, and covariance tests of the martingale
    property against the functions 1, s and 1/s of the intermediate state.
    """
    w = ens.weights
    total = w.sum()
    means = (w @ ens.paths) / total
    variances = (w @ (ens.paths - means[None, :]) ** 2) / total
    weight_mean = float(np.mean(w))
    weight_se = float(np.std(w) / np.sqrt(w.size))

    w1_initial = w1_terminal = None
    if reference_marginals is not None:
        ref0, ref1 = reference_marginals
        if ref0 is not None:
            w1_initial = wasserstein1(make_grid_measure(ens.paths[:, 0], w), ref0)
        if ref1 is not None:
            w1_terminal = wasserstein1(make_grid_measure(ens.paths[:, -1], w), ref1)

    positive = bool(np.all(ens.paths > 0))
    if log_qv is True and not positive:
        raise ValueError("log quadratic variation requested on nonpositive paths")
    log_qv_mean = log_qv_se = None
    if positive and log_qv is not False:
        qv = np.sum(np.diff(np.log(ens.paths), axis=1) ** 2, axis=1)
        log_qv_mean, log_qv_se = _weighted_mean_se(qv, w)

    idx = int(np.argmin(np.abs(ens.time_grid - martingale_time)))
    mid = ens.paths[:, idx]
    last = ens.paths[:, -1]
    tests = {}
    tests["constant"] = _weighted_mean_se(last - mid, w)
    tests["linear"] = _weighted_mean_se((last - mid) * mid, w)
    if np.all(mid != 0):
        tests["reciprocal"] = _weighted_mean_se((last - mid) / mid, w)

    return SimulationStats(ens.time_grid, means, variances, weight_mean, weight_se,
                           w1_initial, w1_terminal, log_qv_mean, log_qv_se,
                           tests, ens.clamp_count)


def export_paths_csv(ens: PathEnsemble, path) -> None:
    """One row per path: state at each grid time, then the path weight."""
    header = ",".join(f"t={t:.10g}" for t in ens.time_grid) + ",weight"
    data = np.hstack([ens.paths, ens.weights[:, None]])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")
