"""Path engines on the benchmark's 201-atom lognormal pair, whose Bass martingale is GBM."""

import io

import numpy as np
import pytest

import gbass as g
from gbass import simulate

N_PATHS = 20000
N_STEPS = 10
SEED = 7
SIGMAS = 5.0


def run_engine(engine, gsol, n_steps, n_paths, seed):
    if engine == "weighted":
        return g.simulate_geometric_weighted(gsol, n_steps, n_paths, seed)
    return g.simulate_geometric_sde(gsol, 0, n_steps, n_paths, seed)


@pytest.fixture(scope="module")
def ensembles(bench_201):
    return {engine: run_engine(engine, bench_201, N_STEPS, N_PATHS, SEED)
            for engine in ("weighted", "sde")}


def nearest_relative_gap(values, atoms):
    """Relative distance of each value to the nearest atom of a sorted array."""
    idx = np.clip(np.searchsorted(atoms, values), 1, atoms.size - 1)
    gap = np.minimum(np.abs(values - atoms[idx - 1]), np.abs(values - atoms[idx]))
    return gap / np.abs(values)


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_chunks_do_not_change_paths(bench_201, monkeypatch, engine):
    # enough paths for smoothed_values to fit its interpolant at every step
    whole = run_engine(engine, bench_201, 5, 1100, SEED)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    chunked = run_engine(engine, bench_201, 5, 1100, SEED)
    assert np.array_equal(whole.paths, chunked.paths)
    assert np.array_equal(whole.weights, chunked.weights)


def check_gbm_log_quadratic_variation(ens):
    stats = g.ensemble_stats(ens)
    # E[<log S>] over the grid of GBM with sigma^2 = 0.12: sigma^2 + sigma^4 sum(dt^2) / 4
    expected = 0.12 + 0.12 ** 2 * np.sum(np.diff(ens.time_grid) ** 2) / 4.0
    assert abs(stats.log_qv_mean - expected) <= SIGMAS * stats.log_qv_se
    for mean, se in stats.martingale_tests.values():
        assert abs(mean) <= SIGMAS * se


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_gbm_log_quadratic_variation(bench_201, ensembles, engine):
    check_gbm_log_quadratic_variation(ensembles[engine])


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_gbm_log_quadratic_variation_at_100_steps(bench_201, engine):
    # 20 000 paths x 100 steps: both engines together take about 1.1 s on a 2-core host
    check_gbm_log_quadratic_variation(run_engine(engine, bench_201, 100, N_PATHS, SEED))


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_moments_match_marginal_flow(bench_201, ensembles, engine):
    ens = ensembles[engine]
    for k, t in enumerate(ens.time_grid):
        flow = g.marginal_flow(bench_201, float(t))
        for power in (1, 2):
            mean, se = simulate._weighted_mean_se(ens.paths[:, k] ** power, ens.weights)
            assert abs(mean - flow.weights @ flow.atoms ** power) <= SIGMAS * se, (t, power)


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_paths_start_and_end_on_the_marginals(bench_201, ensembles, engine):
    ens = ensembles[engine]
    assert ens.clamp_count == 0
    assert np.max(nearest_relative_gap(ens.paths[:, 0], bench_201.mu0.atoms)) <= 1e-12
    assert np.max(nearest_relative_gap(ens.paths[:, -1], bench_201.mu1.atoms)) <= 1e-14
    csol = bench_201.arithmetic.component_solutions[0]
    m = bench_201.m
    assert np.all((ens.paths >= m / csol.fn.upper) & (ens.paths <= m / csol.fn.lower))


def test_sde_terminal_law_no_worse_than_euler_in_price(bench_201, ensembles):
    # 5.4e-3 is the terminal W1 to mu1 of the former Euler scheme in S on this
    # pair at 20 000 paths x 10 steps, seed 7; the driving-coordinate scheme
    # lands on mu1's atoms, so only Monte Carlo noise is left
    stats = simulate.ensemble_stats(ensembles["sde"], (bench_201.mu0, bench_201.mu1))
    assert stats.w1_terminal <= 5.4e-3


def test_sde_without_components_holds_the_initial_draw():
    # mu0 == mu1: all mass is static, so every path stays at its initial atom
    mu = g.make_grid_measure([0.5, 1.5], [0.5, 0.5])
    gsol = g.solve_geometric(mu, mu)
    assert not gsol.arithmetic.component_solutions
    ens = g.simulate_geometric_sde(gsol, 0, 5, 50, SEED)
    assert np.all(ens.paths == ens.paths[:, :1])
    first = np.array([simulate._path_uniforms(SEED, i, 1)[0] for i in range(50)])
    assert np.array_equal(ens.paths[:, 0], g.quantile(mu, first))


def test_reused_stream_matches_a_fresh_one_per_path(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    rows = np.concatenate([block for _, _, block in simulate._uniform_blocks(SEED, 30, 12)])
    fresh = np.array([simulate._path_uniforms(SEED, i, 12) for i in range(30)])
    assert np.array_equal(rows, fresh)


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_export_matches_savetxt_bytes(ensembles, tmp_path, engine):
    ens = ensembles[engine]
    path = tmp_path / "paths.csv"
    simulate.export_paths_csv(ens, path)
    buf = io.BytesIO()
    np.savetxt(buf, np.hstack([ens.paths, ens.weights[:, None]]), delimiter=",", comments="",
               header=",".join(f"t={t:.10g}" for t in ens.time_grid) + ",weight", fmt="%.17g")
    assert path.read_bytes() == buf.getvalue()
