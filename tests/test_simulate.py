"""Path engines on the benchmark's 201-atom lognormal pair, whose Bass martingale is GBM."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gbass as g
from gbass import simulate
from _oracles import path_reference, philox_uniforms, philox_word_uniforms

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
    # enough paths for the Gaussian sums of F_t to fit their interpolant at every step
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
def test_log_quadratic_variation_in_path_blocks_keeps_its_bits(ensembles, engine):
    # ensemble_stats sums each path's squared log increments a block of paths at a time
    ens = ensembles[engine]
    whole = np.sum(np.diff(np.log(ens.paths), axis=1) ** 2, axis=1)
    stats = g.ensemble_stats(ens)
    assert ens.n_paths > simulate._CHUNK
    assert (stats.log_qv_mean, stats.log_qv_se) == simulate._weighted_mean_se(whole, ens.weights)


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_variances_in_path_blocks_match_the_whole_array_formula(ensembles, engine):
    # ensemble_stats sums the weighted squared deviations a block of paths at a time
    ens = ensembles[engine]
    w = ens.weights
    means = (w @ ens.paths) / w.sum()
    whole = (w @ (ens.paths - means) ** 2) / w.sum()
    assert ens.n_paths >= 3 * simulate._CHUNK and ens.n_paths % simulate._CHUNK
    np.testing.assert_allclose(g.ensemble_stats(ens).variances, whole, rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("seed", range(12))
def test_one_path_matches_the_per_path_reference(bench_201, seed):
    # with one path, engine and reference both read each F_t on a single row
    csol = bench_201.arithmetic.component_solutions[0]
    sde = g.simulate_geometric_sde(bench_201, 0, N_STEPS, 1, seed)
    assert np.array_equal(sde.paths[0], bench_201.m / path_reference(
        csol, seed, 0, sde.time_grid, 1, girsanov=True))
    arithmetic = g.simulate_arithmetic(bench_201.arithmetic, N_STEPS, 1, seed)
    assert np.array_equal(arithmetic.paths[0], path_reference(csol, seed, 0,
                                                              arithmetic.time_grid, 2))


def test_ensembles_match_the_per_path_reference(bench_201):
    # 300 rows: F_t is read off a certified fit, within 2^-48 of fn's range of the dense
    # sweep, and a row of a BLAS matrix-vector product rounds apart from a lone dot product
    csol, n = bench_201.arithmetic.component_solutions[0], 300
    sde = g.simulate_geometric_sde(bench_201, 0, N_STEPS, n, SEED)
    arithmetic = g.simulate_arithmetic(bench_201.arithmetic, N_STEPS, n, SEED)
    for ens, heads, girsanov in ((sde, 1, True), (arithmetic, 2, False)):
        reference = np.array([path_reference(csol, SEED, i, ens.time_grid, heads, girsanov)
                              for i in range(n)])
        reference = bench_201.m / reference if girsanov else reference
        assert np.max(np.abs(ens.paths - reference) / np.abs(reference)) <= 1e-13


def two_component_runs(sol, gsol, n_paths):
    return {"arithmetic": g.simulate_arithmetic(sol, 5, n_paths, SEED),
            "weighted": g.simulate_geometric_weighted(gsol, 5, n_paths, SEED),
            **{f"sde{c}": g.simulate_geometric_sde(gsol, c, 5, n_paths, SEED) for c in (0, 1)}}


def test_two_component_paths_stay_in_one_component(two_component_pair, monkeypatch):
    sol = g.solve_decomposed(*two_component_pair)
    gsol = g.solve_geometric(*two_component_pair)
    m, runs = gsol.m, two_component_runs(sol, gsol, 400)
    # a component's closure: [lower, upper] of its fn for F_t(W_t), its image under m / x for prices
    price = [(m / c.fn.upper, m / c.fn.lower) for c in gsol.arithmetic.component_solutions]
    closures = {"arithmetic": [(c.fn.lower, c.fn.upper) for c in sol.component_solutions],
                "weighted": price, "sde0": price[:1], "sde1": price[1:]}
    for name, ens in runs.items():
        lo, hi = ens.paths.min(axis=1), ens.paths.max(axis=1)
        inside = np.array([(lo >= a) & (hi <= b) for a, b in closures[name]])
        assert np.all(inside.any(axis=0)) and np.all(inside.any(axis=1)), name
        if name == "arithmetic":  # and each path follows its component's per-path reference
            for i, c in enumerate(inside.argmax(axis=0)):
                reference = path_reference(sol.component_solutions[c], SEED, i, ens.time_grid, 2)
                assert np.max(np.abs(ens.paths[i] - reference) / np.abs(reference)) <= 1e-13
        target = two_component_pair[1] if name == "arithmetic" else gsol.mu1
        assert np.max(nearest_relative_gap(ens.paths[:, -1], target.atoms)) <= 1e-14, name
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    for name, ens in two_component_runs(sol, gsol, 400).items():
        assert np.array_equal(runs[name].paths, ens.paths), name
        assert np.array_equal(runs[name].weights, ens.weights), name


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
    for seed in (SEED, 2 ** 64 - 1):  # the largest seed runs
        ens = g.simulate_geometric_sde(gsol, 0, 5, 50, seed)
        assert np.all(ens.paths == ens.paths[:, :1])
        first = np.array([philox_uniforms(seed, i, 1)[0] for i in range(50)])
        assert np.array_equal(ens.paths[:, 0], g.quantile(mu, first))


def test_weighted_paths_at_the_static_price_stay_there(static_mass_solution):
    paths = g.simulate_geometric_weighted(static_mass_solution, N_STEPS, 400, SEED).paths
    static = paths[:, 0] == 3.0
    assert 0 < static.sum() < 400 and np.all(paths[~static, 0] == 1.0)
    assert np.all(paths[static] == 3.0)


def test_sde_prices_beside_static_mass_are_finite_and_positive(static_mass_solution):
    paths = g.simulate_geometric_sde(static_mass_solution, 0, N_STEPS, 400, SEED).paths
    assert np.all(np.isfinite(paths)) and np.all(paths > 0)
    assert np.all(paths[:, 0] == 1.0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("engine", ["arithmetic", "weighted", "sde"])
def test_seed_outside_uint64_raises(bench_201, engine, seed):
    with pytest.raises(ValueError, match="seed"):
        if engine == "arithmetic":
            g.simulate_arithmetic(bench_201.arithmetic, 3, 10, seed)
        else:
            run_engine(engine, bench_201, 3, 10, seed)


@pytest.mark.parametrize("key, n_steps, n_paths, seed", [
    ("n_steps", 3.0, 10, SEED), ("n_paths", 3, 10.0, SEED), ("seed", 3, 10, 7.5),
    ("seed", 3, 10, 7.0), ("seed", 3, 10, "7")])
@pytest.mark.parametrize("engine", ["arithmetic", "weighted", "sde"])
def test_a_count_or_seed_that_is_not_an_integer_raises(bench_201, engine, key, n_steps, n_paths,
                                                        seed):
    # a seed of 7.5 ran the streams of seed 7, and a float count failed inside numpy
    with pytest.raises(ValueError, match=f"simulation key '{key}' must be an integer"):
        if engine == "arithmetic":
            g.simulate_arithmetic(bench_201.arithmetic, n_steps, n_paths, seed)
        else:
            run_engine(engine, bench_201, n_steps, n_paths, seed)


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_numpy_integer_counts_and_seed_run_as_ints(bench_201, engine):
    ens = run_engine(engine, bench_201, np.int64(3), np.uint64(10), np.uint64(SEED))
    assert np.array_equal(ens.paths, run_engine(engine, bench_201, 3, 10, SEED).paths)


def test_reused_stream_matches_a_fresh_one_per_path(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    rows = np.concatenate([block for _, _, block in simulate._uniform_blocks(SEED, 30, 12)])
    fresh = np.array([philox_uniforms(SEED, i, 12) for i in range(30)])
    assert np.array_equal(rows, fresh)


# the key's index word crosses 2^32 and wraps past 2^64 - 1 under the key bumps
FAR_INDICES = st.lists(st.one_of(st.integers(2 ** 32 - 3, 2 ** 32 + 2),
                                 st.integers(2 ** 64 - 4, 2 ** 64 - 1),
                                 st.integers(0, 2 ** 64 - 1)), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1)),
       st.integers(1, 20), st.one_of(st.integers(1, 9), st.just(102)), FAR_INDICES)
@example(0, 15, 102, [2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
@example(2 ** 64 - 1, 8, 1, [0, 2 ** 64 - 1])
def test_block_streams_match_one_generator_per_path(seed, n_paths, count, far):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK", 7)
        blocks = list(simulate._uniform_blocks(seed, n_paths, count))
    assert [(start, stop) for start, stop, _ in blocks] == [
        (i, min(i + 7, n_paths)) for i in range(0, n_paths, 7)]
    rows = np.concatenate([block for _, _, block in blocks])
    assert np.array_equal(rows, [philox_uniforms(seed, i, count) for i in range(n_paths)])
    got = simulate._path_uniforms(seed, np.array(far, dtype=np.uint64), count)
    assert np.array_equal(got, [philox_uniforms(seed, i, count) for i in far])


def test_raw_words_below_2_11_floor_at_2_pow_minus_53(monkeypatch):
    # with every 64 x 64-bit product stubbed to zero, a counter's raw words are the
    # last round's key words: seed + 9 W0, 0, index + 9 W1, 0 (mod 2^64)
    monkeypatch.setattr(simulate, "_mulhilo", lambda m, x: (np.zeros_like(x), np.zeros_like(x)))
    words = [2 ** 11 - 1, 0, 3 * 2 ** 11, 0]
    seed = (words[0] - 9 * 0x9E3779B97F4A7C15) % 2 ** 64
    index = (words[2] - 9 * 0xBB67AE8584CAA73B) % 2 ** 64
    got = simulate._path_uniforms(seed, np.array([index], dtype=np.uint64), 6)
    want = philox_word_uniforms(words)
    assert want.tolist() == [2.0 ** -53, 2.0 ** -53, 3 * 2.0 ** -53, 2.0 ** -53]
    assert np.array_equal(got, [np.concatenate([want, want[:2]])])


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_paths_match_one_generator_per_path(bench_201, ensembles, monkeypatch, engine):
    monkeypatch.setattr(simulate, "_path_uniforms", lambda seed, index, count: np.array(
        [philox_uniforms(seed, i, count) for i in index.tolist()]))
    per_path = run_engine(engine, bench_201, N_STEPS, N_PATHS, SEED)
    assert np.array_equal(ensembles[engine].paths, per_path.paths)
    assert np.array_equal(ensembles[engine].weights, per_path.weights)


@pytest.mark.parametrize("engine", ["weighted", "sde"])
def test_export_matches_savetxt_bytes(ensembles, tmp_path, engine):
    ens = ensembles[engine]
    path = tmp_path / "paths.csv"
    simulate.export_paths_csv(ens, path)
    buf = io.BytesIO()
    np.savetxt(buf, np.hstack([ens.paths, ens.weights[:, None]]), delimiter=",", comments="",
               header=",".join(f"t={t:.10g}" for t in ens.time_grid) + ",weight", fmt="%.17g")
    assert path.read_bytes() == buf.getvalue()
