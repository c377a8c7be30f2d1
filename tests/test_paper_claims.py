"""The paper's headline statements, checked on solved pairs.

GBM is both an arithmetic and a geometric Bass martingale: for the lognormal
price pair its value surface is F_t(x) = c_t exp(sigma x), so F_t' / F_t is
the constant sigma, whether the pair is solved as it stands or reflected
into the arithmetic problem of the geometric one. And the geometric problem
does not change under a price scale S -> cS, so neither may its solve. The
solve decides the components on the price side and carries each J onto the
arithmetic I = m / J: wherever the arithmetic pair decomposes on its own,
both decompositions agree bit for bit, and the price side decomposes too.
On the GBM pair the primal is sigma and the price at t is lognormal with varlog
0.04 + sigma^2 t, closed forms that the solve must meet to its grid's O(1/n).
The price solves dS = S sigma(t, S) dB, so along simulated paths the time
integral of sde_volatility has the primal as its mean, on a pair that is not GBM;
so does the time integral of its mean over marginal_flow, with no paths at all.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import gbass as g
from gbass import geometric_bridge
from gbass.cli import build_marginals
from gbass.discretize import Lognormal, discretize_family
from conftest import fuzz_pair, fuzz_pairs

SIGMA = math.sqrt(0.12)
TIMES = (0.25, 0.5, 0.75)


def log_slopes(csol: g.BassComponentSolution) -> np.ndarray:
    """F_t' / F_t at alpha's 5-95 % quantiles, one row per t in TIMES."""
    x = g.quantile(csol.alpha, np.linspace(0.05, 0.95, 19))
    return np.array([g.eval_fn_deriv(csol, t, x) / g.eval_fn(csol, t, x) for t in TIMES])


@pytest.fixture(scope="module")
def price_pair_solution():
    config = {
        "mu0": {"family": "lognormal", "meanlog": -0.02, "varlog": 0.04, "grid_size": 201},
        "mu1": {"family": "lognormal", "meanlog": -0.08, "varlog": 0.16, "grid_size": 201},
    }
    return g.solve_decomposed(*build_marginals(config, Path(".")))


def test_gbm_is_an_arithmetic_bass_martingale(price_pair_solution):
    # measured 8.3e-4 at 201 atoms; the error is the grid's, O(1/n)
    (csol,) = price_pair_solution.component_solutions
    assert np.max(np.abs(log_slopes(csol) - SIGMA)) <= 2e-3


def test_gbm_is_a_geometric_bass_martingale(bench_201):
    # measured 1.06e-3 at 201 atoms
    (csol,) = bench_201.arithmetic.component_solutions
    assert np.max(np.abs(log_slopes(csol) - SIGMA)) <= 2e-3


def test_a_step_pair_has_no_constant_log_slope(geometric_step_solution):
    # alpha is one atom, so the ratio varies over t only: 0.474, 0.534 and
    # 0.546, a spread of 0.072, 36 times the GBM bound above
    (csol,) = geometric_step_solution.arithmetic.component_solutions
    ratios = log_slopes(csol)
    assert np.ptp(ratios) > 0.05


def scaled_solve(mu0: g.GridMeasure, mu1: g.GridMeasure, c: float) -> tuple[int, float, float]:
    """Component count, static mass and primal of the pair with every price times c."""
    gsol = g.solve_geometric(*(g.make_grid_measure(c * mu.atoms, mu.weights) for mu in (mu0, mu1)))
    return (len(gsol.arithmetic.component_solutions),
            gsol.arithmetic.decomposition.identity_set_mass, g.primal_value(gsol.arithmetic))


@pytest.mark.parametrize("fuzz", [None, (1e-6, 2), (0.02, 3), (0.3, 7)],
                         ids=["bench-201", "fuzz-1e-6-2", "fuzz-0.02-3", "fuzz-0.3-7"])
def test_the_solve_is_invariant_under_a_price_scale(bench_201, fuzz):
    # measured: the primal moves by at most 8.3e-11 relative on the spread-1e-6
    # pair, whose primal is 2.5e-7, and by 4.4e-15 on the others
    mu0, mu1 = (bench_201.mu0, bench_201.mu1) if fuzz is None else fuzz_pair(*fuzz)
    count, static, primal = scaled_solve(mu0, mu1, 1.0)
    for c in (1e-8, 1e-4, 1e4, 1e8):
        got_count, got_static, got_primal = scaled_solve(mu0, mu1, c)
        assert (got_count, got_static) == (count, static)
        assert abs(got_primal / primal - 1.0) <= 1e-10


def carried_decomposition(monkeypatch, mu0: g.GridMeasure, mu1: g.GridMeasure):
    """The decomposition solve_geometric solves, read with the solve of its components skipped."""
    monkeypatch.setattr(geometric_bridge, "_solve_components",
                        lambda decomp, params: g.BassSolution(decomp))
    return g.solve_geometric(mu0, mu1).arithmetic.decomposition


@pytest.mark.parametrize("seed, components", [(11, 1370), (12, 1563), (13, 1592)])
def test_the_reflection_maps_components_onto_components(monkeypatch, seed, components):
    total = sum(len(carried_decomposition(monkeypatch, mu0, mu1).components)
                for *_, mu0, mu1 in fuzz_pairs(seed))
    assert total == components


# spread-1e-6 pairs (seed, index) of the dilation fuzz that the arithmetic side's own
# tolerance cannot split (a price-side component's peak gap of 30 tol shrinks to about
# 1 tol under the reflection), and pairs that neither side can split yet (one grid
# point of exact gap in (0, tol] merges two true components)
ARITHMETIC_SIDE_MERGES = {(14, 5), (14, 10), (17, 3), (19, 16), (20, 2), (21, 14), (35, 9),
                          (37, 18), (37, 20), (38, 12), (38, 17), (39, 21), (42, 18), (45, 0),
                          (50, 11), (52, 9), (55, 2), (56, 2), (59, 8)}
NEITHER_SIDE_SPLITS = {(24, 21), (33, 22), (48, 2), (48, 5), (48, 17), (59, 7)}


def spread_1e6_pairs():
    """(seed, index, mu0, mu1) of the spread-1e-6 pairs of seeds 11-60, the first 25 of each."""
    for seed in range(11, 61):
        for _, index, mu0, mu1 in itertools.islice(fuzz_pairs(seed), 25):
            yield seed, index, mu0, mu1


def same_measure(a: g.GridMeasure | None, b: g.GridMeasure | None) -> bool:
    return (a is b is None or a is not None and b is not None
            and np.array_equal(a.atoms, b.atoms) and np.array_equal(a.weights, b.weights))


def test_the_price_side_split_carried_across_the_reflection_is_the_arithmetic_one(monkeypatch):
    # measured: bit for bit on the 1225 pairs both sides split; interval ends within
    # 3.5e-9, since the arithmetic ends are interpolated zero crossings
    merged, refused = set(), set()
    for seed, index, mu0, mu1 in spread_1e6_pairs():
        try:
            arithmetic = g.irreducible_components(*g.to_arithmetic(mu0, mu1)[:2])
        except g.MeasureError:
            arithmetic = None
        try:
            carried = carried_decomposition(monkeypatch, mu0, mu1)
        except g.MeasureError:
            assert arithmetic is None, (seed, index)  # the price side splits where it does
            refused.add((seed, index))
            continue
        if arithmetic is None:
            merged.add((seed, index))
            continue
        assert carried.identity_set_mass == arithmetic.identity_set_mass
        assert same_measure(carried.identity_restriction, arithmetic.identity_restriction)
        assert len(carried.components) == len(arithmetic.components)
        for c, a in zip(carried.components, arithmetic.components):
            assert c.mass == a.mass
            assert same_measure(c.nu0_restricted, a.nu0_restricted)
            assert same_measure(c.nu1_restricted, a.nu1_restricted)
            assert np.max(np.abs(np.subtract(c.interval, a.interval))) <= 1e-8
    assert (merged, refused) == (ARITHMETIC_SIDE_MERGES, NEITHER_SIDE_SPLITS)


def test_pairs_the_arithmetic_side_merges_solve():
    # measured: 616 components, each at its fixed point after one outer iteration
    gsols = [g.solve_geometric(mu0, mu1) for seed, index, mu0, mu1 in spread_1e6_pairs()
             if (seed, index) in ARITHMETIC_SIDE_MERGES]
    solutions = [c for gsol in gsols for c in gsol.arithmetic.component_solutions]
    assert len(gsols) == 19 and len(solutions) == 616
    assert all(c.iterations == 1 for c in solutions)
    assert max(abs(g.make_value_report(gsol, 1.0, 1.0).duality_gap) for gsol in gsols) <= 1e-15


def test_gbm_primal_is_its_volatility(bench_201):
    # measured 0.080 / 201; the error is the grid's, O(1/n)
    assert abs(g.primal_value(bench_201.arithmetic) - SIGMA) <= 0.1 / 201


@pytest.mark.parametrize("t", TIMES)
def test_gbm_flow_is_lognormal(bench_201, t):
    # the price at t is lognormal with varlog 0.04 + 0.12 t and mean 1;
    # measured 0.21 / 201 to 0.30 / 201 in W1
    v = 0.04 + 0.12 * t
    law = discretize_family(Lognormal(-v / 2.0, v), 100001, 1e-9)
    assert g.wasserstein1(g.marginal_flow(bench_201, t), law) <= 0.5 / 201


@pytest.fixture(scope="module")
def two_lognormal_solution():
    """lognormal(-0.02, 0.04) against the equal-weight mixture of lognormals with means
    0.75 and 1.25 and varlog 0.02, 201 atoms each: one component, primal 0.201626."""
    mix = {"family": "mixture", "grid_size": 201, "components": [
        {"family": "lognormal", "meanlog": math.log(mean) - 0.01, "varlog": 0.02}
        for mean in (0.75, 1.25)]}
    config = {"mu0": {"family": "lognormal", "meanlog": -0.02, "varlog": 0.04, "grid_size": 201},
              "mu1": mix}
    return g.solve_geometric(*build_marginals(config, Path(".")))


@pytest.mark.parametrize("engine", ["sde", "weighted"])
def test_path_integral_of_the_sde_volatility_is_the_primal(two_lognormal_solution, engine):
    # E[int_0^1 sigma(t, S_t) dt] is the geometric primal. sde_volatility refuses t = 0
    # and t = 1, so the left Riemann sum over the 50 steps lets sigma at t_1 stand for
    # [0, t_1] as well: leaving that interval out biases the mean by about -0.004, z -3
    # to -4. Measured over seeds 1-4: |z| <= 1.49, at 0.8 s per engine
    gsol = two_lognormal_solution
    assert len(gsol.arithmetic.component_solutions) == 1
    ens = (g.simulate_geometric_sde(gsol, 0, 50, 2000, seed=1) if engine == "sde"
           else g.simulate_geometric_weighted(gsol, 50, 2000, seed=1))
    t = ens.time_grid
    vols = [g.sde_volatility(gsol, 0, t[k], ens.paths[:, k]) for k in range(1, t.size - 1)]
    integral = (vols[0] + sum(vols)) * (t[1] - t[0])
    w = ens.weights / ens.weights.sum()
    mean = w @ integral
    se = np.sqrt(np.sum((w * (integral - mean)) ** 2))
    primal = g.make_value_report(gsol, 1.0, 1.0).geometric_primal
    assert abs(primal - 0.201626) <= 1e-6
    assert abs(mean - primal) <= 5.0 * se


@pytest.mark.parametrize("pair", ["gbm", "mixture"])
def test_the_primal_is_the_time_integral_of_the_mean_volatility_of_the_flow(bench_201, pair):
    # int_0^1 E_{marginal_flow(t)}[sde_volatility(t, .)] dt by 8-node Gauss-Legendre in t,
    # read on the price side alone. The mixture target is of lognormals with means 0.8
    # and 1.2 and varlog 0.05. Measured at 201 atoms: -3.5e-6 (GBM), +3.4e-6 (mixture)
    mixture = {"family": "mixture", "grid_size": 201, "components": [
        {"family": "lognormal", "meanlog": math.log(mean) - 0.025, "varlog": 0.05}
        for mean in (0.8, 1.2)]}
    config = {"mu0": {"family": "lognormal", "meanlog": -0.02, "varlog": 0.04, "grid_size": 201},
              "mu1": mixture}
    gsol = bench_201 if pair == "gbm" else g.solve_geometric(*build_marginals(config, Path(".")))
    nodes, weights = leggauss(8)
    integral = 0.0
    for t, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        flow = g.marginal_flow(gsol, t)
        integral += w * (flow.weights @ g.sde_volatility(gsol, 0, t, flow.atoms))
    assert abs(integral - g.make_value_report(gsol, 1.0, 1.0).geometric_primal) <= 2e-5
