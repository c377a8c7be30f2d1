import math

import numpy as np
import pytest

import gbass as g

SIGMA = math.sqrt(0.12)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75, 0.9])
def test_flow_keeps_martingale_mean(bench_201, t):
    assert abs(g.marginal_flow(bench_201, t).mean - bench_201.m) <= 1e-6


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("grid_size", [201, 1001])
def test_flow_ends_are_the_marginals(request, grid_size, t):
    gsol = request.getfixturevalue(f"bench_{grid_size}")
    flow, mu = g.marginal_flow(gsol, t), gsol.mu0 if t == 0.0 else gsol.mu1
    assert np.array_equal(flow.atoms, mu.atoms) and np.array_equal(flow.weights, mu.weights)


def test_sde_volatility_matches_gbm(bench_201):
    times = np.linspace(0.1, 0.9, 9)
    scores = np.linspace(-2.0, 2.0, 9)
    vols = [g.sde_volatility(bench_201, 0, t, math.exp(SIGMA * math.sqrt(t) * z - 0.06 * t))
            for t in times for z in scores]
    assert np.max(np.abs(np.array(vols) - SIGMA)) <= 1e-2


def test_update_alpha_meets_default_tol(bench_201):
    csol = bench_201.arithmetic.component_solutions[0]
    alpha = g.update_alpha(csol.source, csol.fn)
    assert np.max(np.abs(csol.fn.heat_convolve(1.0, alpha.atoms) - csol.source.atoms)) <= 1e-13


@pytest.mark.parametrize("index", [1, -1])
def test_component_index_out_of_range_raises(bench_201, index):
    with pytest.raises(ValueError, match="component_index"):
        g.sde_volatility(bench_201, index, 0.5, 1.0)
    with pytest.raises(ValueError, match="component_index"):
        g.simulate_geometric_sde(bench_201, index, 2, 3, 0)
