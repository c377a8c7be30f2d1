"""The paper's headline statements, checked on solved pairs.

GBM is both an arithmetic and a geometric Bass martingale: for the lognormal
price pair its value surface is F_t(x) = c_t exp(sigma x), so F_t' / F_t is
the constant sigma, whether the pair is solved as it stands or reflected
into the arithmetic problem of the geometric one. And the geometric problem
does not change under a price scale S -> cS, so neither may its solve. The
reflection x -> m / x maps the arithmetic components I onto the price-side
ones J = m / I, which to_arithmetic checks before any solve. On the GBM pair
the primal is sigma and the price at t is lognormal with varlog
0.04 + sigma^2 t, closed forms that the solve must meet to its grid's O(1/n).
The price solves dS = S sigma(t, S) dB, so along simulated paths the time
integral of sde_volatility has the primal as its mean, on a pair that is not GBM.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import gbass as g
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


@pytest.mark.parametrize("seed, components", [(11, 1370), (12, 1563), (13, 1592)])
def test_the_reflection_maps_components_onto_components(seed, components):
    # to_arithmetic raises unless each I maps to an overlapping J = m / I; no pair is solved
    total = 0
    for *_, mu0, mu1 in fuzz_pairs(seed):
        nu0, nu1, _ = g.to_arithmetic(mu0, mu1)
        total += len(g.irreducible_components(nu0, nu1).components)
    assert total == components


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
