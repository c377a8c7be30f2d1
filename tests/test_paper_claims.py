"""The paper's headline statements, checked on solved pairs.

GBM is both an arithmetic and a geometric Bass martingale: for the lognormal
price pair its value surface is F_t(x) = c_t exp(sigma x), so F_t' / F_t is
the constant sigma, whether the pair is solved as it stands or reflected
into the arithmetic problem of the geometric one.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import gbass as g
from gbass.cli import build_marginals

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
