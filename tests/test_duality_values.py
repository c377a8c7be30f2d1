import numpy as np
import pytest

import gbass as g
from _oracles import max_cov_lp


@pytest.mark.parametrize("seed", range(6))
def test_max_covariance_matches_lp(seed):
    rng = np.random.default_rng(seed)
    eta, rho = (g.make_grid_measure(rng.normal(size=n), rng.uniform(0.1, 1.0, n))
                for n in rng.integers(1, 7, size=2))
    expected = max_cov_lp(eta.atoms, eta.weights, rho.atoms, rho.weights)
    assert g.max_covariance(eta, rho) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("grid_size", [201, 1001])
def test_dual_value_reads_the_solved_thresholds(request, grid_size):
    # the thresholds dual_value reads are the target quantiles that
    # component_dual_value solves for again
    sol = request.getfixturevalue(f"bench_{grid_size}").arithmetic
    resolved = sum(comp.mass * g.component_dual_value(csol.source, csol.target, csol.alpha)
                   for comp, csol in zip(sol.decomposition.components, sol.component_solutions))
    assert g.dual_value(sol) == resolved
