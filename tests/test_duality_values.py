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
