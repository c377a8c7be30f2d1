"""Equal-probability discretization against quadrature and closed forms."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from gbass.discretize import Lognormal, Mixture, discretize_family

MEANLOG, VARLOG = -0.08, 0.16
GRID, TRUNCATION = 201, 1e-6


@pytest.fixture(scope="module")
def lognormal_grid():
    return discretize_family(Lognormal(MEANLOG, VARLOG), GRID, TRUNCATION)


def normal_density(y, mean, sd, tilt=0.0):
    """exp(tilt * y) times the normal density, in one exponent so the tails cannot overflow."""
    return np.exp(tilt * y - 0.5 * ((y - mean) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))


def test_bin_masses(lognormal_grid):
    interior = (1.0 - 2.0 * TRUNCATION) / GRID
    w = lognormal_grid.weights
    assert np.max(np.abs(w[1:-1] - interior)) <= 1e-15
    # the end bins reach to the ends of the support and take the truncated tails
    assert w[0] == pytest.approx(interior + TRUNCATION, abs=1e-15)
    assert w[-1] == pytest.approx(interior + TRUNCATION, abs=1e-15)


def test_atoms_are_conditional_means(lognormal_grid):
    sd = np.sqrt(VARLOG)
    # bin edges in log coordinates: equal-mass levels between the truncation quantiles
    levels = TRUNCATION + (1.0 - 2.0 * TRUNCATION) * np.arange(1, GRID) / GRID
    log_edges = np.concatenate([[-np.inf], MEANLOG + sd * ndtri(levels), [np.inf]])
    for atom, a, b in zip(lognormal_grid.atoms, log_edges[:-1], log_edges[1:]):
        mass, _ = quad(normal_density, a, b, args=(MEANLOG, sd), epsabs=0.0, epsrel=1e-13)
        moment, _ = quad(normal_density, a, b, args=(MEANLOG, sd, 1.0), epsabs=0.0, epsrel=1e-13)
        assert moment / mass == pytest.approx(atom, rel=1e-12)


def test_mean_is_kept(lognormal_grid):
    assert lognormal_grid.mean == pytest.approx(np.exp(MEANLOG + VARLOG / 2), rel=1e-15)
    mix = Mixture([Lognormal(-0.1, 0.04), Lognormal(0.2, 0.09)], [0.3, 0.7])
    expected = 0.3 * np.exp(-0.1 + 0.02) + 0.7 * np.exp(0.2 + 0.045)
    assert discretize_family(mix, GRID, TRUNCATION).mean == pytest.approx(expected, rel=1e-15)


def test_mixture_quantile_brackets_level():
    mix = Mixture([Lognormal(-0.1, 0.04), Lognormal(0.2, 0.09)], [0.3, 0.7])
    u = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 201), [1e-9, 1.0 - 1e-9]])
    q = mix.quantile(u)
    # brentq stops within xtol = 1e-13 of the root
    assert np.all(mix.cdf(q - 2e-13) <= u)
    assert np.all(u <= mix.cdf(q + 2e-13))


def test_one_part_mixture_is_the_part():
    part = Lognormal(MEANLOG, VARLOG)
    u = np.linspace(0.001, 0.999, 51)
    assert np.array_equal(Mixture([part], [1.0]).quantile(u), part.quantile(u))
    assert Mixture([part], [1.0]).quantile(0.25) == float(part.quantile(0.25))
