"""Equal-probability discretization against quadrature and closed forms."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from gbass.discretize import Lognormal, Mixture, Uniform, discretize_family, discretize_samples
from gbass.measures import MeasureError

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


def test_uniform_atoms_are_bin_midpoints():
    a, b, n = 0.5, 1.5, 21
    grid = discretize_family(Uniform(a, b), n, TRUNCATION)
    levels = TRUNCATION + (1.0 - 2.0 * TRUNCATION) * np.arange(1, n) / n
    edges = np.concatenate([[a], a + (b - a) * levels, [b]])
    # the atoms are (hi^2 - lo^2) / (2 (b - a)) over the bin mass: rounding of the squares,
    # magnified by the division
    tol = 4 * np.finfo(float).eps * b ** 2 / ((b - a) * grid.weights.min())
    assert np.max(np.abs(grid.atoms - (edges[:-1] + edges[1:]) / 2)) <= tol
    assert np.max(np.abs(grid.weights - np.diff(edges) / (b - a))) <= 1e-15
    assert grid.mean == pytest.approx((a + b) / 2, rel=1e-15)


def test_samples_are_equal_count_group_means():
    sample = np.random.default_rng(5).lognormal(0.0, 0.5, 103)
    groups = np.array_split(np.sort(sample), 10)
    grid = discretize_samples(sample, 10)
    assert np.array_equal(grid.atoms, [group.mean() for group in groups])
    assert np.max(np.abs(grid.weights - [group.size / sample.size for group in groups])) <= 1e-15


def test_more_bins_than_samples_gives_one_atom_per_sample():
    grid = discretize_samples([3.0, 1.0, 2.0], 10)
    assert np.array_equal(grid.atoms, [1.0, 2.0, 3.0])
    assert np.max(np.abs(grid.weights - 1.0 / 3.0)) <= 1e-16


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_raises(bad):
    with pytest.raises(MeasureError, match="non-finite"):
        discretize_samples([1.0, bad, 2.0], 2)


@pytest.mark.parametrize("meanlog, varlog, name", [
    (np.nan, VARLOG, "meanlog"),
    (np.inf, VARLOG, "meanlog"),
    (-np.inf, VARLOG, "meanlog"),
    (MEANLOG, np.nan, "varlog"),
    (MEANLOG, np.inf, "varlog"),
    (MEANLOG, 0.0, "varlog"),
])
def test_lognormal_refuses_bad_parameter_by_name(meanlog, varlog, name):
    # refused before any quantile is taken, so no RuntimeWarning comes first
    with pytest.raises(MeasureError, match=f"lognormal {name} must be"):
        discretize_family(Lognormal(meanlog, varlog), 11, TRUNCATION)


@pytest.mark.parametrize("family, message", [
    (lambda: Uniform(0.0, np.inf), "uniform b must be finite"),
    (lambda: Uniform(-np.inf, 1.0), "uniform a must be finite"),
    (lambda: Uniform(np.nan, 1.0), "uniform a must be finite"),
    (lambda: Uniform(0.0, np.nan), "uniform b must be finite"),
    (lambda: Mixture([Lognormal(0.0, 0.04)], [np.inf]), "mixture weight 0 must be finite"),
    (lambda: Mixture([Lognormal(0.0, 0.04), Lognormal(0.1, 0.04)], [np.nan, 1.0]),
     "mixture weight 0 must be finite"),
    (lambda: Mixture([Lognormal(0.0, 0.04), Lognormal(0.1, 0.04)], [1.0, -np.inf]),
     "mixture weight 1 must be finite"),
], ids=["uniform-b-inf", "uniform-a-minus-inf", "uniform-a-nan", "uniform-b-nan",
        "mixture-inf", "mixture-nan", "mixture-minus-inf"])
def test_family_refuses_non_finite_parameter_by_name(family, message):
    # refused on construction, before any quantile is taken, so no RuntimeWarning comes first
    with pytest.raises(MeasureError, match=message):
        discretize_family(family(), 11, TRUNCATION)


@pytest.mark.parametrize("call, message", [
    (lambda: Mixture([Lognormal(0.0, 0.04), Lognormal(0.1, 0.04)], [1.0, -0.5]),
     "mixture weights must be nonnegative with positive sum"),
    (lambda: discretize_family(Lognormal(MEANLOG, VARLOG), 2, TRUNCATION),
     "grid size must be at least 3, got 2"),
    (lambda: discretize_family(Lognormal(MEANLOG, VARLOG), 11, 0.5),
     r"truncation quantile must lie in \(0, 0.5\), got 0.5"),
    (lambda: discretize_family(Lognormal(MEANLOG, VARLOG), 11, 0.0),
     r"truncation quantile must lie in \(0, 0.5\), got 0.0"),
    (lambda: discretize_samples([], 3), "empty sample"),
    (lambda: discretize_samples([1.0, 2.0], 0), "need at least one bin"),
], ids=["mixture-negative-weight", "grid-size", "truncation-half", "truncation-zero",
        "empty-sample", "no-bins"])
def test_refuses_invalid_input_by_message(call, message):
    with pytest.raises(MeasureError, match=message):
        call()


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0)], ids=["empty", "reversed"])
def test_uniform_refuses_an_interval_without_interior(a, b):
    with pytest.raises(MeasureError, match=f"uniform needs a < b, got \\[{a}, {b}\\]"):
        Uniform(a, b)


def test_mixture_of_uniforms_is_piecewise_linear():
    # half on [0, 1], half on [2, 4]: CDF u / 2 on the first, 1/2 + (x - 2) / 4 on the second
    mix = Mixture([Uniform(0.0, 1.0), Uniform(2.0, 4.0)], [1.0, 1.0])
    x = np.array([-1.0, 0.5, 1.0, 1.5, 3.0, 4.0, 5.0])
    assert np.array_equal(mix.cdf(x), [0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0])
    u = np.linspace(0.01, 0.99, 99)
    want = np.where(u <= 0.5, 2.0 * u, 2.0 + 4.0 * (u - 0.5))
    assert np.max(np.abs(mix.quantile(u) - want)) <= 1e-12
    assert discretize_family(mix, 41, TRUNCATION).mean == pytest.approx(1.75, rel=1e-15)


@pytest.mark.parametrize("parts, weights", [(2, 1), (1, 2)], ids=["more-parts", "more-weights"])
def test_mixture_refuses_parts_and_weights_of_different_lengths(parts, weights):
    # zip would drop the unmatched part or weight: a grid mean of 1.020 or 0.510, not 1
    family = [Lognormal(0.0, 0.04), Lognormal(1.0, 0.04)][:parts]
    with pytest.raises(MeasureError, match=f"mixture has {parts} parts but {weights} weights"):
        Mixture(family, [1.0 / weights] * weights)
