from pathlib import Path

import numpy as np
import pytest

import gbass as g
from gbass.cli import build_marginals
from _oracles import lognormal_zgrid


def lognormal_measure(meanlog: float, sdlog: float, n: int = 2001,
                      zmax: float = 8.0) -> g.GridMeasure:
    atoms, weights = lognormal_zgrid(meanlog, sdlog, n, zmax)
    return g.make_grid_measure(atoms, weights)


@pytest.fixture(scope="session")
def gbm_pair():
    mu0 = g.make_grid_measure([1.0], [1.0])
    mu1 = lognormal_measure(-0.02, 0.2, 2001)
    return mu0, mu1


@pytest.fixture(scope="session")
def gbm_solution(gbm_pair):
    return g.solve_geometric(*gbm_pair)


def bench_pair(grid_size: int) -> tuple[g.GridMeasure, g.GridMeasure]:
    """The benchmark's lognormal pair at grid_size atoms; its Bass martingale is GBM."""
    config = {
        "mu0": {"family": "lognormal", "meanlog": -0.02, "varlog": 0.04, "grid_size": grid_size},
        "mu1": {"family": "lognormal", "meanlog": -0.08, "varlog": 0.16, "grid_size": grid_size},
    }
    return build_marginals(config, Path("."))


def solve_bench_pair(grid_size: int) -> g.GeometricSolution:
    return g.solve_geometric(*bench_pair(grid_size))


@pytest.fixture(scope="session")
def bench_201():
    return solve_bench_pair(201)


@pytest.fixture(scope="session")
def bench_1001():
    return solve_bench_pair(1001)


@pytest.fixture(scope="session")
def bench_10001():
    return solve_bench_pair(10001)


@pytest.fixture(scope="session")
def step_pair():
    # two-point target with unit-mean source; the generating function is a
    # single step at the standard Gaussian median
    return g.make_grid_measure([1.0], [1.0]), g.make_grid_measure([0.0, 2.0], [0.5, 0.5])


@pytest.fixture(scope="session")
def step_solution(step_pair):
    return g.solve_component(*step_pair)


@pytest.fixture(scope="session")
def geometric_step_pair():
    return g.make_grid_measure([1.0], [1.0]), g.make_grid_measure([0.5, 1.5], [0.5, 0.5])


@pytest.fixture(scope="session")
def geometric_step_solution(geometric_step_pair):
    return g.solve_geometric(*geometric_step_pair)


@pytest.fixture(scope="session")
def static_mass_solution():
    # (delta_1 + delta_3) / 2 to (delta_0.5 + delta_1.5) / 4 + delta_3 / 2: one component
    # on [0.5, 1.5] and a price atom at 3 that never moves (arithmetic static mass 0.75)
    mu0 = g.make_grid_measure([1.0, 3.0], [0.5, 0.5])
    mu1 = g.make_grid_measure([0.5, 1.5, 3.0], [0.25, 0.25, 0.5])
    return g.solve_geometric(mu0, mu1)


@pytest.fixture(scope="session")
def two_component_pair():
    nu0 = g.make_grid_measure([1.0, 3.0], [0.5, 0.5])
    nu1 = g.make_grid_measure([0.5, 1.5, 2.5, 3.5], [0.25, 0.25, 0.25, 0.25])
    return nu0, nu1


def random_positive_measure(rng: np.random.Generator, max_atoms: int = 10) -> g.GridMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(0.1, 10.0, n)
    weights = rng.uniform(0.05, 1.0, n)
    return g.make_grid_measure(atoms, weights)


def dilate(mu: g.GridMeasure, rng: np.random.Generator,
           rel: float = 0.3) -> g.GridMeasure:
    """Mean-preserving spread of each atom into a symmetric pair."""
    d = rng.uniform(0.0, rel, mu.n) * mu.atoms
    atoms = np.concatenate([mu.atoms - d, mu.atoms + d])
    weights = np.concatenate([mu.weights / 2, mu.weights / 2])
    return g.make_grid_measure(atoms, weights)


FUZZ_SPREADS = (1e-6, 1e-4, 0.02, 0.3, 0.6, 0.9)


def fuzz_pairs(seed: int = 11):
    """The dilation fuzz of default_rng(seed), as (spread, index, mu0, mu1): 25
    pairs per spread, drawn in the order of FUZZ_SPREADS."""
    rng = np.random.default_rng(seed)
    for s in FUZZ_SPREADS:
        for i in range(25):
            mu0 = random_positive_measure(rng, 40)
            yield s, i, mu0, dilate(mu0, rng, s)


def fuzz_pair(spread: float, index: int):
    """Pair `index` at `spread` of the default_rng(11) dilation fuzz."""
    for s, i, mu0, mu1 in fuzz_pairs():
        if (s, i) == (spread, index):
            return mu0, mu1
    raise ValueError(f"no fuzz pair {index} at spread {spread}")
