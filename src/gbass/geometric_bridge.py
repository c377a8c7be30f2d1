"""Reduction of the geometric transport problem to the arithmetic one.

Positive marginals with a common mean are reflected through x -> m/x into an
arithmetic pair, solved by the fixed-point scheme, and mapped back: marginal
flow of the price process and the lognormal volatility surface of the price
dynamics. The irreducible components are decided once, on the price side, and
each price-side interval J maps onto the arithmetic one I = m / J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .bass_solver import BassSolution, SolverParams, _solve_components
from .gaussian import _heat_inverse, gauss_hermite
from .measures import (GridMeasure, MeasureError, _decompose, _potential_gap, make_grid_measure,
                       reflect_measure)

# most atoms of a flow marginal, which also sets the Gauss-Hermite nodes per
# alpha atom at interior times
FLOW_GRID_MAX = 4001


@dataclass(frozen=True)
class GeometricSolution:
    m: float
    mu0: GridMeasure
    mu1: GridMeasure
    nu0: GridMeasure
    nu1: GridMeasure
    arithmetic: BassSolution


def component_solution(gsol: GeometricSolution, component_index: int):
    """The arithmetic solution of one component; ValueError unless its index is one in range."""
    comps = gsol.arithmetic.component_solutions
    if not (isinstance(component_index, Integral) and 0 <= component_index < len(comps)):
        raise ValueError(f"component_index {component_index} is not in range({len(comps)})")
    return comps[component_index]


def _reflect(mu0: GridMeasure, mu1: GridMeasure):
    """to_arithmetic's (nu0, nu1, m), with the price-side _potential_gap it was checked on."""
    for name, mu in (("initial", mu0), ("terminal", mu1)):
        if not mu.positive_support:
            raise MeasureError(f"{name} marginal must have strictly positive support")
    gap = _potential_gap(mu0, mu1)
    if not gap[0].equal_means:
        raise MeasureError(f"marginal means differ: {mu0.mean!r} vs {mu1.mean!r}")
    if not gap[0].in_convex_order:
        raise MeasureError(
            f"marginals are not in convex order (violation {gap[0].max_violation:.3e})")
    return reflect_measure(mu0, normalize=True), reflect_measure(mu1, normalize=True), mu0.mean, gap


def to_arithmetic(mu0: GridMeasure, mu1: GridMeasure) -> tuple[GridMeasure, GridMeasure, float]:
    """Reflect a positive convex-ordered pair into its arithmetic counterpart. The
    convex order, equal means included, is checked on the price side, else MeasureError."""
    return _reflect(mu0, mu1)[:3]


def solve_geometric(mu0: GridMeasure, mu1: GridMeasure,
                    params: SolverParams | None = None) -> GeometricSolution:
    """Solve the geometric problem through its arithmetic reduction.

    The irreducible components are decided once, on the price side's potential
    gap, and carried across the reflection: each price-side interval J becomes
    the arithmetic interval I = m / J. Each component is solved as solve_decomposed does.
    """
    nu0, nu1, m, gap = _reflect(mu0, mu1)
    decomp = _decompose(mu0, mu1, *gap, onto=(nu0, nu1, m))
    return GeometricSolution(m, mu0, mu1, nu0, nu1, _solve_components(decomp, params))


def _compact(atoms: np.ndarray, weights: np.ndarray, max_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent atoms into at most max_atoms barycenters, mass preserving."""
    order = np.argsort(atoms)
    atoms, weights = atoms[order], weights[order]
    if atoms.size <= max_atoms:
        return atoms, weights
    cum = np.cumsum(weights)
    group = np.minimum((cum / cum[-1] * max_atoms).astype(int), max_atoms - 1)
    w_out = np.bincount(group, weights, minlength=max_atoms)
    aw_out = np.bincount(group, weights * atoms, minlength=max_atoms)
    keep = w_out > 0
    return aw_out[keep] / w_out[keep], w_out[keep]


def marginal_flow(gsol: GeometricSolution, t: float) -> GridMeasure:
    """Law of the price at time t.

    At t = 0 and t = 1 this is the initial and the terminal marginal, exactly.
    In between, the driving law at time t is quantized by Gauss-Hermite nodes
    around each initial atom, pushed through the smoothed generating function
    fn.heat_convolve(1 - t, .), and reflected back through s = m / y with the
    density weighting y. The nodes integrate fn * gamma_{1-t} against the
    Gaussian, so the mean m is kept to quadrature accuracy.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    if t in (0.0, 1.0):
        return gsol.mu0 if t == 0.0 else gsol.mu1
    m = gsol.m
    decomp = gsol.arithmetic.decomposition
    atoms_parts: list[np.ndarray] = []
    weights_parts: list[np.ndarray] = []

    n_alpha = sum(s.alpha.n for s in gsol.arithmetic.component_solutions)
    for comp, csol in zip(decomp.components, gsol.arithmetic.component_solutions):
        gh_nodes, gh_weights = gauss_hermite(max(12, FLOW_GRID_MAX // (2 * n_alpha)))
        nodes = (csol.alpha.atoms[:, None] + np.sqrt(t) * gh_nodes[None, :]).ravel()
        atoms_parts.append(csol.fn.heat_convolve(1.0 - t, nodes))
        weights_parts.append(np.outer(csol.alpha.weights, gh_weights).ravel() * comp.mass)

    if decomp.identity_restriction is not None:
        atoms_parts.append(decomp.identity_restriction.atoms)
        weights_parts.append(decomp.identity_restriction.weights * decomp.identity_set_mass)

    y = np.concatenate(atoms_parts)
    p = np.concatenate(weights_parts)
    if np.any(y <= 0):
        raise RuntimeError("internal error: nonpositive value in the driving law")
    atoms, weights = _compact(m / y, p * y, FLOW_GRID_MAX)
    return make_grid_measure(atoms, weights)


def sde_volatility(gsol: GeometricSolution, component_index: int, t: float, s):
    """Lognormal volatility of the price dynamics on one component, at price(s) s.

    sigma(t, s) = (s / m) F'(x*) where F = fn * gamma_{1-t} and F(x*) = m / s:
    nonnegative by monotonicity. s is a scalar (a float comes back) or an
    array (an array of its shape comes back). Every price is checked first,
    as a float in one loop, scalar or array: a price that is not a positive
    number or whose m / s lies more than 2^-50 of the image width outside
    the closed image [fn.lower, fn.upper] raises ValueError naming its
    (flat) index. A price whose m / s is a bound or past it within that
    slack, as a path's F_t rounds to once it is within half an ulp of a
    bound and as marginal_flow's atoms m / y land 1-4 ulps past one, gets
    the slope's limit there, 0.0. The others are solved by one
    heat_convolve_inverse, to 1e-12 on F, started at fn's own inverse, the
    threshold where the step function passes m / s. One price
    takes its slope from the pass that read F at its root, where each Newton
    iterate reads F and F' together; more prices read theirs by one
    heat_convolve_deriv, the same bits. Fewer than 64 prices in a call read
    F and F' as one-row sums under gaussian's one-row contract (proxies
    never pay at 200 thresholds), which moves a volatility of the 1001-atom
    bench pair by 1e-15; a volatility is a function of its arguments alone.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"time {t} must lie strictly inside (0, 1)")
    fn = component_solution(gsol, component_index).fn
    prices = np.asarray(s, dtype=float)
    flat, m, slack = prices.ravel(), float(gsol.m), 2.0 ** -50 * (fn.upper - fn.lower)
    inner, targets = [], []  # the flat indices inside the open image, and their m / s
    for i, price in enumerate(flat.tolist()):
        target = m / price if price > 0.0 else math.nan
        if not fn.lower - slack <= target <= fn.upper + slack:
            at = "" if prices.ndim == 0 else f" at index {i}"
            why = ("must be a positive number" if not price > 0.0
                   else f"lies outside the open range of component {component_index}")
            raise ValueError(f"price {price}{at} {why}")
        if fn.lower < target < fn.upper:
            inner.append(i)
            targets.append(target)
    targets, vol = np.array(targets), np.zeros(flat.shape)
    x0 = fn.thresholds[np.searchsorted(fn.levels, targets) - 1]
    x_star, slope = _heat_inverse(fn, 1.0 - t, targets, 1e-12, x0)
    if slope is None:
        slope = fn.heat_convolve_deriv(1.0 - t, x_star)
    vol[inner] = flat[inner] / m * slope
    return float(vol[0]) if prices.ndim == 0 else vol.reshape(prices.shape)
