"""Discrete probability measures on the line.

Atomic measures with exact CDF/quantile access, potential functions,
convex-order checks, decomposition into irreducible intervals, and the
reciprocal reflection that swaps geometric and arithmetic martingale
transport problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MEAN_TOLERANCE = 1e-9
ORDER_TOLERANCE = 1e-9
DECOMPOSITION_TOLERANCE = 1e-9


class MeasureError(ValueError):
    """Invalid measure construction or operation input."""


@dataclass(frozen=True)
class GridMeasure:
    """Finite atomic probability measure: strictly increasing atoms, weights summing to one."""

    atoms: np.ndarray
    weights: np.ndarray

    @cached_property
    def cum_weights(self) -> np.ndarray:
        c = np.minimum(np.cumsum(self.weights), 1.0)
        c[-1] = 1.0
        return c

    @cached_property
    def tail_weights(self) -> np.ndarray:
        # tail_weights[j] = mass strictly above atom j, summed small-to-large
        # so extreme tails keep full precision
        return np.concatenate([np.cumsum(self.weights[:0:-1])[::-1], [0.0]])

    @cached_property
    def mean(self) -> float:
        return float(self.atoms @ self.weights)

    @property
    def n(self) -> int:
        return self.atoms.size

    @property
    def positive_support(self) -> bool:
        return bool(self.atoms[0] > 0.0)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.atoms[0]), float(self.atoms[-1])

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "GridMeasure":
        return make_grid_measure(d["atoms"], d["weights"])


def make_grid_measure(atoms, weights) -> GridMeasure:
    """Build a GridMeasure: sorts atoms, merges duplicates, renormalizes weights.

    Zero-weight atoms are dropped so the stored support is the actual support.
    Raises MeasureError naming the offending index for empty, non-finite or
    negative input.
    """
    a = np.asarray(atoms, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if a.size == 0:
        raise MeasureError("empty measure: no atoms given")
    if a.size != w.size:
        raise MeasureError(f"atoms ({a.size}) and weights ({w.size}) differ in length")
    for name, arr in (("atom", a), ("weight", w)):
        bad = np.argmin(np.isfinite(arr))  # the first non-finite entry, if any
        if not np.isfinite(arr[bad]):
            raise MeasureError(f"non-finite {name} at index {bad}: {arr[bad]}")
    neg = np.argmax(w < 0)
    if w[neg] < 0:
        raise MeasureError(f"negative weight at index {neg}: {w[neg]}")
    total = w.sum()
    if total <= 0:
        raise MeasureError("weights sum to zero")

    merged_a, merged_w = a, w  # strictly increasing atoms, as restricted measures have
    if np.any(np.diff(a) <= 0):  # sort, and merge exact duplicates by summing weight
        order = np.argsort(a, kind="stable")
        a, w = a[order], w[order]
        keep = np.concatenate([[True], np.diff(a) > 0])
        merged_a, merged_w = a[keep], np.bincount(np.cumsum(keep) - 1, w)

    pos = merged_w > 0
    merged_a, merged_w = merged_a[pos], merged_w[pos]
    if merged_a.size == 0:
        raise MeasureError("all atoms have zero weight")
    merged_w = merged_w / merged_w.sum()
    merged_a.setflags(write=False)
    merged_w.setflags(write=False)
    return GridMeasure(merged_a, merged_w)


def normalize_to_unit_mean(mu: GridMeasure) -> GridMeasure:
    """Scale the state space so the measure has mean one."""
    m = mu.mean
    if m <= 0:
        raise MeasureError(f"cannot normalize: mean {m} is not positive")
    return make_grid_measure(mu.atoms / m, mu.weights)


def moment(mu: GridMeasure, p) -> float:
    """p-th moment; p may be any real, or the string "log" for the log-moment.

    Fractional, negative or log moments require strictly positive support.
    """
    if isinstance(p, str):
        if p != "log":
            raise MeasureError(f"unknown moment flag {p!r}")
        if not mu.positive_support:
            raise MeasureError("log-moment requires strictly positive support")
        return float(mu.weights @ np.log(mu.atoms))
    p = float(p)
    if (p < 0 or p != round(p)) and not mu.positive_support:
        raise MeasureError(f"moment of order {p} requires strictly positive support")
    return float(mu.weights @ np.power(mu.atoms, p))


def cdf(mu: GridMeasure, x):
    """Right-continuous distribution function; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(mu.atoms, x, side="right")
    c = np.concatenate([[0.0], mu.cum_weights])
    out = c[idx]
    return float(out) if out.ndim == 0 else out


def quantile(mu: GridMeasure, u):
    """Left-continuous generalized inverse of the CDF.

    quantile(0) is the smallest atom and quantile(1) the largest.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u > 1)):
        raise MeasureError("quantile level outside [0, 1]")
    idx = np.searchsorted(mu.cum_weights, u, side="left")
    out = mu.atoms[np.minimum(idx, mu.n - 1)]
    return float(out) if out.ndim == 0 else out


def potential(mu: GridMeasure, z):
    """Integrated absolute deviation z -> int |x - z| mu(dx), evaluated exactly."""
    z = np.asarray(z, dtype=float)
    zz = np.atleast_1d(z)
    out = np.empty_like(zz)
    # split sum with prefix moments: sum_{a<=z} w(z-a) + sum_{a>z} w(a-z)
    cw = np.concatenate([[0.0], np.cumsum(mu.weights)])
    cm = np.concatenate([[0.0], np.cumsum(mu.weights * mu.atoms)])
    idx = np.searchsorted(mu.atoms, zz, side="right")
    below_w, below_m = cw[idx], cm[idx]
    total_w, total_m = cw[-1], cm[-1]
    out = zz * below_w - below_m + (total_m - below_m) - zz * (total_w - below_w)
    return float(out[0]) if z.ndim == 0 else out


@dataclass(frozen=True)
class OrderReport:
    in_convex_order: bool
    max_violation: float
    equal_means: bool
    mean: float


def check_convex_order(eta: GridMeasure, rho: GridMeasure) -> OrderReport:
    """Decide eta <=_cx rho by comparing potentials on the union of atoms.

    Potentials of atomic measures are piecewise linear with kinks only at
    atoms, so the pointwise comparison on the union grid is exact.
    """
    grid = np.union1d(eta.atoms, rho.atoms)
    violation = float(np.max(potential(eta, grid) - potential(rho, grid)))
    equal_means = abs(eta.mean - rho.mean) <= MEAN_TOLERANCE
    ok = bool(violation <= ORDER_TOLERANCE and equal_means)
    return OrderReport(ok, violation, equal_means, eta.mean)


@dataclass(frozen=True)
class MeasureComponent:
    interval: tuple[float, float]
    nu0_restricted: GridMeasure
    nu1_restricted: GridMeasure
    mass: float


@dataclass(frozen=True)
class ComponentDecomposition:
    identity_set_mass: float
    identity_restriction: GridMeasure | None
    components: list[MeasureComponent] = field(default_factory=list)


def _component_intervals(nu0: GridMeasure, nu1: GridMeasure) -> list[tuple[float, float]]:
    grid = np.union1d(nu0.atoms, nu1.atoms)
    gap = potential(nu1, grid) - potential(nu0, grid)
    run = np.diff(np.concatenate([[0], (gap > DECOMPOSITION_TOLERANCE).astype(int), [0]]))
    first, last = np.flatnonzero(run == 1), np.flatnonzero(run == -1) - 1
    # a run of positive gap ends at the neighbouring grid point (or the grid's
    # own end), or at the interpolated zero crossing when rounding left that
    # point's gap negative
    before, after = np.maximum(first - 1, 0), np.minimum(last + 1, grid.size - 1)
    lo, hi = grid[before], grid[after]
    cross = gap[before] < 0
    p, q = before[cross], first[cross]
    lo[cross] = grid[p] + (grid[q] - grid[p]) * -gap[p] / (gap[q] - gap[p])
    cross = gap[after] < 0
    p, q = last[cross], after[cross]
    hi[cross] = grid[p] + (grid[q] - grid[p]) * gap[p] / (gap[p] - gap[q])
    return list(zip(lo.tolist(), hi.tolist()))


def _near(x: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), sorted, with |x[i] - points[j]| <= 1e-12 max(1, |x[i]|); points sorted."""
    tol = 1e-12 * np.maximum(1.0, np.abs(x))
    start = np.searchsorted(points, x - 2.0 * tol)
    count = np.searchsorted(points, x + 2.0 * tol, side="right") - start
    i = np.repeat(np.arange(x.size), count)
    j = np.arange(i.size) + np.repeat(start - np.cumsum(count) + count, count)
    hit = np.abs(x[i] - points[j]) <= tol[i]
    return i[hit], j[hit]


def _groups(labels: np.ndarray, k: int, atoms: np.ndarray, weights: np.ndarray) -> list:
    """(atoms, weights) of each label 0..k."""
    order = np.argsort(labels, kind="stable")
    cuts = np.searchsorted(labels[order], np.arange(1, k + 1))
    return list(zip(np.split(atoms[order], cuts), np.split(weights[order], cuts)))


def irreducible_components(nu0: GridMeasure, nu1: GridMeasure) -> ComponentDecomposition:
    """Split a convex-ordered pair into irreducible intervals plus the static set.

    Components are the maximal open intervals where the potential of nu1
    exceeds that of nu0 by more than DECOMPOSITION_TOLERANCE. An atom strictly
    inside an interval belongs to its component; other nu0 atoms are static.
    An nu1 atom outside every interval keeps back the static nu0 mass within
    1e-12 max(1, |x|) of it, and only the excess moves: all of it to an
    interval with an end that close; on an end shared by two intervals (last,
    in increasing x) min(excess, max(deficit, 0)) to the left component, whose
    deficit is the nu0 mass it still misses, and the rest to the right one;
    else (shoulder mass, where the gap dips below the tolerance) to the
    nearest interval. A deficit above 1e-9 left in any component raises
    MeasureError.
    """
    report = check_convex_order(nu0, nu1)
    if not report.in_convex_order:
        raise MeasureError(
            "measures are not in convex order "
            f"(max potential violation {report.max_violation:.3e}, "
            f"equal means: {report.equal_means})")
    intervals = _component_intervals(nu0, nu1)
    k = len(intervals)
    los, his = np.array(intervals).reshape(-1, 2).T
    x, w = nu1.atoms, nu1.weights
    both = np.concatenate([nu0.atoms, x])
    below, passed = np.searchsorted(los, both), np.searchsorted(his, both, side="right")
    # label k marks an atom outside every open interval
    label0, label1 = np.split(np.where(below > passed, passed, k), [nu0.n])
    mass = np.bincount(label0, nu0.weights, minlength=k + 1)  # running sums in x order
    static = label0 == k

    inside = label1 < k
    i, j = _near(x, nu0.atoms[static])
    kept = np.bincount(i, nu0.weights[static][j], minlength=x.size)  # static nu0 mass at x
    excess = np.where(inside, w, np.maximum(w - kept, 0.0))
    left, right = np.full(x.size, -1), np.full(x.size, -1)
    for found, ends in ((left, his), (right, los)):
        i, j = _near(x, ends)
        rows, first = np.unique(i, return_index=True)
        found[rows] = j[first]
    after = np.searchsorted(his, x)  # the interval right of a shoulder atom
    nearest = np.where(x - np.append(-np.inf, his)[after] <= np.append(los, np.inf)[after] - x,
                       after - 1, after)
    target = np.where(inside, label1,
                      np.where(left >= 0, left, np.where(right >= 0, right, nearest)))
    end = ~inside & (np.maximum(left, right) >= 0)
    shared = ~inside & (np.minimum(left, right) >= 0)

    # the other moves leave the deficits in the order of an atom-by-atom pass,
    # forced and shoulder atoms by x, then atoms on one end by x, so the
    # atoms on shared ends read the same bits
    moves = np.flatnonzero((excess > 0) & (target >= 0) & ~shared)
    moves = moves[np.argsort(end[moves], kind="stable")]
    deficit = np.bincount(np.concatenate([np.arange(k), target[moves]]),
                          np.concatenate([mass[:k], -excess[moves]]), minlength=k)
    # then each atom on a shared end reads the deficit the one before it left
    rest = np.zeros(x.size)
    for s in np.flatnonzero(shared):
        take = max(min(excess[s], deficit[left[s]]), 0.0)
        deficit[left[s]] -= take
        deficit[right[s]] -= excess[s] - take
        excess[s], rest[s] = take, excess[s] - take

    if k and np.max(np.abs(deficit)) > 1e-9:
        raise MeasureError(
            f"component mass balance failed (worst residual {np.max(np.abs(deficit)):.3e})")

    labels, weights = np.concatenate([target, right]), np.concatenate([excess, rest])
    keep = (weights > 0) & (labels >= 0)
    parts0 = _groups(label0, k, nu0.atoms, nu0.weights)
    parts1 = _groups(labels[keep], k, np.concatenate([x, x])[keep], weights[keep])
    components = [MeasureComponent(intervals[c], make_grid_measure(*parts0[c]),
                                   make_grid_measure(*parts1[c]), float(mass[c]))
                  for c in range(k)]
    identity = make_grid_measure(*parts0[k]) if mass[k] > 0 else None
    return ComponentDecomposition(float(mass[k]), identity, components)


def reflect_measure(mu: GridMeasure, normalize: bool = False) -> GridMeasure:
    """Reweight by the identity density and push forward through x -> 1/x.

    With normalize=True the measure is first rescaled to mean one, making the
    transform an involution that exchanges the geometric and arithmetic
    transport problems; the result always has mean one in that case.
    """
    if not mu.positive_support:
        raise MeasureError("reflection requires strictly positive support")
    base = normalize_to_unit_mean(mu) if normalize else mu
    new_weights = base.weights * base.atoms / base.mean
    return make_grid_measure(1.0 / base.atoms, new_weights)


def _panels(eta: GridMeasure, rho: GridMeasure):
    """Probability panels on which both quantile functions are constant."""
    edges = np.unique(np.concatenate([
        eta.cum_weights[:-1], rho.cum_weights[:-1], [0.0, 1.0]]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.diff(edges), quantile(eta, mids), quantile(rho, mids)


def wasserstein1(eta: GridMeasure, rho: GridMeasure) -> float:
    """Exact 1-Wasserstein distance via the quantile-function representation."""
    du, qe, qr = _panels(eta, rho)
    return float(du @ np.abs(qe - qr))
