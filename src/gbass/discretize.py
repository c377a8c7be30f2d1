"""Discretization of parametric and empirical marginals onto atomic grids.

Families are binned with equal probability between truncation quantiles and
each atom is the conditional mean of its bin, so the truncated mean is
preserved exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .measures import GridMeasure, MeasureError, make_grid_measure


class Lognormal:
    def __init__(self, meanlog: float, varlog: float):
        if not np.isfinite(meanlog):
            raise MeasureError(f"lognormal meanlog must be finite, got {meanlog}")
        if not 0 < varlog < np.inf:
            raise MeasureError(f"lognormal varlog must be positive and finite, got {varlog}")
        self.meanlog = float(meanlog)
        self.sdlog = float(np.sqrt(varlog))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = ndtr((np.log(x[pos]) - self.meanlog) / self.sdlog)
        return out

    def quantile(self, u):
        return np.exp(self.meanlog + self.sdlog * ndtri(np.asarray(u, dtype=float)))

    def partial_mean(self, a, b):
        scale = np.exp(self.meanlog + self.sdlog ** 2 / 2.0)

        def z(x):
            x = np.asarray(x, dtype=float)
            out = np.full_like(x, -np.inf)
            pos = x > 0
            out[pos] = (np.log(x[pos]) - self.meanlog) / self.sdlog - self.sdlog
            out[np.isposinf(x)] = np.inf
            return out

        return scale * (ndtr(z(b)) - ndtr(z(a)))

    def support(self):
        return 0.0, np.inf


class Uniform:
    def __init__(self, a: float, b: float):
        for name, value in (("a", a), ("b", b)):
            if not np.isfinite(value):
                raise MeasureError(f"uniform {name} must be finite, got {value}")
        if not b > a:
            raise MeasureError(f"uniform needs a < b, got [{a}, {b}]")
        self.a, self.b = float(a), float(b)

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)

    def partial_mean(self, a, b):
        lo = np.clip(np.asarray(a, dtype=float), self.a, self.b)
        hi = np.clip(np.asarray(b, dtype=float), self.a, self.b)
        return (hi ** 2 - lo ** 2) / (2.0 * (self.b - self.a))

    def support(self):
        return self.a, self.b


class Mixture:
    def __init__(self, parts, weights):
        self.parts, w = list(parts), np.asarray(weights, dtype=float)
        if len(self.parts) != w.size:
            raise MeasureError(f"mixture has {len(self.parts)} parts but {w.size} weights")
        if not np.all(np.isfinite(w)):
            i = int(np.argmin(np.isfinite(w)))
            raise MeasureError(f"mixture weight {i} must be finite, got {w[i]}")
        if np.any(w < 0) or w.sum() <= 0:
            raise MeasureError("mixture weights must be nonnegative with positive sum")
        self.weights = w / w.sum()

    def cdf(self, x):
        return sum(w * p.cdf(x) for w, p in zip(self.weights, self.parts))

    def quantile(self, u):
        """All levels at once: bisection of the CDF between the parts' quantiles."""
        u = np.asarray(u, dtype=float)
        qs = np.array([p.quantile(np.atleast_1d(u)) for p in self.parts])
        lo, hi = qs.min(axis=0), qs.max(axis=0)
        mid = 0.5 * (lo + hi)
        while np.any(live := (hi - lo > 1e-13) & (lo < mid) & (mid < hi)):
            below = self.cdf(mid) < u
            lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)
            mid = 0.5 * (lo + hi)
        return float(mid[0]) if u.ndim == 0 else mid

    def partial_mean(self, a, b):
        return sum(w * p.partial_mean(a, b) for w, p in zip(self.weights, self.parts))

    def support(self):
        los, his = zip(*(p.support() for p in self.parts))
        return min(los), max(his)


def discretize_family(family, grid_size: int, truncation: float) -> GridMeasure:
    """Equal-probability bins between the truncation quantiles, atoms at bin means.

    The extreme bins extend to the ends of the support so no mass is dropped
    and the mean is preserved exactly.
    """
    if grid_size < 3:
        raise MeasureError(f"grid size must be at least 3, got {grid_size}")
    if not 0.0 < truncation < 0.5:
        raise MeasureError(f"truncation quantile must lie in (0, 0.5), got {truncation}")
    levels = truncation + (1.0 - 2.0 * truncation) * np.arange(1, grid_size) / grid_size
    lo, hi = family.support()
    edges = np.concatenate([[lo], np.asarray(family.quantile(levels), dtype=float), [hi]])
    probs = np.diff(np.concatenate([[0.0], levels, [1.0]]))
    means = np.asarray(family.partial_mean(edges[:-1], edges[1:]), dtype=float) / probs
    return make_grid_measure(means, probs)


def discretize_samples(samples, bins: int) -> GridMeasure:
    """Equal-count binning of an empirical sample, atoms at group means."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise MeasureError("empty sample")
    if not np.all(np.isfinite(x)):
        raise MeasureError("sample contains non-finite values")
    bins = min(bins, x.size)
    if bins < 1:
        raise MeasureError("need at least one bin")
    groups = np.array_split(x, bins)
    atoms = np.array([g.mean() for g in groups])
    weights = np.array([g.size for g in groups], dtype=float)
    return make_grid_measure(atoms, weights)
