"""Gaussian kernels and heat smoothing of nondecreasing functions.

Provides the Gaussian distribution primitives, CDF/quantile of a Gaussian
mixture over an atomic measure, and the heat-kernel convolution F * gamma_s
(with spatial derivative) for monotone functions, exact for step functions
and Gauss-Hermite elsewhere. Three routines are the single home of what the
package builds on: ``_gauss_sum`` is the one dense sweep
sum_j w_j Phi((x - c_j) / sqrt(s)) or its density, ``mixture_quantiles`` the
one quantile split of alpha * gamma_s (CDF below one half, survival function
above), and ``heat_convolve_inverse`` the one bracketed inverse of fn * gamma_s.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri, roots_hermitenorm

from .measures import GridMeasure

DEFAULT_GH_NODES = 64
_CHUNK = 4096


def gauss_pdf(x, s: float = 1.0):
    if s <= 0:
        raise ValueError(f"variance must be positive, got {s}")
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / (2.0 * s)) / np.sqrt(2.0 * np.pi * s)


def gauss_cdf(x, s: float = 1.0):
    if s <= 0:
        raise ValueError(f"variance must be positive, got {s}")
    return ndtr(np.asarray(x, dtype=float) / np.sqrt(s))


def gauss_quantile(u, s: float = 1.0):
    if s <= 0:
        raise ValueError(f"variance must be positive, got {s}")
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u >= 1)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    return ndtri(u) * np.sqrt(s)


@lru_cache(maxsize=32)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights integrating against the standard Gaussian."""
    nodes, weights = roots_hermitenorm(n)
    if not np.all(np.isfinite(weights)):
        raise FloatingPointError(f"Gauss-Hermite weights are not finite at n = {n}")
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_sum(x, centers: np.ndarray, weights: np.ndarray, s: float,
               density: bool = False) -> np.ndarray:
    """sum_j weights[j] * Phi((x - centers[j]) / sqrt(s)), or the density sum.

    The result is shaped like np.atleast_1d(x). Rows go in chunks and each
    kernel block stays unnamed, so one block at a time is alive.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xs = x.ravel()
    out = np.empty_like(xs)
    root = np.sqrt(s)
    for i in range(0, xs.size, _CHUNK):
        z = (xs[i:i + _CHUNK, None] - centers[None, :]) / root
        out[i:i + _CHUNK] = (np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi * s) if density
                             else ndtr(z)) @ weights
    return out.reshape(x.shape)


def smoothed_cdf(alpha: GridMeasure, s: float, x):
    """CDF at x of alpha convolved with a centred Gaussian of variance s."""
    if s <= 0:
        raise ValueError(f"variance must be positive, got {s}")
    x = np.asarray(x, dtype=float)
    out = _gauss_sum(x, alpha.atoms, alpha.weights, s)
    return float(out[0]) if x.ndim == 0 else out


def smoothed_sf(alpha: GridMeasure, s: float, x):
    """Survival function of the same mixture, accurate deep in the upper tail."""
    if s <= 0:
        raise ValueError(f"variance must be positive, got {s}")
    x = np.asarray(x, dtype=float)
    # P(X > x) = P(-X < -x): the CDF sweep of the reflected mixture
    out = _gauss_sum(-x, -alpha.atoms, alpha.weights, s)
    return float(out[0]) if x.ndim == 0 else out


def _mixture_pdf(alpha: GridMeasure, s: float, x: np.ndarray) -> np.ndarray:
    return _gauss_sum(x, alpha.atoms, alpha.weights, s, density=True)


def invert_increasing(f, fprime, targets, lo, hi, tol: float, max_iter: int = 200,
                      x0=None):
    """Solve f(x) = target componentwise for a smooth increasing vectorized f.

    Newton steps guarded by a maintained bracket; falls back to bisection
    whenever the step leaves the bracket or the derivative degenerates.
    Brackets must be valid on entry: f(lo) <= target <= f(hi). A warm start
    x0 (clipped into the bracket) makes repeated nearby solves near-free.

    Each step calls f and then fprime on the rows still open only, as a 1-D
    array, so both must act componentwise. A row closes at its first iterate
    with |f(x) - target| <= tol and is returned at that verified iterate.
    If max_iter runs out, open rows are returned at their last evaluated
    iterate, and RuntimeError is raised when one misses max(tol, 1e-9).
    """
    targets = np.asarray(targets, dtype=float)
    t = targets.ravel()
    lo = np.broadcast_to(np.asarray(lo, dtype=float), targets.shape).ravel()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), targets.shape).ravel()
    if x0 is None:
        x = 0.5 * (lo + hi)
    else:
        x = np.clip(np.asarray(x0, dtype=float).ravel(), lo, hi)
    out = np.empty_like(t)
    rows = np.arange(t.size)
    err = np.full(t.size, np.inf)
    for _ in range(max_iter):
        err = f(x) - t
        out[rows] = x  # each row's last evaluated iterate
        keep = ~(np.abs(err) <= tol)
        if not keep.any():
            return out.reshape(targets.shape)
        rows, x, t, lo, hi, err = (a[keep] for a in (rows, x, t, lo, hi, err))
        hi = np.where(err >= 0, x, hi)
        lo = np.where(err <= 0, x, lo)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cand = x - err / fprime(x)
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        x = np.where(bad, 0.5 * (lo + hi), cand)
    worst = float(np.max(np.abs(err)))
    if worst > max(tol, 1e-9):
        raise RuntimeError(f"monotone inversion stalled, residual {worst:.3e}")
    return out.reshape(targets.shape)


def smoothed_quantile(alpha: GridMeasure, s: float, u):
    """Inverse of smoothed_cdf; |smoothed_cdf(result) - u| < 1e-12.

    Upper-tail levels are solved through the survival function so precision
    does not collapse near one.
    """
    u = np.asarray(u, dtype=float)
    uu = np.atleast_1d(u).astype(float)
    if np.any((uu <= 0) | (uu >= 1)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    out = mixture_quantiles(alpha, s, uu, 1.0 - uu)
    return float(out[0]) if u.ndim == 0 else out


def _invert_mixture(alpha: GridMeasure, s: float, f, targets: np.ndarray, z: np.ndarray,
                    x0=None) -> np.ndarray:
    """Solve f(x) = targets for f the mixture CDF or minus its survival function.

    z is each level's standard score: a + sqrt(s) z at the end atoms brackets the root.
    """
    root = np.sqrt(s)
    if x0 is None:
        var = float(alpha.weights @ (alpha.atoms - alpha.mean) ** 2)
        x0 = alpha.mean + np.sqrt(s + var) * z
    return invert_increasing(f, lambda x: _mixture_pdf(alpha, s, x), targets,
                             alpha.atoms[0] + root * z, alpha.atoms[-1] + root * z,
                             tol=1e-13, x0=x0)


def mixture_quantiles(alpha: GridMeasure, s: float, cum: np.ndarray, tails: np.ndarray,
                      x0=None) -> np.ndarray:
    """Points where alpha * gamma_s has lower mass cum and upper mass tails (= 1 - cum).

    Levels with cum <= 1/2 are solved on the CDF, the rest on the survival
    function, and a warm start x0 is split the same way.
    """
    out = np.empty(cum.shape)
    lower = cum <= 0.5
    warm = (None, None) if x0 is None else (x0[lower], x0[~lower])
    if lower.any():
        out[lower] = _invert_mixture(alpha, s, lambda x: smoothed_cdf(alpha, s, x),
                                     cum[lower], ndtri(cum[lower]), warm[0])
    if (~lower).any():
        out[~lower] = smoothed_isf(alpha, s, tails[~lower], x0=warm[1])
    return out


def smoothed_isf(alpha: GridMeasure, s: float, tail, x0=None):
    """Point x with mixture survival mass equal to tail (tail in (0, 1))."""
    tail = np.asarray(tail, dtype=float)
    tt = np.atleast_1d(tail).astype(float)
    if np.any((tt <= 0) | (tt >= 1)):
        raise ValueError("tail mass must lie strictly inside (0, 1)")
    # survival tail t at atom a sits at a - sqrt(s)*ndtri(t)
    out = _invert_mixture(alpha, s, lambda x: -smoothed_sf(alpha, s, x), -tt, -ndtri(tt), x0)
    return float(out[0]) if tail.ndim == 0 else out


class MonotoneFn:
    """Nondecreasing real function with declared image bounds.

    Subclasses implement __call__ on arrays. Heat convolution defaults to
    Gauss-Hermite quadrature; subclasses override when an exact form exists.
    """

    lower: float = -np.inf
    upper: float = np.inf

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def heat_convolve(self, s: float, x, n_nodes: int = DEFAULT_GH_NODES):
        if s < 0:
            raise ValueError(f"variance must be nonnegative, got {s}")
        x = np.asarray(x, dtype=float)
        if s == 0:
            return self(x)
        nodes, weights = gauss_hermite(n_nodes)
        vals = self(np.atleast_1d(x)[:, None] + np.sqrt(s) * nodes[None, :])
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("heat convolution diverged: non-finite integrand value")
        out = vals @ weights
        return float(out[0]) if x.ndim == 0 else out

    def heat_convolve_deriv(self, s: float, x, n_nodes: int = DEFAULT_GH_NODES):
        # integration by parts against the Gaussian puts the derivative on the
        # kernel, so step discontinuities are handled too
        if s <= 0:
            raise ValueError(f"variance must be positive, got {s}")
        x = np.asarray(x, dtype=float)
        nodes, weights = gauss_hermite(n_nodes)
        vals = self(np.atleast_1d(x)[:, None] + np.sqrt(s) * nodes[None, :])
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("heat convolution diverged: non-finite integrand value")
        out = (vals * nodes[None, :]) @ weights / np.sqrt(s)
        return float(out[0]) if x.ndim == 0 else out


class StepFn(MonotoneFn):
    """Right-increasing step function: levels[j] on (thresholds[j-1], thresholds[j]].

    The native solver representation; heat convolution and its derivative are
    exact sums of Gaussian CDF/PDF increments.
    """

    def __init__(self, thresholds, levels):
        t = np.asarray(thresholds, dtype=float)
        y = np.asarray(levels, dtype=float)
        if y.size != t.size + 1:
            raise ValueError("need exactly one more level than thresholds")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if np.any(np.diff(y) < 0):
            raise ValueError("levels must be nondecreasing")
        self.thresholds = t
        self.levels = y
        self.jumps = np.diff(y)
        self.lower = float(y[0])
        self.upper = float(y[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.thresholds, x, side="left")
        out = self.levels[idx]
        return float(out) if out.ndim == 0 else out

    def heat_convolve(self, s: float, x, n_nodes: int = DEFAULT_GH_NODES):
        """(fn * gamma_s)(x) as levels[0] plus Gaussian-CDF-weighted jumps.

        For s > 0 this is strictly increasing in exact arithmetic, but once
        `upper - value` (or `value - lower`) is below half an ulp the nearest
        float64 is the bound itself, so neighbouring points can tie;
        `heat_convolve_deriv` is the form in which strictness stays visible.
        """
        if s < 0:
            raise ValueError(f"variance must be nonnegative, got {s}")
        x = np.asarray(x, dtype=float)
        if s == 0 or self.thresholds.size == 0:
            return self(x)
        out = self.levels[0] + _gauss_sum(x, self.thresholds, self.jumps, s)
        return float(out[0]) if x.ndim == 0 else out

    def heat_convolve_deriv(self, s: float, x, n_nodes: int = DEFAULT_GH_NODES):
        if s <= 0:
            raise ValueError(f"variance must be positive, got {s}")
        x = np.asarray(x, dtype=float)
        if self.thresholds.size == 0:
            out = np.zeros(np.atleast_1d(x).shape)
        else:
            out = _gauss_sum(x, self.thresholds, self.jumps, s, density=True)
        return float(out[0]) if x.ndim == 0 else out


class CallableFn(MonotoneFn):
    """Wraps a vectorized nondecreasing callable, clamping to declared image bounds."""

    def __init__(self, fn, lower: float = -np.inf, upper: float = np.inf):
        self._fn = fn
        self.lower = float(lower)
        self.upper = float(upper)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        vals = np.asarray(self._fn(x), dtype=float)
        if np.isfinite(self.lower) or np.isfinite(self.upper):
            vals = np.clip(vals, self.lower, self.upper)
        return float(vals) if vals.ndim == 0 else vals


class TableFn(MonotoneFn):
    """Monotone linear interpolation of a table, constant beyond its ends."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if np.any(np.diff(xs) <= 0):
            raise ValueError("table abscissae must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise ValueError("table values must be nondecreasing")
        self.xs = xs
        self.ys = ys
        self.lower = float(ys[0])
        self.upper = float(ys[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.ys)
        return float(out) if out.ndim == 0 else out


def heat_convolve(fn: MonotoneFn, s: float, x, n_nodes: int = DEFAULT_GH_NODES):
    """(fn * gamma_s)(x): Gaussian smoothing of a monotone function."""
    return fn.heat_convolve(s, x, n_nodes)


def heat_convolve_deriv(fn: MonotoneFn, s: float, x, n_nodes: int = DEFAULT_GH_NODES):
    """Spatial derivative of the Gaussian smoothing; nonnegative for monotone fn."""
    return fn.heat_convolve_deriv(s, x, n_nodes)


def heat_convolve_span(fn: MonotoneFn, s: float) -> tuple[float, float]:
    """fn's own span (its thresholds' or abscissae's range, else 0) padded by 9 sqrt(s)."""
    if isinstance(fn, StepFn) and fn.thresholds.size:
        lo, hi = fn.thresholds[0], fn.thresholds[-1]
    elif isinstance(fn, TableFn):
        lo, hi = fn.xs[0], fn.xs[-1]
    else:
        lo = hi = 0.0
    pad = 9.0 * np.sqrt(s)
    return float(lo - pad), float(hi + pad)


def heat_convolve_inverse(fn: MonotoneFn, s: float, y, tol: float, x0=None) -> np.ndarray:
    """Solve (fn * gamma_s)(x) = y componentwise for y inside fn's open image.

    The bracket starts at heat_convolve_span; each end that does not yet
    enclose the targets moves out by 1, 2, 4, ... until it does, and a step
    past 1e12 raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    y_min, y_max = np.min(y), np.max(y)
    lo, hi = heat_convolve_span(fn, s)
    step = 1.0
    while True:
        f_lo, f_hi = fn.heat_convolve(s, np.array([lo, hi]))
        if f_lo <= y_min and f_hi >= y_max:
            break
        if step > 1e12:
            raise ValueError("could not bracket the targets inside the smoothed map")
        lo -= step if f_lo > y_min else 0.0
        hi += step if f_hi < y_max else 0.0
        step *= 2.0
    return invert_increasing(lambda x: fn.heat_convolve(s, x),
                             lambda x: fn.heat_convolve_deriv(s, x),
                             y, lo, hi, tol=tol, x0=x0)
