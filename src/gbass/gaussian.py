"""Gaussian kernels and heat smoothing of nondecreasing functions.

Provides the Gaussian distribution primitives, CDF/quantile of a Gaussian
mixture over an atomic measure, and the heat-kernel convolution F * gamma_s
(with spatial derivative) for monotone functions, exact for step functions
and Gauss-Hermite elsewhere. ``_gauss_sum`` is the one dense sweep
sum_j w_j Phi((x - c_j) / sqrt(s)) or its density, and ``invert_increasing``
the one bracketed monotone inversion. The two smoothed maps of the Bass fixed
point each have one inversion built on it: ``mixture_quantiles`` inverts
alpha * gamma_s (CDF below one half, survival function above), and
``heat_convolve_inverse`` inverts fn * gamma_s. ``smoothed_values`` evaluates
fn * gamma_s or its slope at many points, by a Chebyshev interpolant
certified to 1e-13 of the range or by the exact sweep.

Both inverses first fit one Chebyshev proxy of the smoothed map per call and
solve on it (``_proxy_seed``). The proxy's roots only replace the warm start
x0: every returned row is still verified on the exact sweep by
``invert_increasing``. The proxy is skipped when its fit would cost more than
a quarter of the targets, as for a single target, and a failed fit or proxy
solve leaves x0 as given.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval
from scipy.fft import dct
from scipy.special import ndtr, ndtri, roots_hermitenorm

from .measures import GridMeasure

DEFAULT_GH_NODES = 64
_CHUNK = 4096
# residual to which mixture quantiles are solved, on the exact CDF or SF
_MIXTURE_TOL = 1e-13
# Chebyshev degree per unit of half-width / sqrt(s). Phi((x - c) / sqrt(s)) is
# entire, so its interpolants on an interval of half-width L converge
# super-geometrically once the degree passes a multiple of L / sqrt(s)
# (Trefethen, Approximation Theory and Approximation Practice, ch. 8); at
# 9 L / sqrt(s) both smoothed maps of the benchmark pairs fit to <= 3.1e-15.
_DEGREE_PER_WIDTH = 9.0
# a proxy's fit costs degree + 1 exact rows and saves about two per target;
# it is fitted only while that cost stays within this share of the targets
_FIT_SHARE = 0.25


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


class InversionError(RuntimeError):
    """invert_increasing ran out of steps with some row still above its tolerance.

    residual is the worst |f(x) - target| among those rows; iterates holds
    every row's last evaluated iterate, shaped like the targets.
    """

    def __init__(self, message: str, residual: float, iterates: np.ndarray):
        super().__init__(message)
        self.residual = residual
        self.iterates = iterates


def invert_increasing(f, fprime, targets, lo, hi, tol: float, max_iter: int = 200,
                      x0=None):
    """Solve f(x) = target componentwise for a smooth increasing vectorized f.

    Newton steps guarded by a maintained bracket; falls back to bisection
    whenever the step leaves the bracket or the derivative degenerates.
    Brackets must be valid on entry: f(lo) <= target <= f(hi). A warm start
    x0 (clipped into the bracket) makes repeated nearby solves near-free.

    Each step calls f and then fprime on the rows still open only, as a 1-D
    array, so both must act componentwise. A row closes at its first iterate
    with |f(x) - target| <= max(tol, floor) and is returned at that verified
    iterate; floor = 4 * spacing(max |target|), what float64 resolves around
    the largest target. A row that cannot move, because its Newton step is
    lost to rounding or its bracket is one ulp wide and the bisection rounds
    back to x, closes at x if and only if |f(x) - target| <= floor +
    |fprime(x)| * spacing(|x|), what one ulp of x moves f by. This keeps tol
    reachable where targets or slopes are too large for any float64 x to
    meet it. InversionError is raised as soon as a row that fails this test
    would be evaluated at x again, or when max_iter runs out with rows open.
    """
    targets = np.asarray(targets, dtype=float)
    t = targets.ravel()
    lo = np.broadcast_to(np.asarray(lo, dtype=float), targets.shape).ravel()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), targets.shape).ravel()
    if x0 is None:
        x = 0.5 * (lo + hi)
    else:
        x = np.clip(np.asarray(x0, dtype=float).ravel(), lo, hi)
    floor = 4.0 * float(np.spacing(np.max(np.abs(t), initial=0.0)))
    close = max(tol, floor)
    out = np.empty_like(t)
    rows = np.arange(t.size)
    err, step = np.full(t.size, np.inf), 0
    for step in range(1, max_iter + 1):
        err = f(x) - t
        out[rows] = x  # each row's last evaluated iterate
        keep = ~(np.abs(err) <= close)
        if not keep.any():
            return out.reshape(targets.shape)
        rows, x, t, lo, hi, err = (a[keep] for a in (rows, x, t, lo, hi, err))
        hi = np.where(err >= 0, x, hi)
        lo = np.where(err <= 0, x, lo)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = fprime(x)
            cand = x - err / slope
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
            nxt = np.where(bad, 0.5 * (lo + hi), cand)
            stuck = (cand == x) | (nxt == x)
        if stuck.any():
            # a row that cannot move closes if one ulp of x explains its residual
            keep = ~(stuck & (np.abs(err) <= floor + np.abs(slope) * np.spacing(np.abs(x))))
            if not keep.any():
                return out.reshape(targets.shape)
            rows, x, t, lo, hi, err, nxt = (a[keep] for a in (rows, x, t, lo, hi, err, nxt))
            if np.any(nxt == x):  # f is deterministic: that row would stay at x to max_iter
                break
        x = nxt
    worst = float(np.max(np.abs(err)))
    raise InversionError(
        f"monotone inversion stalled after {step} steps: {rows.size} of {targets.size} "
        f"rows open, worst residual {worst:.3e}", worst, out.reshape(targets.shape))


def _chebyshev_fit(f, a: float, b: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients on [a, b] of f's interpolant at degree + 1 second-kind points."""
    nodes = np.cos(np.pi * np.arange(degree + 1) / degree)
    coef = dct(f(0.5 * (a + b) + 0.5 * (b - a) * nodes), type=1) / degree
    coef[[0, -1]] /= 2.0
    return coef


def _proxy_seed(f, s: float, targets: np.ndarray, lo, hi, tol: float, x0):
    """Roots of a Chebyshev proxy of f, as warm starts for the exact inversion.

    f is an increasing Gaussian smoothing with variance s, lo and hi the
    exact solve's brackets. Its interpolant at degree + 1 second-kind points
    of [min lo, max hi] is fitted from exact sweeps, with the degree set to
    _DEGREE_PER_WIDTH times that interval's half-width over sqrt(s), and
    inverted to tol / 10 by invert_increasing. The proxy only seeds: callers
    still verify every row on the exact f. x0 comes back unchanged when the
    fit would cost more than _FIT_SHARE of the targets, when the fit is not
    finite, or when the proxy solve stalls.
    """
    max_degree = _FIT_SHARE * np.size(targets) - 1
    if max_degree < 1:
        return x0
    a, b = float(np.min(lo)), float(np.max(hi))
    degree = np.ceil(_DEGREE_PER_WIDTH * 0.5 * (b - a) / np.sqrt(s))
    if not 1 <= degree <= max_degree:
        return x0
    coef = _chebyshev_fit(f, a, b, int(degree))
    if not np.all(np.isfinite(coef)):
        return x0
    scale = 2.0 / (b - a)
    slope = chebder(coef) * scale
    mid = 0.5 * (a + b)
    try:
        return invert_increasing(lambda x: chebval((x - mid) * scale, coef),
                                 lambda x: chebval((x - mid) * scale, slope),
                                 targets, lo, hi, tol=tol / 10.0, x0=x0)
    except InversionError:
        return x0


def smoothed_quantile(alpha: GridMeasure, s: float, u):
    """Inverse of smoothed_cdf, to the 1e-13 of mixture_quantiles.

    Levels u <= 1/2 meet |smoothed_cdf(result) - u| <= 1e-13; upper levels are
    solved through the survival function, to 1e-13 of 1 - u, so precision
    does not collapse near one.
    """
    u = np.asarray(u, dtype=float)
    uu = np.atleast_1d(u).astype(float)
    if np.any((uu <= 0) | (uu >= 1)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    out = mixture_quantiles(alpha, s, uu, 1.0 - uu)
    return float(out[0]) if u.ndim == 0 else out


def mixture_quantiles(alpha: GridMeasure, s: float, cum: np.ndarray, tails: np.ndarray,
                      x0=None) -> np.ndarray:
    """Points where alpha * gamma_s has lower mass cum and upper mass tails (= 1 - cum).

    Levels with cum <= 1/2 are solved on the CDF, the rest on minus the
    survival function, and a warm start x0 is split the same way. Every
    returned row is within 1e-13 of its level on that exact function. A
    level with standard score z is bracketed by a + sqrt(s) z at alpha's end
    atoms, and without x0 it starts at the Gaussian with alpha * gamma_s's
    mean and variance. Before the exact solve, one Chebyshev proxy of the
    mixture CDF is fitted for both halves and its roots replace x0 (see
    _proxy_seed); it only seeds the solve, and it is skipped when its fit
    would cost more than a quarter of the levels.
    """
    out = np.empty(cum.shape)
    lower = cum <= 0.5
    z = np.empty(cum.shape)
    z[lower] = ndtri(cum[lower])
    # survival tail t at atom a sits at a - sqrt(s)*ndtri(t)
    z[~lower] = -ndtri(tails[~lower])
    root = np.sqrt(s)
    lo, hi = alpha.atoms[0] + root * z, alpha.atoms[-1] + root * z
    if x0 is None:
        var = float(alpha.weights @ (alpha.atoms - alpha.mean) ** 2)
        x0 = alpha.mean + np.sqrt(s + var) * z
    # the proxy is of the CDF; 1 - tails costs the upper levels only an
    # absolute 1e-16, far inside the proxy solve's tolerance
    x0 = _proxy_seed(lambda x: smoothed_cdf(alpha, s, x), s,
                     np.where(lower, cum, 1.0 - tails), lo, hi, _MIXTURE_TOL, x0)
    halves = ((lower, lambda x: smoothed_cdf(alpha, s, x), cum),
              (~lower, lambda x: -smoothed_sf(alpha, s, x), -tails))
    for part, f, targets in halves:
        if part.any():
            out[part] = invert_increasing(
                f, lambda x: _gauss_sum(x, alpha.atoms, alpha.weights, s, density=True),
                targets[part], lo[part], hi[part], tol=_MIXTURE_TOL, x0=x0[part])
    return out


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


def _constant_beyond(fn: MonotoneFn) -> tuple[float, float] | None:
    """(e0, e1) with fn equal to fn.lower below e0 and to fn.upper above e1, if known."""
    if isinstance(fn, StepFn) and fn.thresholds.size:
        return float(fn.thresholds[0]), float(fn.thresholds[-1])
    if isinstance(fn, TableFn):
        return float(fn.xs[0]), float(fn.xs[-1])
    return None


def smoothed_values(fn: StepFn, s: float, x, deriv: bool = False) -> np.ndarray:
    """fn * gamma_s at the points x, or its slope with deriv (which needs s > 0).

    Interpolates on [x.min, x.max], cut where the Gaussian tail bound puts
    fn * gamma_s within 2^-60 of its range from its bounds (points beyond get
    the end value). A fit at degree + 1 second-kind points is certified at the
    degree first-kind points between them, values to 1e-13 of (upper - lower)
    and slopes to 1e-13 of the largest sampled slope; a failed fit doubles its
    degree, reusing both point sets. The exact sweep is returned for s == 0,
    at most 64 thresholds, an empty cut, or once fit plus certification would
    cost more than _FIT_SHARE of the points.
    """
    x = np.asarray(x, dtype=float)
    evaluate = fn.heat_convolve_deriv if deriv else fn.heat_convolve
    if s == 0.0 or fn.thresholds.size <= 64 or x.size == 0:
        return evaluate(s, x)
    root = np.sqrt(s)
    a = max(float(x.min()), fn.thresholds[0] + root * ndtri(2.0 ** -60))
    b = min(float(x.max()), fn.thresholds[-1] - root * ndtri(2.0 ** -60))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    degree = int(np.ceil(_DEGREE_PER_WIDTH * half / root))
    values = None
    while half > 0 and 2 * degree + 1 <= _FIT_SHARE * x.size:
        if values is None:
            values = evaluate(s, mid + half * np.cos(np.pi * np.arange(degree + 1) / degree))
        between = np.cos(np.pi * np.arange(1, 2 * degree, 2) / (2 * degree))
        check = evaluate(s, mid + half * between)
        # the sweep at the fit's second-kind points is already in values
        coef = _chebyshev_fit(lambda _: values, a, b, degree)
        scale = max(np.max(values), np.max(check)) if deriv else fn.upper - fn.lower
        if np.max(np.abs(chebval(between, coef) - check)) <= 1e-13 * scale:
            return chebval((np.clip(x, a, b) - mid) / half, coef)
        # both point sets together are the second-kind points of twice the degree
        values, degree = np.insert(values, np.arange(1, degree + 1), check), 2 * degree
    return evaluate(s, x)


def heat_convolve_inverse(fn: MonotoneFn, s: float, y, tol: float, x0=None) -> np.ndarray:
    """Solve (fn * gamma_s)(x) = y componentwise for y inside fn's open image.

    Where fn is constant beyond (e0, e1) with finite bounds, the bracket
    starts at the Gaussian-tail bound on the targets' range: fn * gamma_s
    is at most lower + (upper - lower) Phi((x - e0) / sqrt(s)) and at least
    upper - (upper - lower) Phi((e1 - x) / sqrt(s)). Otherwise it starts at
    (e0 - 9 sqrt(s), e1 + 9 sqrt(s)), with e0 = e1 = 0 where fn has no known
    constant ends. Each end that does not yet enclose the targets moves
    out by 1, 2, 4, ... until it does, and a step past 1e12 raises
    ValueError. Every returned row meets tol on the exact fn.heat_convolve.
    Before that solve, the roots of one Chebyshev proxy of fn * gamma_s over
    the bracket replace x0 (see _proxy_seed); the proxy only seeds the
    solve, and it is skipped when its fit would cost more than a quarter of
    the targets, as for a single target.
    """
    y = np.asarray(y, dtype=float)
    y_min, y_max = np.min(y), np.max(y)
    ends, root = _constant_beyond(fn), np.sqrt(s)
    if ends is not None and fn.lower < y_min and y_max < fn.upper:
        width = fn.upper - fn.lower
        lo = ends[0] + root * ndtri((y_min - fn.lower) / width)
        hi = ends[1] - root * ndtri((fn.upper - y_max) / width)
    else:
        e0, e1 = ends or (0.0, 0.0)
        lo, hi = e0 - 9.0 * root, e1 + 9.0 * root
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
    x0 = _proxy_seed(lambda x: fn.heat_convolve(s, x), s, y, lo, hi, tol, x0)
    return invert_increasing(lambda x: fn.heat_convolve(s, x),
                             lambda x: fn.heat_convolve_deriv(s, x),
                             y, lo, hi, tol=tol, x0=x0)
