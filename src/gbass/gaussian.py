"""Gaussian kernels and heat smoothing of nondecreasing functions.

Provides the Gaussian distribution primitives, CDF/quantile of a Gaussian
mixture over an atomic measure, and the heat-kernel convolution F * gamma_s
(with spatial derivative) for monotone functions, exact for step functions
and Gauss-Hermite elsewhere. ``_gauss_sum`` is the one Gaussian sum
sum_j w_j Phi((x - c_j) / sqrt(s)) or its density, and the one evaluator of
the mixture CDF and SF and of a step function's smoothing fn * gamma_s and
its slope. ``_gauss_fit`` fits that sum once on an interval, where that pays,
by a chopped Chebyshev series (``_certified_chebyshev``). The fit contract:
a fitted row is within 2^-48 of the scale sum |w| (over sqrt(2 pi s) for the
density) of the dense formula, and rows outside the fit's cut, and rows at
most 2^-20 of the scale, are the dense formula. Whenever p + 1 is fewer than
the centres, the fit samples the sum on p + 1 Chebyshev proxies of them with
anterpolated weights (``_proxy``), the centre side of a one-level separable
Gauss transform (Greengard & Strain, SIAM J. Sci. Stat. Comput. 1991; Fong &
Darve, J. Comput. Phys. 2009), whose a-priori error bound is part of the
certificate. A fit reads the centres' memo (``_Proxies``): their box, and
their proxies per degree, built on first use. Each StepFn keeps one memo for
its fits and its sums of fewer than 64 rows; other centres get a new memo
per sum. The one-row contract: such a sum sweeps the p + 1 proxies of its
degree, not the n thresholds, wherever that saves _PROXY_GAIN kernel terms a
row, within 2^-52 of the scale of the dense formula uniformly in x; every
other row, and every row at most 2^-20 of the scale, is the dense formula. A
sum depends on its arguments alone: the memo changes how long a call takes,
never its bits; all it depends on but x is resolved once per call and s
(``_OneRow``). A one-target inversion of a StepFn reads the value and the
slope at each iterate from one pass (``_OneRow.pair``): the two one-row sums
bit for bit, each of its own degree and tail rows, with z = (x - c) / sqrt(s)
made once where both sweep the same centres.
``_clenshaw`` is the one evaluator of every Chebyshev series: numpy's
chebval, bit for bit, in place. ``invert_increasing`` is the one bracketed
monotone inversion; a one-row problem, such as a one-price volatility query,
runs its loop on floats, with the same steps, calls and bits. The two
smoothed maps of the Bass fixed point each have one inversion built on it:
``mixture_quantiles`` inverts alpha * gamma_s (CDF below one half, survival
function above), and ``heat_convolve_inverse`` inverts fn * gamma_s. Each
fits its map once over its brackets when it has enough targets, and every
row is solved and verified on that certified fit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebder
from scipy.fft import dct
from scipy.special import ndtr, ndtri, roots_hermitenorm

from .measures import GridMeasure

DEFAULT_GH_NODES = 64
_CHUNK = 4096
# residual to which mixture quantiles are solved, on the CDF or SF
_MIXTURE_TOL = 1e-13
# Chebyshev degree per unit of half-width / sqrt(s). Phi((x - c) / sqrt(s)) is
# entire, so its interpolants on an interval of half-width L converge
# super-geometrically once the degree passes a multiple of L / sqrt(s)
# (Trefethen, Approximation Theory and Approximation Practice, ch. 8); at
# 9 L / sqrt(s) both smoothed maps of the benchmark pairs fit to <= 3.1e-15.
# It sets the first degree of a Gaussian sum's fit.
_DEGREE_PER_WIDTH = 9.0
# a Gaussian sum's certified fit costs 2 degree + 1 dense rows and saves one
# per row: it is made only while that cost stays within this share of the
# rows. An inversion's fit serves every Newton step, and may cost one dense
# row per target.
_FIT_SHARE = 0.25
# a Gaussian sum with fewer rows, or at most this many centres, is swept densely
_DENSE_SIZE = 64
# standard score beyond which the Gaussian tail is below 2^-60
_TAIL_Z = float(ndtri(2.0 ** -60))
# the degrees p a fit's Chebyshev proxy of the centres may take: 8, 12, 16, 24, ..., 12288
_PROXY_DEGREES = np.array([m << k for k in range(11) for m in (8, 12)])
# centres per anterpolation block of _proxy: at 10 001 sorted centres and p = 48
# a call took 1.8 ms in blocks of 1024 and 2.8 ms in blocks of 4096, whose basis
# leaves the cache; 1001 centres stay in one block, so their sums keep their bits
_PROXY_BLOCK = 1024
# kernel terms a row of a one-row sum must save for its proxies to pay: their
# sweep adds a degree lookup and a tail check, about 3 us or 300 kernel terms
_PROXY_GAIN = 512


def gauss_pdf(x, s: float = 1.0):
    if not s > 0:
        raise ValueError(f"variance must be positive, got {s}")
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / (2.0 * s)) / np.sqrt(2.0 * np.pi * s)


def gauss_cdf(x, s: float = 1.0):
    if not s > 0:
        raise ValueError(f"variance must be positive, got {s}")
    return ndtr(np.asarray(x, dtype=float) / np.sqrt(s))


def gauss_quantile(u, s: float = 1.0):
    if not s > 0:
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


def _gauss_sweep(x: np.ndarray, centers: np.ndarray, weights: np.ndarray, s: float,
                 density: bool) -> np.ndarray:
    """The dense sweep of _gauss_sum on a 1-D x, every kernel term evaluated.

    Rows go in chunks and each kernel block stays unnamed, so one block at a
    time is alive.
    """
    out = np.empty_like(x)
    root = np.sqrt(s)
    for i in range(0, x.size, _CHUNK):
        z = (x[i:i + _CHUNK, None] - centers[None, :]) / root
        out[i:i + _CHUNK] = (np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi * s) if density
                             else ndtr(z)) @ weights
    return out


@lru_cache(maxsize=1)
def _proxy_reach() -> np.ndarray:
    """The largest ratio half-width / sqrt(s) of the centres' box each of _PROXY_DEGREES serves.

    Row 0 is for Phi, row 1 for the density; both are made on the first fit.
    For real x, c -> kernel((x - c) / sqrt(s)) is entire, and on the Bernstein
    ellipse E_rho of the box |Im (x - c) / sqrt(s)| <= Y = ratio (rho - 1/rho) / 2.
    There it is at most M = e^(Y^2/2) times the scale for the density, and
    1 + Y e^(Y^2/2) / sqrt(2 pi) <= e^(Y^2/2 + Y / sqrt(2 pi)) for Phi, so its
    interpolant at p + 1 second-kind points errs by at most 4 M rho^-p / (rho - 1)
    (Trefethen, ATAP, Thm 8.2), uniformly in x. A degree serves a ratio when that
    is at most 2^-52 for some rho on a grid of 256 out to 257.
    """
    rho = 1.0 + np.geomspace(2.0 ** -8, 2.0 ** 8, 256)
    log_m = (np.log(2.0 ** -52 / 4.0) + _PROXY_DEGREES[:, None] * np.log(rho)
             + np.log(rho - 1.0))
    lin = np.array([1.0 / np.sqrt(2.0 * np.pi), 0.0])[:, None, None]
    y = np.sqrt(lin * lin + 2.0 * np.maximum(log_m, 0.0)) - lin
    return np.max(2.0 * y / (rho - 1.0 / rho), axis=-1)


def _proxy_degree(ratio: float, density: bool) -> float:
    """The least of _PROXY_DEGREES whose proxy serves this ratio to 2^-52, or inf."""
    k = bisect_left(_proxy_reach()[int(density)], ratio)
    return _PROXY_DEGREES[k] if k < _PROXY_DEGREES.size else np.inf


def _proxy(centers: np.ndarray, weights: np.ndarray, lo: float, hi: float,
           degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev proxy centres on [lo, hi] and their anterpolated weights.

    The proxies are the degree + 1 second-kind points, and the weights are
    W = L^T w, L[j, k] the barycentric Lagrange basis k at centre j (a row
    of L is a unit vector where the centre is a proxy). So sum_k W_k K(t_k)
    is sum_j w_j times the interpolant of K at centre j, for any kernel K.
    """
    k = np.arange(degree + 1)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / degree)
    lam = np.where(k % 2, -1.0, 1.0)
    lam[[0, -1]] *= 0.5
    out = np.zeros(degree + 1)
    for i in range(0, centers.size, _PROXY_BLOCK):
        c = centers[i:i + _PROXY_BLOCK]
        basis = np.subtract.outer(c, nodes)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(lam, basis, out=basis)
        total = basis.sum(axis=1)
        hit = ~np.isfinite(total)
        basis[hit], total[hit] = c[hit, None] == nodes, 1.0
        out += (weights[i:i + _PROXY_BLOCK] / total) @ basis
    return nodes, out


class _Proxies:
    """Weighted centres, their box, and their _proxy on it per degree, built on first use.

    Every Gaussian sum of the centres reads it: fits and one-row sums, at any s.
    """

    def __init__(self, centers: np.ndarray, weights: np.ndarray):
        self.centers, self.weights = centers, weights
        self._saved = centers.size - int(_PROXY_DEGREES[0]) - 1  # the most terms a row may save
        self._built: dict = {}

    def __call__(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        if degree not in self._built:
            lo, hi, _ = self.box
            self._built[degree] = _proxy(self.centers, self.weights, lo, hi, degree)
        return self._built[degree]

    @cached_property
    def box(self) -> tuple[float, float, float]:
        """The least and the greatest centre, and sum |w|."""
        c = self.centers
        return float(c.min()), float(c.max()), float(np.abs(self.weights).sum())


class _OneRow:
    """A memo's one-row sums at one s. Per kernel, on first use, all they depend on but x: the
    centres swept, the proxies of _gauss_fit's degree p where they save _PROXY_GAIN kernel
    terms a row, else the centres; and the tail level, 2^-20 of the scale sum |w| (over
    sqrt(2 pi s) for the density), which the proxies' 2^-52 bound (_proxy_reach) is of."""

    def __init__(self, proxies: _Proxies, s: float):
        self.proxies, self.s, self.root = proxies, s, math.sqrt(s)

    value = cached_property(lambda self: self._kernel(False))
    slope = cached_property(lambda self: self._kernel(True))

    def _kernel(self, density: bool) -> tuple[np.ndarray, np.ndarray, float]:
        """The centres and weights swept, and the tail level: -1.0, no row, for the centres."""
        proxies = self.proxies
        if proxies._saved >= _PROXY_GAIN:  # else no degree can pay
            lo, hi, total = proxies.box
            p = _proxy_degree(0.5 * (hi - lo) / self.root, density)
            if proxies.centers.size - (p + 1) >= _PROXY_GAIN:
                norm = math.sqrt(2.0 * math.pi) * self.root if density else 1.0
                return (*proxies(p), 2.0 ** -20 * total / norm)
        return proxies.centers, proxies.weights, -1.0

    def sweep(self, x: np.ndarray, density: bool) -> np.ndarray:
        """_gauss_sweep of the centres on a 1-D x of few rows, by the module's one-row contract."""
        c, w, tail = self.slope if density else self.value
        return self._tail(_gauss_sweep(x, c, w, self.s, density), x, tail, density)

    def pair(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sweep(x, False) and sweep(x, True), bit for bit, in one pass over a 1-D x of few rows:
        each of its own centres and tail rows, z = (x - c) / sqrt(s) made once for both where
        they sweep the same centres."""
        (c, w, tail), (slope_c, slope_w, slope_tail) = self.value, self.slope
        z = (x[:, None] - c[None, :]) / self.root  # _gauss_sweep's kernels on its one chunk
        value = ndtr(z) @ w
        if slope_c is not c:
            z = (x[:, None] - slope_c[None, :]) / self.root
        slope = np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi * self.s) @ slope_w
        return self._tail(value, x, tail, False), self._tail(slope, x, slope_tail, True)

    def _tail(self, out: np.ndarray, x: np.ndarray, tail: float, density: bool) -> np.ndarray:
        """out, x's sums over the centres swept, with its rows at most tail swept densely: the
        module's one-row contract."""
        if tail >= 0.0 and any(abs(v) <= tail for v in out.tolist()):  # a loop: few rows
            dense = np.abs(out) <= tail
            out[dense] = _gauss_sweep(x[dense], self.proxies.centers, self.proxies.weights,
                                      self.s, density)
        return out


def _gauss_fit(proxies: _Proxies, s: float, span: np.ndarray, density: bool, rows: int,
               share: float):
    """_gauss_sum of the memo's centres fitted once on the finite range of span, or None.

    On that range, cut where every term is within 2^-60 of its bound, a
    chopped Chebyshev series is certified to the module's fit contract, while
    its 2 degree + 1 sample rows stay within share (at most all) of rows.
    The rows sample the sum on the p + 1 proxies of _proxy, p the least of
    _PROXY_DEGREES whose a-priori bound uniform in x is at most 2^-52 of the
    scale, whenever p + 1 < n for n centres, whatever the memo holds; the
    series is then certified to (2^-48 - 2^-52) * scale of the proxy sum, so
    to 2^-48 * scale of the dense one. Otherwise they sweep the centres. The
    proxies come from the centres' memo on the first sweep, so a fit that
    never sweeps builds nothing.
    None comes back for s <= 0, fewer than 64 rows, at most 64 centres, an
    empty cut or no certified fit. The result evaluates a 1-D x by Clenshaw
    inside the cut, of the series or, with slope=True, of its chebder; rows
    outside the cut, non-finite rows and the contract's tail rows get the
    dense sweep of the sum, or of its density for the slope.
    """
    if rows < _DENSE_SIZE or proxies.centers.size <= _DENSE_SIZE or not s > 0:
        return None
    centers, weights = proxies.centers, proxies.weights
    root, finite = np.sqrt(s), np.isfinite(span)
    lo, hi, total = proxies.box
    a = max(span.min(where=finite, initial=np.inf), lo + root * _TAIL_Z)
    b = min(span.max(where=finite, initial=-np.inf), hi - root * _TAIL_Z)
    if not a < b:
        return None
    slope_scale = total / np.sqrt(2.0 * np.pi * s)
    scale = slope_scale if density else total
    degree = int(np.ceil(_DEGREE_PER_WIDTH * 0.5 * (b - a) / root))
    p = _proxy_degree(0.5 * (hi - lo) / root, density)
    proxied = p + 1 < centers.size
    coef = _certified_chebyshev(
        lambda x: _gauss_sweep(x, *(proxies(p) if proxied else (centers, weights)), s, density),
        a, b, degree, (min(share, 1.0) * rows - 1.0) / 2.0,
        (2.0 ** -48 - (2.0 ** -52 if proxied else 0.0)) * scale)
    if coef is None:
        return None
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    slope_coef = lru_cache(maxsize=1)(lambda: chebder(coef) / half)  # on the first slope asked

    def evaluate(x: np.ndarray, slope: bool = False) -> np.ndarray:
        series, kind, bound = (slope_coef(), True, slope_scale) if slope else (coef, density, scale)
        inside = np.isfinite(x) & (x >= a) & (x <= b)
        out = np.empty_like(x)
        out[inside] = _clenshaw((x[inside] - mid) / half, series)
        dense = ~inside
        dense[inside] = np.abs(out[inside]) <= 2.0 ** -20 * bound
        out[dense] = _gauss_sweep(x[dense], centers, weights, s, kind)
        return out
    return evaluate


def _gauss_sum(x, centers: np.ndarray, weights: np.ndarray, s: float,
               density: bool = False, proxies: _Proxies | None = None) -> np.ndarray:
    """sum_j weights[j] * Phi((x - centers[j]) / sqrt(s)), or the density sum.

    Shaped like np.atleast_1d(x). Read off _gauss_fit, of proxies (the
    centres' memo) or a new memo, on the range of x where it certifies within
    _FIT_SHARE of the rows, by the module's fit contract. Fewer than
    _DENSE_SIZE rows with proxies are read by its sweep, under the module's
    one-row contract. Every other row is swept densely.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xs = x.ravel()
    fit = _gauss_fit(proxies or _Proxies(centers, weights), s, xs, density, xs.size, _FIT_SHARE)
    if fit is not None:
        out = fit(xs)
    elif proxies is not None and xs.size < _DENSE_SIZE:
        out = _OneRow(proxies, s).sweep(xs, density)
    else:
        out = _gauss_sweep(xs, centers, weights, s, density)
    return out.reshape(x.shape)


def smoothed_cdf(alpha: GridMeasure, s: float, x):
    """CDF at x of alpha convolved with a centred Gaussian of variance s.

    By _gauss_sum, under the module's fit contract.
    """
    if not s > 0:
        raise ValueError(f"variance must be positive, got {s}")
    x = np.asarray(x, dtype=float)
    out = _gauss_sum(x, alpha.atoms, alpha.weights, s)
    return float(out[0]) if x.ndim == 0 else out


def smoothed_sf(alpha: GridMeasure, s: float, x):
    """Survival function of the same mixture, accurate deep in the upper tail.

    The CDF of the reflected mixture, with smoothed_cdf's accuracy.
    """
    if not s > 0:
        raise ValueError(f"variance must be positive, got {s}")
    x = np.asarray(x, dtype=float)
    # P(X > x) = P(-X < -x): the CDF sweep of the reflected mixture
    out = _gauss_sum(-x, -alpha.atoms, alpha.weights, s)
    return float(out[0]) if x.ndim == 0 else out


class InversionError(RuntimeError):
    """invert_increasing ran out of steps with some row still above its tolerance.

    residual is the worst |f(x) - target| among the open rows; iterates holds
    every row's last evaluated iterate, shaped like the targets.
    """

    def __init__(self, steps: int, open_rows: int, rows: int, residual: float, iterates):
        super().__init__(f"monotone inversion stalled after {steps} steps: {open_rows} of "
                         f"{rows} rows open, worst residual {residual:.3e}")
        self.residual = residual
        self.iterates = iterates


def invert_increasing(f, fprime, targets, lo, hi, tol: float, max_iter: int = 200,
                      x0=None):
    """Solve f(x) = target componentwise for a smooth increasing vectorized f.

    Newton steps guarded by a maintained bracket; falls back to bisection
    whenever the step leaves the bracket or the derivative degenerates.
    Brackets must be valid on entry: f(lo) <= target <= f(hi). A warm start
    x0 (clipped into the bracket) makes repeated nearby solves near-free.

    Each step calls f on the rows still open, then fprime on those of them
    that stay open, each as a 1-D array, so both must act componentwise;
    where no row closed, fprime gets the very array f got. Rows are verified
    on f as given: for the Gaussian smoothings that is _gauss_sum or an
    inversion's _gauss_fit, under the module's fit contract. A row closes at its first
    iterate with |f(x) - target| <= max(tol, floor) and is returned at that
    verified iterate; floor = 4 * spacing(max |target|), what float64 resolves
    around the largest target. A row that cannot move, because its Newton step
    is lost to rounding or its bracket is one ulp wide and the bisection
    rounds back to x, closes at x if and only if |f(x) - target| <= floor +
    |fprime(x)| * spacing(|x|), what one ulp of x moves f by. This keeps tol
    reachable where targets or slopes are too large for any float64 x to meet
    it. InversionError is raised as soon as a row that fails this test would
    be evaluated at x again, or when max_iter runs out with rows open.
    One target runs the same loop on floats (_invert_one): the same steps,
    calls of f and fprime and bits, fprime on the 1-element array f got, so
    one pass may serve both (heat_convolve_inverse's pair pass does).
    """
    targets = np.asarray(targets, dtype=float)
    if targets.size == 1:
        return _invert_one(f, fprime, targets, lo, hi, tol, max_iter, x0)
    t = targets.ravel()
    # own copies of the brackets, which shrink in place
    lo = np.full(targets.shape, lo, dtype=float).ravel()
    hi = np.full(targets.shape, hi, dtype=float).ravel()
    if x0 is None:
        x = 0.5 * (lo + hi)
    else:
        x = np.clip(np.asarray(x0, dtype=float).ravel(), lo, hi)
    floor = 4.0 * float(np.spacing(np.abs(t).max(initial=0.0)))
    close = max(tol, floor)
    out = np.empty_like(t)
    rows = np.arange(t.size)
    err, step = np.full(t.size, np.inf), 0
    for step in range(1, max_iter + 1):
        err = f(x) - t
        out[rows] = x  # each row's last evaluated iterate
        done = np.abs(err) <= close
        closed = np.count_nonzero(done)
        if closed == rows.size:
            return out.reshape(targets.shape)
        if closed:
            keep = ~done
            rows, x, t, lo, hi, err = (a[keep] for a in (rows, x, t, lo, hi, err))
        np.putmask(hi, err >= 0.0, x)
        np.putmask(lo, err <= 0.0, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = fprime(x)
            cand = x - err / slope
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
            nxt = np.where(bad, 0.5 * (lo + hi), cand)
            stuck = (cand == x) | (nxt == x)
        if np.count_nonzero(stuck):
            # a row that cannot move closes if one ulp of x explains its residual
            keep = ~(stuck & (np.abs(err) <= floor + np.abs(slope) * np.spacing(np.abs(x))))
            if not keep.any():
                return out.reshape(targets.shape)
            rows, x, t, lo, hi, err, nxt = (a[keep] for a in (rows, x, t, lo, hi, err, nxt))
            if np.any(nxt == x):  # f is deterministic: that row would stay at x to max_iter
                break
        x = nxt
    raise InversionError(step, rows.size, targets.size, float(np.max(np.abs(err))),
                         out.reshape(targets.shape))


def _invert_one(f, fprime, targets, lo, hi, tol, max_iter, x0):
    """invert_increasing's loop on its one row, with the row's state held as floats."""
    t = float(targets.flat[0])
    lo, hi = (float(np.asarray(b, dtype=float).flat[0]) for b in (lo, hi))
    x = 0.5 * (lo + hi) if x0 is None else min(max(float(np.asarray(x0).flat[0]), lo), hi)
    floor = 4.0 * _spacing(abs(t))
    close = max(tol, floor)
    last, err, step = x, math.inf, 0
    for step in range(1, max_iter + 1):
        at = np.array([x])
        last, err = x, float(f(at)[0]) - t  # the last evaluated iterate and its residual
        if abs(err) <= close:
            return np.full(targets.shape, x)
        if err >= 0.0:
            hi = x
        if err <= 0.0:
            lo = x
        slope = float(fprime(at)[0])
        cand = x - err / slope if slope else math.nan  # a zero slope bisects, as numpy's inf would
        bad = not math.isfinite(cand) or cand <= lo or cand >= hi
        nxt = 0.5 * (lo + hi) if bad else cand
        if cand == x or nxt == x:
            if abs(err) <= floor + abs(slope) * _spacing(abs(x)):
                return np.full(targets.shape, x)
            if nxt == x:
                break
        x = nxt
    raise InversionError(step, 1, 1, abs(err), np.full(targets.shape, last))


def _spacing(v: float) -> float:
    """np.spacing(v) of a float v >= 0 or NaN: math.ulp(v), but NaN at inf."""
    return math.ulp(v) if v < math.inf else math.nan


def _chebyshev_fit(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant of values at the degree + 1 second-kind points
    cos(pi k / degree), k = 0..degree, of their interval: their DCT-I."""
    coef = dct(values, type=1) / (values.size - 1)
    coef[[0, -1]] /= 2.0
    return coef


def _clenshaw(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """numpy's chebval(x, c) for a 1-D x and series c, bit for bit: its Clenshaw recurrence
    c0 = c[-i] - c1, c1 = tmp + c1 * 2x, in its order, on three buffers written in place."""
    if c.size < 3:
        return c[0] + (c[1] if c.size == 2 else 0.0) * x
    x2 = 2.0 * x
    c0, c1, tmp = np.full_like(x, c[-3] - c[-1]), c[-2] + c[-1] * x2, np.empty_like(x)
    for ci in c[-4::-1]:
        np.add(np.multiply(c1, x2, out=tmp), c0, out=tmp)
        c0, c1, tmp = np.subtract(ci, c1, out=c0), tmp, c1
    return np.add(np.multiply(c1, x, out=c1), c0, out=c1)


def _certified_chebyshev(evaluate, a: float, b: float, degree: int, max_degree: float,
                         bound: float):
    """Chebyshev coefficients on [a, b] of evaluate's interpolant, chopped and certified, or None.

    The interpolant at degree + 1 second-kind points is chopped: its trailing
    coefficients whose absolute values sum to at most bound / 2 are dropped
    (Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS 2017). The
    kept series is checked at the degree first-kind points between those
    points, where it must be within bound of evaluate, and is returned. A
    failed check doubles the degree, reusing both point sets, which together
    are the second-kind points of twice the degree. None comes back once the
    degree passes max_degree before a fit certifies.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = None
    while degree <= max_degree:
        if values is None:
            values = evaluate(mid + half * np.cos(np.pi * np.arange(degree + 1) / degree))
        between = np.cos(np.pi * np.arange(1, 2 * degree, 2) / (2 * degree))
        check = evaluate(mid + half * between)
        coef = _chebyshev_fit(values)
        tail = np.cumsum(np.abs(coef[::-1]))[::-1]  # tail[k] = sum |coef[k:]|
        coef = coef[:max(1, np.count_nonzero(tail > 0.5 * bound))]
        if np.max(np.abs(_clenshaw(between, coef) - check)) <= bound:
            return coef
        values, degree = np.insert(values, np.arange(1, degree + 1), check), 2 * degree
    return None


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
    survival function, and a warm start x0 is split the same way. A level
    with standard score z is bracketed by a + sqrt(s) z at alpha's end atoms,
    and without x0 it starts at the Gaussian with alpha * gamma_s's mean and
    variance. From 64 levels on, one _gauss_fit of the CDF over all brackets,
    within one dense row per level, serves both halves (the SF is 1 - fit,
    or smoothed_sf where at most 2^-20); otherwise they read smoothed_cdf
    and smoothed_sf. Every returned row is within 1e-13 of its level on that
    function, which meets the module's fit contract.
    """
    if not s > 0:
        raise ValueError(f"variance must be positive, got {s}")
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
    fit = _gauss_fit(_Proxies(alpha.atoms, alpha.weights), s, np.r_[lo, hi], False, cum.size, 1.0)

    def minus_sf(x):
        # SFs above 2^-20 read 1 - fit; the rest, and all rows without a fit, smoothed_sf
        vals = np.zeros_like(x) if fit is None else fit(x) - 1.0
        tail = vals >= -2.0 ** -20
        vals[tail] = -smoothed_sf(alpha, s, x[tail])
        return vals

    halves = ((lower, fit or (lambda x: smoothed_cdf(alpha, s, x)), cum),
              (~lower, minus_sf, -tails))
    slope = ((lambda x: fit(x, slope=True)) if fit else
             (lambda x: _gauss_sum(x, alpha.atoms, alpha.weights, s, density=True)))
    for part, f, targets in halves:
        if part.any():
            out[part] = invert_increasing(f, slope, targets[part], lo[part], hi[part],
                                          tol=_MIXTURE_TOL, x0=x0[part])
    return out


class MonotoneFn:
    """Nondecreasing real function with declared image bounds.

    Subclasses implement __call__ on arrays. Heat convolution defaults to
    Gauss-Hermite quadrature; subclasses override when an exact form exists.
    """

    lower: float = -np.inf
    upper: float = np.inf
    ends: tuple[float, float] | None = None  # fn is lower below ends[0], upper above ends[1]

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def heat_convolve(self, s: float, x, n_nodes: int = DEFAULT_GH_NODES):
        return self._hermite(s, x, n_nodes, deriv=False)

    def heat_convolve_deriv(self, s: float, x, n_nodes: int = DEFAULT_GH_NODES):
        return self._hermite(s, x, n_nodes, deriv=True)

    def _hermite(self, s: float, x, n_nodes: int, deriv: bool):
        # for the slope, integration by parts against the Gaussian puts the
        # derivative on the kernel, so step discontinuities are handled too
        if not (s > 0 if deriv else s >= 0):
            raise ValueError(f"variance must be {'positive' if deriv else 'nonnegative'}, got {s}")
        x = np.asarray(x, dtype=float)
        if s == 0:
            return self(x)
        nodes, weights = gauss_hermite(n_nodes)
        vals = self(np.atleast_1d(x)[:, None] + np.sqrt(s) * nodes[None, :])
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("heat convolution diverged: non-finite integrand value")
        out = (vals * nodes[None, :]) @ weights / np.sqrt(s) if deriv else vals @ weights
        return float(out[0]) if x.ndim == 0 else out


class StepFn(MonotoneFn):
    """Right-increasing step function: levels[j] on (thresholds[j-1], thresholds[j]].

    The native solver representation; heat convolution and its derivative are
    exact sums of Gaussian CDF/PDF increments, which share one memo of the
    thresholds' Chebyshev proxies (_Proxies).
    """

    def __init__(self, thresholds, levels):
        t = np.asarray(thresholds, dtype=float)
        y = np.asarray(levels, dtype=float)
        if y.size != t.size + 1:
            raise ValueError("need exactly one more level than thresholds")
        for name, a in (("thresholds", t), ("levels", y)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite, got {a[~np.isfinite(a)][0]}")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if np.any(np.diff(y) < 0):
            raise ValueError("levels must be nondecreasing")
        self.thresholds = t
        self.levels = y
        self.jumps = np.diff(y)
        self.lower = float(y[0])
        self.upper = float(y[-1])
        self.ends = (float(t[0]), float(t[-1])) if t.size else None
        self._proxies = _Proxies(t, self.jumps)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.thresholds, x, side="left")
        out = self.levels[idx]
        return float(out) if out.ndim == 0 else out

    def heat_convolve(self, s: float, x):
        """(fn * gamma_s)(x) as levels[0] plus Gaussian-CDF-weighted jumps.

        For s > 0 this is strictly increasing in exact arithmetic, but once
        `upper - value` (or `value - lower`) is below half an ulp the nearest
        float64 is the bound itself, so neighbouring points can tie;
        `heat_convolve_deriv` is the form in which strictness stays visible.
        """
        if not s >= 0:
            raise ValueError(f"variance must be nonnegative, got {s}")
        x = np.asarray(x, dtype=float)
        if s == 0:
            return self(x)
        out = self.levels[0] + _gauss_sum(x, self.thresholds, self.jumps, s, False, self._proxies)
        return float(out[0]) if x.ndim == 0 else out

    def heat_convolve_deriv(self, s: float, x):
        if not s > 0:
            raise ValueError(f"variance must be positive, got {s}")
        x = np.asarray(x, dtype=float)
        out = _gauss_sum(x, self.thresholds, self.jumps, s, True, self._proxies)
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


class TableFn(CallableFn):
    """Monotone linear interpolation of a table, constant beyond its ends."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if np.any(np.diff(xs) <= 0):
            raise ValueError("table abscissae must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise ValueError("table values must be nondecreasing")
        super().__init__(lambda x: np.interp(x, xs, ys), ys[0], ys[-1])
        self.xs, self.ys = xs, ys
        self.ends = float(xs[0]), float(xs[-1])


def heat_convolve(fn: MonotoneFn, s: float, x):
    """(fn * gamma_s)(x): Gaussian smoothing of a monotone function."""
    return fn.heat_convolve(s, x)


def heat_convolve_deriv(fn: MonotoneFn, s: float, x):
    """Spatial derivative of the Gaussian smoothing; nonnegative for monotone fn."""
    return fn.heat_convolve_deriv(s, x)


def heat_convolve_inverse(fn: MonotoneFn, s: float, y, tol: float, x0=None) -> np.ndarray:
    """Solve (fn * gamma_s)(x) = y componentwise for y inside fn's open image.

    Where fn is constant beyond (e0, e1) with finite bounds, the bracket
    starts at the Gaussian-tail bound on the targets' range: fn * gamma_s
    is at most lower + (upper - lower) Phi((x - e0) / sqrt(s)) and at least
    upper - (upper - lower) Phi((e1 - x) / sqrt(s)). Otherwise it starts at
    (e0 - 9 sqrt(s), e1 + 9 sqrt(s)), with e0 = e1 = 0 where fn has no known
    constant ends. Each end that does not yet enclose the targets moves
    out by 1, 2, 4, ... until it does, and a step past 1e12 raises
    ValueError; no targets give an empty result. Every returned row meets
    tol on fn.heat_convolve, or, for a StepFn with more than 64 thresholds
    and at least 64 targets, on one _gauss_fit of fn * gamma_s over the
    bracket, within one dense row per target: both under the module's fit
    contract, its scale the sum of jumps.
    The bracket check of a StepFn, and with fewer targets its Newton steps,
    read one-row sums off its memo of proxies, under the module's one-row
    contract, its scale the sum of jumps (over sqrt(2 pi s) for the slope),
    all from one resolution of the memo at s (_OneRow). One target brackets
    on floats and reads F and F' at each iterate from one pass (_OneRow.pair),
    the same bits as the two sums.
    """
    return _heat_inverse(fn, s, y, tol, x0)[0]


def _heat_inverse(fn: MonotoneFn, s: float, y, tol: float, x0):
    """heat_convolve_inverse's roots, and the slope (fn * gamma_s)' at them, or None.

    The slope comes back for one target of a StepFn: the one its last pass
    read, which is fn.heat_convolve_deriv(s, root) bit for bit.
    """
    if not s > 0:
        raise ValueError(f"variance must be positive, got {s}")
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        return np.empty(y.shape), None
    y_min, y_max = (y.min(), y.max()) if y.size > 1 else 2 * (float(y.flat[0]),)
    ends, root = fn.ends, math.sqrt(s)
    if ends is not None and fn.lower < y_min and y_max < fn.upper:
        width = fn.upper - fn.lower
        lo = ends[0] + root * ndtri((y_min - fn.lower) / width)
        hi = ends[1] - root * ndtri((fn.upper - y_max) / width)
    else:
        e0, e1 = ends or (0.0, 0.0)
        lo, hi = e0 - 9.0 * root, e1 + 9.0 * root
    step, step_fn = 1.0, isinstance(fn, StepFn)
    # fn.heat_convolve reads fewer than 64 rows of a StepFn, as the bracket's two, off its sweep
    rows = _OneRow(fn._proxies, s) if step_fn else None
    smoothed = ((lambda x: fn.levels[0] + rows.sweep(x, False)) if step_fn
                else (lambda x: fn.heat_convolve(s, x)))
    while True:
        f_lo, f_hi = smoothed(np.array([lo, hi]))
        if f_lo <= y_min and f_hi >= y_max:
            break
        if step > 1e12:
            raise ValueError("could not bracket the targets inside the smoothed map")
        lo -= step if f_lo > y_min else 0.0
        hi += step if f_hi < y_max else 0.0
        step *= 2.0
    fit = (_gauss_fit(fn._proxies, s, np.array([lo, hi]), False, y.size, 1.0)
           if step_fn and y.size >= _DENSE_SIZE else None)
    last = None  # the one-target pass: [its iterate array, its slope]
    if fit is not None:
        f, fprime = (lambda x: fn.levels[0] + fit(x)), (lambda x: fit(x, slope=True))
    elif step_fn and y.size == 1:
        pair, last = rows.pair, [None, None]

        def f(x):
            value, slope = pair(x)
            last[:] = x, slope
            return fn.levels[0] + value

        def fprime(x):  # the slope of f's pass at this iterate
            return last[1] if x is last[0] else rows.sweep(x, True)
    elif step_fn and y.size < _DENSE_SIZE:
        f, fprime = smoothed, (lambda x: rows.sweep(x, True))
    else:
        f, fprime = (lambda x: fn.heat_convolve(s, x)), (lambda x: fn.heat_convolve_deriv(s, x))
    x = invert_increasing(f, fprime, y, lo, hi, tol=tol, x0=x0)
    if last is None or last[0][0] != x.flat[0]:
        return x, None
    return x, last[1].reshape(x.shape)
