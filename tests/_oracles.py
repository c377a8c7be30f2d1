"""Independent oracles the tests check the library against.

Everything here is deliberately implemented without touching the library's
own code paths: series expansions, brute-force couplings, finite differences
and closed forms.
"""

import itertools
import math

import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import linprog
from scipy.special import ndtr, ndtri


def erf_series(x: float, terms: int = 120) -> float:
    """Maclaurin series of erf, for moderate |x|."""
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_series(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


def central_difference(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def max_cov_permutations(atoms_a, weights_a, atoms_b, weights_b) -> float:
    """Enumerate all couplings supported on permutations (uniform weights only)."""
    n = len(atoms_a)
    assert len(atoms_b) == n
    assert np.allclose(weights_a, 1.0 / n) and np.allclose(weights_b, 1.0 / n)
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        best = max(best, sum(atoms_a[i] * atoms_b[perm[i]] for i in range(n)) / n)
    return best


def transport_lp(atoms_a, weights_a, atoms_b, weights_b, cost, maximize=False) -> float:
    """Solve the full transportation LP over all couplings."""
    a = np.asarray(weights_a, dtype=float)
    b = np.asarray(weights_b, dtype=float)
    xa = np.asarray(atoms_a, dtype=float)
    xb = np.asarray(atoms_b, dtype=float)
    n, m = xa.size, xb.size
    c = np.array([cost(xa[i], xb[j]) for i in range(n) for j in range(m)])
    if maximize:
        c = -c
    rows = []
    rhs = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        rows.append(row)
        rhs.append(a[i])
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        rows.append(row)
        rhs.append(b[j])
    res = linprog(c, A_eq=np.array(rows), b_eq=np.array(rhs),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return -res.fun if maximize else res.fun


def max_cov_lp(atoms_a, weights_a, atoms_b, weights_b) -> float:
    return transport_lp(atoms_a, weights_a, atoms_b, weights_b,
                        lambda x, y: x * y, maximize=True)


def min_squared_cost_lp(atoms_a, weights_a, atoms_b, weights_b) -> float:
    return transport_lp(atoms_a, weights_a, atoms_b, weights_b,
                        lambda x, y: (x - y) ** 2, maximize=False)


def lognormal_zgrid(meanlog: float, sdlog: float, n: int, zmax: float):
    """Lognormal discretized on a uniform Gaussian-space grid, bin-mean atoms.

    Bin masses are computed through the survival function on the upper half
    so deep-tail bins keep full precision.
    """
    edges = np.linspace(-zmax, zmax, n + 1)
    lo, hi = edges[:-1], edges[1:]
    p = np.where(lo + hi > 0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    shift_lo, shift_hi = lo - sdlog, hi - sdlog
    pm = np.exp(meanlog + sdlog ** 2 / 2) * np.where(
        shift_lo + shift_hi > 0,
        ndtr(-shift_lo) - ndtr(-shift_hi),
        ndtr(shift_hi) - ndtr(shift_lo))
    return pm / p, p


def sequential_decomposition(grid, gap, atoms0, weights0, atoms1, weights1, tol):
    """Atom-by-atom reference of the interval and assignment rules of irreducible_components.

    Takes the potential gap of the pair on the union grid of its atoms, and
    the pair's tolerance (2^-40 of its largest |atom|), which judges both a
    positive gap and an nu1 atom's closeness to a point.
    Returns the intervals, each component's (nu0 atoms, nu0 weights, nu1
    atoms, nu1 weights) as lists, the static nu0 atoms and weights, and the
    largest absolute mass deficit left in a component.
    """
    intervals = []
    i, n = 0, grid.size
    while i < n:
        if not gap[i] > tol:
            i += 1
            continue
        j = i
        while j + 1 < n and gap[j + 1] > tol:
            j += 1
        lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(j + 1, n - 1)])
        if i > 0 and gap[i - 1] < 0:
            d0, d1 = gap[i - 1], gap[i]
            lo = float(grid[i - 1] + (grid[i] - grid[i - 1]) * (-d0) / (d1 - d0))
        if j < n - 1 and gap[j + 1] < 0:
            d0, d1 = gap[j], gap[j + 1]
            hi = float(grid[j] + (grid[j + 1] - grid[j]) * d0 / (d0 - d1))
        intervals.append((lo, hi))
        i = j + 1

    def locate(x):
        return next((c for c, (lo, hi) in enumerate(intervals) if lo < x < hi), -1)

    def close(x, e):
        return abs(x - e) <= tol

    parts = [([], [], [], []) for _ in intervals]
    static = ([], [])
    for x, w in zip(atoms0.tolist(), weights0.tolist()):
        c = locate(x)
        for dest, v in zip(parts[c][:2] if c >= 0 else static, (x, w)):
            dest.append(v)
    deficit = [sum(p[1]) for p in parts]

    def give(c, x, w):
        parts[c][2].append(x)
        parts[c][3].append(w)
        deficit[c] -= w

    on_ends = []
    for x, w in zip(atoms1.tolist(), weights1.tolist()):
        c = locate(x)
        if c >= 0:
            give(c, x, w)
            continue
        excess = w - sum(w0 for x0, w0 in zip(*static) if close(x, x0))
        left = next((c for c, iv in enumerate(intervals) if close(x, iv[1])), -1)
        right = next((c for c, iv in enumerate(intervals) if close(x, iv[0])), -1)
        if left >= 0 or right >= 0:
            on_ends.append((x, excess, left, right))
        elif excess > 0 and intervals:
            dists = [lo - x if x < lo else x - hi if x > hi else 0.0 for lo, hi in intervals]
            give(dists.index(min(dists)), x, excess)
    for x, excess, left, right in on_ends:
        take = excess if right < 0 else min(excess, max(deficit[left], 0.0)) if left >= 0 else 0.0
        if take > 0:
            give(left, x, take)
        if right >= 0 and excess - max(take, 0.0) > 0:
            give(right, x, excess - max(take, 0.0))
    return intervals, parts, static, max(map(abs, deficit), default=0.0)


def gauss_sum_fsum(x: float, centers, weights, s: float, density: bool = False) -> float:
    """sum_j w_j Phi((x - c_j) / sqrt(s)), or the density sum, term by term.

    Each term comes from math.erfc or math.exp and the terms are added by
    math.fsum, so the only rounding is in each term; x may be infinite.
    """
    root = math.sqrt(s)
    terms = []
    for c, w in zip(np.asarray(centers, dtype=float).tolist(),
                    np.asarray(weights, dtype=float).tolist()):
        z = (x - c) / root
        kernel = (math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi * s) if density
                  else 0.5 * math.erfc(-z / math.sqrt(2.0)))
        terms.append(w * kernel)
    return math.fsum(terms)


def chebyshev_interpolation_bound(degree: int, ratio: float, density: bool) -> float:
    """Trefethen's ATAP Thm 8.2 for c -> kernel((x - c) / sqrt(s)) on a box, over its scale.

    ratio is the box's half-width over sqrt(s). On the Bernstein ellipse
    E_rho, |Im (x - c) / sqrt(s)| <= Y = ratio (rho - 1/rho) / 2, where the
    density is at most e^(Y^2/2) over sqrt(2 pi s) and Phi at most
    1 + Y e^(Y^2/2) / sqrt(2 pi) (Phi's value at the real part, plus the
    density's integral up the imaginary axis). The degree's interpolant errs
    by at most 4 M rho^-degree / (rho - 1), minimised here over 4000 rho in
    (1, 1 + 2^10], in logarithms so no factor overflows.
    """
    rho = 1.0 + np.geomspace(2.0 ** -10, 2.0 ** 10, 4000)
    y = ratio * (rho - 1.0 / rho) / 2.0
    log_m = (y * y / 2.0 if density
             else np.logaddexp(0.0, np.log(y) + y * y / 2.0 - 0.5 * math.log(2.0 * math.pi)))
    return float(np.exp(np.min(math.log(4.0) + log_m - degree * np.log(rho)
                               - np.log(rho - 1.0))))


def philox_uniforms(seed: int, index: int, count: int) -> np.ndarray:
    """The first count uniforms of numpy's Philox stream keyed by [seed, index], floored at
    2^-53: one Generator per path, as the path engines' streams are defined."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.maximum(Generator(Philox(key=key)).random(count), 2.0 ** -53)


def philox_word_uniforms(words) -> np.ndarray:
    """numpy's uniforms of four given raw 64-bit words, floored at 2^-53: a Philox whose
    four-word output buffer holds them is read by Generator.random."""
    bit_generator = Philox()
    state = bit_generator.state
    state["buffer"], state["buffer_pos"] = np.array(words, dtype=np.uint64), 0
    bit_generator.state = state
    return np.maximum(Generator(bit_generator).random(len(words)), 2.0 ** -53)


class ReferenceStall(RuntimeError):
    """invert_increasing_reference ran out of steps; fields as on gbass's InversionError."""

    def __init__(self, message: str, residual: float, iterates: np.ndarray):
        super().__init__(message)
        self.residual = residual
        self.iterates = iterates


def invert_increasing_reference(f, fprime, targets, lo, hi, tol: float, max_iter: int = 200,
                                x0=None):
    """gbass.gaussian.invert_increasing as it stood before its loop was made lean.

    The same guarded Newton steps, bisection fallback, closing rules and
    stall test, written plainly: the open rows are compacted by six index
    passes on every step and each bracket update makes a new array. The lean
    loop must return the same bits and raise with the same residual and
    iterates; ReferenceStall stands for its InversionError.
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
        out[rows] = x
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
            keep = ~(stuck & (np.abs(err) <= floor + np.abs(slope) * np.spacing(np.abs(x))))
            if not keep.any():
                return out.reshape(targets.shape)
            rows, x, t, lo, hi, err, nxt = (a[keep] for a in (rows, x, t, lo, hi, err, nxt))
            if np.any(nxt == x):
                break
        x = nxt
    worst = float(np.max(np.abs(err)))
    raise ReferenceStall(
        f"monotone inversion stalled after {step} steps: {rows.size} of {targets.size} "
        f"rows open, worst residual {worst:.3e}", worst, out.reshape(targets.shape))


def path_reference(csol, seed: int, index: int, grid, heads: int, girsanov: bool = False):
    """F_t(W_t) at each time of grid along one path of a path engine, written plainly.

    The path's stream is philox_uniforms(seed, index, heads + n_steps). Its last head
    uniform u picks the first index i whose cumulative weight reaches u, the weights being
    source.weights, or under girsanov source.weights * source.atoms; W_0 is alpha's atom i
    and F_0(W_0) is source.atoms[i]. Each step adds, under girsanov, the drift
    (F_t' / F_t)(W) dt, then sqrt(dt) ndtri(u) of the next uniform, and reads F_t(W) by
    fn.heat_convolve at variance 1 - t, one scalar at a time.
    """
    source, fn = csol.source, csol.fn
    uniforms = philox_uniforms(seed, index, heads + len(grid) - 1)
    weights = source.weights * source.atoms if girsanov else source.weights
    cum = np.cumsum(weights / weights.sum())
    i = next((j for j, c in enumerate(cum.tolist()) if c >= uniforms[heads - 1]), source.n - 1)
    w, values = float(csol.alpha.atoms[i]), [float(source.atoms[i])]
    for k in range(1, len(grid)):
        dt = grid[k] - grid[k - 1]
        if girsanov:
            w += fn.heat_convolve_deriv(1.0 - grid[k - 1], w) / values[-1] * dt
        w += ndtri(uniforms[heads + k - 1]) * np.sqrt(dt)
        values.append(fn.heat_convolve(1.0 - grid[k], w))
    return np.array(values)
