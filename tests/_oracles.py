"""Independent oracles the tests check the library against.

Everything here is deliberately implemented without touching the library's
own code paths: series expansions, brute-force couplings, finite differences
and closed forms.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtr


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


def sequential_decomposition(grid, gap, atoms0, weights0, atoms1, weights1, tol=1e-9):
    """Atom-by-atom reference of the interval and assignment rules of irreducible_components.

    Takes the potential gap of the pair on the union grid of its atoms.
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
        return abs(x - e) <= 1e-12 * max(1.0, abs(x))

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
