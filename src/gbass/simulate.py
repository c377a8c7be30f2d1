"""Monte Carlo engines for solved transport instances.

The arithmetic engine samples F_t(W_t), F_t = fn * gamma_{1-t}, with exact
marginals (component pasting plus static mass); the weighted engine reads the
price m / F_t(W_t) off those paths, weighted by F_1(W_1) / m. The SDE engine
samples the price measure itself, where by Girsanov W gains the drift
d/dx log F_t, and S_t = m / F_t(W_t) needs no clamping. Both read F_t through
``smoothed_values``, certified to 1e-13. Every path owns a counter-based random
stream keyed by (seed, path index), so ensembles are reproducible independently
of chunking. Path and flow CSVs hold each value as '%.17g' formats it, byte for
byte, computed for whole blocks of values at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .bass_solver import BassSolution
from .geometric_bridge import GeometricSolution, component_solution
from .gaussian import smoothed_values
from .measures import make_grid_measure, quantile, wasserstein1

_CHUNK = 16384
_MIN_U = 2.0 ** -53
_CSV_CELLS = 8192  # values formatted per block; its temporaries stay within about 1 MB
_TENS = np.array([float(f"1e{j}") for j in range(-5, 23)])  # least double >= 10**j; exact j>=0
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(
    np.uint8).view(np.uint32).ravel().astype(np.uint64)  # the 4 digit bytes of 0..9999
_ZERO_TEXT = np.frombuffer(b"0" * 17 + bytes(7), np.uint64)[:, None]
_KEEP = np.arange(24) <= np.arange(24)[:, None]


def _layouts():
    """Per sign and k = 16 - e >= 0: a text's fixed bytes, the mask of its integer digits, the
    shifts of those and of its other digits, and its width by significant digits, or 0."""
    head, low = np.zeros((2, 2, 23, 24), np.uint8)
    shift, width = np.zeros((2, 2, 23), np.uint64), np.zeros((2, 23, 18), np.int64)
    for neg, k in np.ndindex(2, 21):  # e >= -4: fixed notation
        e, nd = 16 - k, np.arange(18)
        text = b"-" * neg + (b"0." + b"0" * (-e - 1) if e < 0 else bytes(e + 1) + b".")
        head[neg, k, :len(text)], low[neg, k, :max(e + 1, 0)] = list(text), 255
        shift[:, neg, k] = 8 * neg, 8 * (len(text) - max(e + 1, 0))
        width[neg, k] = len(text) + nd if e < 0 else neg + np.where(nd > e + 1, nd + 1, e + 1)
    words = (t.view(np.uint64).reshape(46, 3).T.copy() for t in (head, low))
    return *words, *shift.reshape(2, 46), width.reshape(46, 18)


_HEAD, _LOW, _LOW_SHIFT, _SHIFT, _WIDTH = _layouts()


def _shl(words, bits):  # 24-byte texts as three little-endian uint64 words, moved up by bits
    return words << bits | np.vstack([np.zeros_like(words[:1]), words[:2]]) >> (64 - bits)


def _format_block(v: np.ndarray, seps: np.ndarray) -> bytes:
    """'%.17g' % x for each x in v, each followed by its separator in seps: for 10**e <= |x|
    < 10**(e+1), -4 <= e <= 16, the integer nearest |x| * 10**(16 - e), ties to even, in
    fixed notation without trailing zeros."""
    a = np.abs(v)
    a = np.where((a >= 5e-5) & (a < 1e17), a, 5e-5)  # the others get e = -5 and width 0
    e = np.floor(np.log10(a)).astype(np.int64)  # off by at most one, corrected exactly
    e += (a >= _TENS[e + 6]).view(np.int8) - (a < _TENS[e + 5]).view(np.int8)
    x = np.stack([a, _TENS[21 - e]])  # 10**(16 - e), exact
    c = x * 134217729.0  # Veltkamp: x = hi + lo, halves of at most 26 bits
    (ah, sh), (al, sl) = c - (c - x), x - (c - (c - x))
    p = a * x[1]
    err = ((ah * sh - p) + ah * sl + al * sh) + al * sl  # p + err = a * x[1] (Dekker)
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)  # p is even: ties stay even
    d, key = np.where(up := d == 10 ** 17, 10 ** 16, d), 16 - e - up + 23 * np.signbit(v)
    q, last = np.divmod(d, 10)
    quads = np.take(_QUADS, np.divmod(np.divmod(q, 10 ** 8), 10 ** 4))  # 4-digit groups
    digits = np.vstack([quads[0] | quads[1] << 32, (last + ord("0")).view(np.uint64)])
    nz = (digits ^ _ZERO_TEXT).astype(float)  # digit values by byte; float keeps the top place
    nd = np.where(nz > 0, np.arange(0, 24, 8)[:, None] + (np.frexp(nz)[1] + 7) // 8, 0).max(0)
    width = _WIDTH[key, nd]
    low = digits & np.take(_LOW, key, axis=1)
    words = _shl(low, _LOW_SHIFT[key]) | _shl(digits ^ low, _SHIFT[key])
    text = np.ascontiguousarray((words | np.take(_HEAD, key, axis=1)).T).view(np.uint8).ravel()
    text[np.arange(0, text.size, 24) + width] = seps[:v.size]
    out = text[np.take(_KEEP, width, axis=0).reshape(-1)].tobytes()
    slow = np.flatnonzero(width == 0)  # '%.17g' % x goes in before these separators
    cuts = [0, *(np.cumsum(width + 1)[slow] - 1).tolist(), len(out)]
    texts = [("%.17g" % x).encode() for x in v[slow].tolist()] + [b""]
    return b"".join(out[i:j] + t for i, j, t in zip(cuts, cuts[1:], texts))


def _write_csv(path, header: str, *columns: np.ndarray) -> None:
    """Write the header line, then the rows of the 2-D float64 columns side by side, each
    value as '%.17g' % x formats it, separated by ',', a block of _CSV_CELLS values at a time."""
    n_cols = sum(c.shape[1] for c in columns)
    rows = max(1, _CSV_CELLS // n_cols)
    seps = np.tile(np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8), rows)
    with open(path, "wb") as fh:
        fh.write(header.encode("latin1") + b"\n")
        for i in range(0, columns[0].shape[0], rows):
            fh.write(_format_block(np.hstack([c[i:i + rows] for c in columns]).ravel(), seps))


@dataclass(frozen=True)
class PathEnsemble:
    time_grid: np.ndarray
    paths: np.ndarray
    weights: np.ndarray
    seed: int
    kind: str
    # no engine clamps a state; the field stays, at 0, in reports and traces
    clamp_count: int = 0

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def _path_uniforms(seed: int, index: int, count: int, gen: Generator | None = None) -> np.ndarray:
    """The first count uniforms of the Philox stream keyed by (seed, index), reusing gen if given."""
    key = np.array([seed, index], dtype=np.uint64)
    if gen is None:
        gen = Generator(Philox(key=key))
    else:  # the state of a fresh Philox(key=key), without its set-up
        gen.bit_generator.state = {"bit_generator": "Philox", "buffer": np.zeros(4, np.uint64),
                                   "state": {"counter": np.zeros(4, np.uint64), "key": key},
                                   "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.maximum(gen.random(count), _MIN_U)


def _uniform_blocks(seed: int, n_paths: int, count: int):
    """Yield (start, stop, block): the first count uniforms of paths start..stop-1, by row."""
    gen = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        block = np.empty((stop - start, count))
        for i in range(start, stop):
            block[i - start] = _path_uniforms(seed, i, count, gen)
        yield start, stop, block


def simulate_arithmetic(sol: BassSolution, n_steps: int, n_paths: int, seed: int) -> PathEnsemble:
    """Sample martingale paths as the smoothed generating function of a Brownian path.

    Each path draws its component, its initial point, and its increments from
    its own stream. At t = 0 a path sits on the source atom its alpha atom
    maps to; later times read F_t through smoothed_values, so marginals at
    grid times are exact up to its certified 1e-13 of the range.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need at least one step and one path")
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    decomp = sol.decomposition
    probs = np.array([decomp.identity_set_mass] +
                     [c.mass for c in decomp.components])
    cum_probs = np.cumsum(probs)
    cum_probs[-1] = 1.0

    paths = np.empty((n_paths, n_steps + 1))
    labels = np.empty(n_paths, dtype=np.int64)
    sqrt_dt = np.sqrt(np.diff(grid))

    for start, stop, block in _uniform_blocks(seed, n_paths, n_steps + 2):
        lab = np.searchsorted(cum_probs, block[:, 0], side="right")
        labels[start:stop] = lab
        w0 = np.empty(stop - start)
        for ci in np.unique(lab):
            rows = lab == ci
            if ci == 0:
                w0[rows] = quantile(decomp.identity_restriction, block[rows, 1])
            else:
                w0[rows] = quantile(sol.component_solutions[ci - 1].alpha,
                                    block[rows, 1])
        incr = ndtri(block[:, 2:]) * sqrt_dt[None, :]
        paths[start:stop, 0] = w0
        paths[start:stop, 1:] = w0[:, None] + np.cumsum(incr, axis=1)

    for ci, csol in enumerate(sol.component_solutions, start=1):
        rows = np.flatnonzero(labels == ci)
        if rows.size == 0:
            continue
        # W_0 is an alpha atom a_i, and F_0(a_i) = source.atoms[i] to the solver's residual
        paths[rows, 0] = csol.source.atoms[np.searchsorted(csol.alpha.atoms, paths[rows, 0])]
        for k, t in enumerate(grid[1:], start=1):
            paths[rows, k] = smoothed_values(csol.fn, 1.0 - t, paths[rows, k])
    static = np.flatnonzero(labels == 0)
    if static.size:
        paths[static, 1:] = paths[static, :1]

    return PathEnsemble(grid, paths, np.ones(n_paths), seed, "arithmetic")


def simulate_geometric_weighted(gsol: GeometricSolution, n_steps: int, n_paths: int,
                                seed: int) -> PathEnsemble:
    """Price paths as m over the arithmetic paths, importance-weighted by the terminal value.

    Expectations of path functionals under the price measure are weighted
    averages over this ensemble; the weights have mean one in law.
    """
    base = simulate_arithmetic(gsol.arithmetic, n_steps, n_paths, seed)
    if np.any(base.paths <= 0):
        raise RuntimeError(
            "internal error: nonpositive driving value; the terminal marginal "
            "must have strictly positive support for the price representation")
    weights = base.paths[:, -1].copy()
    return PathEnsemble(base.time_grid, gsol.m / base.paths, weights, seed,
                        "geometric_weighted")


def simulate_geometric_sde(gsol: GeometricSolution, component_index: int,
                           n_steps: int, n_paths: int, seed: int) -> PathEnsemble:
    """Price paths S_t = m / F_t(W_t) under the price measure, on a single component.

    Under the price measure the driving Brownian motion W has the Girsanov
    drift d/dx log F_t, where F_t = fn * gamma_{1-t}. W_0 is drawn from alpha
    reweighted by F_0(a_i) = source.atoms[i], which puts S_0 exactly on the
    initial marginal; then W += (F_t' / F_t)(W) dt + sqrt(dt) ndtri(u), with
    F_t and F_t' from smoothed_values, and S_1 = m / fn(W_1) lies on the
    terminal atoms. S never leaves (m / upper, m / lower), so clamp_count is 0.
    A component_index outside the solved components raises ValueError.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need at least one step and one path")
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    dt = np.diff(grid)
    sqrt_dt = np.sqrt(dt)
    u0 = np.empty(n_paths)
    incr = np.empty((n_paths, n_steps))
    for start, stop, block in _uniform_blocks(seed, n_paths, n_steps + 1):
        u0[start:stop] = block[:, 0]
        ndtri(block[:, 1:], out=incr[start:stop])
    incr *= sqrt_dt[None, :]
    if not gsol.arithmetic.component_solutions:
        # nothing moves: constant paths drawn from the initial marginal
        paths = np.repeat(quantile(gsol.mu0, u0)[:, None], n_steps + 1, axis=1)
        return PathEnsemble(grid, paths, np.ones(n_paths), seed, "geometric_sde")
    csol = component_solution(gsol, component_index)
    fn, source, m = csol.fn, csol.source, gsol.m
    # alpha's atoms solve F_0(a_i) = source.atoms[i]: each path draws the
    # index i of its initial atom, and F_0(W_0) is that source atom
    pick = quantile(make_grid_measure(np.arange(source.n), source.weights * source.atoms),
                    u0).astype(np.int64)
    w = csol.alpha.atoms[pick]

    paths = np.empty((n_paths, n_steps + 1))
    for k in range(n_steps):
        s = 1.0 - grid[k]
        value = source.atoms[pick] if k == 0 else smoothed_values(fn, s, w)
        paths[:, k] = m / value
        w = w + smoothed_values(fn, s, w, deriv=True) / value * dt[k] + incr[:, k]
    paths[:, -1] = m / fn(w)
    return PathEnsemble(grid, paths, np.ones(n_paths), seed, "geometric_sde")


def _weighted_mean_se(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    total = weights.sum()
    mean = float(weights @ values / total)
    se = float(np.sqrt(np.sum((weights * (values - mean)) ** 2)) / total)
    return mean, se


@dataclass(frozen=True)
class SimulationStats:
    time_grid: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    weight_mean: float
    weight_se: float
    w1_initial: float | None
    w1_terminal: float | None
    log_qv_mean: float | None
    log_qv_se: float | None
    martingale_tests: dict = field(default_factory=dict)
    clamp_count: int = 0

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in asdict(self).items()}


def ensemble_stats(ens: PathEnsemble, reference_marginals=None) -> SimulationStats:
    """Weighted summary of an ensemble.

    Reports per-time weighted means and variances, distances of the weighted
    initial/terminal laws to reference marginals when given, the realized
    quadratic variation of log paths when every path is positive, and
    covariance tests of the martingale property against the functions 1, s
    and 1/s of the state at the grid time nearest 0.5.
    """
    w = ens.weights
    total = w.sum()
    means = (w @ ens.paths) / total
    variances = (w @ (ens.paths - means[None, :]) ** 2) / total
    weight_mean = float(np.mean(w))
    weight_se = float(np.std(w) / np.sqrt(w.size))

    w1_initial = w1_terminal = None
    if reference_marginals is not None:
        ref0, ref1 = reference_marginals
        if ref0 is not None:
            w1_initial = wasserstein1(make_grid_measure(ens.paths[:, 0], w), ref0)
        if ref1 is not None:
            w1_terminal = wasserstein1(make_grid_measure(ens.paths[:, -1], w), ref1)

    log_qv_mean = log_qv_se = None
    if np.all(ens.paths > 0):
        qv = np.sum(np.diff(np.log(ens.paths), axis=1) ** 2, axis=1)
        log_qv_mean, log_qv_se = _weighted_mean_se(qv, w)

    idx = int(np.argmin(np.abs(ens.time_grid - 0.5)))
    mid = ens.paths[:, idx]
    last = ens.paths[:, -1]
    tests = {}
    tests["constant"] = _weighted_mean_se(last - mid, w)
    tests["linear"] = _weighted_mean_se((last - mid) * mid, w)
    if np.all(mid != 0):
        tests["reciprocal"] = _weighted_mean_se((last - mid) / mid, w)

    return SimulationStats(ens.time_grid, means, variances, weight_mean, weight_se,
                           w1_initial, w1_terminal, log_qv_mean, log_qv_se,
                           tests, ens.clamp_count)


def export_paths_csv(ens: PathEnsemble, path) -> None:
    """One row per path: state at each grid time, then the path weight, each value
    byte for byte as '%.17g' % x formats it."""
    header = ",".join(f"t={t:.10g}" for t in ens.time_grid) + ",weight"
    _write_csv(path, header, ens.paths, ens.weights[:, None])
