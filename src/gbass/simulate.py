"""Monte Carlo engines for solved transport instances.

The arithmetic engine samples F_t(W_t), F_t = fn * gamma_{1-t}, with exact
marginals (component pasting plus static mass); the weighted engine reads the
price m / F_t(W_t) off those paths, weighted by F_1(W_1) / m. The SDE engine
samples the price measure itself, and S_t = m / F_t(W_t) needs no clamping.
One driver, ``_drive``, steps W for both: the SDE engine differs only by the
paper's change of measure, which reweights W_0's law by F_0 and gives W the
Girsanov drift d/dx log F_t. It reads F_t and its slope from
``StepFn.heat_convolve`` and ``heat_convolve_deriv``: Gaussian sums under the
fit contract of gbass.gaussian, its scale fn's range. Every path owns a
counter-based random stream keyed by (seed, path index), bit for bit numpy's
Philox(key=[seed, index]), so ensembles are reproducible independently of
chunking; a block's streams are computed at once, as arrays over (path,
counter). ``_check_simulation`` refuses fewer than one step or path and a seed
outside [0, 2^64) with a ValueError naming the key, for the engines and for
the CLI before its solve. A path's last bits can still differ between
ensembles of different n_paths, by up to 5.5e-15 relative: F_t is read off
the certified fit from 64 rows on, and a BLAS matrix-vector row rounds apart
from a lone dot product. Path and flow CSVs hold each value as '%.17g'
formats it, byte for byte, computed for whole blocks of values at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtri

from .bass_solver import BassSolution
from .geometric_bridge import GeometricSolution, component_solution
from .measures import make_grid_measure, quantile, wasserstein1

_CHUNK = 1024  # paths per stream block: at 102 uniforms a Philox word array is 213 kB, in cache
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


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, for uint64 arrays x, from 32-bit limbs."""
    xl, xh, ml, mh = x & 0xFFFFFFFF, x >> 32, m & 0xFFFFFFFF, m >> 32
    t = (xl * ml >> 32) + xl * mh
    u = (t & 0xFFFFFFFF) + xh * ml
    return xh * mh + (t >> 32) + (u >> 32), x * m


def _path_uniforms(seed: int, index, count: int) -> np.ndarray:
    """The first count uniforms of the streams keyed by (seed, i), a row per path index i.

    Bit for bit Generator(Philox(key=[seed, i])).random(count), floored at _MIN_U: numpy's
    Philox4x64-10 (Salmon et al., SC'11) at counters 1, 2, ..., four words raw each, and
    (raw >> 11) * 2^-53. Words broadcast over (path, counter), so the first round's products
    take the shared counters alone; uint64 array arithmetic wraps mod 2^64 silently.
    """
    key = np.asarray(index, dtype=np.uint64)[..., None]
    c0, c1 = np.arange(1, -(-count // 4) + 1, dtype=np.uint64), np.zeros(1, np.uint64)
    c2 = c3 = c1
    for r in range(10):  # the key is bumped by Weyl steps before every round but the first
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, c0)
        hi1, lo1 = _mulhilo(0xCA5A826395121157, c2)
        c0, c1 = hi1 ^ c1 ^ (int(seed) + r * 0x9E3779B97F4A7C15) % 2 ** 64, lo1
        c2, c3 = hi0 ^ c3 ^ (key + r * 0xBB67AE8584CAA73B % 2 ** 64), lo0
    raw = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    return np.maximum((raw.reshape(*key.shape[:-1], -1)[..., :count] >> 11) * 2.0 ** -53, _MIN_U)


def _check_simulation(n_steps: int, n_paths: int, seed: int) -> None:
    """Refuse fewer than one step or path, or a seed outside [0, 2^64), naming the key."""
    for key, value, ok in (("n_steps", n_steps, n_steps >= 1), ("n_paths", n_paths, n_paths >= 1),
                           ("seed", seed, 0 <= seed < 2 ** 64)):
        if not ok:
            wanted = "lie in [0, 2**64)" if key == "seed" else "be at least 1"
            raise ValueError(f"simulation key {key!r} must {wanted}, got {value!r}")


def _uniform_blocks(seed: int, n_paths: int, count: int):
    """Yield (start, stop, block): the first count uniforms of paths start..stop-1, by row."""
    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        yield start, stop, _path_uniforms(seed, np.arange(start, stop), count)


def _streams(seed: int, n_paths: int, n_steps: int, heads: int):
    """The time grid, each path's first heads uniforms, and a paths array whose columns
    1..n_steps hold the path's Brownian increments sqrt(dt) ndtri(u) of its next uniforms."""
    _check_simulation(n_steps, n_paths, seed)
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    u = np.empty((n_paths, heads))
    paths = np.empty((n_paths, n_steps + 1))
    for start, stop, block in _uniform_blocks(seed, n_paths, heads + n_steps):
        u[start:stop] = block[:, :heads]
        ndtri(block[:, heads:], out=paths[start:stop, 1:])
    paths[:, 1:] *= np.sqrt(np.diff(grid))
    return grid, u, paths


def _drive(csol, u: np.ndarray, paths: np.ndarray, grid: np.ndarray, girsanov: bool) -> None:
    """Turn paths, whose columns 1.. hold Brownian increments, into F_t(W_t) in place.

    W_0 is alpha's atom a_i, i drawn at levels u with weights source.weights, or under
    girsanov source.weights * source.atoms, and F_0(a_i) = source.atoms[i] to the solver's
    residual. Each step adds, under girsanov, the drift (F_t' / F_t)(W) dt, then the
    increment, and reads F_t(W) from fn.heat_convolve.
    """
    fn, source = csol.fn, csol.source
    weights = source.weights * source.atoms if girsanov else source.weights
    pick = quantile(make_grid_measure(np.arange(source.n), weights), u).astype(np.int64)
    w = csol.alpha.atoms[pick]
    paths[:, 0] = source.atoms[pick]
    for k in range(1, grid.size):
        if girsanov:
            s, dt = 1.0 - grid[k - 1], grid[k] - grid[k - 1]
            w += fn.heat_convolve_deriv(s, w) / paths[:, k - 1] * dt
        w += paths[:, k]
        paths[:, k] = fn.heat_convolve(1.0 - grid[k], w)


def simulate_arithmetic(sol: BassSolution, n_steps: int, n_paths: int, seed: int) -> PathEnsemble:
    """Sample martingale paths as the smoothed generating function of a Brownian path.

    Each path draws its component, its initial point, and its increments from
    its own stream. At t = 0 a path sits on the source atom its alpha atom
    maps to; later times read F_t through fn.heat_convolve, so marginals at
    grid times are exact up to its fit contract (gbass.gaussian).
    """
    grid, u, paths = _streams(seed, n_paths, n_steps, 2)
    decomp = sol.decomposition
    cum_probs = np.cumsum([decomp.identity_set_mass] + [c.mass for c in decomp.components])
    cum_probs[-1] = 1.0
    labels = np.searchsorted(cum_probs, u[:, 0], side="right")
    for ci, csol in enumerate(sol.component_solutions, start=1):
        rows = np.flatnonzero(labels == ci)
        if rows.size == n_paths:  # paths itself: no gather or scatter
            _drive(csol, u[:, 1], paths, grid, girsanov=False)
        elif rows.size:
            block = paths[rows]
            _drive(csol, u[rows, 1], block, grid, girsanov=False)
            paths[rows] = block
    static = labels == 0
    if static.any():
        paths[static] = quantile(decomp.identity_restriction, u[static, 1])[:, None]
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

    The arithmetic engine's driver with the change of measure: W_0 is drawn
    from alpha reweighted by F_0(a_i) = source.atoms[i], which puts S_0
    exactly on the initial marginal, and W gains the Girsanov drift
    d/dx log F_t, read from fn.heat_convolve and fn.heat_convolve_deriv.
    S_1 = m / fn(W_1) lies on the terminal atoms, and S never leaves
    (m / upper, m / lower), so clamp_count is 0.
    A component_index that is not an integer in range raises ValueError.
    """
    grid, u, paths = _streams(seed, n_paths, n_steps, 1)
    if not gsol.arithmetic.component_solutions:
        # nothing moves: constant paths drawn from the initial marginal
        paths[:] = quantile(gsol.mu0, u[:, 0])[:, None]
    else:
        _drive(component_solution(gsol, component_index), u[:, 0], paths, grid, girsanov=True)
        np.divide(gsol.m, paths, out=paths)
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
        qv = np.empty(ens.n_paths)
        for i in range(0, qv.size, _CHUNK):  # per path block, so no whole log(paths) is alive
            qv[i:i + _CHUNK] = np.sum(np.diff(np.log(ens.paths[i:i + _CHUNK]), axis=1) ** 2, axis=1)
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
