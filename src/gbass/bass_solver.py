"""Fixed-point solver for the martingale Sinkhorn system.

For an irreducible pair (nu0, nu1) in convex order, find an initial measure
alpha and a nondecreasing step function fn with

    nu0 = (gamma_1 * fn)_# alpha      and      nu1 = fn_# (gamma_1 * alpha),

by alternating the monotone rearrangement onto nu1 with the preimage update
pinning alpha to nu0. Reducible pairs are solved per irreducible interval and
pasted together with the static mass that never moves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .gaussian import (
    _MIXTURE_TOL,
    StepFn,
    MonotoneFn,
    heat_convolve_inverse,
    mixture_quantiles,
    smoothed_cdf,
    smoothed_sf,
)
from .measures import (
    ComponentDecomposition,
    GridMeasure,
    MeasureError,
    irreducible_components,
    make_grid_measure,
    wasserstein1,
)


ANDERSON_DEPTH = 2  # iterate differences kept by solve_component's accelerator


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residuals."""

    def __init__(self, message: str, residual_source: float, residual_target: float,
                 iterations: int):
        super().__init__(message)
        self.residual_source = residual_source
        self.residual_target = residual_target
        self.iterations = iterations


@dataclass(frozen=True)
class SolverParams:
    step_tolerance: float = 1e-10
    fit_tolerance: float = 1e-6
    max_iterations: int = 10000

    def __post_init__(self):
        for key, value in asdict(self).items():  # an iteration count > 0 is at least 1
            if not 0 < value < np.inf:
                raise ValueError(f"solver key {key!r} must be a finite number > 0, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SolverParams":
        """Read each field by _config_value; other keys (a retired gh_nodes) are ignored."""
        return SolverParams(**{f.name: _config_value(d, f.name, f.default, type(f.default), "solver")
                               for f in fields(SolverParams)})


def _is_kind(value, kind) -> bool:
    if kind not in (int, float):
        return isinstance(value, kind)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return kind is float or isinstance(value, int) or value.is_integer()


def _config_value(block: dict, key: str, default, kind, name: str = "config"):
    """block[key], or default without the key (... for none), as a value of kind.

    kind is int, float, str, dict or [kind], a non-empty list of one of these. A
    float is any number, an int an integer or an integral float (1e4), a bool
    neither; anything else raises ValueError naming the block and the key.
    """
    value = block.get(key, default)
    if value is ...:
        raise ValueError(f"{name} key {key!r} is missing")
    listed = isinstance(kind, list)
    item, items = (kind[0], value) if listed else (kind, [value])
    if listed != isinstance(value, list) or not items or not all(_is_kind(v, item) for v in items):
        wanted = f"a non-empty list of {item.__name__}" if listed else item.__name__
        raise ValueError(f"{name} key {key!r} must be {wanted}, got {value!r}")
    if item in (int, float):
        items = [item(v) for v in items]
    return items if listed else items[0]


@dataclass(frozen=True)
class BassComponentSolution:
    """Converged pair (alpha, fn) for one irreducible component, with audit residuals."""

    alpha: GridMeasure
    source: GridMeasure
    target: GridMeasure
    fn: StepFn
    residual_source: float
    residual_target: float
    iterations: int
    steps: tuple[float, ...] = ()  # per outer iteration, the step modulo translation


@dataclass(frozen=True)
class BassSolution:
    decomposition: ComponentDecomposition
    component_solutions: list[BassComponentSolution] = field(default_factory=list)

    @property
    def residual_source(self) -> float:
        return sum(c.mass * s.residual_source for c, s in
                   zip(self.decomposition.components, self.component_solutions))

    @property
    def residual_target(self) -> float:
        return sum(c.mass * s.residual_target for c, s in
                   zip(self.decomposition.components, self.component_solutions))


def monotone_rearrangement(nu1: GridMeasure, alpha: GridMeasure,
                           warm_thresholds=None) -> StepFn:
    """Unique nondecreasing map sending alpha * gamma_1 onto nu1.

    Thresholds are the mixture quantiles at nu1's cumulative weights; upper
    levels are located through the survival function so tail thresholds stay
    accurate. Warm thresholds from a previous nearby alpha cut the root
    finding to a couple of Newton steps. Every threshold is within 1e-13 of
    its level on the inversion's fit of the mixture CDF, which meets the fit
    contract of gbass.gaussian (see mixture_quantiles).
    """
    thr = mixture_quantiles(alpha, 1.0, nu1.cum_weights[:-1], nu1.tail_weights[:-1],
                            x0=warm_thresholds)
    # repair rounding-level ties so the step representation stays strict: on
    # integer keys that count ulps in float order (with -0.0 = 0.0), lift each
    # threshold to at least one ulp above its repaired predecessor, so a run
    # of ties cascades
    sign = np.int64(-2 ** 63)
    bits = thr.view(np.int64)
    key = np.where(bits < 0, -(bits & ~sign), bits)
    rank = np.arange(key.size)
    key = np.maximum.accumulate(key - rank) + rank
    return StepFn(np.where(key < 0, -key | sign, key).view(np.float64), nu1.atoms)


def update_alpha(nu0: GridMeasure, fn: MonotoneFn, warm_atoms=None) -> GridMeasure:
    """Solve (gamma_1 * fn)(a_i) = x_i for each atom x_i of nu0.

    The smoothed map is strictly increasing, so the returned atoms inherit
    nu0's order; weights are copied from nu0. Each atom is returned at the
    first iterate meeting the tolerance of monotone_rearrangement's mixture
    quantiles: a looser one would let this inversion, not the fixed point,
    set the solver's residuals.
    """
    targets = nu0.atoms
    if targets[0] <= fn.lower or targets[-1] >= fn.upper:
        raise ValueError(
            f"atom of the initial law outside the open image "
            f"({fn.lower}, {fn.upper}) of the smoothed map; "
            "the pair is not in convex order or the target grid is truncated too tightly")
    atoms = heat_convolve_inverse(fn, 1.0, targets, tol=_MIXTURE_TOL, x0=warm_atoms)
    return make_grid_measure(atoms, nu0.weights)


def _terminal_level_masses(fn: StepFn, alpha: GridMeasure) -> np.ndarray:
    """Mass that alpha * gamma_1 assigns to each level set of fn (exact).

    As for the thresholds, masses below the median are differences of the
    mixture CDF and masses above it differences of its survival function, so
    tail masses keep their relative accuracy and the top one is not 1 - CDF.
    """
    below = np.concatenate([[0.0], smoothed_cdf(alpha, 1.0, fn.thresholds)])
    k = np.count_nonzero(below[1:] <= 0.5)
    above = np.concatenate([smoothed_sf(alpha, 1.0, fn.thresholds[k:]), [0.0]])
    return np.concatenate([np.diff(below[:k + 1]), [1.0 - below[k] - above[0]],
                           -np.diff(above)])


def solve_component(nu0: GridMeasure, nu1: GridMeasure,
                    params: SolverParams | None = None) -> BassComponentSolution:
    """Iterate rearrangement and preimage updates until alpha stops moving.

    (alpha, fn) and (alpha + c, fn(. - c)) are the same martingale, so the
    step is measured modulo translation: the W1 distance between alpha and
    the update shifted back by its mean displacement.

    The loop runs type-II Anderson acceleration of depth ANDERSON_DEPTH on
    alpha's atoms and the residual modulo translation, by unweighted least
    squares (Walker & Ni, SIAM J. Numer. Anal. 2011). A jump with sum |gamma|
    > 1e4, or one moving an atom against its plain step by more than the
    largest plain step, is refused. A refused iterate whose residual moved by
    at most 3 % is a drift (a far tail cluster moving at a rate the step cannot
    see), and the step along it doubles while that lasts. A point with a gap of
    1e-12 relative or less gives way to the plain update. `steps` holds each step.

    Residuals are recomputed from scratch on the returned pair; failure to
    meet fit_tolerance within max_iterations raises ConvergenceError carrying
    the last residuals. The returned fn is rearranged once more for the
    returned alpha, which solved F_0(a_i) = source.atoms[i] against the
    previous fn; so F_0(alpha) matches the source only to residual_source
    (about 4e-13 on the 201-atom benchmark pair), not to update_alpha's tol.
    """
    params = params or SolverParams()
    decomp = irreducible_components(nu0, nu1)
    if len(decomp.components) != 1 or decomp.identity_set_mass > 1e-12:
        raise MeasureError(
            f"pair is not irreducible ({len(decomp.components)} components, "
            f"static mass {decomp.identity_set_mass:.3e}); use solve_decomposed")

    w = nu0.weights
    alpha = make_grid_measure(nu0.atoms - nu0.mean, w)
    thr_warm = None
    xs, fs, steps = [], [], []  # xs, fs: the last ANDERSON_DEPTH + 1 iterates, residuals
    beta, converged = 1.0, False
    while len(steps) < params.max_iterations:
        fn = monotone_rearrangement(nu1, alpha, warm_thresholds=thr_warm)
        thr_warm = fn.thresholds
        image = update_alpha(nu0, fn, warm_atoms=alpha.atoms)
        d = image.atoms - alpha.atoms
        f = d - w @ d
        steps.append(float(w @ np.abs(f)))
        if steps[-1] < params.step_tolerance:
            alpha, converged = image, True
            break
        xs, fs = (xs + [alpha.atoms])[-ANDERSON_DEPTH - 1:], (fs + [f])[-ANDERSON_DEPTH - 1:]
        nxt = image.atoms
        if len(xs) > ANDERSON_DEPTH:
            dx, df = np.diff(xs, axis=0), np.diff(fs, axis=0)
            gamma = np.linalg.lstsq(df.T, f, rcond=None)[0]
            jump = nxt - (dx + df).T @ gamma
            move = jump - alpha.atoms
            if (np.abs(gamma).sum() <= 1e4
                    and np.all(np.sign(f) * (move - w @ move) >= -np.abs(f).max())):
                nxt = jump
        drift = (nxt is image.atoms and len(fs) > 1
                 and np.linalg.norm(f - fs[-2]) <= 0.03 * np.linalg.norm(f))
        beta = 2.0 * beta if drift else 1.0
        nxt = nxt + (beta - 1.0) * f
        if not (np.all(np.isfinite(nxt))
                and np.all(np.diff(nxt) > 1e-12 * np.maximum(1.0, np.abs(nxt[1:])))):
            nxt, beta = image.atoms, 1.0
        alpha = make_grid_measure(nxt, w)

    fn = monotone_rearrangement(nu1, alpha)
    pushed_target = make_grid_measure(nu1.atoms, _terminal_level_masses(fn, alpha))
    residual_target = wasserstein1(pushed_target, nu1)
    pushed_source = make_grid_measure(fn.heat_convolve(1.0, alpha.atoms), alpha.weights)
    residual_source = wasserstein1(pushed_source, nu0)

    if not converged:
        raise ConvergenceError(
            f"no fixed point within {params.max_iterations} iterations "
            f"(residuals {residual_source:.3e} / {residual_target:.3e})",
            residual_source, residual_target, len(steps))
    if residual_source > params.fit_tolerance or residual_target > params.fit_tolerance:
        raise ConvergenceError(
            f"fixed point reached but residuals exceed fit tolerance "
            f"({residual_source:.3e} / {residual_target:.3e} > {params.fit_tolerance:.1e})",
            residual_source, residual_target, len(steps))

    return BassComponentSolution(alpha, nu0, nu1, fn, residual_source, residual_target,
                                 len(steps), tuple(steps))


def _solve_components(decomp: ComponentDecomposition, params: SolverParams | None) -> BassSolution:
    """Solve each component of a decomposition."""
    return BassSolution(decomp, [solve_component(c.nu0_restricted, c.nu1_restricted, params)
                                 for c in decomp.components])


def solve_decomposed(nu0: GridMeasure, nu1: GridMeasure,
                     params: SolverParams | None = None) -> BassSolution:
    """Decompose into irreducible intervals and solve each one."""
    return _solve_components(irreducible_components(nu0, nu1), params)


def eval_fn(sol: BassComponentSolution, t: float, x):
    """Value surface of the solved martingale: fn smoothed by gamma_{1-t}.

    For t < 1 the surface is strictly increasing in exact arithmetic, but once
    its distance to an image bound is below half an ulp the nearest float64
    is the bound itself; `eval_fn_deriv` is the form in which strictness
    stays visible.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    return sol.fn.heat_convolve(1.0 - t, x)


def eval_fn_deriv(sol: BassComponentSolution, t: float, x):
    """Spatial slope of the value surface; undefined at t = 1 for step functions."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    if t >= 1.0:
        raise ValueError("slope at t = 1 is undefined for a step generating function")
    return sol.fn.heat_convolve_deriv(1.0 - t, x)


def terminal_law(sol: BassSolution) -> GridMeasure:
    """Mixture law of the terminal value across components and static mass."""
    atoms: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for comp, csol in zip(sol.decomposition.components, sol.component_solutions):
        masses = _terminal_level_masses(csol.fn, csol.alpha)
        atoms.append(csol.target.atoms)
        weights.append(masses * comp.mass)
    identity = sol.decomposition.identity_restriction
    if identity is not None:
        atoms.append(identity.atoms)
        weights.append(identity.weights * sol.decomposition.identity_set_mass)
    return make_grid_measure(np.concatenate(atoms), np.concatenate(weights))
