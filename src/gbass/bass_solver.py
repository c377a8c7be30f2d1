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
    StepFn,
    MonotoneFn,
    heat_convolve_inverse,
    mixture_quantiles,
    smoothed_cdf,
)
from .measures import (
    ComponentDecomposition,
    GridMeasure,
    MeasureError,
    check_convex_order,
    irreducible_components,
    make_grid_measure,
    wasserstein1,
)


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

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SolverParams":
        """Read the known fields; other keys (such as a retired gh_nodes) are ignored."""
        return SolverParams(**{f.name: d[f.name] for f in fields(SolverParams)
                               if f.name in d})


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


@dataclass(frozen=True)
class BassSolution:
    decomposition: ComponentDecomposition
    component_solutions: list[BassComponentSolution] = field(default_factory=list)

    @property
    def identity_restriction(self) -> GridMeasure | None:
        return self.decomposition.identity_restriction

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
    finding to a couple of Newton steps.
    """
    if nu1.n == 1:
        return StepFn([], nu1.atoms)
    thr = mixture_quantiles(alpha, 1.0, nu1.cum_weights[:-1], nu1.tail_weights[:-1],
                            x0=warm_thresholds)
    # repair rounding-level ties so the step representation stays strict
    for i in np.flatnonzero(np.diff(thr) <= 0):
        thr[i + 1] = np.nextafter(thr[i], np.inf)
    return StepFn(thr, nu1.atoms)


def update_alpha(nu0: GridMeasure, fn: MonotoneFn, tol: float = 1e-13,
                 warm_atoms=None) -> GridMeasure:
    """Solve (gamma_1 * fn)(a_i) = x_i for each atom x_i of nu0.

    The smoothed map is strictly increasing, so the returned atoms inherit
    nu0's order; weights are copied from nu0. Each atom is returned at the
    first iterate meeting tol, so tol is the accuracy delivered. The 1e-13
    default is the tolerance of monotone_rearrangement's mixture quantiles:
    a looser one would let this inversion, not the fixed point, set the
    solver's residuals.
    """
    targets = nu0.atoms
    if targets[0] <= fn.lower or targets[-1] >= fn.upper:
        raise ValueError(
            f"atom of the initial law outside the open image "
            f"({fn.lower}, {fn.upper}) of the smoothed map; "
            "the pair is not in convex order or the target grid is truncated too tightly")
    atoms = heat_convolve_inverse(fn, 1.0, targets, tol=tol, x0=warm_atoms)
    return make_grid_measure(atoms, nu0.weights)


def _terminal_level_masses(fn: StepFn, alpha: GridMeasure) -> np.ndarray:
    """Mass that alpha * gamma_1 assigns to each level set of fn (exact)."""
    if fn.thresholds.size == 0:
        return np.array([1.0])
    mix_cdf = smoothed_cdf(alpha, 1.0, fn.thresholds)
    return np.diff(np.concatenate([[0.0], mix_cdf, [1.0]]))


def solve_component(nu0: GridMeasure, nu1: GridMeasure,
                    params: SolverParams | None = None) -> BassComponentSolution:
    """Iterate rearrangement and preimage updates until alpha stops moving.

    Residuals are recomputed from scratch on the returned pair; failure to
    meet fit_tolerance within max_iterations raises ConvergenceError carrying
    the last residuals. The returned fn is rearranged once more for the
    returned alpha, which solved F_0(a_i) = source.atoms[i] against the
    previous fn; so F_0(alpha) matches the source only to residual_source
    (about 1e-11 on the 201-atom benchmark pair), not to update_alpha's tol.
    """
    params = params or SolverParams()
    report = check_convex_order(nu0, nu1)
    if not report.in_convex_order:
        raise MeasureError(
            f"pair is not in convex order (violation {report.max_violation:.3e}, "
            f"equal means: {report.equal_means})")
    decomp = irreducible_components(nu0, nu1)
    if len(decomp.components) != 1 or decomp.identity_set_mass > 1e-12:
        raise MeasureError(
            f"pair is not irreducible ({len(decomp.components)} components, "
            f"static mass {decomp.identity_set_mass:.3e}); use solve_decomposed")

    alpha = make_grid_measure(nu0.atoms - nu0.mean, nu0.weights)
    thr_warm = None
    history = [alpha]
    iterations = 0
    converged = False
    while iterations < params.max_iterations:
        fn = monotone_rearrangement(nu1, alpha, warm_thresholds=thr_warm)
        thr_warm = fn.thresholds
        new_alpha = update_alpha(nu0, fn, warm_atoms=alpha.atoms)
        iterations += 1
        step = wasserstein1(new_alpha, alpha)
        alpha = new_alpha
        if step < params.step_tolerance:
            converged = True
            break
        history.append(alpha)
        if len(history) == 3:
            # the map contracts linearly; jump along the dominant mode by
            # summing the geometric tail of the last increment
            x0, x1, x2 = history
            d0 = x1.atoms - x0.atoms
            d1 = x2.atoms - x1.atoms
            denom = float(d0 @ d0)
            rho = float(d1 @ d0) / denom if denom > 0 else 0.0
            if 1e-14 < abs(rho) < 0.9999:
                jumped = x2.atoms + d1 * (rho / (1.0 - rho))
                if np.all(np.diff(jumped) > 0):
                    alpha = make_grid_measure(jumped, nu0.weights)
            history = [alpha]

    fn = monotone_rearrangement(nu1, alpha)
    pushed_target = make_grid_measure(nu1.atoms, _terminal_level_masses(fn, alpha))
    residual_target = wasserstein1(pushed_target, nu1)
    pushed_source = make_grid_measure(fn.heat_convolve(1.0, alpha.atoms), alpha.weights)
    residual_source = wasserstein1(pushed_source, nu0)

    if not converged:
        raise ConvergenceError(
            f"no fixed point within {params.max_iterations} iterations "
            f"(residuals {residual_source:.3e} / {residual_target:.3e})",
            residual_source, residual_target, iterations)
    if residual_source > params.fit_tolerance or residual_target > params.fit_tolerance:
        raise ConvergenceError(
            f"fixed point reached but residuals exceed fit tolerance "
            f"({residual_source:.3e} / {residual_target:.3e} > {params.fit_tolerance:.1e})",
            residual_source, residual_target, iterations)

    return BassComponentSolution(alpha, nu0, nu1, fn,
                                 residual_source, residual_target, iterations)


def solve_decomposed(nu0: GridMeasure, nu1: GridMeasure,
                     params: SolverParams | None = None) -> BassSolution:
    """Decompose into irreducible intervals and solve each one."""
    params = params or SolverParams()
    decomp = irreducible_components(nu0, nu1)
    solutions = [solve_component(c.nu0_restricted, c.nu1_restricted, params)
                 for c in decomp.components]
    return BassSolution(decomp, solutions)


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
