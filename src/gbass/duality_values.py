"""Transport values and duality gaps for solved instances.

Maximal covariances (exact comonotone values for atomic measures, closed-form
Gaussian partial expectations against smoothed laws), the primal expected
integrated volatility, the covariance-form dual, and the quadratic objective
values for given reference volatility levels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bass_solver import BassSolution
from .gaussian import _gauss_sum, mixture_quantiles
from .measures import GridMeasure, _panels, moment

if TYPE_CHECKING:  # pragma: no cover
    from .geometric_bridge import GeometricSolution


def max_covariance(eta: GridMeasure, rho: GridMeasure) -> float:
    """Largest E[XY] over couplings; the comonotone quantile pairing, exact."""
    du, qe, qr = _panels(eta, rho)
    return float(du @ (qe * qr))


def max_covariance_smoothed(eta: GridMeasure, alpha: GridMeasure, s: float) -> float:
    """Comonotone covariance between eta and alpha * gamma_s.

    The quantile function of eta is constant between its cumulative weights,
    so the u-integral reduces to Gaussian partial means between the smoothed
    quantiles at those levels; no quadrature error beyond root finding.
    """
    return _comonotone_covariance(
        eta, alpha, s, mixture_quantiles(alpha, s, eta.cum_weights[:-1], eta.tail_weights[:-1]))


def _comonotone_covariance(eta: GridMeasure, alpha: GridMeasure, s: float,
                           cuts: np.ndarray) -> float:
    """E[XY] with X ~ alpha * gamma_s and Y = eta.atoms[j] between cuts[j - 1] and cuts[j]."""
    bounds = np.concatenate([[-np.inf], cuts, [np.inf]])
    # E[X 1_{X <= b}] = sum_j w_j (a_j Phi(z_j) - sqrt(s) phi(z_j)), z_j = (b - a_j) / sqrt(s);
    # the density sum already carries the 1 / sqrt(s), hence the factor s
    partial_mean = (_gauss_sum(bounds, alpha.atoms, alpha.weights * alpha.atoms, s)
                    - s * _gauss_sum(bounds, alpha.atoms, alpha.weights, s, density=True))
    return float(eta.atoms @ np.diff(partial_mean))


def component_dual_value(source: GridMeasure, target: GridMeasure,
                         alpha: GridMeasure) -> float:
    """Covariance-form dual evaluated at a candidate initial law alpha."""
    return max_covariance_smoothed(target, alpha, 1.0) - max_covariance(source, alpha)


def primal_value(sol: BassSolution) -> float:
    """Expected integrated volatility of the solved martingale.

    Per component this is the mean slope of the smoothed generating function
    under alpha (the covariation of the terminal value with the driving
    noise); static mass contributes nothing.
    """
    total = 0.0
    for comp, csol in zip(sol.decomposition.components, sol.component_solutions):
        slopes = csol.fn.heat_convolve_deriv(1.0, csol.alpha.atoms)
        total += comp.mass * float(csol.alpha.weights @ np.atleast_1d(slopes))
    return total


def dual_value(sol: BassSolution) -> float:
    """Mass-weighted covariance-form dual at the solved initial laws.

    Equals the primal at an exact fixed point; on reducible pairs the
    per-component sum is a lower bound for the global dual. Each component's
    target quantiles under alpha * gamma_1 are its fn's thresholds, so they
    are read from the solution instead of solved again.
    """
    return sum(comp.mass * (_comonotone_covariance(csol.target, csol.alpha, 1.0,
                                                   csol.fn.thresholds)
                            - max_covariance(csol.source, csol.alpha))
               for comp, csol in zip(sol.decomposition.components, sol.component_solutions))


@dataclass(frozen=True)
class ValueReport:
    geometric_primal: float
    arithmetic_primal: float
    dual_value: float
    duality_gap: float
    geometric_objective: float
    arithmetic_objective: float
    log_moment_diff: float
    second_moment_diff: float
    sigma_bar: float
    Sigma_bar: float

    def to_dict(self) -> dict:
        return asdict(self)


def make_value_report(gsol: "GeometricSolution", sigma_bar: float,
                      Sigma_bar: float) -> ValueReport:
    """Assemble all value functionals for a solved geometric instance.

    The geometric and arithmetic primal values coincide by the change of
    numeraire; the quadratic objectives follow from the moment identities
    linking integrated variance to the marginals.
    """
    if not (0 < sigma_bar < np.inf and 0 < Sigma_bar < np.inf):
        raise ValueError("reference volatility levels must be positive and finite, got "
                         f"sigma_bar = {sigma_bar}, Sigma_bar = {Sigma_bar}")
    primal = primal_value(gsol.arithmetic)
    dual = dual_value(gsol.arithmetic)
    log_diff = 2.0 * (moment(gsol.mu0, "log") - moment(gsol.mu1, "log"))
    nu0, nu1 = gsol.nu0, gsol.nu1
    second_diff = moment(nu1, 2) - moment(nu0, 2)
    return ValueReport(
        geometric_primal=primal,
        arithmetic_primal=primal,
        dual_value=dual,
        duality_gap=primal - dual,
        geometric_objective=sigma_bar ** 2 + log_diff - 2.0 * sigma_bar * primal,
        arithmetic_objective=Sigma_bar ** 2 + second_diff - 2.0 * Sigma_bar * primal,
        log_moment_diff=log_diff,
        second_moment_diff=second_diff,
        sigma_bar=sigma_bar,
        Sigma_bar=Sigma_bar,
    )
