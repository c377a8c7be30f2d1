import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebval
from scipy.special import ndtr

import gbass as g
from gbass import gaussian
from gbass.gaussian import (
    gauss_hermite,
    InversionError,
    heat_convolve_inverse,
    invert_increasing,
    mixture_quantiles,
    smoothed_sf,
)

from _oracles import (
    ReferenceStall,
    central_difference,
    chebyshev_interpolation_bound,
    gauss_sum_fsum,
    invert_increasing_reference,
    normal_cdf_series,
)
from conftest import solve_bench_pair


class TestGaussPrimitives:
    def test_cdf_symmetry(self):
        assert g.gauss_cdf(0.0, 1.0) == pytest.approx(0.5)

    def test_quantile_median(self):
        assert g.gauss_quantile(0.5, 4.0) == pytest.approx(0.0)

    def test_cdf_against_series_oracle(self):
        for x in (-2.5, -1.0, -0.3, 0.7, 1.0, 2.0):
            assert g.gauss_cdf(x, 1.0) == pytest.approx(normal_cdf_series(x), abs=1e-14)
        assert g.gauss_cdf(1.0, 1.0) == pytest.approx(0.8413447460685429, abs=1e-14)

    def test_cdf_variance_scaling(self):
        assert g.gauss_cdf(2.0, 4.0) == pytest.approx(normal_cdf_series(1.0), abs=1e-14)

    def test_quantile_inverts_cdf(self):
        for u in (1e-10, 0.01, 0.3, 0.5, 0.9, 1 - 1e-12):
            q = g.gauss_quantile(u, 2.5)
            assert abs(g.gauss_cdf(q, 2.5) - u) < 1e-12

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            g.gauss_cdf(0.0, 0.0)
        with pytest.raises(ValueError):
            g.gauss_pdf(0.0, -1.0)

    @pytest.mark.parametrize("call", [
        lambda s: g.gauss_pdf(0.0, s),
        lambda s: g.gauss_cdf(0.0, s),
        lambda s: g.gauss_quantile(0.5, s),
        lambda s: g.smoothed_cdf(g.make_grid_measure([0.0], [1.0]), s, 0.0),
        lambda s: smoothed_sf(g.make_grid_measure([0.0], [1.0]), s, 0.0),
        lambda s: g.max_covariance_smoothed(*[g.make_grid_measure([0.0, 1.0], [0.5, 0.5])] * 2, s),
        lambda s: g.StepFn([0.0], [0.0, 1.0]).heat_convolve(s, 0.0),
        lambda s: g.StepFn([0.0], [0.0, 1.0]).heat_convolve_deriv(s, 0.0),
        lambda s: g.CallableFn(lambda y: y).heat_convolve(s, 0.0),
        lambda s: g.CallableFn(lambda y: y).heat_convolve_deriv(s, 0.0),
    ], ids=["gauss_pdf", "gauss_cdf", "gauss_quantile", "smoothed_cdf", "smoothed_sf",
            "max_covariance_smoothed", "step_heat_convolve", "step_heat_convolve_deriv",
            "hermite_heat_convolve", "hermite_heat_convolve_deriv"])
    def test_rejects_nan_variance(self, call):
        with pytest.raises(ValueError, match="variance must be .*, got nan"):
            call(np.nan)

    def test_quantile_rejects_boundary(self):
        with pytest.raises(ValueError):
            g.gauss_quantile(0.0, 1.0)
        with pytest.raises(ValueError):
            g.gauss_quantile(1.0, 1.0)


class TestSmoothedCdf:
    def test_point_mass(self):
        alpha = g.make_grid_measure([0.0], [1.0])
        assert g.smoothed_cdf(alpha, 1.0, 0.0) == pytest.approx(0.5)
        assert g.smoothed_cdf(alpha, 1.0, 1.0) == pytest.approx(g.gauss_cdf(1.0, 1.0))

    def test_symmetric_mixture(self):
        alpha = g.make_grid_measure([-1.0, 1.0], [0.5, 0.5])
        assert g.smoothed_cdf(alpha, 1.0, 0.0) == pytest.approx(0.5)

    def test_strictly_increasing(self):
        alpha = g.make_grid_measure([-1.0, 0.5], [0.4, 0.6])
        xs = np.linspace(-4, 4, 50)
        vals = g.smoothed_cdf(alpha, 0.7, xs)
        assert np.all(np.diff(vals) > 0)

    def test_sf_complements_cdf(self):
        alpha = g.make_grid_measure([-1.0, 0.5], [0.4, 0.6])
        xs = np.linspace(-3, 3, 11)
        assert np.allclose(g.smoothed_cdf(alpha, 1.3, xs) + smoothed_sf(alpha, 1.3, xs), 1.0)

    def test_matches_heat_convolved_cdf_function(self):
        # both sides compute P(A + sqrt(s) Z <= x)
        alpha = g.make_grid_measure([-0.5, 0.3, 1.2], [0.2, 0.3, 0.5])
        s = 0.8
        step = g.StepFn(alpha.atoms, np.concatenate([[0.0], alpha.cum_weights]))
        xs = np.linspace(-4, 5, 31)
        direct = g.smoothed_cdf(alpha, s, xs)
        # cdf of alpha as a step function of the displaced argument, smoothed
        convolved = step.heat_convolve(s, xs)
        assert np.max(np.abs(direct - convolved)) < 1e-10


class TestSmoothedQuantile:
    def test_point_mass(self):
        alpha = g.make_grid_measure([0.0], [1.0])
        assert g.smoothed_quantile(alpha, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        alpha = g.make_grid_measure([-1.0, 1.0], [0.5, 0.5])
        assert g.smoothed_quantile(alpha, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_inverts_cdf_value(self):
        alpha = g.make_grid_measure([0.0], [1.0])
        assert g.smoothed_quantile(alpha, 1.0, 0.8413447460685429) == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(0.001, 0.999), st.floats(0.2, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_residual_contract(self, u, s):
        alpha = g.make_grid_measure([-2.0, -0.3, 1.7], [0.25, 0.4, 0.35])
        x = g.smoothed_quantile(alpha, s, u)
        assert abs(g.smoothed_cdf(alpha, s, x) - u) < 1e-12

    def test_deep_tail_through_survival(self):
        alpha = g.make_grid_measure([0.0, 1.0], [0.5, 0.5])
        tail = 1e-14
        x = mixture_quantiles(alpha, 1.0, np.array([1 - tail]), np.array([tail]))
        assert abs(smoothed_sf(alpha, 1.0, x) - tail) < 1e-12 * 1e-2 + 1e-15

    def test_rejects_zero_variance_with_enough_levels_to_fit(self):
        # 100 atoms and 80 levels reach the inversion's fit, which a variance
        # that is not positive must not, nor a square root of it
        alpha = g.make_grid_measure(np.linspace(-1.0, 1.0, 100), np.ones(100))
        fn = g.StepFn(alpha.atoms, np.arange(101.0))
        for s in (0.0, -1.0):
            with pytest.raises(ValueError, match="variance"):
                g.smoothed_quantile(alpha, s, np.linspace(0.01, 0.99, 80))
            with pytest.raises(ValueError, match="variance"):
                heat_convolve_inverse(fn, s, np.linspace(1.0, 99.0, 80), 1e-12)

    def test_rejects_boundary(self):
        alpha = g.make_grid_measure([0.0], [1.0])
        with pytest.raises(ValueError):
            g.smoothed_quantile(alpha, 1.0, 0.0)
        with pytest.raises(ValueError):
            g.smoothed_quantile(alpha, 1.0, 1.0)


def exp_fn(sigma=0.2):
    return g.CallableFn(lambda y: np.exp(sigma * y), lower=0.0)


class TestHeatConvolve:
    def test_identity_odd_integrand(self):
        ident = g.CallableFn(lambda y: y)
        assert g.heat_convolve(ident, 1.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_exponential_closed_form(self):
        val = g.heat_convolve(exp_fn(0.2), 1.0, 0.0)
        assert val == pytest.approx(np.exp(0.02), abs=1e-10)
        assert val == pytest.approx(1.0202013400267558, abs=1e-9)

    def test_step_median(self):
        step = g.StepFn([0.0], [0.0, 2.0])
        assert g.heat_convolve(step, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_variance_returns_raw(self):
        step = g.StepFn([0.0], [0.0, 2.0])
        assert g.heat_convolve(step, 0.0, -0.5) == 0.0
        assert g.heat_convolve(step, 0.0, 0.0) == 0.0
        assert g.heat_convolve(step, 0.0, 0.5) == 2.0

    def test_zero_variance_reads_a_callable_at_x_alone(self):
        # no Gauss-Hermite nodes: the callable sees x itself, once, and is returned as is
        seen = []
        fn = g.CallableFn(lambda y: seen.append(np.shape(y)) or np.tanh(y), -1.0, 1.0)
        x = np.array([-2.0, 0.3, 5.0])
        assert np.array_equal(g.heat_convolve(fn, 0.0, x), np.tanh(x))
        assert seen == [(3,)]

    def test_monotone_in_x(self):
        rng = np.random.default_rng(5)
        step = g.StepFn([-0.5, 0.7], [0.0, 1.0, 3.0])
        for fn in (step, exp_fn()):
            x = np.sort(rng.uniform(-4, 4, 30))
            vals = np.atleast_1d(g.heat_convolve(fn, 0.9, x))
            assert np.all(np.diff(vals) >= -1e-10)

    def test_semigroup(self):
        step = g.StepFn([-0.3, 0.9], [0.5, 1.5, 2.5])
        xs = np.linspace(-4, 4, 17)
        inner = g.CallableFn(lambda y: step.heat_convolve(0.6, y))
        twice = g.heat_convolve(inner, 0.4, xs)
        once = g.heat_convolve(step, 1.0, xs)
        assert np.max(np.abs(twice - once)) < 1e-8

    def test_divergence_detected(self):
        def cube_exp(y):
            with np.errstate(over="ignore"):
                return np.exp(y ** 3)
        wild = g.CallableFn(cube_exp)
        with pytest.raises(FloatingPointError):
            g.heat_convolve(wild, 1.0, 30.0)

    def test_table_fn(self):
        table = g.TableFn([-1.0, 0.0, 1.0], [0.0, 0.5, 1.0])
        assert table(-5.0) == 0.0
        assert table(0.5) == pytest.approx(0.75)
        assert g.heat_convolve(table, 1.0, 0.0) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("xs, ys, match", [
        ([0.0, 0.0, 1.0], [0.0, 0.5, 1.0], "abscissae must be strictly increasing"),
        ([-1.0, 0.0, 1.0], [0.0, 0.5, 0.4], "values must be nondecreasing"),
    ])
    def test_table_fn_refuses_a_table_out_of_order(self, xs, ys, match):
        with pytest.raises(ValueError, match=match):
            g.TableFn(xs, ys)


class TestHeatConvolveDeriv:
    def test_identity_slope_one(self):
        ident = g.CallableFn(lambda y: y)
        for s in (0.3, 1.0, 2.5):
            assert g.heat_convolve_deriv(ident, s, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_exponential(self):
        val = g.heat_convolve_deriv(exp_fn(0.2), 1.0, 0.0)
        assert val == pytest.approx(0.2 * np.exp(0.02), abs=1e-9)
        assert val == pytest.approx(0.20404026800535116, abs=1e-9)

    def test_step_density(self):
        step = g.StepFn([0.0], [0.0, 2.0])
        assert g.heat_convolve_deriv(step, 1.0, 0.0) == pytest.approx(
            2.0 * g.gauss_pdf(0.0), abs=1e-14)

    def test_matches_finite_differences(self):
        for fn in (exp_fn(0.3), g.StepFn([-0.4, 0.8], [0.0, 1.0, 1.7])):
            for x in (-1.0, 0.0, 0.6):
                fd = central_difference(lambda y: float(g.heat_convolve(fn, 0.9, y)), x)
                assert g.heat_convolve_deriv(fn, 0.9, x) == pytest.approx(fd, abs=1e-6)

    def test_nonnegative(self):
        step = g.StepFn([-1.0, 1.0], [0.0, 0.5, 2.0])
        xs = np.linspace(-5, 5, 41)
        assert np.all(np.atleast_1d(g.heat_convolve_deriv(step, 0.5, xs)) >= 0)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            g.heat_convolve_deriv(g.StepFn([0.0], [0.0, 1.0]), 0.0, 0.0)


class TestStepFn:
    def test_level_lookup_left_continuous(self):
        step = g.StepFn([0.0, 1.0], [0.0, 1.0, 2.0])
        assert step(-0.5) == 0.0
        assert step(0.0) == 0.0
        assert step(0.5) == 1.0
        assert step(1.0) == 1.0
        assert step(1.5) == 2.0

    def test_validation(self):
        for thresholds, levels, match in [
            ([0.0, 0.0], [0.0, 1.0, 2.0], "strictly increasing"),
            ([0.0], [1.0, 0.0], "nondecreasing"),
            ([0.0], [1.0], "one more level"),
            # NaN compares False, so the order checks alone let these through
            ([np.nan, 1.0], [0.0, 1.0, 2.0], "thresholds must be finite, got nan"),
            ([0.0, np.inf], [0.0, 1.0, 2.0], "thresholds must be finite, got inf"),
            ([0.0, 1.0], [0.0, np.nan, 2.0], "levels must be finite, got nan"),
            ([0.0, 1.0], [0.0, 1.0, np.inf], "levels must be finite, got inf"),
            ([0.0, 1.0], [-np.inf, 1.0, 2.0], "levels must be finite, got -inf"),
        ]:
            with pytest.raises(ValueError, match=match):
                g.StepFn(thresholds, levels)

    def test_image_bounds(self):
        step = g.StepFn([0.0], [0.5, 2.0])
        assert step.lower == 0.5
        assert step.upper == 2.0

    @pytest.mark.parametrize("x", [0.3, [-2.0, 0.0, 5.0], []], ids=["scalar", "array", "empty"])
    def test_no_threshold_smooths_to_its_level(self, x):
        # a Gaussian sum over no jumps is 0: the value is the one level, the slope 0
        step = g.StepFn([], [1.7])
        value, slope = step.heat_convolve(0.5, x), step.heat_convolve_deriv(0.5, x)
        assert np.shape(value) == np.shape(slope) == np.shape(x)
        assert np.all(value == 1.7) and np.all(slope == 0.0)


class TestGaussHermite:
    @pytest.mark.parametrize("n", [512, 1024])
    def test_large_rules_integrate_moments(self, n):
        nodes, weights = gauss_hermite(n)
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert weights @ nodes ** 2 == pytest.approx(1.0, abs=1e-12)
        assert weights @ nodes ** 4 == pytest.approx(3.0, abs=1e-12)


class TestMixtureQuantiles:
    alpha = g.make_grid_measure([-1.3, -0.2, 0.4, 2.5, 3.1], [0.1, 0.3, 0.2, 0.25, 0.15])

    def levels(self):
        eta = g.make_grid_measure(np.arange(12.0), [1e-12, 0.05, 0.1, 0.1, 0.2, 0.05,
                                                    0.1, 0.1, 0.1, 0.1, 0.1, 1e-12])
        return eta.cum_weights[:-1], eta.tail_weights[:-1]

    @pytest.mark.parametrize("warm", [False, True])
    def test_lower_on_cdf_upper_on_sf(self, warm):
        s = 0.6
        cum, tails = self.levels()
        x0 = mixture_quantiles(self.alpha, s, cum, tails) + 0.05 if warm else None
        q = mixture_quantiles(self.alpha, s, cum, tails, x0=x0)
        lower = cum <= 0.5
        assert lower.any() and (~lower).any()
        assert np.all(np.diff(q) > 0)
        assert np.max(np.abs(g.smoothed_cdf(self.alpha, s, q[lower]) - cum[lower])) < 2e-13
        assert np.max(np.abs(smoothed_sf(self.alpha, s, q[~lower]) - tails[~lower])) < 2e-13


class TestHeatConvolveInverse:
    @pytest.mark.parametrize("fn, s", [
        (g.StepFn([-1.0, 0.5, 2.0], [0.0, 1.0, 1.5, 4.0]), 0.7),
        (g.TableFn([0.0, 1.0, 3.0], [0.0, 2.0, 3.0]), 0.5),
        (g.CallableFn(np.tanh, -1.0, 1.0), 0.5),
    ])
    def test_round_trip(self, fn, s):
        span = fn.upper - fn.lower
        targets = np.concatenate([
            fn.lower + span * np.array([1e-6, 1e-3]),
            np.linspace(fn.lower, fn.upper, 9)[1:-1],
            fn.upper - span * np.array([1e-3, 1e-6])])
        x = heat_convolve_inverse(fn, s, targets, tol=1e-12)
        assert np.all(np.diff(x) > 0)
        assert np.max(np.abs(g.heat_convolve(fn, s, x) - targets)) <= 1e-12

    def test_no_targets_give_an_empty_result(self):
        out = heat_convolve_inverse(g.StepFn([0.0], [0.0, 1.0]), 0.5, np.array([]), tol=1e-12)
        assert out.shape == (0,)

    def test_target_outside_image_rejected(self):
        step = g.StepFn([0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="bracket"):
            heat_convolve_inverse(step, 0.5, np.array([2.0]), tol=1e-12)
        with pytest.raises(ValueError, match="bracket"):
            heat_convolve_inverse(step, 0.5, np.array([-1.0]), tol=1e-12)


class CountingFn:
    """Componentwise f that records a copy of each array it is called on."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append(np.array(x, copy=True))
        return self.f(x)


def cube(x):
    return x ** 3 + x


def cube_prime(x):
    return 3.0 * x ** 2 + 1.0


class TestInvertIncreasing:
    tol = 1e-13
    # warm starts at a root, near one, and far off, so rows close at different steps
    roots = np.array([0.5, -1.25, 0.75, 2.0, -3.0, 1.5, -0.1, 0.3])
    x0 = roots + np.array([0.0, 0.0, 1e-9, 1e-6, 0.5, 2.0, -2.5, 3.0])

    def solve(self, f, rows=slice(None)):
        return invert_increasing(f, cube_prime, cube(self.roots[rows]), -5.0, 5.0,
                                 self.tol, x0=self.x0[rows])

    def test_every_row_meets_tol(self):
        x = self.solve(cube)
        assert np.all(np.abs(cube(x) - cube(self.roots)) <= self.tol)

    def test_only_open_rows_are_evaluated(self):
        batch = CountingFn(cube)
        self.solve(batch)
        # a row's iterates do not depend on the others, so solving it alone
        # gives the number of steps it stays open in the batch
        open_steps = []
        for i in range(self.roots.size):
            single = CountingFn(cube)
            self.solve(single, slice(i, i + 1))
            open_steps.append(len(single.calls))
        open_steps = np.array(open_steps)
        sizes = [c.size for c in batch.calls]
        assert len(sizes) == open_steps.max()
        assert sizes == [int(np.sum(open_steps > k)) for k in range(len(sizes))]
        assert sum(sizes) == open_steps.sum()
        assert sum(sizes) < self.roots.size * len(sizes)

    def test_root_start_evaluated_once_and_returned_unchanged(self):
        f = CountingFn(cube)
        x = self.solve(f)
        assert len(f.calls) > 1
        assert x[0] == self.x0[0]
        assert sum(int(np.sum(c == self.x0[0])) for c in f.calls) == 1

    def test_exhaustion_returns_last_evaluated_iterate(self):
        # the NaN slope forces a bisection step that is never evaluated; the
        # row still misses tol (by 1e-10) when max_iter runs out, so it raises
        x0 = np.array([0.3 + 1e-10])
        with pytest.raises(InversionError, match="stalled") as info:
            invert_increasing(lambda x: x, lambda x: np.full_like(x, np.nan),
                              np.array([0.3]), -1.0, 1.0, tol=1e-12, max_iter=1, x0=x0)
        assert info.value.iterates[0] == x0[0]
        assert info.value.residual == pytest.approx(1e-10, rel=1e-5)

    def test_float64_floor_closes_unresolvable_rows(self):
        # one ulp of x near 1 moves f by 2.2e-8, so no float64 x meets tol;
        # the row closes within an ulp of the root instead of stalling. The
        # slope is off by a factor of two, so Newton steps overshoot by an
        # ulp instead of rounding away; the bracket shrinks to one ulp, its
        # midpoint rounds back to x, and the row closes there because one
        # ulp of x explains its residual
        f = CountingFn(lambda x: 1e8 * (x - 1.0))
        x = invert_increasing(f, lambda x: np.full_like(x, 0.5e8), np.array([1e-8]),
                              0.5, 1.5, tol=1e-12, x0=np.array([1.2]))
        assert abs(x[0] - (1.0 + 1e-16)) <= np.spacing(1.0)
        assert len(f.calls) <= 6
        _, repeats = np.unique(np.concatenate(f.calls), return_counts=True)
        assert repeats.max() <= 2

    def test_collapsed_bracket_above_floor_raises(self):
        # the bracket of a jump collapses to one ulp around x = 1, where the
        # residual stays 0.5, far above what one ulp of x moves f by; the row
        # raises once its next iterate is its last, not after max_iter steps
        f = CountingFn(lambda x: (x > 1.0).astype(float))
        with pytest.raises(InversionError, match="stalled"):
            invert_increasing(f, np.ones_like, np.array([0.5]), 0.0, 2.0, tol=1e-12)
        assert len(f.calls) <= 60
        _, repeats = np.unique(np.concatenate(f.calls), return_counts=True)
        assert repeats.max() <= 2

    def test_newton_step_lost_to_rounding_closes_at_once(self):
        # the row above with its exact slope: from x0 = 1.2 one Newton step
        # lands within an ulp of the root, and the next is lost to rounding
        f = CountingFn(lambda x: 1e8 * (x - 1.0))
        x = invert_increasing(f, lambda x: np.full_like(x, 1e8), np.array([1e-8]),
                              0.5, 1.5, tol=1e-12, x0=np.array([1.2]))
        assert abs(x[0] - (1.0 + 1e-16)) <= np.spacing(1.0)
        assert len(f.calls) <= 3

    def test_exhaustion_judges_the_returned_iterate(self):
        with pytest.raises(RuntimeError, match="stalled"):
            invert_increasing(lambda x: x, lambda x: np.full_like(x, np.nan),
                              np.array([0.3]), -1.0, 1.0, tol=1e-12, max_iter=1,
                              x0=np.array([0.3 + 1e-6]))


# (f, fprime) of increasing problems, by the way their rows end
INVERSION_PROBLEMS = {
    # smooth: every row closes on tol
    "tanh": (lambda x: 0.1 * x + np.tanh(3.0 * (x - 0.2)),
             lambda x: 0.1 + 3.0 / np.cosh(3.0 * (x - 0.2)) ** 2),
    "cube": (cube, cube_prime),
    # slope too large for tol and off by two: rows close on the float64 floor
    "steep": (lambda x: 1e8 * (x - 1.0), lambda x: np.full_like(x, 0.5e8)),
    # no slope information: every step bisects
    "nan_slope": (lambda x: x ** 3 + x, lambda x: np.full_like(x, np.nan)),
    # a jump at 0.25: targets inside it stall once the bracket is one ulp wide
    "jump": (lambda x: (x > 0.25) + 1e-3 * x, lambda x: np.full_like(x, 1e-3)),
}


def assert_same_as_reference(f, fprime, args, kwargs):
    """invert_increasing and the loop it replaced (tests/_oracles.py) make the same
    calls of f, and return the same bits or raise with the same message, residual
    and iterates."""
    def run(solve):
        calls = CountingFn(f)
        try:
            return calls.calls, solve(calls, fprime, *args, **kwargs), None
        except (InversionError, ReferenceStall) as exc:
            return calls.calls, None, exc

    (new_calls, new, new_exc), (ref_calls, ref, ref_exc) = map(
        run, (invert_increasing, invert_increasing_reference))
    assert [c.tobytes() for c in new_calls] == [c.tobytes() for c in ref_calls]
    if ref_exc is None:
        assert new_exc is None and new.shape == ref.shape and new.tobytes() == ref.tobytes()
    else:
        assert isinstance(new_exc, InversionError), new_exc
        assert str(new_exc) == str(ref_exc)
        assert np.float64(new_exc.residual).tobytes() == np.float64(ref_exc.residual).tobytes()
        assert new_exc.iterates.shape == ref_exc.iterates.shape
        assert new_exc.iterates.tobytes() == ref_exc.iterates.tobytes()


class TestInvertIncreasingAgainstReference:
    """The lean loop against the loop it replaced (tests/_oracles.py), bit for bit."""

    # few rows are drawn often, so rows close at different steps of small batches
    @given(seed=st.integers(0, 2 ** 32 - 1), name=st.sampled_from(sorted(INVERSION_PROBLEMS)),
           n=st.one_of(st.integers(1, 8), st.integers(1, 200)), shared=st.booleans(),
           warm=st.sampled_from(["none", "near", "far"]),
           max_iter=st.sampled_from([1, 2, 3, 5, 200]), stuck=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_iterates_results_and_errors(self, seed, name, n, shared, warm, max_iter, stuck):
        rng = np.random.default_rng(seed)
        f, fprime = INVERSION_PROBLEMS[name]
        roots = rng.uniform(-1.0, 1.5, n)
        targets = f(roots)
        if stuck and name == "jump":
            # some rows ask for a level inside the jump, which no x attains
            inside = rng.random(n) < 0.3
            targets[inside] = 0.5
            roots[inside] = 0.25
        if shared:
            lo, hi = -1.0 - rng.uniform(0.0, 2.0), 1.5 + rng.uniform(0.0, 2.0)
        else:
            lo, hi = roots - rng.uniform(0.0, 1.0, n), roots + rng.uniform(0.0, 1.0, n)
        x0 = {"none": None, "near": roots + rng.normal(0.0, 1e-9, n),
              "far": rng.uniform(-4.0, 4.0, n)}[warm]
        if warm == "near" and n > 1:
            x0[0] = roots[0]  # a start exactly at a root
        assert_same_as_reference(f, fprime, (targets, lo, hi),
                                 dict(tol=10.0 ** rng.uniform(-15, -8), max_iter=max_iter, x0=x0))

    def test_every_open_row_closes_at_once_by_the_stuck_rule(self):
        # two steep rows whose roots 1 + 1e-16 and 1 + 2e-16 lie between the
        # floats 1 and 1 + 2.2e-16: both get stuck at the third step and close
        # there, as one ulp of x explains their residuals, with no row left to evaluate
        f, fprime = INVERSION_PROBLEMS["steep"]
        calls, targets = CountingFn(f), np.array([1e-8, 2e-8])
        x = invert_increasing(calls, fprime, targets, 0.5, 1.5, tol=1e-12)
        assert np.array_equal(x, [1.0, 1.0 + np.spacing(1.0)])
        assert [c.size for c in calls.calls] == [2, 2, 2]
        assert_same_as_reference(f, fprime, (targets, 0.5, 1.5), dict(tol=1e-12))


class TestInvertOneRowAgainstReference:
    """The one-row loop on floats against the array loop of tests/_oracles.py, bit for bit."""

    root = 0.7
    # (level, root) that no float64 x attains: steep's root 1 + 1e-16 lies between
    # two floats, one ulp of x apart, which move f by 2.2e-8, so the row closes by
    # the rule for a row that cannot move; jump's 0.5 lies inside its jump at 0.25
    unattained_levels = {"steep": (1e-8, 1.0), "jump": (0.5, 0.25)}

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 200])
    @pytest.mark.parametrize("warm", ["none", "near", "far"])
    @pytest.mark.parametrize("bounds", ["scalar", "array"])
    @pytest.mark.parametrize("name, unattained",
                             [(name, False) for name in sorted(INVERSION_PROBLEMS)]
                             + [(name, True) for name in sorted(unattained_levels)])
    def test_same_iterates_results_and_errors(self, name, unattained, bounds, warm, max_iter):
        f, fprime = INVERSION_PROBLEMS[name]
        level, root = self.unattained_levels[name] if unattained else (f(self.root), self.root)
        targets = np.array([level])
        lo, hi = ((-1.0, 1.5) if bounds == "scalar"
                  else (np.array([root - 0.3]), np.array([root + 0.9])))
        x0 = {"none": None, "near": np.array([root + 1e-9]), "far": np.array([3.0])}[warm]
        assert_same_as_reference(f, fprime, (targets, lo, hi),
                                 dict(tol=1e-12, max_iter=max_iter, x0=x0))

    @pytest.mark.parametrize("slope", [0.0, -0.0])
    @pytest.mark.parametrize("x0", [None, 1.5])
    def test_zero_slope_divides_as_numpy(self, slope, x0):
        # err / 0 is +-inf, not a ZeroDivisionError: each step bisects
        f, fprime = INVERSION_PROBLEMS["nan_slope"][0], lambda x: np.full_like(x, slope)
        for max_iter in (1, 3, 200):
            assert_same_as_reference(f, fprime, (f(np.array([0.7])), -1.0, 1.5),
                                     dict(tol=0.0, max_iter=max_iter,
                                          x0=None if x0 is None else np.array([x0])))

    @pytest.mark.parametrize("target, hi", [(np.inf, 1.5), (0.5, np.inf)])
    def test_an_infinite_target_or_bound_stalls_as_numpy_spaces_it(self, target, hi):
        # np.spacing is NaN at inf, where math.ulp is inf: no such row closes on the floor
        f, fprime = INVERSION_PROBLEMS["tanh"]
        assert_same_as_reference(f, fprime, (np.array([target]), -1.0, hi), dict(tol=1e-12))

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    @pytest.mark.parametrize("name", sorted(INVERSION_PROBLEMS))
    def test_result_and_iterates_are_shaped_like_the_targets(self, name, shape):
        f, fprime = INVERSION_PROBLEMS[name]
        targets = f(np.array([self.root])).reshape(shape)
        for max_iter in (1, 200):
            assert_same_as_reference(f, fprime, (targets, -1.0, 1.5),
                                     dict(tol=1e-12, max_iter=max_iter, x0=np.array([3.0])))


def break_fits(monkeypatch, kind):
    """Make every Chebyshev fit wrong: shifted by 1e-3, or NaN, so none certifies.

    Lowers _DENSE_SIZE to 8, so inversions with more than 8 centres and at
    least 8 targets try a fit. Returns the list of requested degrees, one per fit.
    """
    fits = []

    def broken(values):
        fits.append(values.size - 1)
        coef = fit(values)
        return coef + 1e-3 if kind == "shifted" else np.full_like(coef, np.nan)

    fit = gaussian._chebyshev_fit
    monkeypatch.setattr(gaussian, "_DENSE_SIZE", 8)
    monkeypatch.setattr(gaussian, "_chebyshev_fit", broken)
    return fits


class TestResidualContract:
    """Every returned row meets tol, deep in both tails, cold and warm."""

    tol = 1e-13

    @staticmethod
    def tail_levels(rng, n=14):
        return 10.0 ** rng.uniform(-14.0, -1.0, n)

    def check_mixture_quantiles(self, s, mid=6):
        # rows are checked on the dense formula; mid levels between the tails
        rng = np.random.default_rng(int(s * 1e4) + 17)
        for _ in range(4):
            n = int(rng.integers(1, 30))
            alpha = g.make_grid_measure(rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 1.0, n))
            low, high = self.tail_levels(rng), self.tail_levels(rng)
            cum = np.concatenate([low, rng.uniform(0.1, 0.9, mid), 1.0 - high])
            tails = np.concatenate([1.0 - cum[:-high.size], high])
            cold = mixture_quantiles(alpha, s, cum, tails)
            warm = mixture_quantiles(alpha, s, cum, tails,
                                     x0=cold + rng.normal(0.0, np.sqrt(s), cold.size))
            lower = cum <= 0.5
            for q in (cold, warm):
                cdf = gaussian._gauss_sweep(q, alpha.atoms, alpha.weights, s, False)
                sf = gaussian._gauss_sweep(-q, -alpha.atoms, alpha.weights, s, False)
                assert np.all(np.abs(cdf[lower] - cum[lower]) <= self.tol)
                assert np.all(np.abs(sf[~lower] - tails[~lower]) <= self.tol)

    def check_heat_convolve_inverse(self, s, mid=6):
        rng = np.random.default_rng(int(s * 1e4) + 29)
        for _ in range(4):
            n = int(rng.integers(1, 30))
            fn = g.StepFn(np.sort(rng.uniform(-3.0, 3.0, n)),
                          np.cumsum(np.concatenate([[rng.uniform(-2.0, 2.0)],
                                                    rng.uniform(0.01, 1.0, n)])))
            span = fn.upper - fn.lower
            small = self.tail_levels(rng)
            y = np.concatenate([fn.lower + span * small,
                                fn.lower + span * rng.uniform(0.1, 0.9, mid),
                                fn.upper - span * small])
            cold = heat_convolve_inverse(fn, s, y, self.tol)
            warm = heat_convolve_inverse(fn, s, y, self.tol,
                                         x0=cold + rng.normal(0.0, np.sqrt(s), cold.size))
            for x in (cold, warm):
                smoothed = fn.levels[0] + gaussian._gauss_sweep(x, fn.thresholds, fn.jumps, s,
                                                                False)
                assert np.all(np.abs(smoothed - y) <= self.tol)

    @pytest.mark.parametrize("s", [1e-4, 0.01, 1.0, 4.0])
    def test_mixture_quantiles(self, s):
        self.check_mixture_quantiles(s)

    @pytest.mark.parametrize("s", [1e-4, 0.01, 1.0, 4.0])
    def test_heat_convolve_inverse(self, s):
        self.check_heat_convolve_inverse(s)

    def test_solver_inversions_on_bench_pairs(self, bench):
        # the two inversions of the fixed point against the dense formula, with
        # 2^-47 of the map's range on top of tol for the dense sweep's own rounding
        csol = bench.arithmetic.component_solutions[0]
        target, source, alpha, fn = csol.target, csol.source, csol.alpha, csol.fn
        mean = alpha.mean
        spread = g.make_grid_measure(mean + 1.001 * (alpha.atoms - mean), alpha.weights)
        cum, tails = target.cum_weights[:-1], target.tail_weights[:-1]
        lower = cum <= 0.5
        for a in (alpha, spread):
            for warm in (None, fn.thresholds):
                thr = g.monotone_rearrangement(target, a, warm_thresholds=warm).thresholds
                cdf = gaussian._gauss_sweep(thr, a.atoms, a.weights, 1.0, False)
                sf = gaussian._gauss_sweep(-thr, -a.atoms, a.weights, 1.0, False)
                err = np.where(lower, np.abs(cdf - cum), np.abs(sf - tails))
                assert err.max() <= gaussian._MIXTURE_TOL + 2.0 ** -47
        for warm in (None, alpha.atoms):
            atoms = g.update_alpha(source, fn, warm_atoms=warm).atoms
            smoothed = fn.levels[0] + gaussian._gauss_sweep(atoms, fn.thresholds, fn.jumps,
                                                            1.0, False)
            assert (np.abs(smoothed - source.atoms).max()
                    <= gaussian._MIXTURE_TOL + 2.0 ** -47 * (fn.upper - fn.lower))

    @pytest.mark.parametrize("kind", ["shifted", "nan"])
    @pytest.mark.parametrize("s", [1e-4, 0.01, 1.0, 4.0])
    def test_broken_proxy_only_seeds(self, s, kind, monkeypatch):
        # a broken proxy of the smoothed map, its Chebyshev fit shifted or NaN,
        # never certifies: each inversion with more than 8 atoms tries one, then
        # solves on the dense path, where every row still meets tol. A fit of
        # degree 9 L / sqrt(s) over a bracket of half-width L < 3 + 8 sqrt(s)
        # needs 2 degree + 1 targets, so mid levels are added up to that
        fits = break_fits(monkeypatch, kind)
        mid = int(2 * 9.0 * (3.0 / np.sqrt(s) + 8.0)) + 1
        self.check_mixture_quantiles(s, mid)
        mixture_fits = len(fits)
        self.check_heat_convolve_inverse(s, mid)
        assert mixture_fits and len(fits) > mixture_fits


def rows_counter(monkeypatch):
    """Count rows and certified fits of the Gaussian sums and inversions.

    exact: rows asked of the mixture CDF/SF and of StepFn smoothing, on
    whichever path the sum takes, the one-target inversion's pair passes
    (_OneRow.pair) included. fits: _certified_chebyshev calls, made by
    a Gaussian sum or an inversion; fit_rows: the dense rows they take.
    dense: every other row of the dense kernel, the density's included.
    """
    rows = {"exact": 0, "fits": 0, "fit_rows": 0, "dense": 0}
    fitting = []

    def counted(f):
        def wrapper(first, s, x, *args):
            rows["exact"] += np.size(x)
            return f(first, s, x, *args)
        return wrapper

    certify, sweep = gaussian._certified_chebyshev, gaussian._gauss_sweep

    def counted_certify(*args):
        rows["fits"] += 1
        fitting.append(True)
        try:
            return certify(*args)
        finally:
            fitting.pop()

    def counted_sweep(x, *args):
        rows["fit_rows" if fitting else "dense"] += x.size
        return sweep(x, *args)

    monkeypatch.setattr(gaussian, "smoothed_cdf", counted(gaussian.smoothed_cdf))
    monkeypatch.setattr(gaussian, "smoothed_sf", counted(gaussian.smoothed_sf))
    monkeypatch.setattr(g.StepFn, "heat_convolve", counted(g.StepFn.heat_convolve))
    pair = gaussian._OneRow.pair
    monkeypatch.setattr(gaussian._OneRow, "pair",
                        lambda one_row, x: rows.update(exact=rows["exact"] + x.size)
                        or pair(one_row, x))
    monkeypatch.setattr(gaussian, "_certified_chebyshev", counted_certify)
    monkeypatch.setattr(gaussian, "_gauss_sweep", counted_sweep)
    return rows


@pytest.fixture(params=[201, 1001])
def bench(request):
    """The benchmark's lognormal pair at 201 and at 1001 atoms."""
    return request.getfixturevalue(f"bench_{request.param}")


class TestClenshaw:
    """gaussian._clenshaw, the one evaluator of its Chebyshev series, is numpy's chebval."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 17, 45, 250, 400])
    @pytest.mark.parametrize("n_points", [1, 63, 20000])
    def test_equals_chebval_bit_for_bit(self, size, n_points):
        rng = np.random.default_rng(1000 * size + n_points)
        c = rng.standard_normal(size) * 0.97 ** np.arange(size)
        ends = np.array([-1.0, 0.0, 1.0])
        x = np.concatenate([ends, rng.uniform(-1.0, 1.0, max(n_points - 3, 0))])
        for xs in ([ends[[i]] for i in range(3)] if n_points == 1 else [x]):
            got, want = gaussian._clenshaw(xs, c), chebval(xs, c)
            assert got.shape == want.shape == xs.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_gaussian_calls_no_other_evaluator(self):
        assert not hasattr(gaussian, "chebval")


class TestInversionFit:
    """Each inversion of the fixed point fits its smoothed map once on the benchmark pairs."""

    def test_warm_solves_fit_once(self, bench, monkeypatch):
        csol = bench.arithmetic.component_solutions[0]
        # one fixed-point step away from the solution: alpha spread by 1e-3,
        # warm starts at the solution's thresholds and atoms
        mean = csol.alpha.mean
        alpha = g.make_grid_measure(mean + 1.001 * (csol.alpha.atoms - mean), csol.alpha.weights)
        rows = rows_counter(monkeypatch)
        g.monotone_rearrangement(csol.target, alpha, warm_thresholds=csol.fn.thresholds)
        solves = [rows.copy()]
        rows.update(dict.fromkeys(rows, 0))
        g.update_alpha(csol.source, csol.fn, warm_atoms=alpha.atoms)
        solves.append(rows.copy())
        # one certified fit per inversion, 69 to 93 dense rows here; beyond it,
        # measured: no dense row for the rearrangement and the bracket's two
        # for update_alpha, at both sizes
        assert [counts["fits"] for counts in solves] == [1, 1]
        assert [counts["dense"] for counts in solves] == [0, 2]

    def test_single_target_builds_no_fit(self, bench, monkeypatch):
        rows = rows_counter(monkeypatch)
        vol = g.sde_volatility(bench, 0, 0.5, 1.0)
        assert rows["fits"] == 0 and rows["exact"] > 0
        assert 0.3 < vol < 0.4


def count_fits(monkeypatch, shift: float = 0.0) -> list:
    """Record the degree of every _chebyshev_fit call; shift its coefficients when asked."""
    fits = []
    fit = gaussian._chebyshev_fit

    def counted(values):
        fits.append(values.size - 1)
        return fit(values) + shift

    monkeypatch.setattr(gaussian, "_chebyshev_fit", counted)
    return fits


def exact_sweep(fn, s, x, deriv):
    return fn.heat_convolve_deriv(s, x) if deriv else fn.heat_convolve(s, x)


def dense_sweep(fn, s, x, deriv):
    """fn * gamma_s or its slope with every kernel term evaluated: the sum's dense path."""
    if s == 0:
        return fn(x)
    sweep = gaussian._gauss_sweep(x, fn.thresholds, fn.jumps, s, deriv)
    return sweep if deriv else fn.levels[0] + sweep


class TestSmoothedValues:
    """The smoothed values fn * gamma_s of StepFn.heat_convolve(_deriv) against the dense sweep."""

    @staticmethod
    def points(fn, n=20000):
        return np.linspace(fn.thresholds[0] - 1.0, fn.thresholds[-1] + 1.0, n)

    @staticmethod
    def bound(fn, s, deriv):
        """2^-48 of the jumps' total, over sqrt(2 pi s) for the slope."""
        return 2.0 ** -48 * np.sum(fn.jumps) / (np.sqrt(2.0 * np.pi * s) if deriv else 1.0)

    @pytest.mark.parametrize("deriv", [False, True])
    @pytest.mark.parametrize("s", [0.99, 0.5, 0.1, 0.01])
    def test_certified_on_bench_pairs(self, bench, s, deriv, monkeypatch):
        fn = bench.arithmetic.component_solutions[0].fn
        x = self.points(fn)
        fits = count_fits(monkeypatch)
        got = exact_sweep(fn, s, x, deriv)
        assert fits
        assert np.max(np.abs(got - dense_sweep(fn, s, x, deriv))) <= self.bound(fn, s, deriv)

    @pytest.mark.parametrize("deriv", [False, True])
    def test_chopped_series_meets_the_bound(self, bench_1001, deriv, monkeypatch):
        fn = bench_1001.arithmetic.component_solutions[0].fn
        fits, kept = count_fits(monkeypatch), []
        certify = gaussian._certified_chebyshev

        def recorded(evaluate, a, b, *args):
            kept.append((a, b, certify(evaluate, a, b, *args)))
            return kept[-1][2]

        monkeypatch.setattr(gaussian, "_certified_chebyshev", recorded)
        exact_sweep(fn, 0.1, self.points(fn), deriv)
        [(a, b, coef)] = kept
        # the series certified at the last fitted degree, cut by a quarter or more
        assert coef.size <= 0.75 * (fits[-1] + 1)
        x = np.linspace(a, b, 5000)
        got = np.polynomial.chebyshev.chebval((x - 0.5 * (a + b)) / (0.5 * (b - a)), coef)
        want = gaussian._gauss_sweep(x, fn.thresholds, fn.jumps, 0.1, deriv)
        assert np.max(np.abs(got - want)) <= self.bound(fn, 0.1, deriv)

    @pytest.mark.parametrize("deriv", [False, True])
    def test_failed_certification_returns_the_exact_sweep(self, bench_201, deriv, monkeypatch):
        fn = bench_201.arithmetic.component_solutions[0].fn
        x = self.points(fn)
        fits = count_fits(monkeypatch, shift=1e-9)
        got = exact_sweep(fn, 0.5, x, deriv)
        # every doubling was tried until the cost rule stopped it
        assert len(fits) >= 2 and 2 * (2 * fits[-1]) + 1 > gaussian._FIT_SHARE * x.size
        assert np.array_equal(got, dense_sweep(fn, 0.5, x, deriv))

    @pytest.mark.parametrize("case", ["few points", "s = 0", "few thresholds", "empty cut"])
    def test_exact_cases_make_no_fit(self, bench_201, step_solution, case, monkeypatch):
        fn = bench_201.arithmetic.component_solutions[0].fn
        x, s = self.points(fn), 0.5
        if case == "few points":
            # fewer than 64 rows are swept densely
            x = np.linspace(x[0], x[-1], 40)
        elif case == "s = 0":
            s = 0.0
        elif case == "few thresholds":
            fn = step_solution.fn
        else:
            # the cut ends 8.8 sqrt(s) = 6.2 above the last threshold
            x = fn.thresholds[-1] + np.linspace(10.0, 11.0, x.size)
        fits = count_fits(monkeypatch)
        assert np.array_equal(fn.heat_convolve(s, x), dense_sweep(fn, s, x, False))
        assert fits == []

    def test_flow_sweeps_few_exact_rows(self, bench_1001, monkeypatch):
        # a dense sweep of t = 0.5 evaluates all 1000 x 12 Gauss-Hermite nodes,
        # 12 012 rows; the fit takes its nodes and check points, and tail rows
        # are swept densely
        rows = rows_counter(monkeypatch)
        g.marginal_flow(bench_1001, 0.5)
        assert rows["exact"] == 12012
        assert rows["fits"] >= 1 and rows["fit_rows"] + rows["dense"] <= 2000


def fit_outcomes(monkeypatch) -> list:
    """Record, per Gaussian sum that tries a fit, whether it certified."""
    outcomes = []
    certify = gaussian._certified_chebyshev

    def recorded(*args):
        coef = certify(*args)
        outcomes.append(coef is not None)
        return coef

    monkeypatch.setattr(gaussian, "_certified_chebyshev", recorded)
    return outcomes


class TestGaussSum:
    """The Gaussian sum against a term-by-term fsum, on the fitted and the dense path."""

    rng = np.random.default_rng(41)
    alpha = g.make_grid_measure(rng.normal(0.0, 0.5, 1000), rng.uniform(0.1, 1.0, 1000))

    def points(self, s):
        """4000 rows out to 6 sqrt(s) beyond the centres, and both infinities."""
        atoms, root = self.alpha.atoms, np.sqrt(s)
        inner = np.linspace(atoms[0] - 6.0 * root, atoms[-1] + 6.0 * root, 3998)
        return np.concatenate([[-np.inf], inner, [np.inf]])

    @pytest.mark.parametrize("kind", ["cdf", "sf", "density", "signed"])
    @pytest.mark.parametrize("s", [0.001, 0.01, 0.3, 1.0, 4.0])
    def test_against_fsum(self, s, kind, monkeypatch):
        c, w, density, sign = self.alpha.atoms, self.alpha.weights, kind == "density", 1.0
        x = self.points(s)
        outcomes = fit_outcomes(monkeypatch)
        if kind == "cdf":
            got = g.smoothed_cdf(self.alpha, s, x)
        elif kind == "sf":
            # the survival function is the CDF of the reflected mixture
            got, sign = smoothed_sf(self.alpha, s, x), -1.0
        else:
            # the partial-mean weights of max_covariance_smoothed change sign
            w = w * c if kind == "signed" else w
            got = gaussian._gauss_sum(x, c, w, s, density=density)
        # at s = 0.001 the fit's degree makes it cost more than the sweep:
        # 2 degree + 1 = 1141 rows against a quarter of 4000
        assert outcomes == [s != 0.001]
        rows = np.unique(np.concatenate([np.linspace(0, x.size - 1, 24).astype(int),
                                         np.arange(4), x.size - 1 - np.arange(4)]))
        want = np.array([gauss_sum_fsum(sign * y, sign * c, w, s, density) for y in x[rows]])
        err = np.abs(got[rows] - want)
        scale = np.sum(np.abs(w)) / (np.sqrt(2.0 * np.pi * s) if density else 1.0)
        assert np.all(err <= 2.0 ** -48 * scale)
        if kind in ("cdf", "sf"):
            # tail rows are swept densely and keep its relative accuracy
            # (1.3e-14 at most here, on both paths)
            tail = want <= 2.0 ** -20
            assert tail.sum() >= 4
            assert np.all(err[tail] <= 1e-13 * want[tail])

    @pytest.mark.parametrize("share", ["default", "inf"])
    def test_failed_certification_returns_the_dense_sweep(self, share, monkeypatch):
        c, w = self.alpha.atoms, self.alpha.weights
        x = self.points(1.0)[1:-1]
        if share == "inf":
            monkeypatch.setattr(gaussian, "_FIT_SHARE", np.inf)
        fits = count_fits(monkeypatch, shift=1e-9)
        got = g.smoothed_cdf(self.alpha, 1.0, x)
        assert fits and all(b == 2 * a for a, b in zip(fits, fits[1:]))
        # the loop stopped at the first degree it could not afford: by the cost
        # rule, or, with any share, once the fit's rows would reach the sweep's
        last, n_x = 2 * fits[-1], x.size
        assert (2 * last >= n_x if share == "inf"
                else 2 * last + 1 > gaussian._FIT_SHARE * n_x)
        assert np.array_equal(got, ndtr(x[:, None] - c[None, :]) @ w)

    def test_small_calls_make_no_fit(self, monkeypatch):
        outcomes = fit_outcomes(monkeypatch)
        few_rows = g.smoothed_cdf(self.alpha, 1.0, self.points(1.0)[1:64])
        few_centres = g.make_grid_measure(self.alpha.atoms[:64], self.alpha.weights[:64])
        g.smoothed_cdf(few_centres, 1.0, self.points(1.0))
        assert outcomes == [] and few_rows.size == 63


class TestProxy:
    """A fit's Chebyshev proxy of the centres against the dense sweep on the true centres."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(65, 3000), half=st.floats(0.1, 10.0), s=st.floats(1e-3, 4.0),
           density=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_within_its_a_priori_bound(self, n, half, s, density, seed):
        rng = np.random.default_rng(seed)
        mid, root = rng.uniform(-5.0, 5.0), np.sqrt(s)
        c = np.sort(mid + rng.uniform(-half, half, n))
        c[[0, -1]] = mid - half, mid + half
        w = rng.uniform(-1.0, 1.0, n)
        p = gaussian._proxy_degree(half / root, density)
        bound = chebyshev_interpolation_bound(p, half / root, density)
        assert bound <= 2.0 ** -52
        # signed weights, and a centre on a proxy, whose basis row is a unit vector
        c[n // 2] = gaussian._proxy(c, w, c[0], c[-1], p)[0][p // 2]
        nodes, weights = gaussian._proxy(c, w, c[0], c[-1], p)
        x = np.linspace(c[0] - 10.0 * root, c[-1] + 10.0 * root, 2000)
        err = np.abs(gaussian._gauss_sweep(x, nodes, weights, s, density)
                     - gaussian._gauss_sweep(x, c, w, s, density))
        scale = np.sum(np.abs(w)) / (np.sqrt(2.0 * np.pi * s) if density else 1.0)
        assert np.max(err) <= (bound + 2.0 ** -50) * scale

    def test_every_fit_of_a_solve_meets_the_dense_formula(self, monkeypatch):
        # the 1001-atom bench pair's solve, whose fits sample on proxies; each
        # certified fit is checked at 1000 points drawn in its cut
        cuts, fits, proxies = [], [], []
        certify, fit, proxy = (gaussian._certified_chebyshev, gaussian._gauss_fit,
                               gaussian._proxy)

        def recorded_certify(evaluate, a, b, *args):
            cuts.append((a, b))
            return certify(evaluate, a, b, *args)

        def recorded_fit(memo, s, span, density, *args):
            evaluate = fit(memo, s, span, density, *args)
            if evaluate is not None:
                fits.append((memo.centers, memo.weights, s, density, cuts[-1], evaluate))
            return evaluate

        def recorded_proxy(*args):
            proxies.append(args[-1])
            return proxy(*args)

        monkeypatch.setattr(gaussian, "_certified_chebyshev", recorded_certify)
        monkeypatch.setattr(gaussian, "_gauss_fit", recorded_fit)
        monkeypatch.setattr(gaussian, "_proxy", recorded_proxy)
        solve_bench_pair(1001)
        # measured: 17 proxies, at least one per inversion of each of the 7 outer iterations
        assert len(proxies) >= 14 and len(fits) >= len(proxies)
        rng = np.random.default_rng(24)
        for centers, weights, s, density, (a, b), evaluate in fits:
            x = rng.uniform(a, b, 1000)
            want = gaussian._gauss_sweep(x, centers, weights, s, density)
            scale = np.sum(np.abs(weights)) / (np.sqrt(2.0 * np.pi * s) if density else 1.0)
            assert np.max(np.abs(evaluate(x) - want)) <= 2.0 ** -48 * scale


class TestOneRowSums:
    """Sums of fewer than _DENSE_SIZE rows of a StepFn read its memo of proxies where they pay."""

    @staticmethod
    def fresh(request, grid_size):
        """The bench pair's solved fn, rebuilt so its memo starts empty."""
        fn = request.getfixturevalue(f"bench_{grid_size}").arithmetic.component_solutions[0].fn
        return g.StepFn(fn.thresholds, fn.levels)

    @pytest.mark.parametrize("density", [False, True])
    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("grid_size", [1001, 10001])
    def test_within_the_a_priori_bound_and_dense_in_the_tails(self, request, grid_size, s,
                                                               density):
        fn = self.fresh(request, grid_size)
        c, w, root = fn.thresholds, fn.jumps, np.sqrt(s)
        # across the widest bracket heat_convolve_inverse starts from, one row a call
        x = np.linspace(c[0] - 9.0 * root, c[-1] + 9.0 * root, 500)
        got = np.array([gaussian._gauss_sum(row, c, w, s, density, fn._proxies)[0] for row in x])
        want = gaussian._gauss_sweep(x, c, w, s, density)
        scale = np.sum(w) / (np.sqrt(2.0 * np.pi * s) if density else 1.0)
        # 2^-52 of the scale a priori, uniform in x, plus the sums' rounding
        assert np.max(np.abs(got - want)) <= (2.0 ** -52 + 2.0 ** -50) * scale
        assert np.any(got != want)
        tail = np.abs(want) <= 2.0 ** -21 * scale
        one_row = [gaussian._gauss_sweep(x[i:i + 1], c, w, s, density)[0]
                   for i in np.flatnonzero(tail)]
        assert tail.any() and np.array_equal(got[tail], one_row)

    @pytest.mark.parametrize("density", [False, True])
    def test_dense_where_no_proxy_degree_pays(self, request, monkeypatch, density):
        # at s = 1e-3 the 1001 thresholds need proxies of degree 1536 (1024 for the
        # density), which save too few kernel terms: every row is the dense sweep,
        # and no proxy is built
        fn, built, proxy = self.fresh(request, 1001), [], gaussian._proxy
        monkeypatch.setattr(gaussian, "_proxy",
                            lambda *args: built.append(args[-1]) or proxy(*args))
        c, w, s = fn.thresholds, fn.jumps, 1e-3
        p = gaussian._proxy_degree(0.5 * (c[-1] - c[0]) / np.sqrt(s), density)
        assert p == (1024 if density else 1536) and c.size - (p + 1) < gaussian._PROXY_GAIN
        x = np.linspace(c[0], c[-1], 40)
        got = [gaussian._gauss_sum(row, c, w, s, density, fn._proxies)[0] for row in x]
        want = [gaussian._gauss_sweep(x[i:i + 1], c, w, s, density)[0] for i in range(x.size)]
        assert got == want and built == []

    def test_a_fit_and_the_one_row_sums_share_the_memo(self, request, monkeypatch):
        fn, built, proxy = self.fresh(request, 1001), [], gaussian._proxy
        monkeypatch.setattr(gaussian, "_proxy",
                            lambda *args: built.append(args[-1]) or proxy(*args))
        x = np.linspace(fn.thresholds[0], fn.thresholds[-1], 2000)
        fn.heat_convolve(0.5, x)  # a fit sampled on the proxies of its degree
        [p] = built
        rows = [fn.heat_convolve(0.5, row) for row in x[::10]]
        dense = [fn.levels[0] + gaussian._gauss_sweep(x[i:i + 1], fn.thresholds, fn.jumps, 0.5,
                                                      False)[0] for i in range(0, x.size, 10)]
        assert built == [p] and rows != dense

    @pytest.mark.parametrize("grid_size, s, degrees", [
        (1001, 0.5, [64, 64]), (1001, 0.75, [64, 48]), (1001, 0.7, [64, 48]),
        (1001, 0.35, [96, 64]), (201, 0.5, None)])
    def test_pair_is_the_two_sweeps_bit_for_bit(self, request, grid_size, s, degrees):
        # the proxy degrees of the value and of the density agree, differ, or, at
        # 200 thresholds, none pays; rows in each kernel's 2^-20 tail included
        fn = self.fresh(request, grid_size)
        proxies, c, root = fn._proxies, fn.thresholds, np.sqrt(s)
        if degrees is None:
            assert proxies._saved < gaussian._PROXY_GAIN
        else:
            half = 0.5 * (c[-1] - c[0]) / root
            assert [gaussian._proxy_degree(half, density) for density in (False, True)] == degrees
        x = np.linspace(c[0] - 9.0 * root, c[-1] + 9.0 * root, 200)
        tail = 2.0 ** -20 * np.sum(fn.jumps)
        dense = [gaussian._gauss_sweep(x, c, fn.jumps, s, density) for density in (False, True)]
        assert np.any(dense[0] <= tail) and np.any(dense[1] <= tail / np.sqrt(2.0 * np.pi * s))
        for rows in [x[i:i + 1] for i in range(x.size)] + [x[:3], x[::40]]:
            value, slope = gaussian._OneRow(proxies, s).pair(rows)
            assert value.tobytes() == gaussian._OneRow(proxies, s).sweep(rows, False).tobytes()
            assert slope.tobytes() == gaussian._OneRow(proxies, s).sweep(rows, True).tobytes()
