import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from _oracles import central_difference, normal_cdf_series


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
        with pytest.raises(ValueError):
            g.StepFn([0.0, 0.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            g.StepFn([0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            g.StepFn([0.0], [1.0])

    def test_image_bounds(self):
        step = g.StepFn([0.0], [0.5, 2.0])
        assert step.lower == 0.5
        assert step.upper == 2.0


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


def break_proxy(monkeypatch, proxy, s):
    """Fit a wrong Chebyshev proxy on every call: shifted by sqrt(s), or NaN.

    Fits are capped at degree 64, which keeps them cheap and, at small s,
    wrong twice over. Returns the list of requested degrees, one per fit.
    """
    fits = []

    def broken(f, a, b, degree):
        fits.append(degree)
        coef = fit(f, a, b, min(degree, 64))
        return coef + np.sqrt(s) if proxy == "shifted" else np.full_like(coef, np.nan)

    fit = gaussian._chebyshev_fit
    monkeypatch.setattr(gaussian, "_FIT_SHARE", np.inf)
    monkeypatch.setattr(gaussian, "_chebyshev_fit", broken)
    return fits


class TestResidualContract:
    """Every returned row meets tol, deep in both tails, cold and warm."""

    tol = 1e-13

    @staticmethod
    def tail_levels(rng, n=14):
        return 10.0 ** rng.uniform(-14.0, -1.0, n)

    def check_mixture_quantiles(self, s):
        rng = np.random.default_rng(int(s * 1e4) + 17)
        for _ in range(4):
            n = int(rng.integers(1, 30))
            alpha = g.make_grid_measure(rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 1.0, n))
            low, high = self.tail_levels(rng), self.tail_levels(rng)
            cum = np.concatenate([low, rng.uniform(0.1, 0.9, 6), 1.0 - high])
            tails = np.concatenate([1.0 - cum[:-high.size], high])
            cold = mixture_quantiles(alpha, s, cum, tails)
            warm = mixture_quantiles(alpha, s, cum, tails,
                                     x0=cold + rng.normal(0.0, np.sqrt(s), cold.size))
            lower = cum <= 0.5
            for q in (cold, warm):
                assert np.all(np.abs(g.smoothed_cdf(alpha, s, q[lower]) - cum[lower])
                              <= self.tol)
                assert np.all(np.abs(smoothed_sf(alpha, s, q[~lower]) - tails[~lower])
                              <= self.tol)

    def check_heat_convolve_inverse(self, s):
        rng = np.random.default_rng(int(s * 1e4) + 29)
        for _ in range(4):
            n = int(rng.integers(1, 30))
            fn = g.StepFn(np.sort(rng.uniform(-3.0, 3.0, n)),
                          np.cumsum(np.concatenate([[rng.uniform(-2.0, 2.0)],
                                                    rng.uniform(0.01, 1.0, n)])))
            span = fn.upper - fn.lower
            small = self.tail_levels(rng)
            y = np.concatenate([fn.lower + span * small,
                                fn.lower + span * rng.uniform(0.1, 0.9, 6),
                                fn.upper - span * small])
            cold = heat_convolve_inverse(fn, s, y, self.tol)
            warm = heat_convolve_inverse(fn, s, y, self.tol,
                                         x0=cold + rng.normal(0.0, np.sqrt(s), cold.size))
            for x in (cold, warm):
                assert np.all(np.abs(fn.heat_convolve(s, x) - y) <= self.tol)

    @pytest.mark.parametrize("s", [1e-4, 0.01, 1.0, 4.0])
    def test_mixture_quantiles(self, s):
        self.check_mixture_quantiles(s)

    @pytest.mark.parametrize("s", [1e-4, 0.01, 1.0, 4.0])
    def test_heat_convolve_inverse(self, s):
        self.check_heat_convolve_inverse(s)

    @pytest.mark.parametrize("proxy", ["shifted", "nan"])
    @pytest.mark.parametrize("s", [1e-4, 0.01, 1.0, 4.0])
    def test_broken_proxy_only_seeds(self, s, proxy, monkeypatch):
        # a wrong proxy fitted on every call: the exact check alone decides
        # which rows are returned
        fits = break_proxy(monkeypatch, proxy, s)
        self.check_mixture_quantiles(s)
        self.check_heat_convolve_inverse(s)
        assert len(fits) == 16


def rows_counter(monkeypatch):
    """Count rows of the exact mixture CDF/SF and StepFn smoothing, and proxy fit nodes."""
    rows = {"exact": 0, "fit": 0, "fits": 0}

    def counted(f):
        def wrapper(first, s, x, *args):
            rows["exact"] += np.size(x)
            return f(first, s, x, *args)
        return wrapper

    fit = gaussian._chebyshev_fit

    def counted_fit(f, a, b, degree):
        rows["fit"] += degree + 1
        rows["fits"] += 1
        return fit(f, a, b, degree)

    monkeypatch.setattr(gaussian, "smoothed_cdf", counted(gaussian.smoothed_cdf))
    monkeypatch.setattr(gaussian, "smoothed_sf", counted(gaussian.smoothed_sf))
    monkeypatch.setattr(g.StepFn, "heat_convolve", counted(g.StepFn.heat_convolve))
    monkeypatch.setattr(gaussian, "_chebyshev_fit", counted_fit)
    return rows


@pytest.fixture(params=[201, 1001])
def bench(request):
    """The benchmark's lognormal pair at 201 and at 1001 atoms."""
    return request.getfixturevalue(f"bench_{request.param}")


class TestChebyshevProxy:
    """The proxy of the smoothed map seeds the exact solve on the benchmark pairs."""

    def test_warm_solves_close_at_the_seed(self, bench, monkeypatch):
        csol = bench.arithmetic.component_solutions[0]
        # one fixed-point step away from the solution: alpha spread by 1e-3,
        # warm starts at the solution's thresholds and atoms
        mean = csol.alpha.mean
        alpha = g.make_grid_measure(mean + 1.001 * (csol.alpha.atoms - mean), csol.alpha.weights)
        rows = rows_counter(monkeypatch)
        fn = g.monotone_rearrangement(csol.target, alpha, warm_thresholds=csol.fn.thresholds)
        assert rows["fits"] == 1
        assert rows["exact"] - rows["fit"] <= 1.2 * fn.thresholds.size
        rows.update(exact=0, fit=0, fits=0)
        g.update_alpha(csol.source, fn, warm_atoms=alpha.atoms)
        assert rows["fits"] == 1
        assert rows["exact"] - rows["fit"] <= 1.2 * csol.source.n

    def test_single_target_builds_no_proxy(self, bench, monkeypatch):
        rows = rows_counter(monkeypatch)
        vol = g.sde_volatility(bench, 0, 0.5, 1.0)
        assert rows["fits"] == 0 and rows["exact"] > 0
        assert 0.3 < vol < 0.4


def count_fits(monkeypatch, shift: float = 0.0) -> list:
    """Record the degree of every _chebyshev_fit call; shift its coefficients when asked."""
    fits = []
    fit = gaussian._chebyshev_fit

    def counted(f, a, b, degree):
        fits.append(degree)
        return fit(f, a, b, degree) + shift

    monkeypatch.setattr(gaussian, "_chebyshev_fit", counted)
    return fits


def exact_sweep(fn, s, x, deriv):
    return fn.heat_convolve_deriv(s, x) if deriv else fn.heat_convolve(s, x)


class TestSmoothedValues:
    """The certified surface of fn * gamma_s against the exact sweep."""

    @staticmethod
    def points(fn, n=20000):
        return np.linspace(fn.thresholds[0] - 1.0, fn.thresholds[-1] + 1.0, n)

    @pytest.mark.parametrize("deriv", [False, True])
    @pytest.mark.parametrize("s", [0.99, 0.5, 0.1, 0.01])
    def test_certified_on_bench_pairs(self, bench, s, deriv, monkeypatch):
        fn = bench.arithmetic.component_solutions[0].fn
        x = self.points(fn)
        fits = count_fits(monkeypatch)
        got = gaussian.smoothed_values(fn, s, x, deriv)
        exact = exact_sweep(fn, s, x, deriv)
        scale = np.max(exact) if deriv else fn.upper - fn.lower
        assert fits
        assert np.max(np.abs(got - exact)) <= 1e-13 * scale

    @pytest.mark.parametrize("deriv", [False, True])
    def test_failed_certification_returns_the_exact_sweep(self, bench_201, deriv, monkeypatch):
        fn = bench_201.arithmetic.component_solutions[0].fn
        x = self.points(fn)
        fits = count_fits(monkeypatch, shift=1e-9)
        got = gaussian.smoothed_values(fn, 0.5, x, deriv)
        # every doubling was tried until the cost rule stopped it
        assert len(fits) >= 2 and 2 * (2 * fits[-1]) + 1 > gaussian._FIT_SHARE * x.size
        assert np.array_equal(got, exact_sweep(fn, 0.5, x, deriv))

    @pytest.mark.parametrize("case", ["few points", "s = 0", "few thresholds", "empty cut"])
    def test_exact_cases_make_no_fit(self, bench_201, step_solution, case, monkeypatch):
        fn = bench_201.arithmetic.component_solutions[0].fn
        x, s = self.points(fn), 0.5
        if case == "few points":
            # the first degree is 51: fit plus certification cost 103 rows, above 40 / 4
            x = np.linspace(x[0], x[-1], 40)
        elif case == "s = 0":
            s = 0.0
        elif case == "few thresholds":
            fn = step_solution.fn
        else:
            # the cut ends 8.8 sqrt(s) = 6.2 above the last threshold
            x = fn.thresholds[-1] + np.linspace(10.0, 11.0, x.size)
        fits = count_fits(monkeypatch)
        assert np.array_equal(gaussian.smoothed_values(fn, s, x), fn.heat_convolve(s, x))
        assert fits == []

    def test_flow_sweeps_few_exact_rows(self, bench_1001, monkeypatch):
        # an exact sweep of t = 0.5 evaluates all 1000 x 12 Gauss-Hermite nodes, 12 012 rows
        rows = rows_counter(monkeypatch)
        g.marginal_flow(bench_1001, 0.5)
        assert rows["fits"] >= 1 and rows["exact"] <= 2000
