import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import gbass as g
from gbass import bass_solver
from gbass.bass_solver import ConvergenceError, _terminal_level_masses
from gbass.measures import MeasureError
from conftest import bench_pair, dilate, fuzz_pair, lognormal_measure, random_positive_measure


class TestMonotoneRearrangement:
    def test_median_split(self):
        nu1 = g.make_grid_measure([0.0, 2.0], [0.5, 0.5])
        alpha = g.make_grid_measure([0.0], [1.0])
        fn = g.monotone_rearrangement(nu1, alpha)
        assert fn.thresholds == pytest.approx([0.0], abs=1e-12)
        assert fn.levels.tolist() == [0.0, 2.0]

    def test_constant_target(self):
        nu1 = g.make_grid_measure([3.7], [1.0])
        alpha = g.make_grid_measure([-1.0, 2.0], [0.5, 0.5])
        fn = g.monotone_rearrangement(nu1, alpha)
        assert fn(np.array([-10.0, 0.0, 10.0])).tolist() == [3.7, 3.7, 3.7]
        assert _terminal_level_masses(fn, alpha).tolist() == [1.0]

    def test_gaussian_target_recovers_identity(self):
        # pushing gamma_1 onto a fine discretization of itself is near-identity
        z = np.linspace(-5, 5, 2001)
        mids = 0.5 * (z[:-1] + z[1:])
        w = np.diff(ndtr(z))
        nu1 = g.make_grid_measure(mids, w)
        alpha = g.make_grid_measure([0.0], [1.0])
        fn = g.monotone_rearrangement(nu1, alpha)
        xs = np.linspace(-3, 3, 121)
        assert np.max(np.abs(fn(xs) - xs)) < 0.006

    def test_level_set_masses(self):
        nu1 = g.make_grid_measure([0.0, 1.0, 5.0], [0.2, 0.5, 0.3])
        alpha = g.make_grid_measure([-1.0, 1.5], [0.4, 0.6])
        fn = g.monotone_rearrangement(nu1, alpha)
        masses = _terminal_level_masses(fn, alpha)
        assert np.max(np.abs(masses - nu1.weights)) < 1e-12

    @pytest.mark.parametrize("a", [0.3, -0.3, -5e-324, 0.0])
    def test_tie_repair_cascades(self, a, monkeypatch):
        # a tie followed by the next float: lifting the tie one ulp makes a
        # new tie with the threshold after it, which must be lifted in turn
        b = np.nextafter(a, np.inf)
        solved = np.array([-0.9, a, a, b, 0.9])
        monkeypatch.setattr(bass_solver, "mixture_quantiles", lambda *args, **kw: solved.copy())
        nu1 = g.make_grid_measure(np.arange(6.0), np.full(6, 1.0 / 6.0))
        fn = g.monotone_rearrangement(nu1, g.make_grid_measure([0.0], [1.0]))
        assert fn.thresholds.tolist() == [-0.9, a, b, np.nextafter(b, np.inf), 0.9]

    def test_deep_tail_pair_solves(self):
        # target masses down to 8.6e-17: deep-tail thresholds land within an
        # ulp or two of each other, and lifting one tie can make the next
        mu0, mu1 = lognormal_measure(-0.02, 0.2, 201), lognormal_measure(-0.08, 0.4, 201)
        csol = g.solve_geometric(mu0, mu1).arithmetic.component_solutions[0]
        assert np.all(np.diff(csol.fn.thresholds) > 0)
        assert max(csol.residual_source, csol.residual_target) <= 1e-10

    def test_deep_tail_masses_stay_nonnegative(self):
        # at 401 atoms the mixture CDF at the last threshold rounds above one,
        # so 1 - CDF would give the top level a mass of -2.2e-16; survival
        # differences keep the tail masses at their targets' 9e-18 and above
        mu0, mu1 = lognormal_measure(-0.02, 0.2, 401), lognormal_measure(-0.08, 0.4, 401)
        sol = g.solve_geometric(mu0, mu1)
        csol = sol.arithmetic.component_solutions[0]
        masses = _terminal_level_masses(csol.fn, csol.alpha)
        assert np.all(masses >= 0)
        assert np.max(np.abs(masses[-3:] / csol.target.weights[-3:] - 1.0)) <= 1e-4
        tolerance = g.SolverParams().fit_tolerance
        assert max(csol.residual_source, csol.residual_target) <= tolerance

    def test_tie_repair_keeps_increasing_thresholds(self, monkeypatch):
        solved = np.array([-1e300, -2.5, -0.0, 5e-324, 1e-300, 7.0])
        monkeypatch.setattr(bass_solver, "mixture_quantiles", lambda *args, **kw: solved.copy())
        nu1 = g.make_grid_measure(np.arange(7.0), np.full(7, 1.0 / 7.0))
        fn = g.monotone_rearrangement(nu1, g.make_grid_measure([0.0], [1.0]))
        assert np.array_equal(fn.thresholds, solved)


class TestUpdateAlpha:
    def test_step_target(self):
        fn = g.StepFn([0.0], [0.0, 2.0])
        alpha = g.update_alpha(g.make_grid_measure([1.0], [1.0]), fn)
        assert alpha.atoms == pytest.approx([0.0], abs=1e-11)

    def test_affine_map(self):
        fn = g.CallableFn(lambda y: y + 1.0)
        alpha = g.update_alpha(g.make_grid_measure([1.0], [1.0]), fn)
        assert alpha.atoms == pytest.approx([0.0], abs=1e-11)

    def test_exponential_map(self):
        fn = g.CallableFn(lambda y: np.exp(0.2 * y - 0.02), lower=0.0)
        alpha = g.update_alpha(g.make_grid_measure([1.0], [1.0]), fn)
        assert alpha.atoms == pytest.approx([0.0], abs=1e-9)

    def test_outside_image_rejected(self):
        fn = g.StepFn([0.0], [0.0, 2.0])
        with pytest.raises(ValueError, match="image"):
            g.update_alpha(g.make_grid_measure([2.5], [1.0]), fn)

    def test_preserves_order_and_weights(self):
        fn = g.StepFn([-0.6, 0.4], [0.0, 1.0, 3.0])
        nu0 = g.make_grid_measure([0.8, 1.1, 2.1], [0.2, 0.3, 0.5])
        alpha = g.update_alpha(nu0, fn)
        assert np.all(np.diff(alpha.atoms) > 0)
        assert alpha.weights.tolist() == nu0.weights.tolist()
        vals = fn.heat_convolve(1.0, alpha.atoms)
        assert np.max(np.abs(vals - nu0.atoms)) < 1e-11


class TestSolveComponent:
    def test_step_case_fixed_point(self, step_solution):
        assert step_solution.iterations <= 2
        assert step_solution.alpha.atoms == pytest.approx([0.0], abs=1e-10)
        assert step_solution.fn.thresholds == pytest.approx([0.0], abs=1e-10)
        assert step_solution.residual_source <= 1e-12
        assert step_solution.residual_target <= 1e-12

    def test_gbm_generating_function(self):
        nu0 = g.make_grid_measure([1.0], [1.0])
        nu1 = lognormal_measure(-0.02, 0.2, 4001)
        sol = g.solve_component(nu0, nu1)
        assert g.wasserstein1(sol.alpha, g.make_grid_measure([0.0], [1.0])) < 1e-6
        xs = np.linspace(-4, 4, 801)
        assert np.max(np.abs(sol.fn(xs) - np.exp(0.2 * xs - 0.02))) < 1e-3

    def test_symmetric_dilation(self):
        nu0 = g.make_grid_measure([0.0], [1.0])
        nu1 = g.make_grid_measure([-1.0, 1.0], [0.5, 0.5])
        sol = g.solve_component(nu0, nu1)
        assert sol.alpha.atoms == pytest.approx([0.0], abs=1e-10)
        assert sol.fn.thresholds == pytest.approx([0.0], abs=1e-10)
        assert sol.fn.levels.tolist() == [-1.0, 1.0]

    def test_rejects_reducible(self, two_component_pair):
        with pytest.raises(MeasureError, match="irreducible"):
            g.solve_component(*two_component_pair)

    def test_rejects_wrong_order(self):
        with pytest.raises(MeasureError, match="convex order"):
            g.solve_component(g.make_grid_measure([0.0, 2.0], [0.5, 0.5]),
                              g.make_grid_measure([1.0], [1.0]))

    def test_nonconvergence_reports_residuals(self, step_pair):
        params = g.SolverParams(step_tolerance=1e-18, max_iterations=3)
        nu0 = g.make_grid_measure([0.9, 1.1], [0.5, 0.5])
        nu1 = g.make_grid_measure([0.4, 0.9, 1.3, 1.8], [0.25, 0.3, 0.25, 0.2])
        nu1 = g.make_grid_measure(nu1.atoms + (nu0.mean - nu1.mean), nu1.weights)
        with pytest.raises(ConvergenceError) as err:
            g.solve_component(nu0, nu1, params)
        assert err.value.iterations == 3
        assert np.isfinite(err.value.residual_source)

    def test_a_fixed_point_above_fit_tolerance_reports_its_residuals(self):
        # the 41-atom lognormal pair reaches its fixed point in 7 iterations with
        # residuals 4.7e-14 / 1.3e-14, which no tolerance below them accepts
        pair = bench_pair(41)
        [csol] = g.solve_geometric(*pair).arithmetic.component_solutions
        with pytest.raises(ConvergenceError, match="fixed point reached") as err:
            g.solve_geometric(*pair, g.SolverParams(fit_tolerance=1e-30))
        got = err.value.residual_source, err.value.residual_target, err.value.iterations
        assert got == (csol.residual_source, csol.residual_target, csol.iterations)
        assert csol.iterations == 7 and 1e-30 < min(got[:2]) <= max(got[:2]) <= 1e-13

    @pytest.mark.parametrize("seed", [12, 20, 29])
    def test_one_atom_components_stop_modulo_translation(self, seed):
        # each atom spread into two is a one-atom component whose pair is solved
        # at every iterate, while alpha may keep drifting by a common shift
        rng = np.random.default_rng(seed)
        mu0 = random_positive_measure(rng, 6)
        mu1 = dilate(mu0, rng, 1e-4)
        gsol = g.solve_geometric(mu0, mu1, g.SolverParams(max_iterations=100))
        iterations = [c.iterations for c in gsol.arithmetic.component_solutions]
        assert len(iterations) == mu0.n and max(iterations) <= 2


    def test_steps_record_each_outer_iteration(self, bench_201):
        csol = bench_201.arithmetic.component_solutions[0]
        assert len(csol.steps) == csol.iterations <= 7
        assert csol.steps[-1] < g.SolverParams().step_tolerance

    @pytest.mark.parametrize("spread, index, aitken_iterations",
                             [(0.6, 6, 572), (0.9, 10, 225), (0.9, 21, 59)])
    def test_hard_fuzz_pairs(self, spread, index, aitken_iterations):
        # tail clusters of alpha far from the bulk, which drift at a constant
        # rate under the plain map; the counts are those of the Aitken-jump
        # loop that the Anderson accelerator replaced
        mu0, mu1 = fuzz_pair(spread, index)
        gsol = g.solve_geometric(mu0, mu1)
        for csol in gsol.arithmetic.component_solutions:
            assert csol.iterations <= aitken_iterations
            assert csol.alpha.n == csol.source.n


# derandomized, so the sample is the same on every run
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       log_spread=st.floats(float(np.log(1e-6)), float(np.log(0.9))))
def test_dilation_pairs_solve(seed, log_spread):
    # every dilation is a valid pair, down to the smallest spreads, so any
    # exception (a MeasureError, a ConvergenceError) fails; its primal equals
    # its dual to the fit tolerance
    rng = np.random.default_rng(seed)
    mu0 = random_positive_measure(rng, 40)
    mu1 = dilate(mu0, rng, float(np.exp(log_spread)))
    params = g.SolverParams()
    gsol = g.solve_geometric(mu0, mu1, params)
    for csol in gsol.arithmetic.component_solutions:
        assert max(csol.residual_source, csol.residual_target) <= params.fit_tolerance
    report = g.make_value_report(gsol, 1.0, 1.0)
    assert abs(report.duality_gap) <= params.fit_tolerance * max(1.0, abs(report.geometric_primal))


class TestSolveDecomposed:
    def test_two_components(self, two_component_pair):
        sol = g.solve_decomposed(*two_component_pair)
        assert len(sol.component_solutions) == 2
        for csol, mean in zip(sol.component_solutions, (1.0, 3.0)):
            assert csol.source.mean == pytest.approx(mean)
            assert csol.target.mean == pytest.approx(mean)
        assert g.wasserstein1(g.terminal_law(sol), two_component_pair[1]) < 1e-12

    def test_identical_marginals(self):
        nu = g.make_grid_measure([1.0, 2.0], [0.5, 0.5])
        sol = g.solve_decomposed(nu, nu)
        assert sol.component_solutions == []
        assert sol.decomposition.identity_set_mass == pytest.approx(1.0)
        assert g.wasserstein1(g.terminal_law(sol), nu) == 0.0

    def test_matches_solve_component_on_irreducible(self, step_pair, step_solution):
        sol = g.solve_decomposed(*step_pair)
        assert len(sol.component_solutions) == 1
        csol = sol.component_solutions[0]
        assert g.wasserstein1(csol.alpha, step_solution.alpha) < 1e-12
        assert np.allclose(csol.fn.thresholds, step_solution.fn.thresholds, atol=1e-12)


class TestEvalSurface:
    def test_gbm_initial_value(self):
        nu0 = g.make_grid_measure([1.0], [1.0])
        sol = g.solve_component(nu0, lognormal_measure(-0.02, 0.2, 2001))
        assert g.eval_fn(sol, 0.0, 0.0) == pytest.approx(1.0, abs=1e-5)

    def test_step_initial_value(self, step_solution):
        assert g.eval_fn(step_solution, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_heat_kernel_identity_limit(self, step_solution):
        # away from the threshold the smoothed value approaches the raw level
        for x, level in ((-1.0, 0.0), (1.0, 2.0)):
            assert g.eval_fn(step_solution, 1.0 - 1e-4, x) == pytest.approx(level, abs=1e-3)
        assert g.eval_fn(step_solution, 1.0, 0.7) == 2.0

    @pytest.mark.parametrize("t", [-0.5, 1.5])
    @pytest.mark.parametrize("surface", [g.eval_fn, g.eval_fn_deriv], ids=["value", "slope"])
    def test_time_outside_the_unit_interval_raises(self, step_solution, surface, t):
        with pytest.raises(ValueError, match=rf"time {t} outside \[0, 1\]"):
            surface(step_solution, t, 0.0)

    def test_deriv_undefined_at_terminal_time(self, step_solution):
        with pytest.raises(ValueError):
            g.eval_fn_deriv(step_solution, 1.0, 0.0)

    def test_martingale_semigroup(self, step_solution):
        xs = np.linspace(-2, 2, 9)
        for t, t2, nodes in ((0.0, 0.5, 64), (0.25, 0.75, 64), (0.5, 0.95, 512)):
            later = g.CallableFn(lambda y, t2=t2: g.eval_fn(step_solution, t2, y))
            direct = g.eval_fn(step_solution, t, xs)
            towered = later.heat_convolve(t2 - t, xs, n_nodes=nodes)
            assert np.max(np.abs(direct - towered)) < 1e-8

    def test_surface_closed_form(self, step_solution):
        # exact smoothing of a single step: level jump times a Gaussian CDF
        thr = step_solution.fn.thresholds[0]
        xs = np.linspace(-2, 2, 9)
        for t in (0.0, 0.5, 0.9, 0.999):
            expected = 2.0 * g.gauss_cdf(xs - thr, 1.0 - t)
            assert np.max(np.abs(g.eval_fn(step_solution, t, xs) - expected)) < 1e-14

    def test_strictly_increasing_before_terminal(self, step_solution):
        # F_t = 2 Phi((x - thr) / sqrt(1 - t)) is strictly increasing for t < 1,
        # but at t = 0.9, x >= 2.7 its gap to the upper level 2 is below half
        # the float64 spacing just under 2.0 (1.1e-16), so the correctly
        # rounded value is exactly 2.0 there. Strictness is checked on the
        # slope everywhere and on the values wherever the closed-form gap can
        # be resolved; the number of exempt pairs is pinned.
        thr = step_solution.fn.thresholds[0]
        xs = np.linspace(-3, 3, 61)
        for t, n_exempt in ((0.0, 0), (0.5, 0), (0.9, 4)):
            steps = np.diff(g.eval_fn(step_solution, t, xs))
            assert np.all(steps >= 0)
            assert np.all(g.eval_fn_deriv(step_solution, t, xs) > 0)
            gap = 2.0 * ndtr(-(xs[1:] - thr) / np.sqrt(1.0 - t))
            resolvable = gap >= np.spacing(1.0) / 2
            assert np.count_nonzero(~resolvable) == n_exempt
            assert np.all(steps[resolvable] > 0)

    def test_mean_preservation(self):
        nu0 = g.make_grid_measure([0.8, 1.3], [0.6, 0.4])
        nu1 = g.make_grid_measure([0.5, 0.9, 1.4, 1.9], [0.3, 0.3, 0.2, 0.2])
        nu1 = g.make_grid_measure(nu1.atoms + (nu0.mean - nu1.mean), nu1.weights)
        sol = g.solve_component(nu0, nu1)
        mean0 = sol.alpha.weights @ np.atleast_1d(g.eval_fn(sol, 0.0, sol.alpha.atoms))
        assert mean0 == pytest.approx(nu0.mean, abs=1e-8)

    def test_translation_equivariance(self):
        nu0 = g.make_grid_measure([0.8, 1.3], [0.6, 0.4])
        nu1 = g.make_grid_measure([0.5, 0.9, 1.4, 1.9], [0.3, 0.3, 0.2, 0.2])
        nu1 = g.make_grid_measure(nu1.atoms + (nu0.mean - nu1.mean), nu1.weights)
        sol = g.solve_component(nu0, nu1)
        c = 2.5
        shifted = g.solve_component(
            g.make_grid_measure(nu0.atoms + c, nu0.weights),
            g.make_grid_measure(nu1.atoms + c, nu1.weights))
        assert g.wasserstein1(shifted.alpha, sol.alpha) < 1e-8
        xs = np.linspace(-2, 2, 11)
        assert np.max(np.abs(g.eval_fn(shifted, 0.3, xs) -
                             (np.atleast_1d(g.eval_fn(sol, 0.3, xs)) + c))) < 1e-8


class TestSolverParams:
    def test_json_round_trip(self):
        params = g.SolverParams(step_tolerance=1e-9, fit_tolerance=1e-5,
                                max_iterations=123)
        assert g.SolverParams.from_dict(params.to_dict()) == params

    def test_retired_key_ignored(self):
        # configs written before gh_nodes was removed still load
        params = g.SolverParams.from_dict({"gh_nodes": 32, "max_iterations": 123})
        assert params == g.SolverParams(max_iterations=123)

    def test_partial_dict(self):
        params = g.SolverParams.from_dict({"max_iterations": 7})
        assert params.max_iterations == 7
        assert params.step_tolerance == 1e-10

    def test_int_tolerances_accepted(self):
        params = g.SolverParams.from_dict({"fit_tolerance": 1, "max_iterations": 5})
        assert params == g.SolverParams(fit_tolerance=1, max_iterations=5)

    @pytest.mark.parametrize("key, value", [
        ("max_iterations", "x"), ("max_iterations", 10.5), ("max_iterations", True),
        ("step_tolerance", None), ("fit_tolerance", "1e-6"), ("fit_tolerance", [1e-6]),
        ("max_iterations", 0), ("max_iterations", -3), ("step_tolerance", 0),
        ("step_tolerance", float("nan")), ("fit_tolerance", -1), ("fit_tolerance", float("inf")),
    ])
    def test_wrong_type_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"solver key '{key}'"):
            g.SolverParams.from_dict({"gh_nodes": "retired", key: value})

    def test_construction_checks_ranges(self):
        with pytest.raises(ValueError, match="solver key 'max_iterations'"):
            g.SolverParams(max_iterations=0)
