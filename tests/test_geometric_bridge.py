import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtri

import gbass as g
from gbass import bass_solver, gaussian, measures

from _oracles import invert_increasing_reference

SIGMA = math.sqrt(0.12)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75, 0.9])
def test_flow_keeps_martingale_mean(bench_201, t):
    assert abs(g.marginal_flow(bench_201, t).mean - bench_201.m) <= 1e-6


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("grid_size", [201, 1001])
def test_flow_ends_are_the_marginals(request, grid_size, t):
    gsol = request.getfixturevalue(f"bench_{grid_size}")
    flow, mu = g.marginal_flow(gsol, t), gsol.mu0 if t == 0.0 else gsol.mu1
    assert np.array_equal(flow.atoms, mu.atoms) and np.array_equal(flow.weights, mu.weights)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_flow_keeps_the_static_price_atom(static_mass_solution, t):
    decomp = static_mass_solution.arithmetic.decomposition
    assert len(decomp.components) == 1
    assert decomp.identity_set_mass == pytest.approx(0.75, rel=1e-15)
    flow = g.marginal_flow(static_mass_solution, t)
    static = np.isclose(flow.atoms, 3.0, rtol=1e-14, atol=0.0)
    assert flow.weights[static].sum() == pytest.approx(0.5, rel=1e-12)
    assert np.all((0.5 <= flow.atoms[~static]) & (flow.atoms[~static] <= 1.5))
    assert flow.mean == pytest.approx(static_mass_solution.m, rel=1e-12)
    assert static_mass_solution.m == 2.0


def test_sde_volatility_matches_gbm(bench_201):
    times = np.linspace(0.1, 0.9, 9)
    scores = np.linspace(-2.0, 2.0, 9)
    vols = [g.sde_volatility(bench_201, 0, t, math.exp(SIGMA * math.sqrt(t) * z - 0.06 * t))
            for t in times for z in scores]
    assert np.max(np.abs(np.array(vols) - SIGMA)) <= 1e-2



def step_vol_closed_form(gsol, t, s):
    """(vol, z) on a one-threshold fn: F = lower + jump Phi((x - c) / sqrt(1 - t)), F(x*) = m / s."""
    fn = gsol.arithmetic.component_solutions[0].fn
    z = ndtri((gsol.m / s - fn.lower) / fn.jumps[0])
    slope = fn.jumps[0] * np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi * (1.0 - t))
    return s / gsol.m * slope, z


@pytest.mark.parametrize("t", [0.05, 0.5, 0.95])
def test_sde_volatility_step_closed_form(geometric_step_solution, t):
    gsol = geometric_step_solution
    fn = gsol.arithmetic.component_solutions[0].fn
    assert fn.thresholds.size == 1
    # the image (2/3, 2) of fn is m / s for s in (0.5, 1.5)
    prices = np.linspace(0.52, 1.48, 25)
    ref, z = step_vol_closed_form(gsol, t, prices)
    # F(x*) meets m / s to 1e-12, which moves the slope by |z| 1e-12 / (jump phi(z))
    # relative; where that exceeds 1e-12 the bound follows it
    jump = fn.jumps[0]
    bound = 1e-12 * np.maximum(1.0, np.abs(z) * np.sqrt(2.0 * np.pi) * np.exp(z * z / 2.0) / jump)
    scalar = np.array([g.sde_volatility(gsol, 0, t, float(p)) for p in prices])
    array = g.sde_volatility(gsol, 0, t, prices)
    for vols in (scalar, array):
        assert np.all(np.abs(vols / ref - 1.0) <= bound)
    central = np.abs(z) <= 0.3
    assert central.sum() >= 5 and np.all(np.abs(array[central] / ref[central] - 1.0) <= 1e-12)
    assert np.all(np.abs(scalar / ref - 1.0) <= 1e-12)


def test_sde_volatility_shapes(geometric_step_solution):
    gsol = geometric_step_solution
    vol = g.sde_volatility(gsol, 0, 0.5, 1.0)
    assert type(vol) is float
    assert vol == g.sde_volatility(gsol, 0, 0.5, np.float64(1.0))
    grid = np.array([[0.6, 0.8, 1.0], [1.2, 1.3, 1.4]])
    vols = g.sde_volatility(gsol, 0, 0.5, grid)
    assert vols.shape == grid.shape
    assert np.allclose(vols, step_vol_closed_form(gsol, 0.5, grid)[0], rtol=1e-11, atol=0.0)
    assert g.sde_volatility(gsol, 0, 0.5, np.array([])).shape == (0,)


def test_sde_volatility_array_matches_scalar_loop(bench_201):
    for t in np.linspace(0.1, 0.9, 9):
        prices = np.exp(SIGMA * math.sqrt(t) * np.linspace(-2.0, 2.0, 9) - 0.06 * t)
        loop = np.array([g.sde_volatility(bench_201, 0, t, p) for p in prices.tolist()])
        assert np.max(np.abs(g.sde_volatility(bench_201, 0, t, prices) / loop - 1.0)) <= 1e-11


def test_sde_volatility_warm_start_saves_sweeps(bench_201, monkeypatch):
    # one sweep brackets, then each Newton iterate reads F and F' from one pass,
    # and the last pass gives the root's slope: 5.0 passes per price from the
    # step function's inverse
    sweeps = []
    sweep, pair = gaussian._gauss_sweep, gaussian._OneRow.pair
    monkeypatch.setattr(gaussian, "_gauss_sweep", lambda x, *a: sweeps.append(x.size) or sweep(x, *a))
    monkeypatch.setattr(gaussian._OneRow, "pair",
                        lambda one_row, x: sweeps.append(x.size) or pair(one_row, x))
    points = [(t, math.exp(SIGMA * math.sqrt(t) * z - 0.06 * t))
              for t in np.linspace(0.1, 0.9, 9) for z in np.linspace(-2.0, 2.0, 9)]
    for t, price in points:
        g.sde_volatility(bench_201, 0, t, price)
    # at least 4.5, so that a counter which misses the pass fails
    assert 4.5 * len(points) <= len(sweeps) <= 5.5 * len(points)
    sweeps.clear()
    g.sde_volatility(bench_201, 0, 0.5, np.array([p for _, p in points[36:45]]))
    assert len(sweeps) <= 11  # one bracket, then F and F' for all nine prices at each step


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_sde_volatility_scalar_is_the_length_one_array(bench_201, monkeypatch, t):
    prices = [math.exp(SIGMA * math.sqrt(t) * z - 0.06 * t) for z in (-2.0, 0.0, 2.0)]
    scalar = [g.sde_volatility(bench_201, 0, t, price) for price in prices]
    array = [g.sde_volatility(bench_201, 0, t, np.array([price]))[0] for price in prices]
    # both one-row inversions run on floats: the array loop they skip gives the same bits
    monkeypatch.setattr(gaussian, "invert_increasing", invert_increasing_reference)
    reference = [g.sde_volatility(bench_201, 0, t, price) for price in prices]
    assert all(type(vol) is float for vol in scalar)
    assert np.array(scalar).tobytes() == np.array(array).tobytes() == np.array(reference).tobytes()
    # an int, numpy scalars (a float32 exact in float32) and a 0-d array read as the float
    for price, same in [(1.0, 1), (1.25, np.float64(1.25)), (1.25, np.float32(1.25)),
                        (1.25, np.array(1.25))]:
        want, vol = (g.sde_volatility(bench_201, 0, t, p) for p in (price, same))
        assert type(vol) is float and np.float64(vol).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("bad, why", [(0.0, "positive"), (-0.0, "positive"), (-1.0, "positive"),
                                      (np.nan, "positive"), (0.4, "open range"),
                                      (1.6, "open range"), (np.inf, "open range")])
@pytest.mark.parametrize("index", [0, 3, 5])
def test_sde_volatility_rejects_bad_price_by_index(geometric_step_solution, bad, why, index):
    prices = np.linspace(0.6, 1.4, 6)
    prices[index] = bad
    with pytest.raises(ValueError, match=f"price {bad} at index {index} .*{why}"):
        g.sde_volatility(geometric_step_solution, 0, 0.5, prices)
    with pytest.raises(ValueError, match=why):
        g.sde_volatility(geometric_step_solution, 0, 0.5, bad)


def test_sde_volatility_is_zero_at_the_closed_image_bounds(geometric_step_solution):
    # m / 1.5 is fn.lower and m / 0.5 is fn.upper exactly, where the slope's limit is 0
    fn = geometric_step_solution.arithmetic.component_solutions[0].fn
    assert (1.0 / 1.5, 1.0 / 0.5) == (fn.lower, fn.upper)
    for price in (1.5, 0.5):
        assert g.sde_volatility(geometric_step_solution, 0, 0.5, price) == 0.0
    vols = g.sde_volatility(geometric_step_solution, 0, 0.5, np.array([1.5, 1.0, 0.5]))
    assert vols[0] == vols[2] == 0.0
    assert vols[1] > 0.0 and vols[1] == g.sde_volatility(geometric_step_solution, 0, 0.5, 1.0)


@pytest.mark.parametrize("t", [0.898, 0.980])
def test_sde_volatility_accepts_the_flow_atoms(bench_201, t):
    # the flow's atoms m / y, merged by weighted means, put m / s 1-4 ulps past fn.upper
    fn = bench_201.arithmetic.component_solutions[0].fn
    atoms = g.marginal_flow(bench_201, t).atoms
    past = bench_201.m / atoms > fn.upper
    assert past.any()
    vols = g.sde_volatility(bench_201, 0, t, atoms)
    assert np.all(np.isfinite(vols)) and np.all(vols >= 0.0)
    assert np.all(vols[past] == 0.0)


@pytest.mark.parametrize("t", [-0.5, 1.5])
def test_marginal_flow_refuses_a_time_outside_the_unit_interval(geometric_step_solution, t):
    with pytest.raises(ValueError, match=rf"time {t} outside \[0, 1\]"):
        g.marginal_flow(geometric_step_solution, t)


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_sde_volatility_refuses_the_end_times(geometric_step_solution, t):
    # at t = 1 the slope of the step function is undefined
    with pytest.raises(ValueError, match=rf"time {t} must lie strictly inside \(0, 1\)"):
        g.sde_volatility(geometric_step_solution, 0, t, 1.0)


def test_sde_volatility_slack_past_the_bounds_is_two_to_the_minus_50(geometric_step_solution):
    # fn's image is [2/3, 2] and m = 1: m / s within 2^-50 of the width past a bound
    # gets the limit slope 0.0, and further out the price is refused
    fn = geometric_step_solution.arithmetic.component_solutions[0].fn
    slack = 2.0 ** -50 * (fn.upper - fn.lower)
    for bound, out in ((fn.lower, -1.0), (fn.upper, 1.0)):
        assert g.sde_volatility(geometric_step_solution, 0, 0.5, 1.0 / (bound + out * slack)) == 0.0
        with pytest.raises(ValueError, match="open range"):
            g.sde_volatility(geometric_step_solution, 0, 0.5, 1.0 / (bound + 4.0 * out * slack))


def test_update_alpha_meets_default_tol(bench_201):
    csol = bench_201.arithmetic.component_solutions[0]
    alpha = g.update_alpha(csol.source, csol.fn)
    assert np.max(np.abs(csol.fn.heat_convolve(1.0, alpha.atoms) - csol.source.atoms)) <= 1e-13


@pytest.mark.parametrize("index", [1, -1, 0.0, 0.5])
def test_component_index_out_of_range_raises(bench_201, index):
    with pytest.raises(ValueError, match="component_index"):
        g.sde_volatility(bench_201, index, 0.5, 1.0)
    with pytest.raises(ValueError, match="component_index"):
        g.simulate_geometric_sde(bench_201, index, 2, 3, 0)


@pytest.mark.parametrize("solve", [g.to_arithmetic, g.solve_geometric], ids=["reflect", "solve"])
@pytest.mark.parametrize("mu0, mu1, message", [
    ([1.0], [0.0, 2.0], "terminal marginal must have strictly positive support"),
    ([-1.0, 3.0], [1.0], "initial marginal must have strictly positive support"),
    ([1.0], [0.9, 1.3], "marginal means differ"),
    ([0.5, 1.5], [1.0], "marginals are not in convex order"),
], ids=["zero-atom", "negative-atom", "unequal-means", "not-convex-ordered"])
def test_the_price_side_checks_refuse_by_name(solve, mu0, mu1, message):
    pair = [g.make_grid_measure(a, [1.0 / len(a)] * len(a)) for a in (mu0, mu1)]
    with pytest.raises(g.MeasureError, match=message):
        solve(*pair)


def counted(monkeypatch, module, name: str) -> list:
    """Record each call of module.name in the returned list."""
    calls, f = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or f(*args))
    return calls


def test_the_geometric_solve_decides_its_components_once(bench_201, monkeypatch):
    # the price side's potential gap (2 potentials) decides the split; each component
    # then checks its own irreducibility (2 potentials, 1 irreducible_components)
    pairs = [((bench_201.mu0, bench_201.mu1), 1),
             (tuple(g.make_grid_measure(a, [1.0 / len(a)] * len(a))
                    for a in ([1.0, 3.0], [0.8, 1.2, 2.7, 3.3])), 2)]
    for (mu0, mu1), components in pairs:
        potentials = counted(monkeypatch, measures, "potential")
        decided = counted(monkeypatch, bass_solver, "irreducible_components")
        gsol = g.solve_geometric(mu0, mu1)
        assert len(gsol.arithmetic.component_solutions) == components
        assert (len(potentials), len(decided)) == (2 + 2 * components, components)


X, Z = 1.5059366220404455, 26.76960668403438
MERGED = [X, float(np.nextafter(X, np.inf)), Z]  # weights 0.3, 0.3, 0.4


@pytest.mark.parametrize("atoms, weights, components, static, primal", [
    ([0.9 * a for a in MERGED] + [1.1 * a for a in MERGED], [0.15, 0.15, 0.2] * 2,
     2, 0.0, 0.0799605815126),
    (MERGED[:2] + [0.9 * Z, 1.1 * Z], [0.3, 0.3, 0.2, 0.2], 1, 0.0778167672823565, 0.0319842326051),
], ids=["dilated", "close-atoms-kept"])
def test_atoms_merged_by_the_reflection_carry_their_split(atoms, weights, components, static,
                                                          primal):
    # x and nextafter(x) reflect onto one float, so price atoms and their images do
    # not pair by position. The cluster at Z carries the arithmetic mass 0.92218...
    mu0 = g.make_grid_measure(MERGED, [0.3, 0.3, 0.4])
    gsol = g.solve_geometric(mu0, g.make_grid_measure(atoms, weights))
    decomp = gsol.arithmetic.decomposition
    assert (mu0.n, gsol.nu0.n) == (3, 2)
    assert len(decomp.components) == components
    assert abs(decomp.identity_set_mass - static) <= 1e-12
    assert abs(decomp.components[0].mass - 0.9221832327176435) <= 1e-12
    assert abs(g.primal_value(gsol.arithmetic) - primal) <= 1e-12
    if components == 1:
        # the static atom 7.71 (the image of X) stays out of the component whole,
        # where deciding the split on the arithmetic side moved 1.5e-17 of it in
        assert decomp.components[0].nu1_restricted.n == 2


def bench_grid(lo: float, hi: float, n: int) -> list[float]:
    return [round(lo + (hi - lo) * i / (n - 1), 12) for i in range(n)]


# the benchmark's scalar surfaces: 19 x 21 GBM points at 1001 atoms, 9 x 9 at 201
SURFACE = [(t, math.exp(SIGMA * math.sqrt(t) * z - 0.06 * t))
           for t in bench_grid(0.05, 0.95, 19) for z in bench_grid(-2.5, 2.5, 21)]
SURFACE_201 = [(t, math.exp(SIGMA * math.sqrt(t) * z - 0.06 * t))
               for t in bench_grid(0.1, 0.9, 9) for z in bench_grid(-2.0, 2.0, 9)]


def with_fresh_memo(gsol):
    """gsol with its one component's fn rebuilt, so the fn's memo of proxies starts empty."""
    [csol] = gsol.arithmetic.component_solutions
    fn = g.StepFn(csol.fn.thresholds, csol.fn.levels)
    arithmetic = dataclasses.replace(gsol.arithmetic,
                                     component_solutions=[dataclasses.replace(csol, fn=fn)])
    return dataclasses.replace(gsol, arithmetic=arithmetic)


def scalar_surface(gsol, points) -> np.ndarray:
    return np.array([g.sde_volatility(gsol, 0, t, price) for t, price in points])


@pytest.fixture(scope="module", params=[1001, 10001])
def surfaced(request):
    """A bench pair on a fresh memo after its scalar surface: (gsol, vols, degrees built)."""
    gsol = with_fresh_memo(request.getfixturevalue(f"bench_{request.param}"))
    built, proxy = [], gaussian._proxy
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "_proxy", lambda *args: built.append(args[-1]) or proxy(*args))
        vols = scalar_surface(gsol, SURFACE)
    return gsol, vols, built


def test_a_surface_builds_each_proxy_degree_once(surfaced):
    _, vols, built = surfaced
    assert built and len(built) == len(set(built))
    assert np.all(np.isfinite(vols)) and np.max(np.abs(vols - SIGMA)) <= 2e-3


def test_surface_on_proxies_matches_the_dense_sums(surfaced, monkeypatch):
    # measured: 1.0e-15 relative at 1001 atoms, 7.8e-16 at 10 001
    gsol, vols, _ = surfaced
    monkeypatch.setattr(gaussian, "_PROXY_GAIN", np.inf)
    dense = scalar_surface(with_fresh_memo(gsol), SURFACE)
    assert np.any(vols != dense) and np.max(np.abs(vols / dense - 1.0)) <= 1e-14


def test_scalar_and_length_one_array_calls_agree_on_built_proxies(surfaced):
    gsol, _, _ = surfaced
    fn = gsol.arithmetic.component_solutions[0].fn
    half = 0.5 * (fn.thresholds[-1] - fn.thresholds[0])
    for t, price in SURFACE[::21]:
        # both sums of the call read built proxies
        assert all(gaussian._proxy_degree(half / math.sqrt(1.0 - t), density) in fn._proxies._built
                   for density in (False, True))
        scalar = g.sde_volatility(gsol, 0, t, price)
        array = g.sde_volatility(gsol, 0, t, np.array([price]))
        assert type(scalar) is float and np.array([scalar]).tobytes() == array.tobytes()


def test_a_volatility_does_not_depend_on_earlier_calls(surfaced, monkeypatch):
    # the in-order surface on a fresh memo, the reversed one, and lone calls on fresh memos
    gsol, vols, _ = surfaced
    reverse = scalar_surface(with_fresh_memo(gsol), SURFACE[::-1])[::-1]
    assert vols.tobytes() == reverse.tobytes()
    built = counted(monkeypatch, gaussian, "_proxy")
    for (t, price), want in zip(SURFACE[::21], vols[::21]):
        built.clear()
        lone = g.sde_volatility(with_fresh_memo(gsol), 0, t, price)
        assert np.array([lone]).tobytes() == np.array([want]).tobytes()
        assert len(built) <= 2  # the degrees of its value and of its slope


@pytest.mark.parametrize("grid_size, points", [(1001, SURFACE), (201, SURFACE_201)])
def test_surface_is_the_slope_at_the_inverse(request, grid_size, points):
    # each one-price call takes its root's slope from the inversion's last pass
    gsol = request.getfixturevalue(f"bench_{grid_size}")
    fn, m = gsol.arithmetic.component_solutions[0].fn, gsol.m
    want = []
    for t, price in points:
        target = np.array([m / price])
        x0 = fn.thresholds[np.searchsorted(fn.levels, target) - 1]
        x_star = gaussian.heat_convolve_inverse(fn, 1.0 - t, target, 1e-12, x0)
        want.append((price / m * fn.heat_convolve_deriv(1.0 - t, x_star))[0])
    assert scalar_surface(gsol, points).tobytes() == np.array(want).tobytes()


def test_201_atom_volatilities_stay_dense(bench_201, monkeypatch):
    # 200 thresholds: no proxy degree saves _PROXY_GAIN kernel terms a row
    built = counted(monkeypatch, gaussian, "_proxy")
    vols = scalar_surface(with_fresh_memo(bench_201), SURFACE_201)
    assert not built
    monkeypatch.setattr(gaussian, "_PROXY_GAIN", np.inf)
    assert vols.tobytes() == scalar_surface(with_fresh_memo(bench_201), SURFACE_201).tobytes()
