import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gbass as g
from gbass.measures import MeasureError, _component_intervals
from conftest import dilate, random_positive_measure
from _oracles import sequential_decomposition


def positive_measures(max_atoms=10):
    return st.builds(
        lambda atoms, weights: g.make_grid_measure(atoms[:len(weights)], weights[:len(atoms)]),
        st.lists(st.floats(0.1, 10.0), min_size=1, max_size=max_atoms),
        st.lists(st.floats(0.05, 1.0), min_size=1, max_size=max_atoms),
    )


def convex_ordered_pair(rng):
    """A unit-mean pair mu0 <=_cx mu1: a partial dilation, on a real or an integer grid
    (where neighbouring intervals share ends), or a block contraction."""
    kind = rng.integers(3)
    if kind < 2:
        # spread a random subset of atoms into symmetric pairs; the rest stay put
        if kind == 0:
            mu = random_positive_measure(rng, 12)
            d = rng.uniform(0.0, 0.9, mu.n) * mu.atoms * (rng.random(mu.n) < 0.7)
        else:
            atoms = np.unique(rng.integers(3, 30, 12)).astype(float)
            mu = g.make_grid_measure(atoms, rng.uniform(0.05, 1.0, atoms.size))
            d = rng.integers(0, 3, mu.n).astype(float)
        m = mu.mean
        return (g.make_grid_measure(mu.atoms / m, mu.weights),
                g.make_grid_measure(np.concatenate([mu.atoms - d, mu.atoms + d]) / m,
                                    np.concatenate([mu.weights, mu.weights]) / 2))
    # merge random runs of consecutive atoms into their barycenters
    mu = g.normalize_to_unit_mean(random_positive_measure(rng, 12))
    blocks = np.split(np.arange(mu.n), np.flatnonzero(rng.random(mu.n - 1) < 0.4) + 1)
    atoms = [mu.atoms[b] @ mu.weights[b] / mu.weights[b].sum() for b in blocks]
    return g.make_grid_measure(atoms, [mu.weights[b].sum() for b in blocks]), mu


class TestConstruction:
    def test_single_atom(self):
        mu = g.make_grid_measure([2.0], [1.0])
        assert mu.atoms.tolist() == [2.0]
        assert mu.weights.tolist() == [1.0]

    def test_sorting(self):
        mu = g.make_grid_measure([1.5, 0.5], [0.5, 0.5])
        assert mu.atoms.tolist() == [0.5, 1.5]
        assert mu.weights.tolist() == [0.5, 0.5]

    def test_duplicate_merge(self):
        mu = g.make_grid_measure([1.0, 1.0], [0.3, 0.7])
        assert mu.atoms.tolist() == [1.0]
        assert mu.weights.tolist() == [1.0]

    def test_presorted_and_shuffled_atoms_agree(self):
        rng = np.random.default_rng(3)
        atoms, weights = np.sort(rng.random(50)), rng.random(50)
        perm = rng.permutation(50)
        sorted_mu = g.make_grid_measure(atoms, weights)
        shuffled_mu = g.make_grid_measure(atoms[perm], weights[perm])
        assert np.array_equal(sorted_mu.atoms, shuffled_mu.atoms)
        assert np.array_equal(sorted_mu.weights, shuffled_mu.weights)

    def test_renormalization(self):
        mu = g.make_grid_measure([0.0, 1.0], [2.0, 6.0])
        assert np.allclose(mu.weights, [0.25, 0.75])

    def test_empty_rejected(self):
        with pytest.raises(MeasureError, match="empty"):
            g.make_grid_measure([], [])

    def test_negative_weight_names_index(self):
        with pytest.raises(MeasureError, match="index 2"):
            g.make_grid_measure([0.0, 1.0, 2.0], [0.5, 0.5, -0.1])

    def test_non_finite_names_index(self):
        with pytest.raises(MeasureError, match="index 1"):
            g.make_grid_measure([0.0, np.nan], [0.5, 0.5])

    def test_positive_support_flag(self):
        assert g.make_grid_measure([0.5, 1.0], [0.5, 0.5]).positive_support
        assert not g.make_grid_measure([0.0, 1.0], [0.5, 0.5]).positive_support
        # zero-weight atom at zero does not count against the support
        assert g.make_grid_measure([0.0, 1.0], [0.0, 1.0]).positive_support


class TestMoments:
    def test_harmonic_of_point(self):
        assert g.moment(g.make_grid_measure([2.0], [1.0]), -1) == pytest.approx(0.5)

    def test_first_moment(self):
        mu = g.make_grid_measure([0.5, 1.5], [0.5, 0.5])
        assert g.moment(mu, 1) == pytest.approx(1.0)

    def test_log_moment(self):
        mu = g.make_grid_measure([0.5, 1.5], [0.5, 0.5])
        expected = 0.5 * (np.log(0.5) + np.log(1.5))
        assert g.moment(mu, "log") == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.1438410362258904, abs=1e-12)

    def test_fractional_requires_positive_support(self):
        mu = g.make_grid_measure([0.0, 2.0], [0.5, 0.5])
        with pytest.raises(MeasureError):
            g.moment(mu, 0.5)
        with pytest.raises(MeasureError):
            g.moment(mu, "log")
        assert g.moment(mu, 2) == pytest.approx(2.0)


class TestCdfQuantile:
    def test_cdf_right_continuous(self):
        mu = g.make_grid_measure([0.0, 2.0], [0.5, 0.5])
        assert g.cdf(mu, 1.0) == pytest.approx(0.5)
        assert g.cdf(mu, 0.0) == pytest.approx(0.5)
        assert g.cdf(mu, -0.1) == 0.0
        assert g.cdf(mu, 2.0) == 1.0

    def test_quantile_left_continuous(self):
        mu = g.make_grid_measure([0.0, 2.0], [0.5, 0.5])
        assert g.quantile(mu, 0.5) == 0.0
        assert g.quantile(mu, 0.75) == 2.0
        assert g.quantile(mu, 0.0) == 0.0
        assert g.quantile(mu, 1.0) == 2.0

    def test_quantile_rejects_outside(self):
        mu = g.make_grid_measure([0.0], [1.0])
        with pytest.raises(MeasureError):
            g.quantile(mu, 1.5)

    @given(positive_measures(), st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_galois_inequalities(self, mu, u):
        assert g.cdf(mu, g.quantile(mu, u)) >= u - 1e-15
        for a in mu.atoms:
            assert g.quantile(mu, g.cdf(mu, a)) >= a


class TestPotential:
    def test_point_at_zero(self):
        assert g.potential(g.make_grid_measure([0.0], [1.0]), 2.0) == pytest.approx(2.0)

    def test_symmetric_pair(self):
        mu = g.make_grid_measure([-1.0, 1.0], [0.5, 0.5])
        assert g.potential(mu, 0.0) == pytest.approx(1.0)

    def test_direct_evaluation(self):
        mu = g.make_grid_measure([0.5, 1.5], [0.5, 0.5])
        assert g.potential(mu, 1.0) == pytest.approx(0.5)

    @given(positive_measures(), st.floats(-20.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_lower_bound_and_lipschitz(self, mu, z):
        val = g.potential(mu, z)
        assert val >= abs(mu.mean - z) - 1e-12
        if z <= mu.atoms[0] or z >= mu.atoms[-1]:
            assert val == pytest.approx(abs(mu.mean - z), abs=1e-12)
        val2 = g.potential(mu, z + 0.37)
        assert abs(val2 - val) <= 0.37 + 1e-12

    @given(positive_measures())
    @settings(max_examples=50, deadline=None)
    def test_convexity_on_grid(self, mu):
        zs = np.linspace(mu.atoms[0] - 1, mu.atoms[-1] + 1, 41)
        vals = g.potential(mu, zs)
        assert np.all(np.diff(vals, 2) >= -1e-12)


class TestConvexOrder:
    def test_dilation_of_point(self):
        rep = g.check_convex_order(g.make_grid_measure([1.0], [1.0]),
                                   g.make_grid_measure([0.5, 1.5], [0.5, 0.5]))
        assert rep.in_convex_order
        assert rep.equal_means
        assert rep.mean == pytest.approx(1.0)

    def test_antisymmetric(self):
        rep = g.check_convex_order(g.make_grid_measure([0.5, 1.5], [0.5, 0.5]),
                                   g.make_grid_measure([1.0], [1.0]))
        assert not rep.in_convex_order
        assert rep.max_violation > 0

    def test_unequal_means(self):
        rep = g.check_convex_order(g.make_grid_measure([1.0], [1.0]),
                                   g.make_grid_measure([2.0], [1.0]))
        assert not rep.in_convex_order
        assert not rep.equal_means


class TestComponents:
    def test_single_component(self):
        nu0 = g.make_grid_measure([1.0], [1.0])
        nu1 = g.make_grid_measure([0.5, 1.5], [0.5, 0.5])
        dec = g.irreducible_components(nu0, nu1)
        assert len(dec.components) == 1
        lo, hi = dec.components[0].interval
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(1.5)
        assert dec.identity_set_mass == 0.0

    def test_two_components(self, two_component_pair):
        nu0, nu1 = two_component_pair
        # hand evaluation of both potentials at the candidate split points
        for z, expected0, expected1 in [(1.0, 1.0, 1.25), (2.0, 1.0, 1.0), (3.0, 1.0, 1.25)]:
            assert g.potential(nu0, z) == pytest.approx(expected0)
            assert g.potential(nu1, z) == pytest.approx(expected1)
        dec = g.irreducible_components(nu0, nu1)
        assert len(dec.components) == 2
        (a, b), (c, d) = (comp.interval for comp in dec.components)
        assert (a, b) == pytest.approx((0.5, 1.5))
        assert (c, d) == pytest.approx((2.5, 3.5))
        assert [comp.mass for comp in dec.components] == pytest.approx([0.5, 0.5])
        for comp, mean in zip(dec.components, (1.0, 3.0)):
            assert comp.nu0_restricted.mean == pytest.approx(mean)
            assert comp.nu1_restricted.mean == pytest.approx(mean)

    def test_identical_measures(self):
        nu = g.make_grid_measure([1.0, 2.0], [0.5, 0.5])
        dec = g.irreducible_components(nu, nu)
        assert dec.components == []
        assert dec.identity_set_mass == pytest.approx(1.0)
        assert g.wasserstein1(dec.identity_restriction, nu) == 0.0

    def test_masses_partition(self, two_component_pair):
        dec = g.irreducible_components(*two_component_pair)
        total = dec.identity_set_mass + sum(c.mass for c in dec.components)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_requires_convex_order(self):
        with pytest.raises(MeasureError, match="convex order"):
            g.irreducible_components(g.make_grid_measure([0.0, 2.0], [0.5, 0.5]),
                                     g.make_grid_measure([1.0], [1.0]))

    def test_static_atom_between_components(self):
        # mass shared between a static point and two moving blocks
        nu0 = g.make_grid_measure([1.0, 2.0, 3.0], [0.4, 0.2, 0.4])
        nu1 = g.make_grid_measure([0.5, 1.5, 2.0, 2.5, 3.5],
                                  [0.2, 0.2, 0.2, 0.2, 0.2])
        dec = g.irreducible_components(nu0, nu1)
        assert len(dec.components) == 2
        assert dec.identity_set_mass == pytest.approx(0.2)
        assert dec.identity_restriction.atoms.tolist() == [2.0]

    def test_shared_end_splits_left_first(self):
        nu0 = g.make_grid_measure([1.0, 2.0], [0.5, 0.5])
        nu1 = g.make_grid_measure([0.5, 1.5, 2.5], [0.25, 0.5, 0.25])
        dec = g.irreducible_components(nu0, nu1)
        assert [c.interval for c in dec.components] == [(0.5, 1.5), (1.5, 2.5)]
        # the left component takes what it misses, the right one the rest
        left, right = (c.nu1_restricted for c in dec.components)
        assert left.atoms.tolist() == [0.5, 1.5]
        assert right.atoms.tolist() == [1.5, 2.5]
        masses = [c.mass for c in dec.components]
        assert masses[0] * left.weights[1] == pytest.approx(0.25, abs=1e-15)
        assert masses[1] * right.weights[0] == pytest.approx(0.25, abs=1e-15)
        assert dec.identity_set_mass == 0.0

    def test_static_mass_an_ulp_away_stays(self):
        # the nu1 atom an ulp above the static nu0 atom at 3 is matched by it
        # within the 1e-12 point tolerance, so nothing there moves
        above = np.nextafter(3.0, 4.0)
        nu0 = g.make_grid_measure([1.0, 3.0, 5.0], [1.0, 1.0, 1.0])
        nu1 = g.make_grid_measure([0.5, 1.5, above, 4.5, 5.5], [0.5, 0.5, 1.0, 0.5, 0.5])
        dec = g.irreducible_components(nu0, nu1)
        assert dec.identity_restriction.atoms.tolist() == [3.0]
        assert dec.identity_set_mass == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert [c.nu1_restricted.atoms.tolist() for c in dec.components] == [[0.5, 1.5],
                                                                              [4.5, 5.5]]

    def test_shoulder_atom_joins_nearest_interval(self):
        # the 1e-9 atoms at 1.75 and 4.25 lift the gap by only 2.5e-10 beyond
        # the interval ends, so they sit outside both intervals
        p, q, r = 0.5 + 2.5e-10, 0.5 - 1.25e-9, 1e-9
        nu0 = g.make_grid_measure([1.0, 5.0], [0.5, 0.5])
        nu1 = g.make_grid_measure([0.5, 1.5, 1.75, 4.25, 4.5, 5.5], [p, q, r, r, q, p])
        dec = g.irreducible_components(nu0, nu1)
        assert [c.interval for c in dec.components] == [(0.5, 1.5), (4.5, 5.5)]
        left, right = (c.nu1_restricted for c in dec.components)
        assert left.atoms.tolist() == [0.5, 1.5, 1.75]
        assert right.atoms.tolist() == [4.25, 4.5, 5.5]
        assert left.weights[2] == pytest.approx(r, rel=1e-12)

    def test_no_components_is_all_static(self):
        nu0 = g.make_grid_measure([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        nu1 = g.make_grid_measure([1.0, np.nextafter(2.0, 3.0), 3.0], [0.2, 0.3, 0.5])
        dec = g.irreducible_components(nu0, nu1)
        assert dec.components == []
        assert dec.identity_set_mass == pytest.approx(1.0, abs=1e-15)
        assert dec.identity_restriction.atoms.tolist() == [1.0, 2.0, 3.0]

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_sequential_reference(self, seed):
        mu0, mu1 = convex_ordered_pair(np.random.default_rng(seed))
        for nu0, nu1 in ((mu0, mu1), (g.reflect_measure(mu0, normalize=True),
                                      g.reflect_measure(mu1, normalize=True))):
            grid = np.union1d(nu0.atoms, nu1.atoms)
            gap = g.potential(nu1, grid) - g.potential(nu0, grid)
            intervals, parts, static, deficit = sequential_decomposition(
                grid, gap, nu0.atoms, nu0.weights, nu1.atoms, nu1.weights)
            if deficit > 1e-9:
                with pytest.raises(MeasureError, match="mass balance"):
                    g.irreducible_components(nu0, nu1)
                continue
            dec = g.irreducible_components(nu0, nu1)
            assert [c.interval for c in dec.components] == intervals
            for comp, (a0, w0, a1, w1) in zip(dec.components, parts):
                assert comp.mass == sum(w0)
                for got, (a, w) in ((comp.nu0_restricted, (a0, w0)),
                                    (comp.nu1_restricted, (a1, w1))):
                    ref = g.make_grid_measure(a, w)
                    assert np.array_equal(got.atoms, ref.atoms)
                    assert np.array_equal(got.weights, ref.weights)
            assert dec.identity_set_mass == sum(static[1])
            if static[0]:
                assert np.array_equal(dec.identity_restriction.atoms, static[0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_decomposition_rebuilds_the_pair(self, seed):
        mu0, mu1 = convex_ordered_pair(np.random.default_rng(seed))
        for nu0, nu1 in ((mu0, mu1), (g.reflect_measure(mu0, normalize=True),
                                      g.reflect_measure(mu1, normalize=True))):
            dec = g.irreducible_components(nu0, nu1)
            total = dec.identity_set_mass + sum(c.mass for c in dec.components)
            assert total == pytest.approx(1.0, abs=1e-12)
            parts = [(c.nu1_restricted, c.mass) for c in dec.components]
            if dec.identity_restriction is not None:
                parts.append((dec.identity_restriction, dec.identity_set_mass))
            for c in dec.components:
                assert abs(c.nu0_restricted.mean - c.nu1_restricted.mean) <= 1e-12
            rebuilt = g.make_grid_measure(np.concatenate([m.atoms for m, _ in parts]),
                                          np.concatenate([m.weights * w for m, w in parts]))
            assert g.wasserstein1(rebuilt, nu1) <= 1e-12


class TestReflection:
    def test_point_mass(self):
        nu = g.reflect_measure(g.make_grid_measure([2.0], [1.0]), normalize=True)
        assert nu.atoms.tolist() == [1.0]

    def test_two_point(self):
        mu = g.make_grid_measure([0.5, 1.5], [0.5, 0.5])
        nu = g.reflect_measure(mu, normalize=True)
        assert np.allclose(nu.atoms, [2.0 / 3.0, 2.0])
        assert np.allclose(nu.weights, [0.75, 0.25])
        assert nu.mean == pytest.approx(1.0)

    def test_requires_positive_support(self):
        with pytest.raises(MeasureError):
            g.reflect_measure(g.make_grid_measure([0.0, 1.0], [0.5, 0.5]))

    @given(positive_measures())
    @settings(max_examples=100, deadline=None)
    def test_involution(self, mu):
        back = g.reflect_measure(g.reflect_measure(mu, normalize=True), normalize=True)
        assert g.wasserstein1(back, g.normalize_to_unit_mean(mu)) < 1e-12

    @given(positive_measures())
    @settings(max_examples=100, deadline=None)
    def test_potential_identity(self, mu):
        tilde = g.normalize_to_unit_mean(mu)
        nu = g.reflect_measure(mu, normalize=True)
        zs = np.concatenate([nu.atoms, 1.0 / tilde.atoms])
        lhs = g.potential(nu, zs) / zs
        rhs = g.potential(tilde, 1.0 / zs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_order_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        mu0 = random_positive_measure(rng)
        if rng.random() < 0.5:
            mu1 = dilate(g.normalize_to_unit_mean(mu0), rng)
            mu0 = g.normalize_to_unit_mean(mu0)
        else:
            mu1 = g.normalize_to_unit_mean(random_positive_measure(rng))
            mu0 = g.normalize_to_unit_mean(mu0)
        mu_verdict = g.check_convex_order(mu0, mu1).in_convex_order
        nu_verdict = g.check_convex_order(g.reflect_measure(mu0, normalize=True),
                                          g.reflect_measure(mu1, normalize=True)).in_convex_order
        assert mu_verdict == nu_verdict

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_component_bijection(self, seed):
        # two separated dilations: the interval endpoints must map through m/x
        rng = np.random.default_rng(seed)
        c1, c2 = 1.0, float(rng.uniform(3.0, 5.0))
        d1 = float(rng.uniform(0.05, 0.3))
        d2 = float(rng.uniform(0.05, 0.3))
        mu0 = g.make_grid_measure([c1, c2], [0.5, 0.5])
        mu1 = g.make_grid_measure([c1 - d1, c1 + d1, c2 - d2, c2 + d2],
                                  [0.25, 0.25, 0.25, 0.25])
        m = mu0.mean
        nu0 = g.reflect_measure(mu0, normalize=True)
        nu1 = g.reflect_measure(mu1, normalize=True)
        mu_ints = sorted(c.interval for c in g.irreducible_components(mu0, mu1).components)
        nu_ints = sorted(c.interval for c in g.irreducible_components(nu0, nu1).components)
        mapped = sorted((m / hi, m / lo) for lo, hi in nu_ints)
        assert len(mapped) == len(mu_ints) == 2
        for (a, b), (c, d) in zip(mapped, mu_ints):
            assert a == pytest.approx(c, abs=1e-8)
            assert b == pytest.approx(d, abs=1e-8)


class TestWasserstein:
    def test_point_masses(self):
        assert g.wasserstein1(g.make_grid_measure([0.0], [1.0]),
                              g.make_grid_measure([1.0], [1.0])) == pytest.approx(1.0)

    def test_identical(self):
        mu = g.make_grid_measure([0.3, 1.7], [0.4, 0.6])
        assert g.wasserstein1(mu, mu) == 0.0

    def test_quantile_integral_by_hand(self):
        assert g.wasserstein1(g.make_grid_measure([0.0, 2.0], [0.5, 0.5]),
                              g.make_grid_measure([1.0], [1.0])) == pytest.approx(1.0)

    @given(positive_measures(), positive_measures(), positive_measures())
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert g.wasserstein1(a, c) <= g.wasserstein1(a, b) + g.wasserstein1(b, c) + 1e-12


def test_component_interval_interpolation():
    # the gap function crosses zero strictly between atoms here
    nu0 = g.make_grid_measure([1.0], [1.0])
    nu1 = g.make_grid_measure([0.5, 1.5], [0.5, 0.5])
    intervals = _component_intervals(nu0, nu1)
    assert intervals == [(0.5, 1.5)]
