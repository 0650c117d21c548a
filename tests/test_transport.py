import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circwass import (
    DiscreteCircularDist,
    FamilyParams,
    GridCdf,
    circ_dist,
    discrete_from_sample,
    family_cdf,
    family_quantile,
    family_sample,
    grid_cdf_of,
    make_sample,
    normalize_angle,
    select_kth,
    w1_grid,
    wp_general,
)
from circwass import transport
from circwass.circular import TWO_PI
from circwass.transport import _canonical_order, _shift_costs
from scipy import optimize

from conftest import (
    cdf_quad,
    empirical_cdf,
    offset_integral,
    perm_matching_cost,
    random_discrete_pair,
    random_weighted_pair,
    shift_scan_wp,
    w1_cdf_search,
    wp_bruteforce,
    wp_kink_scan,
)


def naive_shift_cost(xa, xb, k, p):
    """Independent re-implementation: explicit per-index winding."""
    n = len(xa)
    total = 0.0
    for i in range(n):
        j = i + k
        wind = 0
        while j >= n:
            j -= n
            wind += 1
        while j < 0:
            j += n
            wind -= 1
        total += abs(xa[i] - (xb[j] + TWO_PI * wind)) ** p
    return total / n


class TestShiftCost:
    """The cyclic-matching cost that the p > 1 equal-weight search minimizes."""

    def test_identity(self):
        a, _ = random_discrete_pair(np.random.default_rng(30), 8)
        assert _shift_costs(a.support, a.support, 2.0)(0) == 0.0

    def test_single_atoms(self):
        for p in (1.0, 2.0):
            cost = _shift_costs(np.array([0.0]), np.array([np.pi / 2]), p)(0)
            assert cost == pytest.approx((np.pi / 2) ** p)

    def test_naive_oracle(self):
        rng = np.random.default_rng(31)
        a, b = random_discrete_pair(rng, 6)
        for p in (1.0, 1.5, 2.0):
            cost = _shift_costs(a.support, b.support, p)
            for k in (-6, -5, -2, 0, 2, 5, 6):
                assert cost(k) == pytest.approx(
                    naive_shift_cost(a.support, b.support, k, p), abs=1e-13
                )


class TestWpDiscrete:
    """wp_general on equal-weight discrete inputs."""

    def test_cross_pair(self):
        a = discrete_from_sample(make_sample([0.0, np.pi]))
        b = discrete_from_sample(make_sample([np.pi / 2, 3 * np.pi / 2]))
        for p in (1.0, 1.5, 2.0):
            assert wp_general(a, b, p) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_identity(self):
        a, _ = random_discrete_pair(np.random.default_rng(34), 17)
        assert wp_general(a, a, 2.0) == 0.0

    def test_bruteforce_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            n = int(rng.integers(2, 65))
            a, b = random_discrete_pair(rng, n)
            p = float(rng.choice([1.0, 1.5, 2.0]))
            assert wp_general(a, b, p) == pytest.approx(wp_bruteforce(a, b, p), abs=1e-12)

    def test_single_atom_is_circ_dist(self):
        a = DiscreteCircularDist(np.array([0.1]), np.array([1.0]))
        b = DiscreteCircularDist(np.array([6.2]), np.array([1.0]))
        for fn in (wp_general, wp_bruteforce):
            assert fn(a, b, 1.0) == pytest.approx(circ_dist(0.1, 6.2), abs=1e-14)

    def test_permutation_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            a, b = random_discrete_pair(rng, n)
            for p in (1.0, 2.0):
                ref = perm_matching_cost(a.support, b.support, p)
                assert wp_bruteforce(a, b, p) == pytest.approx(ref, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            a, b = random_discrete_pair(rng, n)
            c, _ = random_discrete_pair(rng, n)
            for p in (1.0, 2.0):
                dab = wp_general(a, b, p)
                assert dab == wp_general(b, a, p)  # symmetry, exact
                assert wp_general(a, c, p) <= dab + wp_general(b, c, p) + 1e-9

    def test_p_monotonicity(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            a, b = random_discrete_pair(rng, int(rng.integers(2, 30)))
            assert wp_general(a, b, 1.0) <= wp_general(a, b, 2.0) + 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            a, b = random_discrete_pair(rng, n)
            delta = rng.uniform(0.0, TWO_PI)
            ar = discrete_from_sample(make_sample(a.support + delta))
            br = discrete_from_sample(make_sample(b.support + delta))
            for p in (1.0, 2.0):
                assert wp_general(ar, br, p) == pytest.approx(
                    wp_general(a, b, p), abs=1e-12
                )

    def test_bruteforce_size_cap(self):
        rng = np.random.default_rng(40)
        a, b = random_discrete_pair(rng, 513)
        with pytest.raises(ValueError, match="512"):
            wp_bruteforce(a, b, 1.0)


def equal_mass_atoms(theta, n):
    """The equal-mass objective's model atoms: quantiles at k/n, k = 1..n,
    the level-1 quantile (2*pi) wrapped to the cut point 0."""
    return np.sort(normalize_angle(family_quantile(theta, np.arange(1, n + 1) / n)))


class TestShiftSearchFitScale:
    """The shift search at the size of a W2 fit: a 1,000-point sample against
    the model's quantile atoms, with the model near and far from the data."""

    @pytest.mark.parametrize("kappa", (1e-3, 2.0, 400.0))
    @pytest.mark.parametrize("offset", (0.01, np.pi), ids=("near", "far"))
    @pytest.mark.parametrize("degrees", (False, True), ids=("raw", "whole-degrees"))
    def test_shift_scan_oracle(self, kappa, offset, degrees):
        data = family_sample(FamilyParams("vm", mu=0.3, kappa=kappa), 1000, seed=41).angles
        model = FamilyParams("vm", mu=0.3 + offset, kappa=kappa)
        atoms = family_quantile(model, np.arange(1, 1001) / 1000)
        if degrees:
            # whole degrees tie many atoms on both sides
            data, atoms = (np.radians(np.round(np.degrees(x))) for x in (data, atoms))
        a, b = make_sample(data), make_sample(atoms)
        for p in (1.5, 2.0, 3.0):
            assert wp_general(a, b, p) == pytest.approx(
                shift_scan_wp(a.angles, b.angles, p), abs=1e-12
            )


class TestDiscretize:
    def test_uniform_four(self):
        atoms = equal_mass_atoms(FamilyParams("uniform"), 4)
        assert np.allclose(atoms, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_wc_rho0_equispaced(self):
        atoms = equal_mass_atoms(FamilyParams("wc", mu=1.3, rho=0.0), 8)
        gaps = np.diff(np.concatenate([atoms, [atoms[0] + TWO_PI]]))
        assert np.allclose(gaps, TWO_PI / 8, atol=1e-9)

    def test_vm_bisection_oracle(self):
        theta = FamilyParams("vm", mu=0.0, kappa=2.0)
        atoms = equal_mass_atoms(theta, 16)
        for k in range(1, 16):  # level 1 wraps to the cut, checked separately
            ref = optimize.brentq(
                lambda t: cdf_quad(theta, t) - k / 16.0, 1e-12, TWO_PI - 1e-12, xtol=1e-12
            )
            assert np.min(np.abs(atoms - ref)) <= 1e-9
        assert np.min(atoms) <= 1e-9  # the wrapped level-1 atom


class TestGridCdfOf:
    def test_uniform(self):
        g = grid_cdf_of(FamilyParams("uniform"), 4)
        assert np.allclose(g.values, [0.25, 0.5, 0.75, 1.0], atol=1e-14)

    def test_single_atom_sample(self):
        g = grid_cdf_of(make_sample([np.pi]), 2)
        assert np.allclose(g.values, [1.0, 1.0])

    def test_vm_matches_family_cdf(self):
        theta = FamilyParams("vm", mu=0.0, kappa=2.0)
        g = grid_cdf_of(theta, 64)
        grid = TWO_PI * np.arange(1, 65) / 64
        assert np.allclose(g.values[:-1], family_cdf(theta, grid[:-1]), atol=1e-10)
        assert g.values[-1] == 1.0

    def test_sample_matches_empirical_cdf(self):
        rng = np.random.default_rng(41)
        s = make_sample(rng.uniform(0.01, TWO_PI - 0.01, 33))
        g = grid_cdf_of(s, 16)
        grid = TWO_PI * np.arange(1, 17) / 16
        assert np.allclose(g.values[:-1], empirical_cdf(s, grid[:-1]), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_cdf_of(FamilyParams("uniform"), 1)
        with pytest.raises(ValueError, match="non-decreasing"):
            GridCdf(np.array([0.5, 0.2, 1.0]))
        with pytest.raises(ValueError, match="end at 1"):
            GridCdf(np.array([0.2, 0.9]))


def median_sum(d):
    m = select_kth(d, (len(d) - 1) // 2)
    return float(np.sum(np.abs(np.asarray(d) - m)))


class TestW1Grid:
    def test_identical(self):
        g = grid_cdf_of(FamilyParams("vm", mu=1.0, kappa=3.0), 32)
        assert w1_grid(g, g) == 0.0

    def test_formula_frozen_vectors(self):
        # (2*pi/D) * sum |d_i - m| on the hand-worked difference vectors,
        # cross-checked by enumerating every candidate median
        for d, expected in (
            ([0.1, -0.1, 0.1, -0.1], 0.2 * np.pi),
            ([-0.25, -0.25, -0.25, 0.0], np.pi / 8),
        ):
            val = TWO_PI / 4 * median_sum(d)
            assert val == pytest.approx(expected, abs=1e-14)
            assert median_sum(d) <= min(np.sum(np.abs(np.asarray(d) - m)) for m in d) + 1e-14

    def test_median_optimality_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = rng.uniform(-1.0, 1.0, int(rng.integers(2, 40)))
            best_candidate = min(float(np.sum(np.abs(d - m))) for m in d)
            assert median_sum(d) <= best_candidate + 1e-12

    def test_use_sort_differential(self):
        # the (2*pi/D) * sum |d_i - m| formula with m taken from a full sort
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            a = grid_cdf_of(make_sample(rng.uniform(0, TWO_PI, 25)), n)
            b = grid_cdf_of(make_sample(rng.uniform(0, TWO_PI, 31)), n)
            d = a.values - b.values
            m = np.sort(d)[(n - 1) // 2]
            assert w1_grid(a, b) == float(TWO_PI / n * np.sum(np.abs(d - m)))

    def test_mismatched_d(self):
        a = grid_cdf_of(FamilyParams("uniform"), 8)
        b = grid_cdf_of(FamilyParams("uniform"), 16)
        with pytest.raises(ValueError):
            w1_grid(a, b)

    def test_matches_wp_general_on_grid_support(self):
        # both inputs supported on the same grid: the formula is exact
        rng = np.random.default_rng(44)
        for _ in range(15):
            D = int(rng.integers(4, 32))
            qa = grid_cdf_of(make_sample(rng.uniform(0, TWO_PI, 20)), D)
            qb = grid_cdf_of(make_sample(rng.uniform(0, TWO_PI, 23)), D)
            da = grid_dist_from_cdf(qa)
            db = grid_dist_from_cdf(qb)
            assert w1_grid(qa, qb) == pytest.approx(wp_general(da, db, 1.0), abs=1e-9)


def grid_dist_from_cdf(g: GridCdf) -> DiscreteCircularDist:
    """Atoms at the grid points with CDF-increment weights (zero cells dropped);
    the level-D atom at 2*pi wraps to the cut."""
    w = np.diff(np.concatenate([[0.0], g.values]))
    atoms = TWO_PI * np.arange(1, g.D + 1) / g.D
    atoms[-1] = 0.0
    keep = w > 0.0
    return DiscreteCircularDist(atoms[keep], w[keep] / w[keep].sum())


class TestW1CdfSearch:
    def test_identical(self):
        theta = FamilyParams("vm", mu=0.4, kappa=2.0)
        f = lambda x: family_cdf(theta, x)
        assert w1_cdf_search(f, f) == pytest.approx(0.0, abs=1e-12)

    def test_delta_vs_uniform(self):
        s = make_sample([0.0])
        q = lambda x: empirical_cdf(s, x)
        u = lambda x: np.asarray(x) / TWO_PI
        assert w1_cdf_search(q, u, quad_points=2048) == pytest.approx(np.pi / 2, abs=0.01)

    def test_grid_bound_vs_w1_grid(self):
        rng = np.random.default_rng(45)
        t1 = FamilyParams("vm", mu=rng.uniform(0, TWO_PI), kappa=2.0)
        t2 = FamilyParams("vm", mu=rng.uniform(0, TWO_PI), kappa=4.0)
        for D in (64, 256):
            a = w1_cdf_search(lambda x: family_cdf(t1, x), lambda x: family_cdf(t2, x), D)
            b = w1_grid(grid_cdf_of(t1, D), grid_cdf_of(t2, D))
            assert abs(a - b) <= 4 * np.pi / D + 1e-6


class TestWpGeneral:
    def test_equal_weight_specialization(self):
        # the shift search that equal weights take agrees with the
        # general-weight reference
        rng = np.random.default_rng(46)
        for _ in range(15):
            n = int(rng.integers(2, 24))
            a, b = random_discrete_pair(rng, n)
            for p in (1.0, 2.0):
                assert wp_general(a, b, p) == pytest.approx(wp_kink_scan(a, b, p), abs=1e-9)

    def test_unequal_sizes_exact(self):
        # the kink bisection on unequal sizes at p > 1, tied atoms included
        rng = np.random.default_rng(32)
        for n, m in ((4, 5), (7, 3), (12, 17)):
            for ties in (False, True):
                a, b = (make_sample(rng.integers(0, 8, k) * TWO_PI / 8 if ties
                                    else rng.uniform(0, TWO_PI, k)) for k in (n, m))
                da, db = discrete_from_sample(a), discrete_from_sample(b)
                for p in (1.5, 2.0, 3.0):
                    assert wp_general(da, db, p) == pytest.approx(
                        wp_kink_scan(da, db, p), abs=1e-9
                    )

    def test_merged_duplicates_zero(self):
        a = DiscreteCircularDist(np.array([0.5, 2.0]), np.array([0.5, 0.5]))
        b = DiscreteCircularDist(np.array([0.5, 0.5, 2.0]), np.array([0.2, 0.3, 0.5]))
        assert wp_general(a, b, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        a = DiscreteCircularDist(np.array([0.0]), np.array([1.0]))
        b = DiscreteCircularDist(
            np.array([np.pi / 2, 3 * np.pi / 2]), np.array([0.5, 0.5])
        )
        assert wp_general(a, b, 1.0) == pytest.approx(np.pi / 2, abs=1e-9)

    def test_grid_error_bound(self):
        # |W1 on a D-grid - exact W1| <= 4*pi/D for random sample pairs
        rng = np.random.default_rng(47)
        for D in (16, 64, 256):
            for _ in range(3):
                sa = make_sample(rng.uniform(0, TWO_PI, 20))
                sb = make_sample(rng.uniform(0, TWO_PI, 20))
                exact = wp_general(discrete_from_sample(sa), discrete_from_sample(sb), 1.0)
                approx = w1_grid(grid_cdf_of(sa, D), grid_cdf_of(sb, D))
                assert abs(approx - exact) <= 4 * np.pi / D

    def test_kink_scan_reference(self):
        rng = np.random.default_rng(49)
        for _ in range(12):
            a, b = random_weighted_pair(rng, *rng.integers(1, 25, 2))
            for p in (1.0, 1.5, 2.0, 3.0):
                assert wp_general(a, b, p) == pytest.approx(wp_kink_scan(a, b, p), abs=1e-9)

    def test_lattice_weights_kink_scan(self):
        # weights 1/n against 1/m put many offset kinks on one value, and
        # rounding spreads each such value over a few floats
        rng = np.random.default_rng(52)
        for n, m in ((4, 6), (6, 9), (12, 8), (10, 15), (1, 7)):
            a, b = (discrete_from_sample(make_sample(rng.uniform(0, TWO_PI, k))) for k in (n, m))
            for p in (1.5, 2.0, 3.0):
                assert wp_general(a, b, p) == pytest.approx(wp_kink_scan(a, b, p), abs=1e-9)

    def test_large_unequal_p2(self):
        # a logarithmic number of slopes, each linear in the atoms: 10^4 x 1.2*10^4
        # atoms take tens of milliseconds
        rng = np.random.default_rng(53)
        a, b = (discrete_from_sample(make_sample(rng.vonmises(mu, 2.0, k)))
                for mu, k in ((1.0, 10_000), (2.0, 12_000)))
        t0 = time.perf_counter()
        val = wp_general(a, b, 2.0)
        assert time.perf_counter() - t0 < 1.0
        # the offset objective is convex, so no offset in a fine scan does better
        for alpha in np.linspace(-1.0, 1.0, 41):
            assert val**2 <= offset_integral(a, b, alpha, 2.0) + 1e-12

    def test_self_distance_zero(self):
        # the p > 1 minimum sits at the offset kink 0, where the integral is
        # evaluated exactly; an offset only near it would read > 0, magnified
        # by the p-th root
        a, _ = random_weighted_pair(np.random.default_rng(51), 9, 1)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert wp_general(a, a, p) == 0.0

    def test_p_below_one_error(self):
        # for concave costs a sorted matching need not be optimal
        a, b = random_discrete_pair(np.random.default_rng(50), 4)
        for p in (0.5, -1.0):
            with pytest.raises(ValueError, match="p must be"):
                wp_general(a, b, p)

    @pytest.mark.parametrize("p", (np.nan, np.inf))
    def test_p_not_finite_error(self, p):
        a, b = random_discrete_pair(np.random.default_rng(48), 4)
        with pytest.raises(ValueError, match="p must be"):
            wp_general(a, b, p)


def _angle_lists(n):
    return st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=n, max_size=n)


# Atoms on a 36-point grid tie often, within a sample and across the pair.
_tied_samples = st.lists(st.integers(0, 35), min_size=1, max_size=16).map(
    lambda k: make_sample(np.array(k) * TWO_PI / 36)
)
_equal_size_samples = st.integers(1, 20).flatmap(
    lambda n: st.tuples(_angle_lists(n), _angle_lists(n))
).map(lambda pair: (make_sample(pair[0]), make_sample(pair[1])))


@st.composite
def _weighted_dists(draw, max_atoms=12):
    n = draw(st.integers(1, max_atoms))
    atoms = np.array(draw(_angle_lists(n)))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return DiscreteCircularDist(atoms, w / w.sum())


class TestW1Kernel:
    """Properties of the exact p = 1 formula behind wp_general."""

    @settings(max_examples=150)
    @given(_weighted_dists(), _weighted_dists())
    def test_symmetry_bit_exact(self, a, b):
        assert wp_general(a, b, 1.0) == wp_general(b, a, 1.0)

    @settings(max_examples=150)
    @given(_weighted_dists(), _weighted_dists(), st.floats(0.0, TWO_PI))
    def test_rotation_invariance(self, a, b, delta):
        def rot(d):
            return DiscreteCircularDist(normalize_angle(d.support + delta), d.weights)

        assert wp_general(rot(a), rot(b), 1.0) == pytest.approx(wp_general(a, b, 1.0), abs=1e-12)

    @settings(max_examples=100)
    @given(_equal_size_samples)
    def test_shift_scan_equal_sizes(self, pair):
        sa, sb = pair
        ref = shift_scan_wp(sa.angles, sb.angles, 1.0)
        assert wp_general(sa, sb, 1.0) == pytest.approx(ref, abs=1e-12)
        da, db = discrete_from_sample(sa), discrete_from_sample(sb)
        assert wp_general(da, db, 1.0) == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=40)
    @given(_weighted_dists(), _weighted_dists())
    def test_kink_scan_unequal_weights(self, a, b):
        assert wp_general(a, b, 1.0) == pytest.approx(wp_kink_scan(a, b, 1.0), abs=1e-9)

    @settings(max_examples=100)
    @given(_tied_samples, _tied_samples)
    def test_ties(self, sa, sb):
        # raw tied samples, their empirical distributions and (at equal
        # sizes) the shift scan all give the same distance
        raw = wp_general(sa, sb, 1.0)
        dists = wp_general(discrete_from_sample(sa), discrete_from_sample(sb), 1.0)
        assert raw == pytest.approx(dists, abs=1e-12)
        assert raw == wp_general(sb, sa, 1.0)
        if sa.n == sb.n:
            for p in (1.0, 1.5, 2.0):
                assert wp_general(sa, sb, p) == pytest.approx(
                    shift_scan_wp(sa.angles, sb.angles, p), abs=1e-12
                )


def canonical_order_loop(a, b):
    """Reference: walk the concatenated (atoms, weights) pairs to the first
    entry that differs."""
    for va, vb in zip(np.concatenate(a), np.concatenate(b)):
        if va < vb:
            return a, b
        if va > vb:
            return b, a
    return (a, b) if a[0].size <= b[0].size else (b, a)


# (atoms, weights) pairs on a 4-point lattice agree entry by entry often
_lattice_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                        st.lists(st.integers(1, 2), min_size=n, max_size=n))
).map(lambda xw: (np.sort(np.array(xw[0], dtype=float)), np.array(xw[1], dtype=float)))


class TestWpGeneralInputs:
    """wp_general at p > 1 reads samples and orders its arguments like the
    p = 1 kernel."""

    @settings(max_examples=300)
    @given(_lattice_pairs, _lattice_pairs)
    def test_canonical_order_matches_loop(self, a, b):
        assert _canonical_order(a, b)[0] is canonical_order_loop(a, b)[0]

    @settings(max_examples=100)
    @given(_weighted_dists(), _weighted_dists(), st.sampled_from((1.5, 2.0, 3.0)))
    def test_symmetry_bit_exact(self, a, b, p):
        assert wp_general(a, b, p) == wp_general(b, a, p)

    @settings(max_examples=60)
    @given(_tied_samples, _tied_samples, st.sampled_from((1.5, 2.0)))
    def test_tied_samples(self, sa, sb, p):
        # a raw sample keeps tied angles as separate 1/n atoms, as its
        # empirical distribution does
        ref = wp_kink_scan(discrete_from_sample(sa), discrete_from_sample(sb), p)
        assert wp_general(sa, sb, p) == pytest.approx(ref, abs=1e-9)
        assert wp_general(sa, sb, p) == wp_general(sb, sa, p)


class TestWpGeneralDispatch:
    """wp_general sends equal sizes with equal weights, and nothing else, to
    the cyclic-shift search."""

    def test_shift_search_dispatch(self, monkeypatch):
        calls = []
        inner = transport._wp_equal_weight_arrays

        def spy(xa, xb, p):
            calls.append(xa.size)
            return inner(xa, xb, p)

        monkeypatch.setattr(transport, "_wp_equal_weight_arrays", spy)
        rng = np.random.default_rng(54)
        raw = [make_sample(rng.uniform(0, TWO_PI, 12)) for _ in range(2)]
        tied = [make_sample(rng.integers(0, 6, 12) * TWO_PI / 6) for _ in range(2)]
        for sa, sb in (raw, tied):
            da, db = discrete_from_sample(sa), discrete_from_sample(sb)
            for a, b in ((sa, sb), (da, db), (sa, db)):
                calls.clear()
                wp_general(a, b, 2.0)
                assert calls == [12]
        calls.clear()
        wa, wb = random_weighted_pair(rng, 12, 12)
        other = discrete_from_sample(make_sample(rng.uniform(0, TWO_PI, 13)))
        for a, b in ((wa, wb), (wa, raw[0]), (raw[0], other)):
            wp_general(a, b, 2.0)
        assert calls == []
