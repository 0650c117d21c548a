import numpy as np
import pytest

from circwass import (
    CircularSample,
    DiscreteCircularDist,
    circ_dist,
    discrete_from_sample,
    load_sample,
    make_sample,
    normalize_angle,
)
from circwass.circular import TWO_PI, save_sample

from conftest import empirical_cdf


class TestCircDist:
    def test_antipodal(self):
        assert circ_dist(0.0, np.pi) == pytest.approx(np.pi, abs=1e-15)

    def test_wraparound(self):
        assert circ_dist(0.5, 6.0) == pytest.approx(TWO_PI - 5.5, abs=1e-12)

    def test_identity_random(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, TWO_PI, 100)
        assert np.all(circ_dist(x, x) == 0.0)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-10.0, 10.0, 500)
        y = rng.uniform(-10.0, 10.0, 500)
        d = circ_dist(x, y)
        assert np.allclose(d, circ_dist(y, x), atol=0.0)
        assert np.all(d >= 0.0) and np.all(d <= np.pi + 1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        x, y, z = rng.uniform(0.0, TWO_PI, (3, 1000))
        assert np.all(circ_dist(x, z) <= circ_dist(x, y) + circ_dist(y, z) + 1e-12)


class TestNormalizeAngle:
    def test_basic(self):
        assert normalize_angle(3 * np.pi) == pytest.approx(np.pi, abs=1e-14)
        assert normalize_angle(-0.5) == pytest.approx(TWO_PI - 0.5, abs=1e-14)

    def test_range(self):
        rng = np.random.default_rng(4)
        x = normalize_angle(rng.uniform(-100.0, 100.0, 10_000))
        assert np.all((x >= 0.0) & (x < TWO_PI))

    def test_tiny_negative(self):
        # floor rounding must not leave a value equal to 2*pi
        assert 0.0 <= normalize_angle(-1e-18) < TWO_PI


class TestMakeSample:
    def test_normalization(self):
        s = make_sample([3 * np.pi])
        assert s.angles[0] == pytest.approx(np.pi, abs=1e-14)

    def test_sorting(self):
        s = make_sample([1.0, 0.5])
        assert np.allclose(s.angles, [0.5, 1.0])

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty sample"):
            make_sample([])

    def test_nonfinite_error(self):
        with pytest.raises(ValueError):
            make_sample([0.1, np.nan])
        with pytest.raises(ValueError):
            make_sample([np.inf])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        s1 = make_sample(rng.uniform(-7.0, 7.0, 200))
        s2 = make_sample(s1.angles)
        assert np.array_equal(s1.angles, s2.angles)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            CircularSample(np.array([1.0, 0.5]))  # not sorted
        with pytest.raises(ValueError):
            CircularSample(np.array([-0.1]))


class TestEmpiricalCdf:
    def test_single_atom(self):
        s = make_sample([np.pi])
        assert empirical_cdf(s, np.pi / 2) == 0.0
        assert empirical_cdf(s, np.pi) == 1.0  # right-continuity at the atom
        assert empirical_cdf(s, np.pi + TWO_PI) == 2.0

    def test_boundary(self):
        rng = np.random.default_rng(6)
        s = make_sample(rng.uniform(0.01, TWO_PI - 0.01, 37))
        assert empirical_cdf(s, TWO_PI - 1e-12) == pytest.approx(1.0)
        assert empirical_cdf(s, 0.0) == 0.0

    def test_winding(self):
        rng = np.random.default_rng(7)
        s = make_sample(rng.uniform(0.0, TWO_PI, 25))
        x = rng.uniform(0.0, TWO_PI, 50)
        for k in (-2, -1, 1, 3):
            assert np.allclose(
                empirical_cdf(s, x + TWO_PI * k), empirical_cdf(s, x) + k, atol=1e-12
            )

    def test_counts(self):
        s = make_sample([0.5, 1.5, 1.5, 4.0])
        assert empirical_cdf(s, 1.5) == pytest.approx(0.75)
        assert empirical_cdf(s, 1.0) == pytest.approx(0.25)


class TestDiscreteFromSample:
    def test_two_atoms(self):
        d = discrete_from_sample(make_sample([0.0, np.pi]))
        assert np.allclose(d.support, [0.0, np.pi])
        assert np.allclose(d.weights, [0.5, 0.5])

    def test_ties_kept(self):
        # tied atoms stay separate, sorted stably with their weights as given
        d = DiscreteCircularDist(np.array([2.0, 1.0, 2.0, 1.0]), np.array([0.1, 0.2, 0.3, 0.4]))
        assert d.support.tolist() == [1.0, 1.0, 2.0, 2.0]
        assert d.weights.tolist() == [0.2, 0.4, 0.1, 0.3]
        d = discrete_from_sample(make_sample([np.pi, np.pi]))
        assert d.support.tolist() == [np.pi, np.pi]
        assert d.weights.tolist() == [0.5, 0.5]

    def test_sorted_input_kept(self):
        # sorted support, ties included, comes back as given, in arrays of
        # the distribution's own: the caller's stay writeable
        s, w = np.array([1.0, 1.0, 2.0]), np.array([0.5, 0.25, 0.25])
        d = DiscreteCircularDist(s, w)
        assert d.support.tolist() == [1.0, 1.0, 2.0]
        assert d.weights.tolist() == [0.5, 0.25, 0.25]
        assert s.flags.writeable and w.flags.writeable
        assert not np.shares_memory(d.support, s) and not np.shares_memory(d.weights, w)

    def test_five_distinct(self):
        d = discrete_from_sample(make_sample([0.1, 0.7, 2.0, 3.3, 5.5]))
        assert np.allclose(d.weights, 0.2)

    def test_dist_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteCircularDist(np.array([0.1, 0.2]), np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="positive"):
            DiscreteCircularDist(np.array([0.1, 0.2]), np.array([1.0, 0.0]))


class TestSampleIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        s = make_sample(rng.uniform(0.0, TWO_PI, 64))
        path = tmp_path / "s.txt"
        save_sample(s, path)
        s2 = load_sample(path)
        assert np.array_equal(s.angles, s2.angles)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# header\n0.5\n\n1.25\n# trailing\n")
        s = load_sample(path)
        assert np.allclose(s.angles, [0.5, 1.25])
