import numpy as np
import pytest
from hypothesis import given, strategies as st

from circwass import (
    BoxConstraints,
    circ_dist,
    powell_min,
    select_kth,
)
from circwass.circular import TWO_PI

from conftest import convex_min_1d


class TestConvexMin1d:
    def test_quadratic(self):
        x, _ = convex_min_1d(lambda a: (a - 0.3) ** 2, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.3, abs=1e-7)

    def test_abs(self):
        x, v = convex_min_1d(lambda a: abs(a - 0.7), 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(0.7, abs=1e-7)
        assert v <= 1e-7

    def test_piecewise_linear_vs_grid_scan(self):
        # max of affine pieces is convex piecewise-linear
        rng = np.random.default_rng(20)
        slopes = rng.uniform(-5.0, 5.0, 10)
        intercepts = rng.uniform(-1.0, 1.0, 10)

        def f(a):
            return float(np.max(slopes * a + intercepts))

        grid = np.linspace(-1.0, 1.0, 1_000_001)
        ref = float(np.min(np.max(np.outer(grid, slopes) + intercepts, axis=1)))
        _, v = convex_min_1d(f, -1.0, 1.0, tol=1e-10)
        assert v <= ref + 1e-9
        # the scan overshoots the true kink minimum by at most slope*step/2
        assert v >= ref - np.max(np.abs(slopes)) * 1e-6

    def test_value_not_above_endpoints(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            c = rng.uniform(-2.0, 2.0)
            f = lambda a: (a - c) ** 2 + 0.1 * abs(a - c)
            _, v = convex_min_1d(f, -1.0, 1.0, tol=1e-9)
            assert v <= f(-1.0) + 1e-15 and v <= f(1.0) + 1e-15

    def test_minimizer_at_endpoint(self):
        x, v = convex_min_1d(lambda a: a, 0.0, 1.0, tol=1e-9)
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_errors(self):
        with pytest.raises(ValueError):
            convex_min_1d(lambda a: a, 1.0, 0.0, tol=1e-6)
        with pytest.raises(ValueError):
            convex_min_1d(lambda a: a, 0.0, 1.0, tol=0.0)


class TestSelectKth:
    def test_small(self):
        assert select_kth([3.0, 1.0, 2.0], 1) == 2.0
        assert select_kth([5.0], 0) == 5.0

    def test_sorting_oracle(self):
        rng = np.random.default_rng(22)
        for trial in range(20):
            n = int(rng.integers(1, 2000))
            vals = rng.normal(size=n)
            ref = np.sort(vals)
            for k in {0, n // 4, n // 2, n - 1}:
                assert select_kth(vals, k) == ref[k]

    def test_many_ties(self):
        rng = np.random.default_rng(23)
        vals = rng.integers(0, 5, 500).astype(float)
        ref = np.sort(vals)
        for k in (0, 100, 250, 499):
            assert select_kth(vals, k) == ref[k]

    def test_input_not_mutated(self):
        rng = np.random.default_rng(24)
        vals = rng.normal(size=300)
        before = vals.copy()
        select_kth(vals, 150)
        assert np.array_equal(vals, before)

    def test_large_sorting_oracle(self):
        rng = np.random.default_rng(25)
        vals = rng.normal(size=10_000)
        ref = np.sort(vals)
        for k in (0, 2500, 5000, 9999):
            assert select_kth(vals, k) == ref[k]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            select_kth([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            select_kth([1.0], -1)


def _plain_box(dim, lo=-10.0, hi=10.0):
    return BoxConstraints(np.full(dim, lo), np.full(dim, hi), np.zeros(dim, dtype=bool))


class TestBoxConstraints:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxConstraints(np.array([1.0]), np.array([0.0]), np.array([False]))
        with pytest.raises(ValueError, match="2\\*pi"):
            BoxConstraints(np.array([0.0]), np.array([1.0]), np.array([True]))

    def test_project(self):
        box = BoxConstraints(
            np.array([0.0, 0.0]), np.array([TWO_PI, 1.0]), np.array([True, False])
        )
        out = box.project(np.array([TWO_PI + 0.5, 2.0]))
        assert out[0] == pytest.approx(0.5)
        assert out[1] == 1.0


class TestPowell:
    def test_quadratic_3d(self):
        c = np.array([1.0, -2.0, 3.0])
        rep = powell_min(lambda x: float(np.sum((x - c) ** 2)), np.zeros(3), _plain_box(3), tol=1e-12)
        assert np.allclose(rep.argmin, c, atol=1e-6)
        assert rep.converged

    def test_periodic_wrap(self):
        box = BoxConstraints(
            np.array([0.0]), np.array([TWO_PI]), np.array([True])
        )
        rep = powell_min(lambda x: 1.0 - np.cos(x[0] - 6.2), np.array([1.0]), box, tol=1e-12)
        assert 0.0 <= rep.argmin[0] < TWO_PI
        assert circ_dist(rep.argmin[0], 6.2) <= 1e-6

    def test_rosenbrock(self):
        def rosen(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

        rep = powell_min(rosen, np.array([-1.2, 1.0]), _plain_box(2, -5.0, 5.0), tol=1e-14, max_iter=200)
        assert rep.value <= 1e-8
        # long-run check: more cycles confirm the same basin (1, 1)
        rep2 = powell_min(rosen, np.array([-1.2, 1.0]), _plain_box(2, -5.0, 5.0), tol=1e-15, max_iter=2000)
        assert np.allclose(rep2.argmin, [1.0, 1.0], atol=1e-4)

    @pytest.mark.parametrize("dim", (1, 2, 3, 4))
    def test_posdef_quadratic(self, dim):
        rng = np.random.default_rng(26 + dim)
        a = rng.normal(size=(dim, dim))
        h = a @ a.T + dim * np.eye(dim)
        c = rng.uniform(-1.0, 1.0, dim)
        f = lambda x: float((x - c) @ h @ (x - c))
        rep = powell_min(f, np.zeros(dim), _plain_box(dim), tol=1e-14, max_iter=100)
        assert rep.value <= 1e-8

    def test_max_iter_flag(self):
        rep = powell_min(
            lambda x: float(np.sum(np.abs(x - 3.0))), np.zeros(4), _plain_box(4), tol=1e-15, max_iter=1
        )
        assert not rep.converged

    def test_never_above_start(self):
        # a needle at the start and a wide basin at 5: a line search that
        # misses the needle must not trade the start for the basin
        f = lambda x: float(-np.exp(-(x[0] / 1e-3) ** 2) - 0.5 * np.exp(-(((x[0] - 5.0) / 2.0) ** 2)))
        rep = powell_min(f, np.zeros(1), _plain_box(1), tol=1e-10)
        assert rep.value <= f(np.zeros(1))
        assert rep.value == f(rep.argmin)

    def test_respects_box(self):
        rep = powell_min(lambda x: float((x[0] + 20.0) ** 2), np.zeros(1), _plain_box(1), tol=1e-10)
        assert rep.argmin[0] == pytest.approx(-10.0, abs=1e-6)

    @given(
        st.integers(2, 3).flatmap(
            lambda d: st.tuples(
                st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d),
                st.floats(0.0, TWO_PI, exclude_max=True),
                st.lists(st.floats(-1.5, 1.5), min_size=d - 1, max_size=d - 1),
                st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d),
            )
        )
    )
    def test_nonsmooth_weighted_l1(self, case):
        # sum_i w_i*|x_i - c_i|, the shape of W1, with a periodic first
        # coordinate; a c_i beyond +-1 puts the minimizer on a face
        w, c0, c, u = (np.asarray(v, dtype=float) for v in case)
        d = w.size
        box = BoxConstraints(
            np.r_[0.0, -np.ones(d - 1)], np.r_[TWO_PI, np.ones(d - 1)], np.arange(d) == 0
        )
        f = lambda x: float(w[0] * circ_dist(x[0], c0) + w[1:] @ np.abs(x[1:] - c))
        x0 = box.lower + u * (box.upper - box.lower)
        tol = 1e-10
        rep = powell_min(f, x0, box, tol=tol)
        assert np.all((box.lower <= rep.argmin) & (rep.argmin <= box.upper))
        assert rep.value <= f(x0) and rep.value == f(rep.argmin)
        if rep.converged:  # a search cut at the iteration cap promises no distance
            off = np.r_[circ_dist(rep.argmin[0], c0), np.abs(rep.argmin[1:] - np.clip(c, -1.0, 1.0))]
            assert np.max(off) <= np.sqrt(tol)


class TestPowellOneDim:
    # one dimension runs Brent's method instead of the simplex search

    def test_honours_tol(self):
        # the bounded scalar method stalls at a step of sqrt(eps)*|x| ~ 1e-8
        c = 2.0 + 1e-3
        rep = powell_min(lambda x: float((x[0] - c) ** 2), np.array([1.0]), _plain_box(1), tol=1e-12)
        assert abs(rep.argmin[0] - c) <= 1e-10
        assert rep.converged

    def test_minimum_beyond_face(self):
        # f is never called outside the box, and the face itself is returned
        def f(x):
            assert -10.0 <= x[0] <= 10.0
            return float(-x[0])

        rep = powell_min(f, np.array([9.0]), _plain_box(1), tol=1e-10)
        assert rep.argmin[0] == 10.0 and rep.value == -10.0

    def test_start_at_face(self):
        rep = powell_min(lambda x: float((x[0] - 3.0) ** 2), np.array([-10.0]), _plain_box(1), tol=1e-12)
        assert rep.argmin[0] == pytest.approx(3.0, abs=1e-10)

    def test_flat(self):
        calls = []
        rep = powell_min(lambda x: calls.append(x.copy()) or 1.0, np.array([0.5]), _plain_box(1))
        assert calls[0][0] == 0.5
        assert (rep.argmin[0], rep.value, rep.converged) == (0.5, 1.0, True)
        assert rep.evaluations == len(calls) <= 5

