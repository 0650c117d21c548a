"""Fast tests of the benchmark's own arithmetic: python3 -m pytest -q bench"""

import math

import numpy as np
import pytest

from metrics import tail_latency
from oracles import w1_cdf_offset, w1_grid_objective, wp_shift_scan
from spans import Tracer


class FakeClock:
    """Returns the scripted times in order, one per clock reading."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_synthetic_tree():
    # op [0, 10] -> a [1, 6] -> b [2, 5]; op -> c [7, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5, 6, 7, 9, 10]))
    b = tracer.wrap(lambda: None, "b")
    a = tracer.wrap(lambda: b(), "a")
    c = tracer.wrap(lambda: None, "c")
    op = tracer.wrap(lambda: (a(), c()), "op")
    op()
    dur, self_t = tracer.self_times()
    assert dict(zip(tracer.names, dur)) == {"op": 10, "a": 5, "b": 3, "c": 2}
    assert dict(zip(tracer.names, self_t)) == {"op": 3, "a": 2, "b": 3, "c": 2}
    assert self_t.sum() == dur[tracer.names.index("op")]
    agg = tracer.aggregate()
    assert agg["a"] == {"calls": 1, "total_s": 5.0, "self_s": 2.0, "points": 0}


def test_span_closed_when_call_raises():
    tracer = Tracer(clock=FakeClock([0, 1, 4, 6]))

    def boom():
        raise ValueError("numerical failure")

    inner = tracer.wrap(boom, "inner")

    def body():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap(body, "op")()
    assert tracer.parents == [-1, 0]
    assert list(tracer.self_times()[1]) == [3.0, 3.0]


def test_install_reports_deleted_names_as_absent():
    import types

    mods = {m: types.SimpleNamespace() for m in ("harness", "estimate", "transport", "cli")}
    original = lambda values, k: sorted(values)[k]  # noqa: E731
    mods["transport"].select_kth = original
    tracer = Tracer()
    tracer.install(mods)
    assert mods["transport"].select_kth([3.0, 1.0, 2.0], 1) == 2.0
    assert tracer.aggregate()["optimize.select_kth"]["points"] == 3
    assert "transport.select_kth" not in tracer.absent
    assert "estimate.powell_min" in tracer.absent
    tracer.uninstall()
    assert mods["transport"].select_kth is original


@pytest.mark.parametrize(
    "n, rank, pct",
    [(11, 1, 100 / 11), (20, 10, 50.0), (110, 100, 100 * 100 / 110), (1000, 990, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, rank, pct):
    samples = list(np.random.default_rng(n).permutation(np.arange(1, n + 1)))
    value, percentile, count = tail_latency(samples)
    assert (value, count) == (rank, n)
    assert math.isclose(percentile, pct)
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_with_too_few_samples(n):
    assert tail_latency([1.0] * n) == (None, None, n)


HALF_PI = math.pi / 2


@pytest.mark.parametrize(
    "xa, xb, want",
    [
        ([0.0], [HALF_PI], HALF_PI),                   # one point moves a quarter turn
        ([0.0], [3 * HALF_PI], HALF_PI),               # shorter way round, across the cut
        ([0.0, math.pi], [HALF_PI, 3 * HALF_PI], HALF_PI),
        ([0.0], [0.0, math.pi], HALF_PI),              # unequal sizes: half the mass moves pi
        ([1.0, 1.0], [1.0, 2.0], 0.5),                 # a tie: one of two atoms moves 1
        ([0.5, 2.0, 4.0], [0.5, 2.0, 4.0], 0.0),
    ],
)
def test_w1_oracle_hand_computed(xa, xb, want):
    assert math.isclose(w1_cdf_offset(xa, xb), want, abs_tol=1e-15)
    assert math.isclose(w1_cdf_offset(xb, xa), want, abs_tol=1e-15)


@pytest.mark.parametrize(
    "angles, model, want",
    [
        ([0.1], [0.25, 0.5, 0.75, 1.0], HALF_PI),          # d = .75, .5, .25, 0 about .375
        ([0.1], [0.75, 0.75, 0.75, 1.0], math.pi / 8),    # the point sits in the first cell
        ([0.0], [0.75, 0.75, 0.75, 1.0], 3 * math.pi / 8),  # at the cut it counts as 2*pi
        ([0.1, 2.0, 3.3, 5.0], [0.25, 0.5, 0.75, 1.0], 0.0),
    ],
)
def test_w1_grid_objective_hand_computed(angles, model, want):
    assert math.isclose(w1_grid_objective(angles, model), want, abs_tol=1e-15)


def test_shift_scan_matches_w1_oracle_on_equal_sizes():
    rng = np.random.default_rng(5)
    xa, xb = rng.uniform(0, 2 * np.pi, 40), rng.uniform(0, 2 * np.pi, 40)
    scan = wp_shift_scan(xa, xb, ps=(1.0, 2.0))
    assert math.isclose(scan[1.0], w1_cdf_offset(xa, xb), rel_tol=1e-12)
    assert scan[2.0] >= scan[1.0]
    assert wp_shift_scan([0.0, math.pi], [HALF_PI, 3 * HALF_PI], ps=(2.0,))[2.0] == pytest.approx(HALF_PI)


def test_nesting_check_flags_a_child_outside_its_parent():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
    tracer.wrap(lambda: tracer.wrap(lambda: None, "child")(), "op")()
    assert tracer.nesting_errors() == []
    tracer.ends[1] = 5.0  # the child now ends after the op
    assert tracer.nesting_errors() == ["span 1 (child) lies outside its parent 0 (op)"]
    assert tracer.self_times()[1][0] < 0


def test_deleted_optimizers_take_objective_and_convergence_with_them():
    import types

    mods = {m: types.SimpleNamespace() for m in ("harness", "estimate", "transport", "cli")}
    mods["estimate"].powell_min = lambda f, x0: None
    tracer = Tracer()
    tracer.install(mods)
    gone = tracer.absent_spans()
    assert "optimize.powell" not in gone and "estimate.objective" not in gone
    assert {"optimize.de", "transport.wp_general"} <= gone and "estimate.converged" not in gone
    mods["estimate"] = types.SimpleNamespace()
    tracer = Tracer()
    tracer.install(mods)
    assert {"optimize.powell", "estimate.objective", "estimate.converged"} <= tracer.absent_spans()
