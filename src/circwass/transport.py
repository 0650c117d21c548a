"""Circular Wasserstein distances.

At p = 1 every discrete distance is the exact CDF-offset formula over the
merged breakpoints of both CDFs, for any sizes, weights and ties. For p > 1,
equal-weight distances search the cyclic shifts of a sorted matching (each
one slice of the atoms laid over three turns), general weights a CDF offset
by scipy's bounded Brent search. p must be finite and at least 1: for the
concave costs of p < 1 a sorted matching need not be optimal. The order-1
grid formula uses a linear-time median and ``family_grid_cdf`` (real FFT).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .circular import TWO_PI, CircularSample, DiscreteCircularDist
# family_cdf stays importable here: bench/spans.py traces it under this module
from .families import FamilyParams, family_cdf, family_grid_cdf  # noqa: F401
from .optimize import select_kth

__all__ = [
    "GridCdf",
    "grid_cdf_of",
    "wp_discrete",
    "w1_grid",
    "wp_general",
]


@dataclass(frozen=True)
class GridCdf:
    """CDF values at the grid points 2*pi*i/D, i = 1..D."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("grid CDF needs at least 2 points")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("grid CDF must be non-decreasing")
        if abs(v[-1] - 1.0) > 1e-12:
            raise ValueError("grid CDF must end at 1")
        if v[0] < -1e-12 or np.any(v > 1.0 + 1e-12):
            raise ValueError("grid CDF values must lie in [0, 1]")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def D(self) -> int:
        return int(self.values.size)


def grid_cdf_of(source, D: int) -> GridCdf:
    """CDF of a sample or family at the D grid points 2*pi*i/D, i = 1..D."""
    if D < 2:
        raise ValueError("D must be >= 2")
    if isinstance(source, CircularSample):
        grid = TWO_PI * np.arange(1, D + 1) / D
        # atoms exactly at the cut count as 2*pi, landing in the last cell
        zeros = int(np.searchsorted(source.angles, 0.0, side="right"))
        vals = (np.searchsorted(source.angles, grid, side="right") - zeros) / source.n
    elif isinstance(source, FamilyParams):
        vals = family_grid_cdf(source, D)
    else:
        raise TypeError("source must be a CircularSample or FamilyParams")
    vals[-1] = 1.0
    return GridCdf(np.clip(vals, 0.0, 1.0))


def _atoms(d) -> tuple[np.ndarray, np.ndarray]:
    """(sorted atoms, weights); a CircularSample keeps tied angles as
    separate atoms of weight 1/n."""
    if isinstance(d, CircularSample):
        return d.angles, np.full(d.n, 1.0 / d.n)
    return d.support, d.weights


def _check_p(p: float) -> None:
    if not 1.0 <= p < np.inf:
        raise ValueError("p must be finite and >= 1")


def _check_equal_weight_pair(a, b):
    (xa, wa), (xb, wb) = _atoms(a), _atoms(b)
    w = np.concatenate([wa, wb])
    if xa.size != xb.size or not np.allclose(w, 1.0 / xa.size, rtol=0, atol=1e-12):
        raise ValueError("equal-weight inputs required")


def _shift_costs(xa: np.ndarray, xb: np.ndarray, p: float):
    """Memoized cost of cyclic shift k, mean |xa[i] - xb[i + k]|^p (np.mean's
    sum and division), xb wound by a turn where i + k leaves [0, n)."""
    n = xa.size
    tripled = np.concatenate([xb - TWO_PI, xb, xb + TWO_PI])

    @cache
    def cost(k: int) -> float:
        return float(np.add.reduce(np.abs(xa - tripled[n + k : 2 * n + k]) ** p)) / n

    return cost


def _wp_equal_weight_arrays(xa: np.ndarray, xb: np.ndarray, p: float) -> float:
    """W_p between equal-weight atom lists (sorted), via convex search over shifts."""
    n = xa.size
    cost = _shift_costs(xa, xb, p)
    lo, hi = -n, n
    while hi - lo > 2:
        mid = (lo + hi) // 2
        if cost(mid) <= cost(mid + 1):
            hi = mid + 1
        else:
            lo = mid
    k_hat = min(range(lo, hi + 1), key=cost)
    # 3-point local scan absorbs flat plateaus from tied costs
    for k in (k_hat - 2, k_hat - 1, k_hat + 1, k_hat + 2):
        if -n <= k <= n and cost(k) < cost(k_hat):
            k_hat = k
    if not (cost(k_hat) <= cost(max(k_hat - 1, -n)) and cost(k_hat) <= cost(min(k_hat + 1, n))):
        k_hat = min(range(-n, n + 1), key=cost)  # convexity failed near ties
    return cost(k_hat) ** (1.0 / p)


def _canonical_order(a, b):
    # fix the argument order so W_p(a, b) == W_p(b, a) to the last bit
    # (summation order would otherwise differ by an ulp); a and b are
    # (atoms, weights) pairs, compared lexicographically
    for va, vb in zip(np.concatenate(a), np.concatenate(b)):
        if va < vb:
            return a, b
        if va > vb:
            return b, a
    return (a, b) if a[0].size <= b[0].size else (b, a)


def _w1_kernel(a, b) -> float:
    """Exact circular W_1 between (sorted atoms, weights) pairs: F_a - F_b is
    constant between merged breakpoints, so the optimal offset is its
    segment-length-weighted median (tied atoms give zero-length segments)."""
    (xa, wa), (xb, wb) = _canonical_order(a, b)
    x = np.concatenate([xa, xb])
    order = np.argsort(x, kind="stable")
    lengths = np.diff(np.concatenate([[0.0], x[order], [TWO_PI]]))
    g = np.concatenate([[0.0], np.cumsum(np.concatenate([wa, -wb])[order])])
    by_g = np.argsort(g, kind="stable")
    cum = np.cumsum(lengths[by_g])
    alpha = g[by_g[np.searchsorted(cum, 0.5 * cum[-1])]]
    return float(np.sum(lengths * np.abs(g - alpha)))


def wp_discrete(a, b, p: float) -> float:
    """W_p between equal-weight discrete circular distributions.

    Either side may be a DiscreteCircularDist or a CircularSample; a sample
    keeps tied angles as separate atoms of weight 1/n. At p = 1 this is the
    exact CDF-offset formula, which also holds for any sizes and weights.
    """
    _check_p(p)
    if p == 1.0:
        return _w1_kernel(_atoms(a), _atoms(b))
    _check_equal_weight_pair(a, b)
    (xa, _), (xb, _) = _canonical_order(_atoms(a), _atoms(b))
    return _wp_equal_weight_arrays(xa, xb, p)


def w1_grid(q: GridCdf, pm: GridCdf) -> float:
    """W_1 between grid discretizations: (2*pi/D) * sum |d_i - m| with m the
    (lower) median of the CDF differences, found in linear time."""
    if q.D != pm.D:
        raise ValueError("grid sizes must match")
    d = q.values - pm.values
    m = select_kth(d, (d.size - 1) // 2)
    return float(TWO_PI / q.D * np.sum(np.abs(d - m)))


def _offset_integral(a: DiscreteCircularDist, b: DiscreteCircularDist, alpha: float, p: float) -> float:
    """Exact integral over u of |Qa^{-1}(u) - Qb^{-1}(u + alpha)|^p."""
    cum_a = a.cumweights()
    cum_b = b.cumweights()
    # breakpoints where either quantile changes atoms
    cuts = [cum_a[:-1]]
    for m in (-2, -1, 0, 1, 2):
        cuts.append(cum_b + m - alpha)
    u = np.concatenate([[0.0, 1.0]] + cuts)
    u = np.unique(u[(u >= 0.0) & (u <= 1.0)])
    mid = 0.5 * (u[:-1] + u[1:])
    lengths = np.diff(u)
    ia = np.searchsorted(cum_a, mid, side="left")
    v = mid + alpha
    wind = np.ceil(v) - 1.0
    v0 = v - wind
    low = v0 <= 0.0  # guard fp fallout at cell edges
    v0[low] += 1.0
    wind[low] -= 1.0
    ib = np.searchsorted(cum_b, np.minimum(v0, 1.0), side="left")
    diff = a.support[ia] - (b.support[ib] + TWO_PI * wind)
    return float(np.sum(lengths * np.abs(diff) ** p))


def _nearest_kink(a: DiscreteCircularDist, b: DiscreteCircularDist, alpha: float) -> float:
    """The offset kink cumB_j - cumA_i + m, m in {-1, 0, 1}, nearest to alpha."""
    ca, cb = a.cumweights(), b.cumweights()
    m = np.array([-1.0, 0.0, 1.0])
    j = np.searchsorted(cb, (alpha + ca)[:, None] - m)
    near = np.stack([cb[np.maximum(j - 1, 0)], cb[np.minimum(j, cb.size - 1)]])
    kinks = near - ca[:, None] + m
    return float(kinks.flat[np.argmin(np.abs(kinks - alpha))])


def wp_general(a: DiscreteCircularDist, b: DiscreteCircularDist, p: float) -> float:
    """W_p for arbitrary weights. At p = 1 this is the exact CDF-offset
    formula. For p > 1 the exact objective in the CDF offset is piecewise
    linear and convex (Delon, Salomon & Sobolevski 2010): bounded Brent
    search brackets its minimum, which sits at the nearest offset kink."""
    _check_p(p)
    if p == 1.0:
        return _w1_kernel(_atoms(a), _atoms(b))
    from scipy.optimize import minimize_scalar

    objective = lambda alpha: _offset_integral(a, b, alpha, p)
    res = minimize_scalar(
        objective, bounds=(-1.5, 1.5), method="bounded", options={"xatol": 1e-12}
    )
    return min(res.fun, objective(_nearest_kink(a, b, res.x))) ** (1.0 / p)
