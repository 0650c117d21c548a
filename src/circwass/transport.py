"""Circular Wasserstein distances.

``wp_general`` is the one exact W_p between discrete inputs and picks its
kernel from them. At p = 1 it is the exact CDF-offset formula over the
merged breakpoints of both CDFs, for any sizes, weights and ties. For
p > 1, equal sizes with equal weights search the cyclic shifts of a sorted
matching (each one slice of the atoms laid over three turns); other weights
bisect the kinks of the exact CDF-offset objective on the sign of its slope.
p must be finite and at least 1: for the concave costs of p < 1 a sorted
matching need not be optimal. The order-1 grid formula uses a linear-time
median and ``family_grid_cdf`` (real FFT). Nothing here imports scipy.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .circular import TWO_PI, CircularSample
# family_cdf and select_kth stay importable here: bench/spans.py traces them
# under this module
from .families import FamilyParams, family_cdf, family_grid_cdf  # noqa: F401
from .optimize import select_kth  # noqa: F401

__all__ = [
    "GridCdf",
    "grid_cdf_of",
    "w1_grid",
    "wp_general",
]


def _check_non_decreasing(v: np.ndarray) -> None:
    if (v[1:] - v[:-1] < -1e-12).any():
        raise ValueError("grid CDF must be non-decreasing")


@dataclass(frozen=True)
class GridCdf:
    """CDF values at the grid points 2*pi*i/D, i = 1..D."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("grid CDF needs at least 2 points")
        _check_non_decreasing(v)
        if abs(v[-1] - 1.0) > 1e-12:
            raise ValueError("grid CDF must end at 1")
        if v[0] < -1e-12 or np.any(v > 1.0 + 1e-12):
            raise ValueError("grid CDF values must lie in [0, 1]")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def D(self) -> int:
        return int(self.values.size)


def _grid_values(vals: np.ndarray) -> np.ndarray:
    """Grid CDF values as grid_cdf_of returns them: the last point set to 1,
    all clipped into [0, 1], checked non-decreasing."""
    vals[-1] = 1.0
    vals = np.clip(vals, 0.0, 1.0)
    _check_non_decreasing(vals)
    return vals


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
    return GridCdf(_grid_values(vals))


def _atoms(d) -> tuple[np.ndarray, np.ndarray]:
    """(sorted atoms, weights); a CircularSample keeps tied angles as
    separate atoms of weight 1/n."""
    if isinstance(d, CircularSample):
        return d.angles, np.full(d.n, 1.0 / d.n)
    return d.support, d.weights


def _check_p(p: float) -> None:
    if not 1.0 <= p < np.inf:
        raise ValueError("p must be finite and >= 1")


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
    # (atoms, weights) pairs, compared lexicographically. Their atoms
    # open both concatenations, so a difference within the shorter atom
    # list decides without building them.
    m = min(a[0].size, b[0].size)
    differ = np.flatnonzero(a[0][:m] != b[0][:m])
    if differ.size:
        return (a, b) if a[0][differ[0]] < b[0][differ[0]] else (b, a)
    va, vb = np.concatenate(a), np.concatenate(b)
    m = min(va.size, vb.size)
    differ = np.flatnonzero(va[:m] != vb[:m])
    if differ.size:
        return (a, b) if va[differ[0]] < vb[differ[0]] else (b, a)
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


def _w1_grid_sum(d: np.ndarray) -> float:
    """(2*pi/D) * sum |d_i - m| over D grid CDF differences d, with m their
    lower median, found by numpy's introselect in linear time."""
    k = (d.size - 1) // 2
    return float(TWO_PI / d.size * np.sum(np.abs(d - np.partition(d, k)[k])))


def w1_grid(q: GridCdf, pm: GridCdf) -> float:
    """W_1 between grid discretizations: (2*pi/D) * sum |d_i - m| with m the
    (lower) median of the CDF differences, found in linear time."""
    if q.D != pm.D:
        raise ValueError("grid sizes must match")
    return _w1_grid_sum(q.values - pm.values)


def wp_general(a, b, p: float) -> float:
    """Exact W_p between discrete circular distributions of any sizes and
    weights; either side may be a DiscreteCircularDist or a CircularSample,
    and tied atoms stay separate. At p = 1 this is the exact CDF-offset
    formula. For p > 1, equal sizes with equal weights take the cyclic-shift
    search (Rabin, Delon & Gousseau 2011). Otherwise the exact objective in
    the CDF offset alpha is convex and piecewise linear, with kinks at
    cumB_j - cumA_i + m (Delon, Salomon & Sobolevski 2010). Bisection on the
    sign of its exact slope narrows the offsets to a bracket, then to the
    two kinks in it where the sign turns."""
    _check_p(p)
    if p == 1.0:
        return _w1_kernel(_atoms(a), _atoms(b))
    (xa, wa), (xb, wb) = _canonical_order(_atoms(a), _atoms(b))
    if xa.size == xb.size and np.all(wa == wa[0]) and np.all(wb == wa[0]):
        return _wp_equal_weight_arrays(xa, xb, p)
    ca, cb = np.cumsum(wa), np.cumsum(wb)
    ca[-1] = cb[-1] = 1.0
    turns = np.arange(-2.0, 3.0)[:, None]
    # Qb^{-1}, extended by winding, is atoms[k] on (jumps[k - 1], jumps[k]]
    jumps = (cb + turns).ravel()
    atoms = np.append(xb + TWO_PI * turns, xb[0] + 3.0 * TWO_PI)

    def integral(alpha):
        # exact integral over u of |Qa^{-1}(u) - Qb^{-1}(u + alpha)|^p: both
        # quantiles are constant between the cuts
        u = np.concatenate([[0.0, 1.0], ca[:-1], jumps - alpha])
        u = np.unique(u[(u >= 0.0) & (u <= 1.0)])
        mid = 0.5 * (u[:-1] + u[1:])
        diff = xa[np.searchsorted(ca, mid)] - atoms[np.searchsorted(jumps, mid + alpha)]
        return float(np.sum(np.diff(u) * np.abs(diff) ** p))

    def slope(alpha):
        # right derivative: raising alpha moves the cell just left of u = c - alpha,
        # c a jump in (alpha, alpha + 1], from the atom below c to the one above
        k0, k1 = np.searchsorted(jumps, [alpha, alpha + 1.0], side="right")
        x = xa[np.minimum(np.searchsorted(ca, jumps[k0:k1] - alpha), ca.size - 1)]
        return np.sum(np.abs(x - atoms[k0 + 1 : k1 + 1]) ** p - np.abs(x - atoms[k0:k1]) ** p)

    # the slope is < 0 at -1.5, where each atom of a lies above the atoms of b
    # it meets, and > 0 at 1.5, where it lies below them
    lo, hi = -1.5, 1.5
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    # the kinks in (lo, hi]: jumps in (lo + cumA_i, hi + cumA_i] for each i
    first = np.searchsorted(jumps, lo + ca, side="right")
    count = np.searchsorted(jumps, hi + ca, side="right") - first
    i = np.repeat(np.arange(ca.size), count)
    k = first[i] + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    kinks = np.unique(np.append(jumps[k] - ca[i], [lo, hi]))
    lo, hi = 0, kinks.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if slope(kinks[mid]) < 0.0 else (lo, mid)
    return min(integral(kinks[lo]), integral(kinks[hi])) ** (1.0 / p)
