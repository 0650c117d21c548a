"""Distance oracles for the output checks, independent of `circwass.transport`.

Inputs are raw sample angles in [0, 2*pi); each sample is the empirical
distribution with weight 1/n per point (ties allowed).
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def w1_cdf_offset(xa, xb) -> float:
    """Exact circular W1 by the CDF-offset formula on merged breakpoints.

    W1 = min over alpha of the integral over [0, 2*pi) of |F_a - F_b - alpha|.
    Both CDFs are constant between consecutive breakpoints, so the integral
    is a weighted sum whose minimizer is a weighted median of F_a - F_b
    with the segment lengths as weights. Valid for any sample sizes.
    """
    xa = np.sort(np.asarray(xa, dtype=float))
    xb = np.sort(np.asarray(xb, dtype=float))
    cuts = np.unique(np.concatenate([xa, xb, [0.0, TWO_PI]]))
    left, length = cuts[:-1], np.diff(cuts)
    g = (np.searchsorted(xa, left, side="right") / xa.size
         - np.searchsorted(xb, left, side="right") / xb.size)
    order = np.argsort(g, kind="stable")
    cum = np.cumsum(length[order])
    alpha = g[order][np.searchsorted(cum, 0.5 * cum[-1])]
    return float(np.sum(length * np.abs(g - alpha)))


def w1_grid_objective(angles, model_cdf) -> float:
    """The W1 grid objective: (2*pi/D) * sum |d_i - m| over the D grid points
    2*pi*i/D, i = 1..D, with d the sample CDF minus `model_cdf` (the model
    CDF at those points) and m a median of d.

    Angles exactly at the cut count as 2*pi, in the last cell. Any median
    gives the same sum, so this takes the midpoint of the middle pair.
    """
    model = np.array(model_cdf, dtype=float)
    model[-1] = 1.0
    D = model.size
    grid = TWO_PI * np.arange(1, D + 1) / D
    xs = np.sort(np.asarray(angles, dtype=float))
    q = (np.searchsorted(xs, grid, side="right") - np.count_nonzero(xs <= 0.0)) / xs.size
    q[-1] = 1.0
    d = q - np.clip(model, 0.0, 1.0)
    return float(TWO_PI / D * np.sum(np.abs(d - np.median(d))))


def wp_shift_scan(xa, xb, ps=(1.0, 2.0), chunk=128) -> dict:
    """Equal-size W_p for each p in `ps` by scanning every cyclic shift.

    The sorted atoms are matched x_(i) -> y_(i+k) with the 2*pi winding for
    indices past the cut, for every k in [-n, n]; W_p is the p-th root of
    the smallest mean cost. O(n^2) work, done in chunks of shifts.
    """
    xa = np.sort(np.asarray(xa, dtype=float))
    xb = np.sort(np.asarray(xb, dtype=float))
    n = xa.size
    if xb.size != n:
        raise ValueError("shift scan needs equal sizes")
    best = {p: np.inf for p in ps}
    # shift k reads y_(i+k) from the window starting at n + k of this array
    ext = np.concatenate([xb - TWO_PI, xb, xb + TWO_PI])
    windows = np.lib.stride_tricks.sliding_window_view(ext, n)
    for start in range(0, 2 * n + 1, chunk):
        dist = np.abs(xa - windows[start : min(start + chunk, 2 * n + 1)])
        for p in ps:
            cost = np.mean(dist if p == 1.0 else dist**p, axis=1)
            best[p] = min(best[p], float(cost.min()))
    return {p: best[p] ** (1.0 / p) for p in ps}
