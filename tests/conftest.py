"""Shared independent oracles for the test suite.

Everything here is deliberately implemented from first principles (power
series, quadrature, exhaustive enumeration) rather than reusing the library
code it checks. The one exception, ``w1_grid_composition``, is the public
composition that the estimator's inner loop must reproduce bit for bit.
"""

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings
from scipy import integrate

import circwass
from circwass import DiscreteCircularDist, circ_dist, family_logpdf, family_pdf, make_sample

TWO_PI = 2.0 * np.pi

# property tests draw the same examples on every run
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def scipy_modules_after(code: str) -> list:
    """Run `code` in a fresh interpreter that imports circwass from where the
    tests do; return the names of the scipy modules it left loaded."""
    src = str(Path(circwass.__file__).resolve().parents[1])
    probe = (
        f"import json, sys\nsys.path.insert(0, {src!r})\n{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    ).stdout
    return json.loads(out.splitlines()[-1])


def load_sample_by_lines(path):
    """A sample file read line by line: each line stripped, blank and '#'
    lines dropped, the rest converted together. The reference that
    `load_sample`'s one-conversion read must match in bytes and errors."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    values = [s for s in map(str.strip, lines) if s and not s.startswith("#")]
    return make_sample(np.array(values, dtype=float))


def convex_min_1d(f, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section minimization of a convex f on [lo, hi].

    Returns (argmin, value); the value is the smallest f seen, which is
    never above f(lo) or f(hi).
    """
    if lo >= hi:
        raise ValueError("lo must be below hi")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for x, fx in ((a, f(a)), (b, f(b))):
        if fx < best_f:
            best_x, best_f = x, fx
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        x, fx = (c, fc) if fc <= fd else (d, fd)
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def bessel_series(order: int, z: float) -> float:
    """I_order(z) by the power series sum_m (z/2)^(2m+order) / (m! (m+order)!),
    truncated when a term drops below 1e-18 of the running sum."""
    half = z / 2.0
    term = half**order / math.factorial(order)
    total = term
    m = 0
    while True:
        m += 1
        term *= half * half / (m * (m + order))
        total += term
        if term < 1e-18 * max(total, 1.0):
            return total


def empirical_cdf(sample, x) -> float:
    """Empirical CDF with winding: (#{X_i <= x})/n on [0, 2*pi), extended by
    Q(x + 2*pi*k) = Q(x) + k. Right-continuous."""
    x = np.asarray(x, dtype=float)
    k = np.floor(x / TWO_PI)
    x0 = x - TWO_PI * k
    x0 = np.where(x0 >= TWO_PI, x0 - TWO_PI, x0)
    k = np.where(x - TWO_PI * k >= TWO_PI, k + 1, k)
    q = np.searchsorted(sample.angles, x0, side="right") / sample.n + k
    return q if q.ndim else float(q)


def w1_cdf_search(q_cdf, p_cdf, quad_points: int = 512) -> float:
    """W_1 via the CDF-offset formula: min over alpha of the midpoint-rule
    integral of |P_1 - P_2 - alpha|. Validation path, not a hot loop."""
    x = TWO_PI * (np.arange(quad_points) + 0.5) / quad_points
    g = np.asarray(q_cdf(x), dtype=float) - np.asarray(p_cdf(x), dtype=float)
    lo, hi = float(np.min(g)) - 1e-3, float(np.max(g)) + 1e-3

    def objective(alpha):
        return TWO_PI / quad_points * float(np.sum(np.abs(g - alpha)))

    _, val = convex_min_1d(objective, lo, hi, tol=1e-12)
    return val


def w1_grid_composition(sample, family: str, vec, D: int) -> float:
    """The W1 grid objective as the public API composes it, one validated
    FamilyParams and GridCdf per call: the reference for the estimator's
    raw-array objective, which must equal it bit for bit."""
    from circwass import grid_cdf_of, w1_grid
    from circwass.families import vector_to_params

    return w1_grid(grid_cdf_of(sample, D), grid_cdf_of(vector_to_params(family, vec), D))


def cdf_quad(theta, x: float) -> float:
    """CDF on [0, 2*pi] by adaptive quadrature of the density."""
    val, _ = integrate.quad(
        lambda t: family_pdf(theta, t), 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=400
    )
    return val


def loglik(theta, sample) -> float:
    """Total log-likelihood of a sample."""
    return float(np.sum(family_logpdf(theta, sample.angles)))


def perm_matching_cost(xa, xb, p: float) -> float:
    """Exact W_p between equal-weight atom sets by scanning all permutations
    with the circular geodesic cost (n <= 8)."""
    xa = np.asarray(xa, dtype=float)
    best = np.inf
    for perm in itertools.permutations(range(xa.size)):
        cost = float(np.mean(circ_dist(xa, np.asarray(xb)[list(perm)]) ** p))
        best = min(best, cost)
    return best ** (1.0 / p)


def random_discrete_pair(rng, n):
    """Two equal-weight discrete distributions with distinct random atoms."""
    from circwass import make_sample, discrete_from_sample

    a = discrete_from_sample(make_sample(rng.uniform(0.0, TWO_PI, n)))
    b = discrete_from_sample(make_sample(rng.uniform(0.0, TWO_PI, n)))
    return a, b


def random_weighted_pair(rng, n, m):
    """Two discrete distributions with random atoms and random weights."""
    def one(k):
        w = rng.uniform(0.05, 1.0, k)
        return DiscreteCircularDist(rng.uniform(0.0, TWO_PI, k), w / w.sum())

    return one(n), one(m)


def shift_scan_wp(xa, xb, p: float) -> float:
    """Equal-size W_p between raw samples (ties allowed) by scanning every
    cyclic shift k of the sorted matching x_(i) -> y_(i+k), with the 2*pi
    winding written out per index. O(n^2)."""
    xa, xb = np.sort(np.asarray(xa, dtype=float)), np.sort(np.asarray(xb, dtype=float))
    n = xa.size
    i = np.arange(n)
    best = np.inf
    for k in range(-n, n + 1):
        wind = (i + k) // n
        cost = np.mean(np.abs(xa - (xb[(i + k) % n] + TWO_PI * wind)) ** p)
        best = min(best, float(cost))
    return best ** (1.0 / p)


def wp_bruteforce(a, b, p: float) -> float:
    """O(n^2) oracle between equal-weight discrete distributions: the shift
    scan on their atoms, limited to n <= 512."""
    w = np.concatenate([a.weights, b.weights])
    if a.size != b.size or not np.allclose(w, 1.0 / a.size, rtol=0, atol=1e-12):
        raise ValueError("equal-weight inputs required")
    if a.size > 512:
        raise ValueError("brute-force oracle limited to n <= 512")
    return shift_scan_wp(a.support, b.support, p)


def cumweights(d) -> np.ndarray:
    """Cumulative weights of a DiscreteCircularDist, the last set to exactly 1."""
    c = np.cumsum(d.weights)
    c[-1] = 1.0
    return c


def offset_integral(a, b, alpha: float, p: float) -> float:
    """Exact integral over u of |Qa^{-1}(u) - Qb^{-1}(u + alpha)|^p."""
    cum_a = cumweights(a)
    cum_b = cumweights(b)
    # breakpoints where either quantile changes atoms
    cuts = [cum_a[:-1]]
    for m in (-2, -1, 0, 1, 2):
        cuts.append(cum_b + m - alpha)
    u = np.concatenate([[0.0, 1.0]] + cuts)
    u = np.unique(u[(u >= 0.0) & (u <= 1.0)])
    if u[0] > 0.0:
        u = np.concatenate([[0.0], u])
    if u[-1] < 1.0:
        u = np.concatenate([u, [1.0]])
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


def wp_kink_scan(a, b, p: float, tol: float = 1e-12) -> float:
    """W_p for arbitrary weights: the exact offset objective minimized by
    golden-section search plus a scan of every offset kink
    alpha = cumB_j + m - cumA_i, where the piecewise-linear objective has
    its minimum. O(n*m) integrals; a reference, not a fast path."""
    objective = lambda alpha: offset_integral(a, b, alpha, p)
    _, best = convex_min_1d(objective, -1.5, 1.5, tol=tol)
    kinks = (
        np.subtract.outer(cumweights(b), cumweights(a))[:, :, None]
        + np.array([-1.0, 0.0, 1.0])
    ).ravel()
    kinks = np.unique(kinks[(kinks >= -1.5) & (kinks <= 1.5)])
    for alpha in kinks:
        val = objective(alpha)
        if val < best:
            best = val
    return best ** (1.0 / p)
