"""Derivative-free optimization and selection primitives.

Contains the 1-D convex search behind the p > 1 offset search of
``wp_general``, worst-case linear-time selection (numpy's introselect),
Powell's direction-set method with periodic-dimension support, and
rand/1/bin differential evolution.
"""

from dataclasses import dataclass

import numpy as np

from .circular import TWO_PI

__all__ = [
    "BoxConstraints",
    "OptimizerReport",
    "convex_min_1d",
    "select_kth",
    "powell_min",
    "diff_evolution_min",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoxConstraints:
    """Per-dimension bounds; periodic dimensions (span 2*pi) wrap instead of clip."""

    lower: np.ndarray
    upper: np.ndarray
    periodic: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        per = np.atleast_1d(np.asarray(self.periodic, dtype=bool))
        if not (lo.shape == hi.shape == per.shape):
            raise ValueError("bound arrays must have matching shapes")
        if np.any(lo >= hi):
            raise ValueError("lower bounds must be below upper bounds")
        if np.any(per & (np.abs(hi - lo - TWO_PI) > 1e-9)):
            raise ValueError("periodic dimensions must span 2*pi")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "periodic", per)

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Wrap periodic coordinates, clip the rest."""
        x = np.asarray(x, dtype=float).copy()
        p = self.periodic
        x[p] = self.lower[p] + np.mod(x[p] - self.lower[p], TWO_PI)
        x[~p] = np.clip(x[~p], self.lower[~p], self.upper[~p])
        return x


@dataclass(frozen=True)
class OptimizerReport:
    argmin: np.ndarray
    value: float
    evaluations: int
    converged: bool


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


def select_kth(values, k: int) -> float:
    """k-th smallest element (0-based) without mutating the input, by numpy's
    introselect (``np.partition``, worst-case linear)."""
    vals = np.asarray(values, dtype=float).ravel()
    if not 0 <= k < vals.size:
        raise ValueError("k out of range")
    return float(np.partition(vals, k)[k])


def _line_search(f, x, fx, direction, box: BoxConstraints, tol: float):
    """Bounded Brent search for min_t f(project(x + t*d)); returns (t, value)."""
    d = np.asarray(direction, dtype=float)
    # travel limits from non-periodic box faces; periodic motion capped at a turn
    t_lo, t_hi = -np.inf, np.inf
    for i in range(box.dim):
        if box.periodic[i] or d[i] == 0.0:
            continue
        a = (box.lower[i] - x[i]) / d[i]
        b = (box.upper[i] - x[i]) / d[i]
        t_lo = max(t_lo, min(a, b))
        t_hi = min(t_hi, max(a, b))
    scale = float(np.linalg.norm(d))
    if scale == 0.0:
        return 0.0, fx
    cap = TWO_PI / scale
    t_lo = max(t_lo, -cap)
    t_hi = min(t_hi, cap)
    if t_hi - t_lo < 1e-15:
        return 0.0, fx

    from scipy.optimize import minimize_scalar

    xatol = max(tol * 1e-2, 1e-12)
    f1d = lambda t: f(box.project(x + t * d))
    res = minimize_scalar(
        f1d, bounds=(t_lo, t_hi), method="bounded", options={"xatol": xatol}
    )
    t = float(res.x)
    v = float(res.fun)
    if v < fx:
        return t, v
    # No improvement found on the full interval. Near a sharp minimum the
    # improving window along a coordinate can be orders of magnitude narrower
    # than the interval, so probe a geometric ladder of step sizes. Only worth
    # the evaluations when a high-precision solution was requested.
    if tol > 1e-9:
        return 0.0, fx
    h = max(abs(t_lo), abs(t_hi)) / 4.0
    floor = max(xatol, 1e-13)
    while h > floor:
        for tt in (h, -h):
            if not t_lo <= tt <= t_hi:
                continue
            vt = f1d(tt)
            if vt < fx:
                lo2 = min(0.0, 8.0 * tt)
                hi2 = max(0.0, 8.0 * tt)
                res = minimize_scalar(
                    f1d,
                    bounds=(max(lo2, t_lo), min(hi2, t_hi)),
                    method="bounded",
                    options={"xatol": xatol},
                )
                if float(res.fun) < vt:
                    return float(res.x), float(res.fun)
                return tt, vt
        h /= 8.0
    return 0.0, fx


def powell_min(
    f,
    x0,
    box: BoxConstraints,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> OptimizerReport:
    """Powell's direction-set method with Brent line searches.

    Periodic dimensions wrap during the search. Stops when a full cycle
    improves the objective by less than tol*(|f| + tol); hitting max_iter
    yields converged=False.
    """
    evals = [0]

    def fc(x):
        evals[0] += 1
        return float(f(x))

    x = box.project(np.asarray(x0, dtype=float))
    if x.size != box.dim:
        raise ValueError("x0 dimension does not match box")
    directions = [np.eye(box.dim)[i] for i in range(box.dim)]
    fx = fc(x)
    converged = False
    for cycle in range(max_iter):
        f_start = fx
        x_start = x.copy()
        biggest_drop, biggest_idx = 0.0, 0
        for i, d in enumerate(directions):
            t, v = _line_search(fc, x, fx, d, box, tol)
            if fx - v > biggest_drop:
                biggest_drop, biggest_idx = fx - v, i
            if v < fx:
                x = box.project(x + t * d)
                fx = v
        # replace the direction of largest decrease with the cycle displacement
        disp = x - x_start
        disp[box.periodic] = np.mod(disp[box.periodic] + np.pi, TWO_PI) - np.pi
        if np.linalg.norm(disp) > 1e-14:
            directions[biggest_idx] = disp / np.linalg.norm(disp)
            t, v = _line_search(fc, x, fx, directions[biggest_idx], box, tol)
            if v < fx:
                x = box.project(x + t * directions[biggest_idx])
                fx = v
        if (cycle + 1) % (box.dim + 1) == 0:
            directions = [np.eye(box.dim)[i] for i in range(box.dim)]
        if f_start - fx < tol * (abs(fx) + tol):
            converged = True
            break
    return OptimizerReport(argmin=x, value=fx, evaluations=evals[0], converged=converged)


def diff_evolution_min(
    f,
    box: BoxConstraints,
    pop: int | None = None,
    cr: float = 0.9,
    fw: float = 0.7,
    gens: int = 300,
    seed=0,
) -> OptimizerReport:
    """rand/1/bin differential evolution; deterministic given the seed.

    The best-so-far value never worsens across generations. Periodic
    dimensions wrap, others are clipped to the box.
    """
    dim = box.dim
    if pop is None:
        pop = 15 * dim
    if pop < 4:
        raise ValueError("population must be at least 4")
    rng = np.random.default_rng(seed)
    pts = box.lower + rng.uniform(0.0, 1.0, (pop, dim)) * (box.upper - box.lower)
    fit = np.array([float(f(x)) for x in pts])
    evals = pop
    for _ in range(gens):
        for i in range(pop):
            choices = [j for j in range(pop) if j != i]
            a, b, c = rng.choice(choices, size=3, replace=False)
            mutant = pts[a] + fw * (pts[b] - pts[c])
            cross = rng.uniform(0.0, 1.0, dim) < cr
            cross[rng.integers(dim)] = True
            trial = box.project(np.where(cross, mutant, pts[i]))
            ft = float(f(trial))
            evals += 1
            if ft <= fit[i]:
                pts[i] = trial
                fit[i] = ft
    best = int(np.argmin(fit))
    return OptimizerReport(
        argmin=pts[best].copy(), value=float(fit[best]), evaluations=evals, converged=True
    )
