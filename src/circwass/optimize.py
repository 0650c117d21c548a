"""Selection and derivative-free minimization over a parameter box.

``select_kth`` is numpy's introselect. ``powell_min`` adapts scipy's
Nelder-Mead simplex search (Brent's method in one dimension) to
``BoxConstraints``, whose periodic dimensions wrap. scipy.optimize is
imported inside it, so ``import circwass`` does not load it.
"""

from dataclasses import dataclass

import numpy as np

from .circular import TWO_PI

__all__ = [
    "BoxConstraints",
    "OptimizerReport",
    "select_kth",
    "powell_min",
]


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


def select_kth(values, k: int) -> float:
    """k-th smallest element (0-based) without mutating the input, by numpy's
    introselect (``np.partition``, worst-case linear)."""
    vals = np.asarray(values, dtype=float).ravel()
    if not 0 <= k < vals.size:
        raise ValueError("k out of range")
    return float(np.partition(vals, k)[k])


def powell_min(
    f,
    x0,
    box: BoxConstraints,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> OptimizerReport:
    """scipy's Nelder-Mead simplex search from x0, bounded to the box, or
    in one dimension scipy's Brent search; returns the best point evaluated.
    (The name is kept from the Powell method the simplex search replaced.)

    The simplex search runs on z, where theta = x0 + step*z. step is 0.1
    on a periodic coordinate, so a search in mu does not depend on where mu
    lies, and 0.1*max(|x0|, 1e-2*span) on the others, as in one dimension.
    It stops after max_iter*dim iterations in all (scipy's own cap at the
    default max_iter) with converged=False.

    Every point is clipped to the box before f sees it. A periodic
    coordinate is searched over one turn centred on x0 in one dimension and
    unbounded otherwise, and f must wrap it. x0 is evaluated first, and the
    best point seen is returned, never one above f(x0).
    """
    x = box.project(np.asarray(x0, dtype=float))
    if x.size != box.dim:
        raise ValueError("x0 dimension does not match box")
    turn = np.pi if box.dim == 1 else np.inf
    lower = np.where(box.periodic, x - turn, box.lower)
    upper = np.where(box.periodic, x + turn, box.upper)
    seen = []  # (value, point) of every evaluation

    def fc(y):
        y = np.clip(y, lower, upper)
        seen.append((float(f(y)), y))
        return seen[-1][0]

    if box.dim == 1:
        converged = _brent_min(fc, x[0], lower[0], upper[0], tol, max_iter)
    else:
        span = box.upper - box.lower
        step = np.where(box.periodic, 0.1, 0.1 * np.maximum(np.abs(x), 1e-2 * span))
        converged = _simplex_min(fc, x, step, lower, upper, tol, max_iter * box.dim)
    value, argmin = min(seen, key=lambda vx: vx[0])
    return OptimizerReport(box.project(argmin), value, len(seen), converged)


def _simplex_min(fc, x, step, lower, upper, tol: float, max_iter: int) -> bool:
    """scipy's bounded Nelder-Mead search of fc from x over x + step*z,
    from the simplex {0, +-e_i} (a step that would leave the box is taken
    the other way); whether it converged.

    A run stops when the simplex spans at most tol in z and its values
    differ by at most tol*|f(x)|. On a nonsmooth f the simplex can collapse
    away from any minimum: on sum_i w_i*|x_i - c_i| a lone run stopped
    away from c from about a fifth of random starts. So a stop is checked
    by polling x +- sqrt(tol)*step_i*e_i, and a poll point lower by more
    than the value tolerance starts a new run there.
    """
    from scipy.optimize import minimize

    fx = fc(x)
    fatol = tol * (abs(fx) if 0.0 < abs(fx) < np.inf else 1.0)
    polls = np.sqrt(tol) * np.vstack([np.diag(step), -np.diag(step)])
    while max_iter > 0:
        # the simplex's first vertex is x itself, already evaluated
        fz = lambda z, x=x, fx=fx: fx if not z.any() else fc(x + step * z)
        sign = np.where(x + step > upper, -1.0, 1.0)
        res = minimize(
            fz, np.zeros(x.size), method="Nelder-Mead",
            bounds=list(zip((lower - x) / step, (upper - x) / step)),
            options={
                "initial_simplex": np.vstack([np.zeros(x.size), np.diag(sign)]),
                "xatol": tol, "fatol": fatol, "maxiter": max_iter,
            },
        )
        if not res.success:
            return False
        max_iter -= res.nit
        x, fx = np.clip(x + step * res.x, lower, upper), res.fun
        values = [fc(x + d) for d in polls]
        j = int(np.argmin(values))
        if values[j] >= fx - fatol:
            return True
        x, fx = np.clip(x + polls[j], lower, upper), values[j]
    return False


def _brent_min(fc, x: float, lo: float, hi: float, tol: float, max_iter: int) -> bool:
    """scipy's bracketed Brent search of fc on [lo, hi] from x, to a relative
    step of tol; whether it converged.

    Outside the box the search sees the value at the nearest face plus a
    penalty growing with the distance, so every bracket closes inside the
    box and a minimum at a face is found at the face. scipy's bounded method
    cannot step below sqrt(eps)*|x|, so it is not used.
    """
    from scipy.optimize import minimize_scalar

    def g(t):
        c = min(max(t, lo), hi)
        v = fc(np.array([c]))
        return v if t == c else v + abs(t - c) * (1.0 + abs(v))

    step = 0.1 * max(abs(x), 1e-2 * (hi - lo))
    res = minimize_scalar(
        g, bracket=(x, x + step), method="brent", options={"xtol": tol, "maxiter": max_iter}
    )
    # no iteration: the bracket failed, which happens only where f is flat
    # around x, and x is then as good as any point seen
    return bool(res.success) or res.nit == 0
