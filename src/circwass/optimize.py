"""Selection and derivative-free minimization over a parameter box.

``select_kth`` is numpy's introselect. ``powell_min`` and
``diff_evolution_min`` adapt scipy's Powell method and rand/1/bin
differential evolution to ``BoxConstraints``, whose periodic dimensions
wrap. scipy.optimize is imported inside them, so ``import circwass`` does
not load it.
"""

from dataclasses import dataclass

import numpy as np

from .circular import TWO_PI

__all__ = [
    "BoxConstraints",
    "OptimizerReport",
    "select_kth",
    "powell_min",
    "diff_evolution_min",
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
    max_iter: int = 100,
) -> OptimizerReport:
    """scipy's bounded Powell method from x0; returns the best point evaluated.

    A periodic coordinate is bounded to one turn centred on x0, and f must
    wrap it: unbounded, the line searches run over many turns. scipy's
    bounded line search may accept a worse point, so the best point seen is
    returned, never one above f(x0). Hitting max_iter yields converged=False.
    """
    from scipy.optimize import minimize

    x = box.project(np.asarray(x0, dtype=float))
    if x.size != box.dim:
        raise ValueError("x0 dimension does not match box")
    lower = np.where(box.periodic, x - np.pi, box.lower)
    upper = np.where(box.periodic, x + np.pi, box.upper)
    seen = []  # (value, point) of every evaluation; scipy evaluates x0 first

    def fc(y):
        seen.append((float(f(y)), y.copy()))
        return seen[-1][0]

    res = minimize(
        fc, x, method="Powell", bounds=list(zip(lower, upper)),
        options={"xtol": max(tol * 1e-2, 1e-12), "ftol": tol, "maxiter": max_iter},
    )
    value, argmin = min(seen, key=lambda vx: vx[0])
    return OptimizerReport(box.project(argmin), value, len(seen), bool(res.success))


def diff_evolution_min(
    f,
    box: BoxConstraints,
    pop: int | None = None,
    gens: int = 300,
    seed=0,
) -> OptimizerReport:
    """scipy's rand/1/bin differential evolution (F 0.7, CR 0.9) for gens
    generations, pop*(gens + 1) evaluations unless the population becomes
    uniform. Deterministic given the seed; periodic dimensions are searched
    over their box span.
    """
    from scipy.optimize import differential_evolution

    dim = box.dim
    if pop is None:
        pop = 15 * dim
    if pop < 5:
        raise ValueError("population must be at least 5")
    rng = np.random.default_rng(seed)
    init = box.lower + rng.uniform(0.0, 1.0, (pop, dim)) * (box.upper - box.lower)
    res = differential_evolution(
        f, list(zip(box.lower, box.upper)), strategy="rand1bin",
        maxiter=gens, init=init, mutation=0.7, recombination=0.9, tol=0.0,
        polish=False, rng=rng,
    )
    return OptimizerReport(box.project(res.x), float(res.fun), int(res.nfev), True)
