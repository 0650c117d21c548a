"""Maximum likelihood and Wasserstein projection estimators."""

import warnings
from dataclasses import dataclass

import numpy as np

from .circular import TWO_PI, CircularSample, circ_dist, normalize_angle
from .families import (
    FamilyParams,
    KAPPA_BOX,
    bessel_ratio,
    family_logpdf,
    family_quantile,
    free_param_names,
    param_box,
    vector_to_params,
)
from .optimize import BoxConstraints, diff_evolution_min, powell_min
from .transport import _check_p, _wp_equal_weight_arrays, grid_cdf_of, w1_grid

__all__ = [
    "EstimatorSpec",
    "FitResult",
    "mle",
    "mle_von_mises",
    "mle_wrapped_cauchy",
    "mle_ssvm",
    "invert_bessel_ratio",
    "wasserstein_fit",
    "circular_sq_error",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """Settings of one fit; the function called picks the estimator.

    ``grid`` discretization is the order-1 CDF-grid objective (requires p=1);
    ``equal-mass`` places equal-weight atoms at model quantiles and works for
    any finite p >= 1. ``de_gens > 0`` runs differential evolution, then
    Powell from its best point and from the sample moments; ``de_gens == 0``
    runs Powell from the moments alone. ``tol`` must be finite and positive.
    """

    p: float = 1.0
    discretization: str = "grid"  # "grid" or "equal-mass"
    points: int | None = None  # grid size D or atom count; defaults to n
    de_pop: int | None = None
    de_gens: int = 60
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        _check_p(self.p)
        if self.discretization not in ("grid", "equal-mass"):
            raise ValueError("discretization must be 'grid' or 'equal-mass'")
        if self.discretization == "grid" and self.p != 1.0:
            raise ValueError("grid discretization is only valid for p = 1")
        if self.points is not None and self.points < 1:
            raise ValueError("points must be >= 1")
        if self.de_pop is not None and self.de_pop < 5:
            raise ValueError("de_pop must be >= 5")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")
        if self.de_gens < 0:
            raise ValueError("de_gens must be >= 0")


@dataclass(frozen=True)
class FitResult:
    """What every estimator returns. An MLE's objective is the mean negative
    log-likelihood; the wrapped Cauchy MLE counts fixed-point iterations as
    evaluations, the closed-form von Mises MLE counts none."""

    theta_hat: FamilyParams
    objective: float
    evaluations: int
    converged: bool


def _mle_result(theta: FamilyParams, sample: CircularSample, evaluations=0, converged=True):
    nll = -float(np.sum(family_logpdf(theta, sample.angles))) / sample.n
    return FitResult(theta, nll, evaluations, converged)


def circular_mean_resultant(sample: CircularSample):
    """(mean direction, mean resultant length R-bar)."""
    c = float(np.mean(np.cos(sample.angles)))
    s = float(np.mean(np.sin(sample.angles)))
    return float(normalize_angle(np.arctan2(s, c))), float(np.hypot(c, s))


def invert_bessel_ratio(r: float) -> float:
    """Solve I_1(kappa)/I_0(kappa) = r for kappa >= 0 (r in [0, 1)).

    The ratio increases from 0 to 1, so doubling from 1 brackets the root
    and scipy's Brent method finds it to a few ulps."""
    if not 0.0 <= r < 1.0:
        raise ValueError("ratio must lie in [0, 1)")
    if r == 0.0:
        return 0.0
    from scipy.optimize import brentq

    hi, eps = 1.0, np.finfo(float).eps
    while bessel_ratio(hi) < r:
        hi *= 2.0
    return brentq(lambda k: bessel_ratio(k) - r, 0.0, hi, xtol=1e-300, rtol=4 * eps)


def mle_von_mises(sample: CircularSample) -> FitResult:
    """Closed-form von Mises MLE: circular mean direction and the Bessel-ratio
    inversion of the mean resultant length."""
    if sample.n < 2:
        raise ValueError("need at least 2 observations")
    mu, rbar = circular_mean_resultant(sample)
    if rbar < 1e-14:
        raise ValueError("mean direction undefined")
    if rbar >= 1.0 - 1e-12:
        warnings.warn("resultant length ~ 1; kappa clamped to box maximum")
        kappa = KAPPA_BOX[1]
    else:
        kappa = float(np.clip(invert_bessel_ratio(rbar), *KAPPA_BOX))
    return _mle_result(FamilyParams("vm", mu=mu, kappa=kappa), sample)


def _wc_loglik(z: np.ndarray, eta: complex) -> float:
    r2 = abs(eta) ** 2
    if r2 >= 1.0:
        return -np.inf
    return float(np.sum(np.log1p(-r2) - np.log(np.abs(z - eta) ** 2)))


def mle_wrapped_cauchy(sample: CircularSample) -> FitResult:
    """Wrapped Cauchy MLE by the reweighting fixed point.

    Works on eta = rho*exp(i*mu); weights are the inverse squared distances
    to the current eta on the unit circle. Steps that would decrease the
    log-likelihood are damped toward the previous iterate. It stops when eta
    moves by less than 1e-10, or unconverged after 500 iterations.
    """
    if sample.n < 3:
        raise ValueError("need at least 3 observations")
    n = sample.n
    z = np.exp(1j * sample.angles)
    eta = complex(np.mean(z))
    if abs(eta) > 0.999:
        eta *= 0.999 / abs(eta)
    ll = _wc_loglik(z, eta)
    converged = False
    for it in range(1, 501):
        w = 1.0 / np.abs(z - eta) ** 2
        eta_new = complex(np.sum(w * z) / (np.sum(w) + n / (1.0 - abs(eta) ** 2)))
        ll_new = _wc_loglik(z, eta_new)
        for _ in range(40):
            if ll_new >= ll - 1e-12:
                break
            eta_new = 0.5 * (eta + eta_new)
            ll_new = _wc_loglik(z, eta_new)
        delta = abs(eta_new - eta)
        eta, ll = eta_new, ll_new
        if delta < 1e-10:
            converged = True
            break
    rho = min(abs(eta), 1.0 - 1e-9)
    mu = float(normalize_angle(np.angle(eta)))
    return _mle_result(FamilyParams("wc", mu=mu, rho=rho), sample, it, converged)


def _moment_start(sample: CircularSample, family: str) -> np.ndarray:
    mu, rbar = circular_mean_resultant(sample)
    values = {"mu": mu, "lam": 0.0, "eps": 0.1}
    if family in ("vm", "ssvm", "vm-contam"):
        values["kappa"] = float(
            np.clip(invert_bessel_ratio(min(rbar, 0.999)), *KAPPA_BOX)
        )
    if family == "wc":
        values["rho"] = float(np.clip(rbar, 1e-6, 1.0 - 1e-6))
    return np.array([values[p] for p in free_param_names(family)])


def _minimize(objective, family: str, spec: EstimatorSpec, x0: np.ndarray) -> FitResult:
    if x0.size == 0:  # no free parameters: the fit is the family itself
        return FitResult(vector_to_params(family, x0), float(objective(x0)), 1, True)
    box = BoxConstraints(*param_box(family))
    reports = []
    if spec.de_gens > 0:
        de = diff_evolution_min(
            objective, box, pop=spec.de_pop, gens=spec.de_gens, seed=spec.seed
        )
        reports += [de, powell_min(objective, de.argmin, box, tol=spec.tol)]
    reports.append(powell_min(objective, x0, box, tol=spec.tol))
    best = min(reports, key=lambda r: r.value)
    evals = sum(r.evaluations for r in reports)
    return FitResult(vector_to_params(family, best.argmin), best.value, evals, best.converged)


def mle_ssvm(sample: CircularSample, spec: EstimatorSpec | None = None) -> FitResult:
    """Sine-skewed von Mises MLE by derivative-free maximization of the
    average log-likelihood (no closed form exists)."""
    if sample.n < 4:
        raise ValueError("need at least 4 observations")
    if spec is None:
        spec = EstimatorSpec()
    x = sample.angles

    def objective(vec):
        theta = vector_to_params("ssvm", vec)
        lp = family_logpdf(theta, x)
        return np.inf if np.any(np.isneginf(lp)) else -float(np.mean(lp))

    res = _minimize(objective, "ssvm", spec, x0=_moment_start(sample, "ssvm"))
    if not np.isfinite(res.objective):
        raise ValueError("no feasible sine-skewed von Mises parameters found")
    return res


def _wasserstein_objective(sample: CircularSample, family: str, spec: EstimatorSpec):
    if spec.discretization == "grid":
        D = sample.n if spec.points is None else spec.points
        q = grid_cdf_of(sample, D)

        def objective(vec):
            return w1_grid(q, grid_cdf_of(vector_to_params(family, vec), D))

    else:
        m = sample.n if spec.points is None else spec.points
        if m != sample.n:
            raise ValueError("equal-mass discretization requires points = n")
        xa = sample.angles
        levels = np.arange(1, m + 1) / m

        def objective(vec):
            theta = vector_to_params(family, vec)
            atoms = np.sort(normalize_angle(family_quantile(theta, levels)))
            return _wp_equal_weight_arrays(xa, atoms, spec.p)

    return objective


def wasserstein_fit(
    sample: CircularSample, family: str, spec: EstimatorSpec | None = None
) -> FitResult:
    """Projection estimator: minimize the circular W_p distance between the
    empirical distribution and the model over the family's parameter box."""
    if spec is None:
        spec = EstimatorSpec()
    objective = _wasserstein_objective(sample, family, spec)
    return _minimize(objective, family, spec, x0=_moment_start(sample, family))


def circular_sq_error(est: float, truth: float) -> float:
    """Squared circular distance; the MSE contribution for angular parameters."""
    return float(circ_dist(est, truth)) ** 2


def mle(sample: CircularSample, family: str, spec: EstimatorSpec | None = None) -> FitResult:
    """The family's maximum likelihood estimate; ``spec`` configures the
    numerical search where there is one (ssvm)."""
    if family == "vm":
        return mle_von_mises(sample)
    if family == "wc":
        return mle_wrapped_cauchy(sample)
    if family == "ssvm":
        return mle_ssvm(sample, spec)
    if family == "uniform":
        return _mle_result(FamilyParams("uniform"), sample)
    raise ValueError(f"no MLE implemented for family {family!r}")


def fit_mle(sample: CircularSample, family: str, spec: EstimatorSpec | None = None) -> FamilyParams:
    """The MLE's parameters alone."""
    return mle(sample, family, spec).theta_hat
