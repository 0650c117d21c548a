"""Maximum likelihood and Wasserstein projection estimators."""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .circular import TWO_PI, CircularSample, circ_dist, normalize_angle
from .families import (
    FamilyParams,
    KAPPA_BOX,
    RHO_BOX,
    _grid_cdf_kernel,
    _logpdf,
    _param_floats,
    bessel_ratio,
    family_logpdf,
    family_quantile,
    free_param_names,
    param_box,
    vector_to_params,
)
from .optimize import BoxConstraints, OptimizerReport, diff_evolution_min, powell_min
from .transport import (
    _check_p,
    _grid_values,
    _w1_grid_sum,
    _wp_equal_weight_arrays,
    grid_cdf_of,
    w1_grid,  # noqa: F401  (bench/spans.py traces it under this module)
)

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
    ``equal-mass`` places equal-weight atoms at the model's midpoint
    quantiles and works for any finite p >= 1; at p = 2 mu is solved exactly
    and the search runs over the other parameters. ``de_gens > 0`` runs
    differential evolution, then Powell from its best point and from the
    sample moments; ``de_gens == 0`` runs Powell from the moments alone.
    ``tol`` must be finite and positive.
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
    rho = min(abs(eta), RHO_BOX[1])
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


def _minimize(objective, box: BoxConstraints, spec: EstimatorSpec, x0: np.ndarray) -> OptimizerReport:
    if x0.size == 0:  # no free parameters: the fit is the family itself
        return OptimizerReport(x0, float(objective(x0)), 1, True)
    reports = []
    if spec.de_gens > 0:
        de = diff_evolution_min(
            objective, box, pop=spec.de_pop, gens=spec.de_gens, seed=spec.seed
        )
        reports += [de, powell_min(objective, de.argmin, box, tol=spec.tol)]
    reports.append(powell_min(objective, x0, box, tol=spec.tol))
    best = min(reports, key=lambda r: r.value)
    evals = sum(r.evaluations for r in reports)
    return OptimizerReport(best.argmin, best.value, evals, best.converged)


def mle_ssvm(sample: CircularSample, spec: EstimatorSpec | None = None) -> FitResult:
    """Sine-skewed von Mises MLE by derivative-free maximization of the
    average log-likelihood (no closed form exists)."""
    if sample.n < 4:
        raise ValueError("need at least 4 observations")
    if spec is None:
        spec = EstimatorSpec()
    x = sample.angles

    def objective(vec):
        lp = _logpdf("ssvm", _param_floats("ssvm", vec), x)
        return np.inf if np.any(np.isneginf(lp)) else -float(np.mean(lp))

    box = BoxConstraints(*param_box("ssvm"))
    rep = _minimize(objective, box, spec, _moment_start(sample, "ssvm"))
    if not np.isfinite(rep.value):
        raise ValueError("no feasible sine-skewed von Mises parameters found")
    return FitResult(vector_to_params("ssvm", rep.argmin), rep.value, rep.evaluations, rep.converged)


def _antimode(theta: FamilyParams) -> float:
    """Where the density of theta rotated to mu = 0 is lowest: pi, except
    for a skewed ssvm. There the log-density's slope, times
    1 + lambda*sin(t) > 0, changes sign in [pi, 3*pi/2] when lambda > 0, and
    lambda -> -lambda mirrors t -> -t."""
    if theta.family != "ssvm" or theta.lam == 0.0:
        return np.pi
    from scipy.optimize import brentq

    k, lam = theta.kappa, abs(theta.lam)
    a = brentq(
        lambda t: lam * math.cos(t) - k * math.sin(t) * (1.0 + lam * math.sin(t)),
        np.pi, 1.5 * np.pi, xtol=1e-15,
    )
    return a if theta.lam > 0.0 else TWO_PI - a


def _base_atoms(theta: FamilyParams, m: int) -> np.ndarray:
    """The m equal-mass atoms of theta rotated to mu = 0, sorted, so that
    the atoms at any mu are normalize(mu + b).

    They are the model's quantiles at the midpoint levels (k - 1/2)/m with
    the cut at its antimode a, laid out in (a - 2*pi, a), so the model's
    mode lies inside and no atom sits at a cut."""
    a = _antimode(theta)
    q = family_quantile(replace(theta, mu=-a), (np.arange(m) + 0.5) / m)
    return q + (a - TWO_PI)


def _rotation_profile(x: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(min over mu and k of mean_i (x_i - mu - c_{i+k})^2, the mu attaining
    it), for sorted x and sorted b spanning less than a turn, with c = b
    extended by whole turns (c_{j+n} = c_j + 2*pi).

    That is the squared W2 between x and the atoms normalize(mu + b),
    minimized over mu (Rabin, Delon & Gousseau 2011). For shift k the best
    mu is the mean difference and the minimum is the variance of the
    differences. One real FFT cross-correlation and prefix sums give the
    variances of all n shifts, and the near-minimal ones are summed again
    directly, so the value returned is exact up to rounding.
    """
    n = x.size
    xc, bc = x - x.mean(), b - b.mean()
    k = np.arange(n)
    cross = np.fft.irfft(np.conj(np.fft.rfft(xc)) * np.fft.rfft(bc), n)  # sum_i xc_i bc_{(i+k) mod n}
    # shift k pairs x_{n-k..n-1} with b_{0..k-1} + 2*pi
    b_head = np.concatenate([[0.0], np.cumsum(bc[:-1])])
    x_tail = np.concatenate([[0.0], np.cumsum(xc[:0:-1])])
    sq = xc @ xc + bc @ bc + 2.0 * TWO_PI * (b_head - x_tail) + TWO_PI**2 * k - 2.0 * cross
    var = sq / n - (TWO_PI * k / n) ** 2
    # the FFT's rounding is ~1e-13 here; ties (a symmetric sample) keep at most 4
    near = np.argsort(var, kind="stable")[:4]
    best = (np.inf, 0.0)
    for j in near[var[near] <= var[near[0]] + 1e-9]:
        d = x - np.concatenate([b[j:], b[:j] + TWO_PI])
        mu = d.mean()
        v = float(np.mean((d - mu) ** 2))
        if v < best[0]:
            best = (v, float(mu))
    return best[0], float(normalize_angle(best[1]))


def _equal_mass_points(sample: CircularSample, spec: EstimatorSpec) -> int:
    m = sample.n if spec.points is None else spec.points
    if m != sample.n:
        raise ValueError("equal-mass discretization requires points = n")
    return m


def _wasserstein_objective(sample: CircularSample, family: str, spec: EstimatorSpec):
    """The W_p objective of a full parameter vector.

    The grid objective is w1_grid(grid_cdf_of(sample, D),
    grid_cdf_of(vector_to_params(family, vec), D)), computed on the same
    kernels without building a FamilyParams or a GridCdf per evaluation."""
    if spec.discretization == "grid":
        D = sample.n if spec.points is None else spec.points
        q = grid_cdf_of(sample, D).values
        model_cdf = _grid_cdf_kernel(family, D)

        def objective(vec):
            return _w1_grid_sum(q - _grid_values(model_cdf(_param_floats(family, vec))))

    else:
        m = _equal_mass_points(sample, spec)
        xa = sample.angles

        def objective(vec):
            theta = vector_to_params(family, vec)
            atoms = np.sort(normalize_angle(theta.mu + _base_atoms(theta, m)))
            return _wp_equal_weight_arrays(xa, atoms, spec.p)

    return objective


def wasserstein_fit(
    sample: CircularSample, family: str, spec: EstimatorSpec | None = None
) -> FitResult:
    """Projection estimator: minimize the circular W_p distance between the
    empirical distribution and the model over the family's parameter box.

    With equal-mass atoms at p = 2, mu is solved exactly for each value of
    the other (shape) parameters, and the search runs over those alone."""
    if spec is None:
        spec = EstimatorSpec()
    x0 = _moment_start(sample, family)
    lower, upper, periodic = param_box(family)
    # every family with free parameters has mu first
    if spec.p == 2.0 and spec.discretization == "equal-mass" and x0.size > 0:
        m = _equal_mass_points(sample, spec)

        def profile(shape):
            theta = vector_to_params(family, (0.0, *shape))
            return _rotation_profile(sample.angles, _base_atoms(theta, m))

        box = BoxConstraints(lower[1:], upper[1:], periodic[1:])
        rep = _minimize(lambda shape: math.sqrt(profile(shape)[0]), box, spec, x0[1:])
        vec = (profile(rep.argmin)[1], *rep.argmin)
    else:
        objective = _wasserstein_objective(sample, family, spec)
        rep = _minimize(objective, BoxConstraints(lower, upper, periodic), spec, x0)
        vec = rep.argmin
    return FitResult(vector_to_params(family, vec), rep.value, rep.evaluations, rep.converged)


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
