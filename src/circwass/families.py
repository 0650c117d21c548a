"""Parametric circular families: von Mises, wrapped Cauchy, sine-skewed von
Mises, uniform, and the uniform-contaminated von Mises mixture.

Each family exposes density, log-density, CDF (canonical cut at 0, winding
extension), quantile, sampling and Fisher information. CLI names: ``vm``,
``wc``, ``ssvm``, ``uniform``, ``vm-contam``.
"""

from dataclasses import dataclass

import numpy as np

# special before integrate: integrate loads scipy.linalg, which starts
# OpenBLAS worker threads that slow the imports still to come (about 60 ms
# of start-up on 2 vCPUs in the other order)
from scipy import special, integrate

from .circular import TWO_PI, CircularSample, make_sample, normalize_angle

__all__ = [
    "FamilyParams",
    "FAMILIES",
    "PARAM_NAMES",
    "KAPPA_BOX",
    "RHO_BOX",
    "LAMBDA_BOX",
    "EPSILON_BOX",
    "bessel_ratio",
    "family_pdf",
    "family_logpdf",
    "family_cdf",
    "family_quantile",
    "family_sample",
    "family_fisher",
    "free_param_names",
    "params_to_vector",
    "vector_to_params",
    "param_box",
]

# each family's free parameters, in parameter-vector order
_PARAMS = {
    "vm": ("mu", "kappa"),
    "wc": ("mu", "rho"),
    "ssvm": ("mu", "kappa", "lam"),
    "uniform": (),
    "vm-contam": ("mu", "kappa", "eps"),
}
FAMILIES = tuple(_PARAMS)

# attribute -> the name of the parameter in CLI flags, configs, sweeps and JSON
PARAM_NAMES = {"mu": "mu", "kappa": "kappa", "rho": "rho", "lam": "lambda", "eps": "epsilon"}

# parameter boxes used by the optimizers; clamps keep likelihood and Fisher finite
KAPPA_BOX = (1e-3, 500.0)
RHO_BOX = (0.0, 1.0 - 1e-6)
LAMBDA_BOX = (-1.0 + 1e-9, 1.0 - 1e-9)
EPSILON_BOX = (0.0, 1.0)


@dataclass(frozen=True)
class FamilyParams:
    """Tagged parameter vector; only the tagged family's parameters are set."""

    family: str
    mu: float = 0.0
    kappa: float | None = None
    rho: float | None = None
    lam: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "mu", float(normalize_angle(self.mu)))
        for name in ("kappa", "rho", "lam", "eps"):
            val = getattr(self, name)
            if name in _PARAMS[self.family]:
                if val is None:
                    raise ValueError(f"{self.family} requires parameter {name}")
                object.__setattr__(self, name, float(val))
            elif val is not None:
                raise ValueError(f"{self.family} does not take parameter {name}")
        if self.kappa is not None and not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if self.rho is not None and not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.lam is not None and not -1.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [-1, 1]")
        if self.eps is not None and not 0.0 <= self.eps <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


def bessel_ratio(kappa: float) -> float:
    """A(kappa) = I_1(kappa)/I_0(kappa), computed with scaled Bessels."""
    return float(special.ive(1, kappa) / special.ive(0, kappa))


def _vm_fourier_ratios(kappa: float) -> np.ndarray:
    """Coefficients r_j = I_j(kappa)/I_0(kappa), truncated when < 1e-16."""
    jmax = max(24, int(9.0 * np.sqrt(kappa)) + 16)
    j = np.arange(1, jmax + 1)
    r = special.ive(j, kappa) / special.ive(0, kappa)
    keep = np.nonzero(r >= 1e-16)[0]
    last = keep[-1] + 1 if keep.size else 1
    return r[:last]


def _vm_pdf(x, mu, kappa):
    # exp(kappa*(cos-1)) / (2*pi*ive0) avoids overflow at large kappa
    return np.exp(kappa * (np.cos(x - mu) - 1.0)) / (TWO_PI * special.ive(0, kappa))


def _vm_cdf0(x, mu, kappa, ratios=None):
    """von Mises CDF on the cut [0, 2*pi], via the Fourier/Bessel series.

    sin(j*(x - mu)) is built by the angle-addition recurrence, avoiding a
    trig call per harmonic.
    """
    if ratios is None:
        ratios = _vm_fourier_ratios(kappa)
    x = np.asarray(x, dtype=float)
    t = x - mu
    s1, c1 = np.sin(t), np.cos(t)
    sj, cj = s1.copy(), c1.copy()
    jj = np.arange(1, ratios.size + 1)
    offsets = np.sin(jj * mu)
    coef = ratios / jj
    acc = coef[0] * (sj + offsets[0])
    for j in range(1, ratios.size):
        sj, cj = sj * c1 + cj * s1, cj * c1 - sj * s1
        acc += coef[j] * (sj + offsets[j])
    return x / TWO_PI + acc / np.pi


def _wc_winding(t, rho):
    """Monotone H with H(t + 2*pi) = H(t) + 1 and H' = wrapped Cauchy pdf at mu=0."""
    t = np.asarray(t, dtype=float)
    k = np.round(t / TWO_PI)
    t0 = t - TWO_PI * k  # in [-pi, pi]
    c = (1.0 + rho) / (1.0 - rho)
    return k + np.arctan2(c * np.sin(t0 / 2.0), np.cos(t0 / 2.0)) / np.pi


def _wc_cdf0(x, mu, rho):
    return _wc_winding(np.asarray(x, dtype=float) - mu, rho) - _wc_winding(-mu, rho)


def _ssvm_skew_term(x, mu, kappa, lam):
    # integral of the lambda*sin(t-mu) part of the density from 0 to x
    i0e = special.ive(0, kappa)
    a = np.exp(kappa * (np.cos(mu) - 1.0))
    b = np.exp(kappa * (np.cos(np.asarray(x, dtype=float) - mu) - 1.0))
    return lam * (a - b) / (TWO_PI * kappa * i0e)


def _cdf0(theta: FamilyParams, x):
    """CDF on the canonical cut, valid for x in [0, 2*pi]."""
    x = np.asarray(x, dtype=float)
    f = theta.family
    if f == "uniform":
        return x / TWO_PI
    if f == "vm":
        return _vm_cdf0(x, theta.mu, theta.kappa)
    if f == "wc":
        return _wc_cdf0(x, theta.mu, theta.rho)
    if f == "ssvm":
        return _vm_cdf0(x, theta.mu, theta.kappa) + _ssvm_skew_term(
            x, theta.mu, theta.kappa, theta.lam
        )
    if f == "vm-contam":
        vm = _vm_cdf0(x, theta.mu, theta.kappa)
        return (1.0 - theta.eps) * vm + theta.eps * x / TWO_PI
    raise AssertionError(f)


def family_pdf(theta: FamilyParams, x):
    """Density of the family at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    f = theta.family
    if f == "uniform":
        out = np.full_like(x, 1.0 / TWO_PI)
    elif f == "vm":
        out = _vm_pdf(x, theta.mu, theta.kappa)
    elif f == "wc":
        num = 1.0 - theta.rho**2
        den = 1.0 + theta.rho**2 - 2.0 * theta.rho * np.cos(x - theta.mu)
        out = num / (TWO_PI * den)
    elif f == "ssvm":
        out = _vm_pdf(x, theta.mu, theta.kappa) * (
            1.0 + theta.lam * np.sin(x - theta.mu)
        )
        out = np.maximum(out, 0.0)
    elif f == "vm-contam":
        out = (1.0 - theta.eps) * _vm_pdf(x, theta.mu, theta.kappa) + theta.eps / TWO_PI
    else:
        raise AssertionError(f)
    return out if out.ndim else float(out)


def family_logpdf(theta: FamilyParams, x):
    """Log-density; -inf where the density vanishes (ssvm with lambda = +-1)."""
    x = np.asarray(x, dtype=float)
    f = theta.family
    if f == "uniform":
        out = np.full_like(x, -np.log(TWO_PI))
    elif f == "vm":
        k = theta.kappa
        log_i0 = np.log(special.ive(0, k)) + k
        out = k * np.cos(x - theta.mu) - np.log(TWO_PI) - log_i0
    elif f == "wc":
        den = 1.0 + theta.rho**2 - 2.0 * theta.rho * np.cos(x - theta.mu)
        out = np.log(1.0 - theta.rho**2) - np.log(TWO_PI) - np.log(den)
    elif f == "ssvm":
        k = theta.kappa
        log_i0 = np.log(special.ive(0, k)) + k
        factor = 1.0 + theta.lam * np.sin(x - theta.mu)
        with np.errstate(divide="ignore"):
            out = (
                k * np.cos(x - theta.mu)
                - np.log(TWO_PI)
                - log_i0
                + np.where(factor > 0.0, np.log(np.maximum(factor, 1e-300)), -np.inf)
            )
    else:
        with np.errstate(divide="ignore"):
            out = np.log(family_pdf(theta, x))
    return out if np.ndim(out) else float(out)


def family_cdf(theta: FamilyParams, x):
    """CDF with winding: Q(x + 2*pi*k) = Q(x) + k, Q(0) = 0."""
    x = np.asarray(x, dtype=float)
    k = np.floor(x / TWO_PI)
    x0 = x - TWO_PI * k
    x0 = np.where(x0 >= TWO_PI, x0 - TWO_PI, x0)
    out = _cdf0(theta, x0) + k
    return out if out.ndim else float(out)


def _quantile_bisect(theta: FamilyParams, u: np.ndarray) -> np.ndarray:
    """Vectorized monotone CDF inversion: grid bracket, then safeguarded
    Newton with bisection fallback, iterating only unconverged points."""
    grid = np.linspace(0.0, TWO_PI, 513)
    fg = _cdf0(theta, grid)
    idx = np.clip(np.searchsorted(fg, u, side="left"), 1, grid.size - 1)
    lo = grid[idx - 1].copy()
    hi = grid[idx].copy()
    df = fg[idx] - fg[idx - 1]
    frac = np.where(df > 0.0, (u - fg[idx - 1]) / np.where(df > 0.0, df, 1.0), 0.5)
    x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
    active = np.arange(u.size)
    for _ in range(80):
        if active.size == 0:
            break
        xs = x[active]
        r = _cdf0(theta, xs) - u[active]
        below = r < 0.0
        lo[active[below]] = xs[below]
        hi[active[~below]] = xs[~below]
        done = np.abs(r) <= 1e-14
        keep = ~done
        active = active[keep]
        if active.size == 0:
            break
        xs, r = xs[keep], r[keep]
        pdf = np.asarray(family_pdf(theta, xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xs - r / pdf
        bad = ~np.isfinite(xn) | (xn <= lo[active]) | (xn >= hi[active])
        xn[bad] = 0.5 * (lo[active][bad] + hi[active][bad])
        x[active] = xn
    # the bisection invariant keeps F(hi) >= u; land just above the target
    x[active] = hi[active]
    x[u <= fg[0]] = 0.0
    x[u >= 1.0] = TWO_PI
    return x


def family_quantile(theta: FamilyParams, u):
    """Quantile P^{-1}(u) = inf{x : P(x) >= u} on [0, 2*pi].

    Returns 2*pi (the wrapped cut point) at u = 1 for continuous families.
    """
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("quantile level must lie in [0, 1]")
    f = theta.family
    if f == "uniform":
        out = TWO_PI * u
    elif f == "wc":
        # closed-form inverse of the arctangent CDF, with winding bookkeeping
        c = (1.0 + theta.rho) / (1.0 - theta.rho)
        v = u + _wc_winding(-theta.mu, theta.rho)
        k = np.round(v)
        w = np.pi * (v - k)
        t = TWO_PI * k + 2.0 * np.arctan2(np.sin(w), c * np.cos(w))
        out = np.clip(theta.mu + t, 0.0, TWO_PI)
        out[u >= 1.0] = TWO_PI
        out[u <= 0.0] = 0.0
    else:
        out = _quantile_bisect(theta, u)
    return float(out[0]) if scalar else out


def family_sample(theta: FamilyParams, n: int, seed) -> CircularSample:
    """Draw n i.i.d. samples; deterministic given the seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    f = theta.family
    if f == "uniform":
        x = rng.uniform(0.0, TWO_PI, n)
    elif f == "vm":
        x = rng.vonmises(theta.mu, theta.kappa, n)
    elif f == "wc":
        x = family_quantile(theta, rng.uniform(0.0, 1.0, n))
    elif f == "ssvm":
        # draw from the symmetric base, then flip the sign of the offset
        # with probability (1 - lambda*sin)/2
        z = rng.vonmises(0.0, theta.kappa, n)
        flip = rng.uniform(0.0, 1.0, n) >= 0.5 * (1.0 + theta.lam * np.sin(z))
        x = theta.mu + np.where(flip, -z, z)
    elif f == "vm-contam":
        noise = rng.uniform(0.0, 1.0, n) < theta.eps
        vm = rng.vonmises(theta.mu, theta.kappa, n)
        unif = rng.uniform(0.0, TWO_PI, n)
        x = np.where(noise, unif, vm)
    else:
        raise AssertionError(f)
    return make_sample(x)


def _vm_fisher_entries(kappa: float) -> tuple[float, float]:
    i0 = special.ive(0, kappa)
    a1 = float(special.ive(1, kappa) / i0)
    a2 = float(special.ive(2, kappa) / i0)
    return kappa * a1, 0.5 + 0.5 * a2 - a1**2


def family_fisher(theta: FamilyParams) -> np.ndarray:
    """Fisher information matrix; ordering (mu, kappa), (mu, rho) or
    (mu, kappa, lambda)."""
    f = theta.family
    if f == "vm":
        i_mm, i_kk = _vm_fisher_entries(theta.kappa)
        return np.diag([i_mm, i_kk])
    if f == "wc":
        rho = theta.rho
        if 1.0 - rho < 1e-12:
            raise ValueError("Fisher undefined/divergent at boundary rho -> 1")
        d = (1.0 - rho**2) ** 2
        return np.diag([2.0 * rho**2 / d, 2.0 / d])
    if f == "ssvm":
        k, lam = theta.kappa, theta.lam
        if 1.0 - abs(lam) < 1e-12:
            raise ValueError("Fisher undefined/divergent at boundary lambda = +-1")
        i0 = special.ive(0, k)
        a1 = float(special.ive(1, k) / i0)
        a2 = float(special.ive(2, k) / i0)

        def expect(g):
            # (1/(2*pi*I0)) * integral of exp(k*cos x) * g(x) over [-pi, pi]
            val, _ = integrate.quad(
                lambda x: np.exp(k * (np.cos(x) - 1.0)) * g(x),
                -np.pi,
                np.pi,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=200,
            )
            return val / (TWO_PI * i0)

        i_mm = k * a1 + lam * expect(
            lambda x: (lam + np.sin(x)) / (1.0 + lam * np.sin(x))
        )
        i_mk = 0.5 * lam * (a2 - 1.0)
        i_ml = expect(lambda x: np.cos(x) / (1.0 + lam * np.sin(x)))
        i_kk = 0.5 + 0.5 * a2 - a1**2
        i_ll = expect(lambda x: np.sin(x) ** 2 / (1.0 + lam * np.sin(x)))
        return np.array(
            [
                [i_mm, i_mk, i_ml],
                [i_mk, i_kk, 0.0],
                [i_ml, 0.0, i_ll],
            ]
        )
    raise ValueError(f"Fisher information not provided for family {f!r}")


def free_param_names(family: str) -> tuple[str, ...]:
    return _PARAMS[family]


def params_to_vector(theta: FamilyParams) -> np.ndarray:
    return np.array([getattr(theta, p) for p in free_param_names(theta.family)])


def vector_to_params(family: str, vec) -> FamilyParams:
    names = free_param_names(family)
    kwargs = dict(zip(names, (float(v) for v in vec)))
    if "mu" in kwargs:
        kwargs["mu"] = float(normalize_angle(kwargs["mu"]))
    return FamilyParams(family=family, **kwargs)


def param_box(family: str):
    """(lower, upper, periodic) arrays for the family's free parameters."""
    boxes = {
        "mu": (0.0, TWO_PI, True),
        "kappa": (*KAPPA_BOX, False),
        "rho": (*RHO_BOX, False),
        "lam": (*LAMBDA_BOX, False),
        "eps": (*EPSILON_BOX, False),
    }
    rows = [boxes[p] for p in free_param_names(family)]
    lower = np.array([r[0] for r in rows])
    upper = np.array([r[1] for r in rows])
    periodic = np.array([r[2] for r in rows], dtype=bool)
    return lower, upper, periodic
