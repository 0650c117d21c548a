"""Parametric circular families: von Mises, wrapped Cauchy, sine-skewed von
Mises, uniform, and the uniform-contaminated von Mises mixture.

Each family exposes density, log-density, CDF (canonical cut at 0, winding
extension), quantile, sampling and Fisher information. CLI names: ``vm``,
``wc``, ``ssvm``, ``uniform``, ``vm-contam``.

vm, ssvm and vm-contam CDFs sum a Fourier series in I_j(kappa)/I_0(kappa),
ratios taken by backward recurrence, at any points (``family_cdf``) or on
the grid 2*pi*i/D by one real inverse FFT (``family_grid_cdf``). Their
quantiles invert that grid CDF to 1e-10 for kappa up to 8000. The scaled
Bessel functions e^{-kappa} I_nu(kappa), nu <= 2, of the density, the MLE
and the Fisher entries are plain series, so only the ssvm Fisher matrix
imports scipy (its quadrature).
"""

import math
from dataclasses import dataclass

import numpy as np

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
    "family_grid_cdf",
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
        for name in _PARAMS[self.family][1:]:
            _check_domain(name, getattr(self, name))


# the domain of each shape parameter, and the error a value outside it raises
_DOMAINS = {
    "kappa": (lambda v: v > 0.0, "kappa must be positive"),
    "rho": (lambda v: 0.0 <= v < 1.0, "rho must lie in [0, 1)"),
    "lam": (lambda v: -1.0 <= v <= 1.0, "lambda must lie in [-1, 1]"),
    "eps": (lambda v: 0.0 <= v <= 1.0, "epsilon must lie in [0, 1]"),
}


def _check_domain(name: str, value: float) -> None:
    inside, message = _DOMAINS[name]
    if not inside(value):
        raise ValueError(message)


def _param_floats(family: str, vec) -> tuple:
    """A parameter vector as the floats FamilyParams would hold, in vector
    order: mu wrapped into [0, 2*pi) as normalize_angle does, each shape
    parameter checked against its domain with FamilyParams's error."""
    names = _PARAMS[family]
    if not names:
        return ()
    mu = float(vec[0])
    mu -= TWO_PI * float(np.floor(mu / TWO_PI))
    if mu >= TWO_PI:  # floor rounding can leave exactly 2*pi
        mu -= TWO_PI
    shape = tuple(float(v) for v in vec[1:])
    for name, v in zip(names[1:], shape):
        _check_domain(name, v)
    return (mu, *shape)


def _free_params(theta: FamilyParams) -> tuple:
    """theta's free parameters in vector order."""
    return tuple(getattr(theta, p) for p in _PARAMS[theta.family])


def _ive(nu: int, kappa: float) -> float:
    """e^{-kappa} I_nu(kappa) for nu in {0, 1, 2}: the power series below
    kappa = 30, the large-argument expansion (DLMF 10.40.1) above, both
    summed until a term drops below 1e-17 of the total."""
    kappa = float(kappa)
    if kappa < 30.0:
        half, m = kappa / 2.0, 0
        term = total = half**nu / math.factorial(nu)
        while term > 1e-17 * total:
            m += 1
            term *= half * half / (m * (m + nu))
            total += term
        return total * math.exp(-kappa)
    term, total, k = 1.0, 1.0, 0
    while abs(term) > 1e-17 * total:
        k += 1
        term *= ((2 * k - 1) ** 2 - 4 * nu * nu) / (8.0 * k * kappa)
        total += term
    return total / math.sqrt(TWO_PI * kappa)


def bessel_ratio(kappa: float) -> float:
    """A(kappa) = I_1(kappa)/I_0(kappa), computed with scaled Bessels."""
    return _ive(1, kappa) / _ive(0, kappa)


def _vm_fourier_ratios(kappa: float) -> np.ndarray:
    """Coefficients r_j = I_j(kappa)/I_0(kappa), truncated when < 1e-16: the ratios
    I_j/I_{j-1} = kappa/(2j + kappa*I_{j+1}/I_j) by backward recurrence (Gautschi 1967)."""
    jmax = max(24, int(9.0 * math.sqrt(kappa)) + 16)
    # every step waits on the one before it, so it stays a Python loop,
    # kept lean: rho holds I_j/I_{j-1} for j = jmax + 20 down to 1
    ratio = 0.0
    rho = [ratio := kappa / (two_j + kappa * ratio) for two_j in range(2 * (jmax + 20), 0, -2)]
    r = np.cumprod(rho[: -jmax - 1 : -1])
    return r[: max(1, np.count_nonzero(r >= 1e-16))]


def _vm_pdf(x, mu, kappa):
    # exp(kappa*(cos-1)) / (2*pi*ive0) avoids overflow at large kappa
    return np.exp(kappa * (np.cos(x - mu) - 1.0)) / (TWO_PI * _ive(0, kappa))


def _vm_cdf0(x, mu, kappa):
    """von Mises CDF on the cut [0, 2*pi], via the Fourier/Bessel series.

    sin(j*(x - mu)) is built by the angle-addition recurrence, avoiding a
    trig call per harmonic.
    """
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


def _vm_grid_factor(kappa: float, D: int) -> np.ndarray:
    """The part -(i/2)*D*r_j/j of the von Mises grid spectrum that depends
    on kappa and D alone (see _vm_cdf_grid)."""
    ratios = _vm_fourier_ratios(kappa)
    return -0.5j * D * ratios / np.arange(1, ratios.size + 1)


def _vm_cdf_grid(mu, factor, levels):
    """von Mises CDF at 2*pi*i/D, i = 1..D, by one real inverse FFT, with
    factor = _vm_grid_factor(kappa, D) and levels = i/D: e^{ijx} has period
    D in j there, so folding -(i/2)*D*(r_j/j)*e^{-ij*mu} into bins j mod D
    is exact; irfft takes bin D - b as bin b conjugated, 0 and D/2 once."""
    D = levels.size
    j = np.arange(1, factor.size + 1)
    coef = factor * np.exp(-1j * j * mu)
    spectrum = np.zeros(D // 2 + 1, dtype=complex)
    if factor.size < D // 2:  # no harmonic folds: bin j holds coef_j alone
        spectrum[1 : factor.size + 1] = coef
    else:
        b = j % D
        np.add.at(spectrum, np.minimum(b, D - b), np.where(b > D - b, coef.conj(), coef))
        spectrum[[0, -1] if D % 2 == 0 else 0] *= 2.0
    # s[i] = sum_j (r_j/j) sin(j*(2*pi*i/D - mu)); F(0) = 0 fixes the constant
    s = np.fft.irfft(spectrum, D)
    s[:-1] = s[1:] - s[0]
    s[-1] = 0.0
    return levels + s / np.pi


# The kernels below take a family's free parameters as floats in vector
# order, as _param_floats gives them; the public functions taking a
# FamilyParams are thin wrappers over them.


def _cdf0(family: str, params: tuple, x, vm_cdf=None):
    """CDF on the canonical cut, valid for x in [0, 2*pi]. vm_cdf(mu, kappa),
    when given, is the von Mises part at x (the grid's FFT); otherwise its
    series is summed at x."""
    x = np.asarray(x, dtype=float)
    if family == "uniform":
        return x / TWO_PI
    mu = params[0]
    if family == "wc":
        return _wc_winding(x - mu, params[1]) - _wc_winding(-mu, params[1])
    kappa = params[1]
    vm = vm_cdf(mu, kappa) if vm_cdf else _vm_cdf0(x, mu, kappa)
    if family == "vm":
        return vm
    if family == "ssvm":
        # the lambda*sin(t - mu) part of the density integrates to a pdf difference
        return vm + params[2] / kappa * (_vm_pdf(0.0, mu, kappa) - _vm_pdf(x, mu, kappa))
    if family == "vm-contam":
        return (1.0 - params[2]) * vm + params[2] * x / TWO_PI
    raise AssertionError(family)


def _grid_cdf_kernel(family: str, D: int):
    """cdf(params): the family's CDF at the D grid points 2*pi*i/D,
    i = 1..D. The kappa-only factor of the von Mises spectrum is kept for
    the last kappa seen, so a search step that leaves kappa alone skips
    the ratio recurrence."""
    levels = np.arange(1, D + 1) / D
    last = [None, None]  # kappa, _vm_grid_factor(kappa, D)

    def vm_cdf(mu, kappa):
        if kappa != last[0]:
            last[:] = kappa, _vm_grid_factor(kappa, D)
        return _vm_cdf_grid(mu, last[1], levels)

    if family == "vm":
        return lambda params: vm_cdf(*params)
    grid = TWO_PI * np.arange(1, D + 1) / D
    return lambda params: _cdf0(family, params, grid, vm_cdf)


def _wc_terms(rho: float, t):
    """Numerator 1 - rho^2 and denominator 1 + rho^2 - 2*rho*cos(t) of the
    wrapped Cauchy density, written so neither cancels as rho -> 1."""
    return (1.0 - rho) * (1.0 + rho), (1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * t) ** 2


def _pdf(family: str, params: tuple, x):
    x = np.asarray(x, dtype=float)
    if family == "uniform":
        return np.full_like(x, 1.0 / TWO_PI)
    mu, shape = params[0], params[1]
    if family == "vm":
        return _vm_pdf(x, mu, shape)
    if family == "wc":
        num, den = _wc_terms(shape, x - mu)
        return num / (TWO_PI * den)
    if family == "ssvm":
        return np.maximum(_vm_pdf(x, mu, shape) * (1.0 + params[2] * np.sin(x - mu)), 0.0)
    if family == "vm-contam":
        return (1.0 - params[2]) * _vm_pdf(x, mu, shape) + params[2] / TWO_PI
    raise AssertionError(family)


def _logpdf(family: str, params: tuple, x):
    x = np.asarray(x, dtype=float)
    if family == "uniform":
        return np.full_like(x, -np.log(TWO_PI))
    mu, shape = params[0], params[1]
    if family == "wc":
        num, den = _wc_terms(shape, x - mu)
        return np.log(num) - np.log(TWO_PI) - np.log(den)
    if family in ("vm", "ssvm"):
        out = shape * np.cos(x - mu) - np.log(TWO_PI) - (math.log(_ive(0, shape)) + shape)
        if family == "ssvm":
            factor = 1.0 + params[2] * np.sin(x - mu)
            with np.errstate(divide="ignore"):
                out = out + np.where(factor > 0.0, np.log(np.maximum(factor, 1e-300)), -np.inf)
        return out
    with np.errstate(divide="ignore"):
        return np.log(_pdf(family, params, x))


def family_pdf(theta: FamilyParams, x):
    """Density of the family at x (scalar or array)."""
    out = _pdf(theta.family, _free_params(theta), x)
    return out if out.ndim else float(out)


def family_logpdf(theta: FamilyParams, x):
    """Log-density; -inf where the density vanishes (ssvm with lambda = +-1)."""
    out = _logpdf(theta.family, _free_params(theta), x)
    return out if np.ndim(out) else float(out)


def family_cdf(theta: FamilyParams, x):
    """CDF with winding: Q(x + 2*pi*k) = Q(x) + k, Q(0) = 0."""
    x = np.asarray(x, dtype=float)
    k = np.floor(x / TWO_PI)
    x0 = x - TWO_PI * k
    x0 = np.where(x0 >= TWO_PI, x0 - TWO_PI, x0)
    out = _cdf0(theta.family, _free_params(theta), x0) + k
    return out if out.ndim else float(out)


def family_grid_cdf(theta: FamilyParams, D: int) -> np.ndarray:
    """CDF at the D grid points 2*pi*i/D, i = 1..D, exact up to rounding."""
    return _grid_cdf_kernel(theta.family, D)(_free_params(theta))


def _quantile_table(theta: FamilyParams, u: np.ndarray) -> np.ndarray:
    """Invert the CDF table at 2*pi*k/M, k = 0..M: bracket each level, then
    take a cubic Hermite step with slopes 1/pdf, a and b relative to the
    secant. It is linear where they are not finite or break monotonicity,
    a^2 + b^2 > 9 (Fritsch & Carlson 1980)."""
    # the step scales with the vm width 1/sqrt(kappa); in probability the
    # cubic step errs by ~16*kappa^2/M^4 (6e-11 at kappa 500, M = 2^14) and
    # the linear one across a zero of the ssvm density by ~step^3/100
    M = 2 ** int(np.clip(14 + np.ceil(0.5 * np.log2(theta.kappa / KAPPA_BOX[1])), 12, 16))
    step = TWO_PI / M
    # rounding can dip the table where the density underflows
    table = np.maximum.accumulate(np.concatenate([[0.0], family_grid_cdf(theta, M)]))
    k = np.clip(np.searchsorted(table, u, side="left"), 1, M)
    x0 = step * (k - 1)
    h = table[k] - table[k - 1]
    with np.errstate(all="ignore"):
        t = np.clip((u - table[k - 1]) / h, 0.0, 1.0)
        a = h / (step * family_pdf(theta, x0))
        b = h / (step * family_pdf(theta, x0 + step))
        linear = ~(a * a + b * b <= 9.0)
    a[linear] = b[linear] = 1.0
    x = x0 + step * (t * t * (3.0 - 2.0 * t) + t * (1.0 - t) * (a * (1.0 - t) - b * t))
    return np.clip(x, x0, x0 + step)


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
    else:
        out = _quantile_table(theta, u)
    out[u >= 1.0] = TWO_PI
    out[u <= 0.0] = 0.0
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


def family_fisher(theta: FamilyParams) -> np.ndarray:
    """Fisher information matrix; ordering (mu, kappa), (mu, rho) or
    (mu, kappa, lambda)."""
    f = theta.family
    if f in ("vm", "ssvm"):
        k = theta.kappa
        i0 = _ive(0, k)
        a1, a2 = _ive(1, k) / i0, _ive(2, k) / i0
        i_mm, i_kk = k * a1, 0.5 + 0.5 * a2 - a1**2
    if f == "vm":
        return np.diag([i_mm, i_kk])
    if f == "wc":
        rho = theta.rho
        if 1.0 - rho < 1e-12:
            raise ValueError("Fisher undefined/divergent at boundary rho -> 1")
        d = (1.0 - rho**2) ** 2
        return np.diag([2.0 * rho**2 / d, 2.0 / d])
    if f == "ssvm":
        lam = theta.lam
        if 1.0 - abs(lam) < 1e-12:
            raise ValueError("Fisher undefined/divergent at boundary lambda = +-1")
        from scipy.integrate import quad

        def expect(g):
            # (1/(2*pi*I0)) * integral of exp(k*cos x) * g(x) over [-pi, pi]
            val, _ = quad(
                lambda x: np.exp(k * (np.cos(x) - 1.0)) * g(x),
                -np.pi,
                np.pi,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=200,
            )
            return val / (TWO_PI * i0)

        i_mm += lam * expect(
            lambda x: (lam + np.sin(x)) / (1.0 + lam * np.sin(x))
        )
        i_mk = 0.5 * lam * (a2 - 1.0)
        i_ml = expect(lambda x: np.cos(x) / (1.0 + lam * np.sin(x)))
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
    # FamilyParams wraps mu into [0, 2*pi)
    return FamilyParams(family=family, **dict(zip(names, (float(v) for v in vec))))


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
