"""Angles, the circle metric, circular samples and discrete circular distributions.

All angles are in radians on [0, 2*pi). The canonical cut for every CDF in
this package is at angle 0; CDFs extend to the whole real line by the
winding rule Q(x + 2*pi*k) = Q(x) + k.
"""

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "normalize_angle",
    "circ_dist",
    "CircularSample",
    "DiscreteCircularDist",
    "make_sample",
    "load_sample",
    "save_sample",
    "discrete_from_sample",
]


def normalize_angle(x):
    """Map any real angle (scalar or array) into [0, 2*pi)."""
    x = np.asarray(x, dtype=float)
    out = x - TWO_PI * np.floor(x / TWO_PI)
    # floor rounding can leave exactly 2*pi for tiny negative inputs
    out = np.where(out >= TWO_PI, out - TWO_PI, out)
    return out if out.ndim else float(out)


def circ_dist(x, y):
    """Geodesic distance on the circle: min(|x-y|, 2*pi - |x-y|), in [0, pi]."""
    d = np.abs(normalize_angle(x) - normalize_angle(y))
    d = np.minimum(d, TWO_PI - d)
    return d if np.ndim(d) else float(d)


@dataclass(frozen=True)
class CircularSample:
    """Sorted sample of angles in [0, 2*pi)."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite value in sample")
        if np.any(a < 0.0) or np.any(a >= TWO_PI):
            raise ValueError("angles must lie in [0, 2*pi)")
        if np.any(np.diff(a) < 0.0):
            raise ValueError("angles must be sorted ascending")
        a.flags.writeable = False
        object.__setattr__(self, "angles", a)

    @property
    def n(self) -> int:
        return int(self.angles.size)


def make_sample(raw) -> CircularSample:
    """Build a CircularSample from raw reals: normalize to [0, 2*pi) and sort."""
    a = np.asarray(raw, dtype=float).ravel()
    if a.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite value in sample")
    return CircularSample(np.sort(normalize_angle(a)))


def load_sample(path) -> CircularSample:
    """Read a sample file: one angle (radians) per line, '#' comments ignored."""
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(float(line))
    return make_sample(values)


def save_sample(sample: CircularSample, path) -> None:
    with open(path, "w") as fh:
        for a in sample.angles:
            fh.write(f"{float(a)!r}\n")


@dataclass(frozen=True)
class DiscreteCircularDist:
    """Discrete distribution on the circle: strictly sorted atoms + weights."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.ndim != 1 or s.size == 0 or s.shape != w.shape:
            raise ValueError("support and weights must be matching non-empty 1-D arrays")
        if np.any(s < 0.0) or np.any(s >= TWO_PI):
            raise ValueError("support must lie in [0, 2*pi)")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        # merge duplicate atoms so the support is strictly increasing
        order = np.argsort(s, kind="stable")
        s, w = s[order], w[order]
        keep = np.concatenate([[True], np.diff(s) > 0.0])
        idx = np.cumsum(keep) - 1
        ms = s[keep]
        mw = np.zeros(ms.size)
        np.add.at(mw, idx, w)
        if abs(mw.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        ms.flags.writeable = False
        mw.flags.writeable = False
        object.__setattr__(self, "support", ms)
        object.__setattr__(self, "weights", mw)

    @property
    def size(self) -> int:
        return int(self.support.size)

    def cumweights(self) -> np.ndarray:
        c = np.cumsum(self.weights)
        c[-1] = 1.0
        return c


def discrete_from_sample(sample: CircularSample) -> DiscreteCircularDist:
    """Empirical distribution: atoms at sample points, weight 1/n (duplicates merged)."""
    n = sample.n
    return DiscreteCircularDist(sample.angles, np.full(n, 1.0 / n))
