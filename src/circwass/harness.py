"""Monte Carlo experiment runner.

Sweeps one axis (sample size or a model parameter), runs every configured
estimator on identical replicated samples, and aggregates per-parameter
mean squared errors into a CSV table. Deterministic for a given master
seed regardless of worker count: each replication derives its own child
seed from (master seed, sweep index, replication index).
"""

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import product, repeat

import numpy as np

from .circular import CircularSample
from .estimate import EstimatorSpec, circular_sq_error, fit_mle, wasserstein_fit
from .families import PARAM_NAMES, FamilyParams, family_sample, free_param_names, params_to_vector

__all__ = [
    "ExperimentConfig",
    "MseRow",
    "MseTable",
    "run_experiment",
    "mse_ratio",
    "estimator_spec_from_name",
]

# sweep name -> the FamilyParams attribute it varies; log10N varies n instead
_SWEEP_ATTRS = {name: attr for attr, name in PARAM_NAMES.items() if attr != "mu"}
SWEEPS = ("log10N", *_SWEEP_ATTRS)

# estimator name -> (CSV label, EstimatorSpec fields of its Wasserstein
# objective); None marks the MLE
_ESTIMATORS = {
    "mle": ("MLE", None),
    "w1": ("W1", dict(p=1.0, discretization="grid")),
    "w2": ("W2", dict(p=2.0, discretization="equal-mass")),
    "w1-equal-mass": ("W1em", dict(p=1.0, discretization="equal-mass")),
}


def _estimator(name: str):
    try:
        return _ESTIMATORS[name.lower()]
    except (KeyError, AttributeError):
        raise ValueError(f"unknown estimator {name!r}") from None


def estimator_spec_from_name(name: str) -> EstimatorSpec:
    """The sweep's spec of a named estimator; the names are the keys of
    ``_ESTIMATORS`` (case-insensitive). It runs Powell alone; the sweep adds
    differential evolution for ssvm."""
    # tol 1e-6 keeps desk-scale sweeps fast; Monte Carlo noise dominates it
    return EstimatorSpec(**(_estimator(name)[1] or {}), de_gens=0, tol=1e-6)


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    theta0: FamilyParams
    sweep_name: str
    sweep_values: tuple
    n: int
    replications: int
    estimators: tuple = ("mle", "w1", "w2")
    master_seed: int = 0

    def __post_init__(self):
        if self.sweep_name not in SWEEPS:
            raise ValueError(f"unknown sweep {self.sweep_name!r}")
        vals = tuple(float(v) for v in self.sweep_values)
        if len(vals) == 0 or any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        labels = [_estimator(name)[0] for name in self.estimators]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"estimator {self.estimators[i]!r} listed twice")
        object.__setattr__(self, "sweep_values", vals)
        object.__setattr__(self, "estimators", tuple(self.estimators))

    @property
    def fit_family(self) -> str:
        # the contamination scenario fits the pure von Mises model
        return "vm" if self.family == "vm-contam" else self.family

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        t0, sweep = _get(raw, "theta0", dict), _get(raw, "sweep", dict)
        for where, obj, known in (
            ("config", raw, _CONFIG_KEYS), ("theta0", t0, PARAM_NAMES.values()),
            ("sweep", sweep, ("name", "values")),
        ):
            if unknown := sorted(set(obj) - set(known)):
                raise ValueError(f"unknown {where} keys: {unknown}")
        family = _get(raw, "family", str)
        values = _get(sweep, "values", list, "sweep")
        if not all(isinstance(v, _NUMBER) and not isinstance(v, bool) for v in values):
            raise ValueError(f"sweep key 'values' must hold numbers, not {values!r}")
        return cls(
            family=family,
            theta0=FamilyParams(family, **{attr: _get(t0, name, _NUMBER, "theta0")
                                           for attr, name in PARAM_NAMES.items() if name in t0}),
            sweep_name=_get(sweep, "name", str, "sweep"),
            sweep_values=tuple(values),
            n=_get(raw, "n", int, default=0),
            replications=_get(raw, "replications", int),
            estimators=_get(raw, "estimators", list, default=list(cls.estimators)),
            master_seed=_get(raw, "master_seed", int, default=cls.master_seed),
        )


# the keys of a sweep config; family, theta0, sweep and replications are required
_CONFIG_KEYS = ("family", "theta0", "sweep", "replications", "n", "estimators", "master_seed")
_NUMBER = (int, float)


def _get(obj: dict, key: str, kind, where: str = "config", default=None):
    """obj[key] if it is a JSON value of the given kind; an absent key takes
    the default and is an error without one."""
    if key not in obj and default is None:
        raise ValueError(f"{where} lacks key {key!r}")
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where} key {key!r} has a bad value {value!r}")
    return value


@dataclass(frozen=True)
class MseRow:
    sweep_name: str
    sweep_value: float
    estimator: str
    parameter: str
    mse: float
    log10_mse: float
    replications: int
    failures: int


CSV_HEADER = [f.name for f in fields(MseRow)]


@dataclass(frozen=True)
class MseTable:
    rows: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in self.rows:
            values = (getattr(r, name) for name in CSV_HEADER)
            writer.writerow([repr(v) if isinstance(v, float) else v for v in values])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "MseTable":
        reader = csv.reader(io.StringIO(text))
        if next(reader) != CSV_HEADER:
            raise ValueError("unexpected CSV header")
        types = [f.type for f in fields(MseRow)]
        return cls(tuple(MseRow(*(t(v) for t, v in zip(types, r))) for r in reader))

    def to_wide_csv(self) -> str:
        """Wide plotting table: one row per sweep value, log10 MSE columns
        named like MLE_mu, W1_kappa."""
        sweep_vals = sorted({r.sweep_value for r in self.rows})
        cols = []
        for r in self.rows:
            key = f"{r.estimator}_{r.parameter}"
            if key not in cols:
                cols.append(key)
        lookup = {(r.sweep_value, f"{r.estimator}_{r.parameter}"): r.log10_mse for r in self.rows}
        name = self.rows[0].sweep_name if self.rows else "sweep"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([name] + cols)
        for v in sweep_vals:
            writer.writerow([repr(v)] + [repr(lookup.get((v, c), float("nan"))) for c in cols])
        return buf.getvalue()


def _resolve_cell(cfg: ExperimentConfig, sweep_value: float):
    """(sampling params, n) for one sweep value."""
    theta = cfg.theta0
    if cfg.sweep_name == "log10N":
        n = int(round(10.0**sweep_value))
    else:
        n = cfg.n
        attr = _SWEEP_ATTRS[cfg.sweep_name]
        theta = replace(theta, **{attr: float(sweep_value)})
    if n < 1:
        raise ValueError("sample size must be >= 1 (set n or sweep log10N)")
    return theta, n


def _run_cell(cfg: ExperimentConfig, si: int, ri: int) -> list:
    """One replication: sample once, run every estimator on it. One entry
    per configured estimator: its squared errors in parameter order, or
    None when the fit failed numerically."""
    theta_sample, n = _resolve_cell(cfg, cfg.sweep_values[si])
    seed = np.random.SeedSequence([cfg.master_seed, si, ri])
    sample = family_sample(theta_sample, n, seed)
    names = free_param_names(cfg.fit_family)
    truth = [getattr(theta_sample, name) for name in names]
    out = []
    for ei, est_name in enumerate(cfg.estimators):
        spec = estimator_spec_from_name(est_name)
        if cfg.fit_family == "ssvm":
            # skewness has no moment start; a small global search is needed
            spec = replace(spec, de_pop=18, de_gens=40)
        spec = replace(spec, seed=int(np.random.SeedSequence([cfg.master_seed, si, ri, 7000 + ei]).generate_state(1)[0]))
        try:
            if _estimator(est_name)[1] is None:
                theta_hat = fit_mle(sample, cfg.fit_family, spec)
            else:
                theta_hat = wasserstein_fit(sample, cfg.fit_family, spec).theta_hat
            est = params_to_vector(theta_hat)
            out.append([circular_sq_error(e, t) if name == "mu" else float(e - t) ** 2
                        for name, e, t in zip(names, est, truth)])
        except (ValueError, ArithmeticError):  # a numerical failure, counted per row
            out.append(None)
    return out


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> MseTable:
    """Run the full sweep; bit-identical output for a fixed config and master
    seed regardless of worker count."""
    reps = cfg.replications
    sis, ris = zip(*product(range(len(cfg.sweep_values)), range(reps)))
    # a pool starts all its processes at once, so it gets no more than it can use
    workers = min(workers, len(sis), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, repeat(cfg), sis, ris, chunksize=4))
    else:
        results = list(map(_run_cell, repeat(cfg), sis, ris))

    names = free_param_names(cfg.fit_family)
    rows = []
    for si, sweep_value in enumerate(cfg.sweep_values):
        cell = results[si * reps : (si + 1) * reps]
        for ei, label in enumerate(_estimator(est)[0] for est in cfg.estimators):
            errs = [r[ei] for r in cell if r[ei] is not None]
            for pi, name in enumerate(names):
                vals = [e[pi] for e in errs]
                mse = float(np.mean(vals)) if vals else float("nan")
                log10_mse = float(np.log10(mse)) if mse > 0 else float("-inf")
                rows.append(
                    MseRow(
                        sweep_name=cfg.sweep_name,
                        sweep_value=float(sweep_value),
                        estimator=label,
                        parameter=name,
                        mse=mse,
                        log10_mse=log10_mse,
                        replications=len(vals),
                        failures=reps - len(errs),
                    )
                )
    return MseTable(tuple(rows))


def mse_ratio(table: MseTable, num: str, den: str):
    """Rows of (sweep_value, parameter, mse_num/mse_den)."""
    def index(est):
        out = {(r.sweep_value, r.parameter): r.mse for r in table.rows if r.estimator == est}
        if not out:
            raise ValueError(f"estimator {est!r} not present in table")
        return out

    top, bottom = index(num), index(den)
    out = []
    for key in sorted(top):
        if key in bottom:
            out.append((key[0], key[1], top[key] / bottom[key]))
    return out
