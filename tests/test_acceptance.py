"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line. Later tests run multi-minute Monte Carlo sweeps; the whole
module is designed to finish on a single desk-class core.
"""

import json
import time

import numpy as np
import pytest
from scipy import integrate

from circwass import (
    EstimatorSpec,
    ExperimentConfig,
    FamilyParams,
    circ_dist,
    discrete_from_sample,
    family_cdf,
    family_fisher,
    family_pdf,
    family_quantile,
    family_sample,
    grid_cdf_of,
    make_sample,
    mle_von_mises,
    mle_wrapped_cauchy,
    mse_ratio,
    run_experiment,
    select_kth,
    w1_grid,
    wasserstein_fit,
    wp_discrete,
    wp_general,
)
from circwass.circular import TWO_PI
from circwass.estimate import circular_mean_resultant
from circwass.families import bessel_ratio
from circwass.harness import estimator_spec_from_name

from conftest import loglik, perm_matching_cost, random_discrete_pair, w1_cdf_search, wp_bruteforce
from test_estimate import _de_loglik_oracle
from test_families import random_theta
from test_transport import grid_dist_from_cdf


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"\ncriterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_transport_oracle_equivalence(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        a, b = random_discrete_pair(rng, n)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        worst = max(worst, abs(wp_discrete(a, b, p) - wp_bruteforce(a, b, p)))
    worst_perm = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 9))
        a, b = random_discrete_pair(rng, n)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        ref = perm_matching_cost(a.support, b.support, p)
        worst_perm = max(worst_perm, abs(wp_bruteforce(a, b, p) - ref))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and worst_perm <= 1e-12 and elapsed < 10.0
    report(capsys, 1, "transport oracle equivalence", ok)


def test_criterion_02_w1_consistency(capsys):
    rng = np.random.default_rng(1002)
    ok = True
    # grid formula vs the exact general-weight distance on matched supports
    for _ in range(10):
        D = int(rng.integers(8, 64))
        qa = grid_cdf_of(make_sample(rng.uniform(0, TWO_PI, 25)), D)
        qb = grid_cdf_of(make_sample(rng.uniform(0, TWO_PI, 30)), D)
        exact = wp_general(grid_dist_from_cdf(qa), grid_dist_from_cdf(qb), 1.0)
        ok &= abs(w1_grid(qa, qb) - exact) <= 1e-9
    # CDF-offset search agrees with the grid formula within the grid bound
    for D in (64, 256):
        for _ in range(3):
            t1 = random_theta(rng, "vm")
            t2 = random_theta(rng, "vm")
            a = w1_cdf_search(
                lambda x: family_cdf(t1, x), lambda x: family_cdf(t2, x), D
            )
            b = w1_grid(grid_cdf_of(t1, D), grid_cdf_of(t2, D))
            ok &= abs(a - b) <= 4 * np.pi / D + 1e-6
    report(capsys, 2, "W1 consistency", ok)


def test_criterion_03_metric_properties(capsys):
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 16))
        a, b = random_discrete_pair(rng, n)
        c, _ = random_discrete_pair(rng, n)
        delta = rng.uniform(0, TWO_PI)
        ar = discrete_from_sample(make_sample(a.support + delta))
        br = discrete_from_sample(make_sample(b.support + delta))
        for p in (1.0, 2.0):
            dab = wp_discrete(a, b, p)
            ok &= dab == wp_discrete(b, a, p)  # symmetry, exact
            ok &= wp_discrete(a, a, p) == 0.0
            ok &= wp_discrete(a, c, p) <= dab + wp_discrete(b, c, p) + 1e-9
            ok &= abs(wp_discrete(ar, br, p) - dab) <= 1e-12
        if not ok:
            break
    report(capsys, 3, "metric properties", ok)


def test_criterion_04_median_formula(capsys):
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(1000):
        d = rng.uniform(-1.0, 1.0, int(rng.integers(2, 60)))
        m = select_kth(d, (d.size - 1) // 2)
        s = float(np.sum(np.abs(d - m)))
        ok &= s <= min(float(np.sum(np.abs(d - mp))) for mp in d) + 1e-12
        k = int(rng.integers(0, d.size))
        ok &= select_kth(d, k) == float(np.sort(d)[k])
        if not ok:
            break
    report(capsys, 4, "median formula", ok)


def test_criterion_05_families(capsys):
    rng = np.random.default_rng(1005)
    ok = True
    u = np.linspace(0.01, 0.99, 50)
    for family in ("vm", "wc", "ssvm", "uniform", "vm-contam"):
        for _ in range(50):
            theta = random_theta(rng, family)
            mass, _ = integrate.quad(
                lambda t: family_pdf(theta, t), 0.0, TWO_PI, limit=200
            )
            ok &= abs(mass - 1.0) <= 1e-8
            ok &= bool(
                np.all(np.abs(family_cdf(theta, family_quantile(theta, u)) - u) <= 1e-9)
            )
        if not ok:
            break
    grid = np.linspace(0.0, TWO_PI, 100, endpoint=False)
    sk = FamilyParams("ssvm", mu=0.7, kappa=2.0, lam=0.0)
    vm = FamilyParams("vm", mu=0.7, kappa=2.0)
    ok &= bool(np.all(np.abs(family_pdf(sk, grid) - family_pdf(vm, grid)) <= 1e-12))
    for family in ("vm", "wc", "ssvm"):
        for _ in range(10):
            mat = family_fisher(random_theta(rng, family))
            ok &= bool(np.all(mat == mat.T))
            ok &= float(np.min(np.linalg.eigvalsh(mat))) >= -1e-9
            if family == "ssvm":
                ok &= mat[1, 2] == 0.0
    wc_half = family_fisher(FamilyParams("wc", mu=0.0, rho=0.5))
    ok &= abs(wc_half[0, 0] - 8.0 / 9.0) <= 1e-12
    ok &= abs(wc_half[1, 1] - 32.0 / 9.0) <= 1e-12
    report(capsys, 5, "parametric families", ok)


def test_criterion_06_mle_correctness(capsys):
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(20):
        theta = random_theta(rng, "vm")
        s = family_sample(theta, 500, int(rng.integers(1 << 31)))
        fit = mle_von_mises(s).theta_hat
        mu_bar, rbar = circular_mean_resultant(s)
        ok &= abs(bessel_ratio(fit.kappa) - rbar) <= 1e-8
        ok &= fit.mu == mu_bar
    for seed in range(20):
        s = family_sample(FamilyParams("wc", mu=np.pi / 8, rho=0.4), 1000, seed)
        res = mle_wrapped_cauchy(s)
        ll = loglik(res.theta_hat, s)
        ok &= ll >= _de_loglik_oracle(s, "wc", seed=seed) - 1e-6
        if not ok:
            break
    report(capsys, 6, "MLE correctness", ok)


def _w1_median_error(truth, family, n, seeds):
    spec = estimator_spec_from_name("w1")
    errs = []
    for seed in seeds:
        s = family_sample(truth, n, seed)
        hat = wasserstein_fit(s, family, spec).theta_hat
        if family == "vm":
            err = np.hypot(circ_dist(hat.mu, truth.mu), hat.kappa - truth.kappa)
        else:
            err = np.hypot(circ_dist(hat.mu, truth.mu), hat.rho - truth.rho)
        errs.append(err)
    return float(np.median(errs))


def test_criterion_07_consistency(capsys):
    t0 = time.monotonic()
    seeds = [int(s) for s in np.random.SeedSequence(1007).generate_state(50)]
    ok = True
    for family, truth in (
        ("vm", FamilyParams("vm", mu=0.3, kappa=2.0)),
        ("wc", FamilyParams("wc", mu=np.pi / 8, rho=0.4)),
    ):
        small = _w1_median_error(truth, family, 100, seeds)
        large = _w1_median_error(truth, family, 10_000, seeds)
        ok &= large < small
    ok &= time.monotonic() - t0 < 300.0
    report(capsys, 7, "consistency of the W1 projection", ok)


def test_criterion_08_von_mises_mse_ratios(capsys):
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        family="vm",
        theta0=FamilyParams("vm", mu=0.3, kappa=2.0),
        sweep_name="log10N",
        sweep_values=(3.0,),
        n=0,
        replications=300,
        estimators=("mle", "w1", "w2"),
        master_seed=2024,
    )
    table = run_experiment(cfg)
    ratios = [r for est in ("W1", "W2") for _, _, r in mse_ratio(table, est, "MLE")]
    ok = all(0.9 <= r <= 1.3 for r in ratios)
    ok &= all(r.failures == 0 for r in table.rows)
    ok &= time.monotonic() - t0 < 600.0
    report(capsys, 8, "von Mises MSE ratios", ok)


def test_criterion_09_wrapped_cauchy_mse_ratios(capsys):
    cfg = ExperimentConfig(
        family="wc",
        theta0=FamilyParams("wc", mu=np.pi / 8, rho=0.4),
        sweep_name="log10N",
        sweep_values=(3.0,),
        n=0,
        replications=300,
        estimators=("mle", "w1", "w2"),
        master_seed=2025,
    )
    table = run_experiment(cfg)
    ratios = [r for est in ("W1", "W2") for _, _, r in mse_ratio(table, est, "MLE")]
    ok = all(0.85 <= r <= 1.5 for r in ratios)
    report(capsys, 9, "wrapped Cauchy MSE ratios", ok)


def test_criterion_10_sine_skewed_mse_ratios(capsys):
    cfg = ExperimentConfig(
        family="ssvm",
        theta0=FamilyParams("ssvm", mu=0.0, kappa=1.0, lam=0.7),
        sweep_name="log10N",
        sweep_values=(3.0,),
        n=0,
        replications=200,
        estimators=("mle", "w1"),
        master_seed=2026,
    )
    table = run_experiment(cfg)
    ratios = mse_ratio(table, "W1", "MLE")
    ok = len(ratios) == 3 and all(r <= 4.0 for _, _, r in ratios)
    report(capsys, 10, "sine-skewed MSE ratios", ok)


def test_criterion_11_contamination_robustness(capsys):
    theta = FamilyParams("vm-contam", mu=np.pi / 4, kappa=5.0, eps=0.1)
    cfg = ExperimentConfig(
        family="vm-contam",
        theta0=theta,
        sweep_name="epsilon",
        sweep_values=(0.1,),
        n=10_000,
        replications=100,
        estimators=("mle", "w1"),
        master_seed=2027,
    )
    table = run_experiment(cfg)
    kappa_ratio = {p: r for _, p, r in mse_ratio(table, "W1", "MLE")}["kappa"]
    # the contaminated MLE underestimates kappa
    kappa_hats = []
    for ri in range(100):
        seed = np.random.SeedSequence([2027, 0, ri])
        s = family_sample(theta, 10_000, seed)
        kappa_hats.append(mle_von_mises(s).theta_hat.kappa)
    ok = kappa_ratio < 1.0 and float(np.mean(kappa_hats)) < 5.0
    report(capsys, 11, "contamination robustness", ok)


def test_criterion_12_full_scale_recipe_supported(capsys):
    # the n = 10^5 sweeps are not run here; the config path must accept them
    # (the runnable recipe is documented in the README)
    text = json.dumps(
        {
            "family": "vm",
            "theta0": {"mu": 0.3, "kappa": 2.0},
            "sweep": {"name": "log10N", "values": [3.0, 3.5, 4.0, 4.5, 5.0]},
            "replications": 20,
            "estimators": ["mle", "w1", "w2"],
            "master_seed": 1,
        }
    )
    cfg = ExperimentConfig.from_json(text)
    from circwass.harness import _resolve_cell

    _, n = _resolve_cell(cfg, 5.0)
    ok = n == 100_000 and all(
        estimator_spec_from_name(e) is not None for e in cfg.estimators
    )
    report(capsys, 12, "full-scale recipe supported", ok)


def test_criterion_13_determinism_across_workers(capsys):
    cfg = ExperimentConfig(
        family="vm",
        theta0=FamilyParams("vm", mu=0.3, kappa=2.0),
        sweep_name="log10N",
        sweep_values=(1.7, 2.0),
        n=0,
        replications=3,
        estimators=("mle", "w1"),
        master_seed=7,
    )
    outputs = {run_experiment(cfg, workers=w).to_csv() for w in (1, 2, 3)}
    ok = len(outputs) == 1
    report(capsys, 13, "determinism across worker counts", ok)
