import json

import numpy as np
import pytest

from circwass import ExperimentConfig, FamilyParams, MseTable, harness, mse_ratio, run_experiment
from circwass.harness import CSV_HEADER, MseRow, estimator_spec_from_name


def tiny_config(**overrides):
    kwargs = dict(
        family="vm",
        theta0=FamilyParams("vm", mu=0.3, kappa=2.0),
        sweep_name="log10N",
        sweep_values=(1.5,),
        n=0,
        replications=2,
        estimators=("mle",),
        master_seed=99,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            tiny_config(sweep_values=(2.0, 1.0))
        with pytest.raises(ValueError, match="replications"):
            tiny_config(replications=0)
        with pytest.raises(ValueError, match="sweep"):
            tiny_config(sweep_name="gamma")

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="unknown estimator 'w3'"):
            tiny_config(estimators=("mle", "w3"))

    def test_duplicate_estimator(self):
        # a name listed twice, in any case, would fit and report it twice
        with pytest.raises(ValueError, match="'MLE' listed twice"):
            tiny_config(estimators=("mle", "MLE", "w1"))

    def test_fit_family(self):
        cfg = tiny_config(
            family="vm-contam",
            theta0=FamilyParams("vm-contam", mu=0.3, kappa=2.0, eps=0.1),
            sweep_name="epsilon",
            sweep_values=(0.0, 0.1),
            n=30,
        )
        assert cfg.fit_family == "vm"

    def test_from_json(self):
        text = json.dumps(
            {
                "family": "ssvm",
                "theta0": {"mu": 0.0, "kappa": 1.0, "lambda": 0.7},
                "sweep": {"name": "lambda", "values": [0.1, 0.5]},
                "n": 40,
                "replications": 3,
                "estimators": ["mle", "w1"],
                "master_seed": 5,
            }
        )
        cfg = ExperimentConfig.from_json(text)
        assert cfg.theta0.lam == 0.7
        assert cfg.sweep_values == (0.1, 0.5)
        assert cfg.estimators == ("mle", "w1")

    def test_from_json_defaults(self):
        # the optional keys take the dataclass defaults
        text = json.dumps({"family": "vm", "theta0": {"mu": 0.0, "kappa": 1.0},
                           "sweep": {"name": "log10N", "values": [2.0]}, "replications": 1})
        cfg = ExperimentConfig.from_json(text)
        assert (cfg.n, cfg.estimators, cfg.master_seed) == (0, ("mle", "w1", "w2"), 0)

    def test_from_json_unknown_key(self):
        text = json.dumps(
            {
                "family": "vm",
                "theta0": {"mu": 0.0, "kappa": 1.0, "sigma": 2.0},
                "sweep": {"name": "log10N", "values": [2.0]},
                "replications": 1,
            }
        )
        with pytest.raises(ValueError, match="sigma"):
            ExperimentConfig.from_json(text)

    def test_estimator_names(self):
        assert estimator_spec_from_name("MLE") == estimator_spec_from_name("mle")
        assert estimator_spec_from_name("w1").discretization == "grid"
        assert estimator_spec_from_name("w2").p == 2.0
        assert estimator_spec_from_name("w1-equal-mass").discretization == "equal-mass"
        with pytest.raises(ValueError):
            estimator_spec_from_name("w3")


class TestRunExperiment:
    def test_shape(self):
        table = run_experiment(tiny_config(replications=1))
        # one row per (sweep value, estimator, parameter)
        assert len(table.rows) == 2
        assert {r.parameter for r in table.rows} == {"mu", "kappa"}
        assert all(r.estimator == "MLE" for r in table.rows)
        assert all(r.replications == 1 and r.failures == 0 for r in table.rows)

    def test_parameter_sweep_substitutes_truth(self):
        cfg = tiny_config(
            sweep_name="kappa", sweep_values=(1.0, 4.0), n=40, replications=3
        )
        table = run_experiment(cfg)
        assert sorted({r.sweep_value for r in table.rows}) == [1.0, 4.0]
        assert all(r.mse >= 0.0 for r in table.rows)

    def test_missing_n_for_parameter_sweep(self):
        cfg = tiny_config(sweep_name="kappa", sweep_values=(1.0,), n=0)
        with pytest.raises(ValueError, match="sample size"):
            run_experiment(cfg)

    def test_worker_count_determinism(self):
        cfg = tiny_config(
            sweep_values=(1.7,), replications=4, estimators=("mle", "w1")
        )
        t1 = run_experiment(cfg, workers=1)
        t2 = run_experiment(cfg, workers=2)
        assert t1.to_csv() == t2.to_csv()

    def test_pool_size_capped(self, monkeypatch):
        # a pool starts every process it is given, so it gets no more than
        # the tasks and CPUs it can use, and none when one would do
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        one_task = tiny_config(replications=1)
        assert run_experiment(one_task, workers=10**6) == run_experiment(one_task)
        assert sizes == []
        cfg = tiny_config(sweep_values=(1.5, 1.7), replications=2)
        for cpus, expected in ((None, []), (1, []), (3, [3]), (8, [4])):
            sizes.clear()
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
            assert run_experiment(cfg, workers=10**6) == run_experiment(cfg)
            assert sizes == expected

    def test_same_sample_per_replication(self):
        # MLE rows must be identical whether or not other estimators run
        joint = run_experiment(tiny_config(replications=3, estimators=("mle", "w1")))
        solo = run_experiment(tiny_config(replications=3, estimators=("mle",)))
        joint_mle = [r for r in joint.rows if r.estimator == "MLE"]
        assert joint_mle == list(solo.rows)

    def test_numerical_failure_counted(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("no convergence")

        monkeypatch.setattr(harness, "fit_mle", fail)
        table = run_experiment(tiny_config(replications=3))
        assert all(r.failures == 3 and r.replications == 0 for r in table.rows)

    def test_bug_propagates(self, monkeypatch):
        # only numerical failures are counted; anything else is a bug
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr(harness, "fit_mle", broken)
        with pytest.raises(TypeError, match="bad call"):
            run_experiment(tiny_config(replications=1))

    def test_log10_mse(self):
        table = run_experiment(tiny_config(replications=2))
        for r in table.rows:
            if r.mse > 0:
                assert r.log10_mse == pytest.approx(np.log10(r.mse), abs=0.0)


class TestSweepPolicy:
    # every family runs the estimator's sweep spec; the fit itself picks a
    # local search from the moments (vm, wc) or a scan (ssvm)
    @pytest.mark.parametrize(
        "theta0",
        (
            pytest.param(FamilyParams("vm", mu=0.3, kappa=2.0), id="theta00-powell"),
            pytest.param(FamilyParams("wc", mu=0.3, rho=0.4), id="theta01-powell"),
            pytest.param(FamilyParams("vm-contam", mu=0.3, kappa=2.0, eps=0.1),
                         id="theta02-powell"),
            pytest.param(FamilyParams("ssvm", mu=0.3, kappa=2.0, lam=0.5), id="theta03-scan"),
        ),
    )
    def test_spec_per_family(self, monkeypatch, theta0):
        calls = []

        def recorder(fit):
            def record(sample, family, spec=None):
                calls.append((fit, spec))
                raise ValueError("recorded")
            return record

        monkeypatch.setattr(harness, "fit_mle", recorder("fit_mle"))
        monkeypatch.setattr(harness, "wasserstein_fit", recorder("wasserstein_fit"))
        cfg = tiny_config(family=theta0.family, theta0=theta0, replications=1,
                          estimators=("mle", "w1", "w2"))
        run_experiment(cfg)
        assert [fit for fit, _ in calls] == ["fit_mle", "wasserstein_fit", "wasserstein_fit"]
        for (_, spec), name in zip(calls, cfg.estimators):
            assert spec == estimator_spec_from_name(name)
            assert spec.tol == 1e-6


class TestMseTable:
    def test_csv_roundtrip(self):
        table = run_experiment(tiny_config(replications=2, estimators=("mle", "w1")))
        text = table.to_csv()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert MseTable.from_csv(text) == table

    def test_bad_header(self):
        with pytest.raises(ValueError):
            MseTable.from_csv("a,b\n1,2\n")

    def test_wide_csv(self):
        table = run_experiment(tiny_config(replications=2, estimators=("mle", "w1")))
        wide = table.to_wide_csv()
        header = wide.splitlines()[0].split(",")
        assert header[0] == "log10N"
        assert "MLE_mu" in header and "W1_kappa" in header
        assert len(wide.splitlines()) == 2  # one sweep value


def synthetic_table():
    rows = [
        MseRow("kappa", 1.0, "MLE", "mu", 0.01, np.log10(0.01), 10, 0),
        MseRow("kappa", 1.0, "W1", "mu", 0.02, np.log10(0.02), 10, 0),
    ]
    return MseTable(tuple(rows))


class TestMseRatio:
    def test_self_ratio(self):
        table = synthetic_table()
        for _, _, ratio in mse_ratio(table, "MLE", "MLE"):
            assert ratio == 1.0

    def test_pair(self):
        out = mse_ratio(synthetic_table(), "W1", "MLE")
        assert out == [(1.0, "mu", pytest.approx(2.0))]

    def test_missing_estimator(self):
        with pytest.raises(ValueError, match="not present"):
            mse_ratio(synthetic_table(), "W2", "MLE")
