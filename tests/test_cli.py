import contextlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circwass
from circwass import (
    EstimatorSpec, discrete_from_sample, harness, load_sample, mle_ssvm, mle_von_mises,
    mle_wrapped_cauchy, wasserstein_fit,
)
from circwass import cli
from circwass.cli import run_cli
from circwass.families import FAMILIES

from conftest import loglik, scipy_modules_after, shift_scan_wp, wp_kink_scan


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_deterministic(self, capsys):
        args = ("sample", "--family", "uniform", "--n", "5", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 5

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        code, out, _ = run(
            capsys, "sample", "--family", "vm", "--kappa", "2.0", "--mu", "0.3",
            "--n", "20", "--seed", "1", "--out", str(path),
        )
        assert code == 0
        assert len(path.read_text().splitlines()) == 20

    def test_missing_param_numerical_error(self, capsys):
        code, _, err = run(capsys, "sample", "--family", "vm", "--n", "5")
        assert code == 2
        assert "error" in err


class TestDist:
    @pytest.fixture
    def sample_file(self, capsys, tmp_path):
        path = tmp_path / "a.txt"
        run(capsys, "sample", "--family", "vm", "--kappa", "2.0", "--n", "30",
            "--seed", "3", "--out", str(path))
        return str(path)

    def test_self_distance_zero(self, capsys, sample_file):
        code, out, _ = run(capsys, "dist", "--p", "1", sample_file, sample_file)
        assert code == 0
        assert float(out.strip()) == 0.0

    def test_methods_agree(self, capsys, sample_file, tmp_path):
        # auto agrees with the general-weight reference
        other = tmp_path / "b.txt"
        run(capsys, "sample", "--family", "vm", "--kappa", "2.0", "--n", "30",
            "--seed", "4", "--out", str(other))
        weighted = [discrete_from_sample(load_sample(f)) for f in (sample_file, other)]
        for p in ("1", "2"):
            code, out, _ = run(capsys, "dist", sample_file, str(other), "--p", p)
            assert code == 0
            assert float(out) == pytest.approx(wp_kink_scan(*weighted, float(p)), abs=1e-9)

    def test_tied_whole_degrees(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        paths, angles = [], []
        for tag, mu in (("a", 0.5), ("b", 2.0)):
            deg = np.round(np.degrees(rng.vonmises(mu, 2.0, 200))) % 360
            x = np.radians(deg)
            path = tmp_path / f"{tag}.txt"
            path.write_text("".join(f"{float(v)!r}\n" for v in x))
            paths.append(str(path))
            angles.append(x)
        for p in ("1", "2"):
            code, out, err = run(capsys, "dist", *paths, "--p", p)
            assert code == 0, err
            ref = shift_scan_wp(*angles, float(p))
            assert float(out) == pytest.approx(ref, abs=1e-12)

    def test_unequal_sizes_fast(self, capsys, tmp_path):
        # unequal sizes n = 10^4 and m = 10^4 + 1 at p = 1 finish within 1 s
        rng = np.random.default_rng(9)
        paths = []
        for tag, n in (("a", 10_000), ("b", 10_001)):
            path = tmp_path / f"{tag}.txt"
            path.write_text("".join(f"{float(v)!r}\n" for v in rng.vonmises(0.3, 2.0, n)))
            paths.append(str(path))
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "dist", *paths, "--p", "1")
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 1.0
        # the D-grid formula is within 4*pi/D of the exact distance
        D = 1 << 16
        code, grid, _ = run(capsys, "dist", *paths, "--method", "grid", "--grid-size", str(D))
        assert code == 0
        assert abs(float(out) - float(grid)) <= 4 * np.pi / D

    def test_loads_no_scipy(self, tmp_path):
        # every method at p = 1 and p > 1, on equal and unequal sizes, runs on numpy alone
        rng = np.random.default_rng(12)
        a, b, c = (tmp_path / f"{tag}.txt" for tag in "abc")
        for path, n in ((a, 40), (b, 40), (c, 23)):
            path.write_text("".join(f"{float(v)!r}\n" for v in rng.vonmises(1.0, 2.0, n)))
        probe = f"""
from circwass.cli import run_cli
for p in ("1", "1.5", "2"):
    for other in ({str(b)!r}, {str(c)!r}):
        for method in ("auto", "grid"):
            refused = method == "grid" and p != "1"
            assert run_cli(["dist", {str(a)!r}, other, "--p", p, "--method", method]) == 2 * refused
"""
        assert scipy_modules_after(probe) == []

    def test_auto_unequal_sizes(self, capsys, tmp_path):
        # one atom against two antipodal atoms a quarter turn away, at any p
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("0.0\n")
        b.write_text("1.5707963267948966\n4.71238898038469\n")
        for p in ("1", "2"):
            code, out, _ = run(capsys, "dist", str(a), str(b), "--p", p)
            assert code == 0
            assert float(out) == pytest.approx(np.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("method", ("equal", "general"))
    def test_retired_methods(self, capsys, sample_file, method):
        code, _, err = run(capsys, "dist", sample_file, sample_file, "--method", method)
        assert code == 1
        assert "invalid choice" in err

    @pytest.mark.parametrize("p", ("0.5", "-1", "nan", "inf", "1e300"))
    def test_p_outside_range(self, capsys, tmp_path, p):
        a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        a.write_text("0.1\n2.0\n4.0\n")
        b.write_text("1.0\n3.0\n5.5\n")
        c.write_text("1.0\n3.0\n")
        for other in (b, c):  # equal sizes and unequal sizes
            code, out, err = run(capsys, "dist", str(a), str(other), "--p", p)
            assert code == 2
            assert out == ""
            assert "p must be" in err

    def test_grid_requires_p1(self, capsys, sample_file):
        code, _, err = run(
            capsys, "dist", sample_file, sample_file, "--method", "grid", "--p", "2"
        )
        assert code == 2

    def test_missing_file(self, capsys, sample_file):
        code, _, _ = run(capsys, "dist", sample_file, "/nonexistent/b.txt")
        assert code == 2

    def test_malformed_line(self, capsys, tmp_path, sample_file):
        bad = tmp_path / "bad.txt"
        bad.write_text("# angles\n0.5\n\n0.7 0.9\n1.25\n")
        code, out, err = run(capsys, "dist", sample_file, str(bad))
        assert code == 2
        assert out == ""
        assert "could not convert" in err


# angles as a dist file holds them: whole degrees (ties within and across
# files), the ends of [0, 2*pi), and anything in between
_file_angle = st.one_of(
    st.integers(0, 359).map(lambda d: d * 2.0 * np.pi / 360.0),
    st.sampled_from((0.0, float(np.nextafter(2.0 * np.pi, 0.0)))),
    st.floats(0.0, 2.0 * np.pi, exclude_max=True),
)


@st.composite
def _dist_files(draw):
    """Two angle lists of 1 to 50 entries, of equal sizes or not; either may
    repeat one angle throughout."""
    def one(size=None):
        n = size or draw(st.integers(1, 50))
        if draw(st.booleans()):
            return [draw(_file_angle)] * n
        return draw(st.lists(_file_angle, min_size=n, max_size=n))

    a = one()
    return a, one(len(a) if draw(st.booleans()) else None)


class TestDistFuzz:
    """Every p the CLI accepts gives a finite, symmetric W_p within the
    circle's diameter pi; a p above 1000 is refused with one error line."""

    @given(_dist_files())
    @settings(max_examples=80)
    def test_dist_outputs(self, tmp_path_factory, files):
        folder = tmp_path_factory.mktemp("dist")
        a, b = (str(folder / name) for name in ("a.txt", "b.txt"))
        for path, angles in zip((a, b), files):
            Path(path).write_text("".join(f"{v!r}\n" for v in angles))

        def dist(x, y, p):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(["dist", x, y, "--p", repr(p)])
            if p > 1000.0:
                assert (code, out.getvalue()) == (2, "")
                assert err.getvalue().startswith("error: p must be")
                assert err.getvalue().count("\n") == 1
                return None
            assert code == 0, err.getvalue()
            return float(out.getvalue())

        for p in (1.0, 1.5, 2.0, 3.0, 50.0, 800.0, 1e300):
            w = dist(a, b, p)
            if w is None:
                continue
            assert np.isfinite(w) and 0.0 <= w <= np.pi + 1e-12
            assert dist(b, a, p) == w
            assert dist(a, a, p) <= 1e-15


@st.composite
def _fit_file(draw):
    """1 to 50 angles as a fit file holds them, or one angle throughout."""
    n = draw(st.integers(1, 50))
    if draw(st.booleans()):
        return [draw(_file_angle)] * n
    return draw(st.lists(_file_angle, min_size=n, max_size=n))


class TestFitFuzz:
    """Every family and estimator either fits a file, printing strict JSON
    with finite numbers, or refuses it with exit 2 and one error line."""

    @pytest.mark.parametrize("estimator", tuple(harness._ESTIMATORS))
    @pytest.mark.parametrize("family", FAMILIES)
    @given(angles=_fit_file())
    @settings(max_examples=2)
    def test_fit_outputs(self, tmp_path_factory, family, estimator, angles):
        path = tmp_path_factory.mktemp("fit") / "x.txt"
        path.write_text("".join(f"{v!r}\n" for v in angles))
        out, err = io.StringIO(), io.StringIO()
        argv = ["fit", "--family", family, "--estimator", estimator, "--data", str(path), "--json"]
        # a warning (the vm MLE's clamped kappa) is printed, not raised, by the CLI
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(argv)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            return
        assert code == 0, err.getvalue()

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(out.getvalue(), parse_constant=refuse)
        assert all(np.isfinite(v) for v in (*payload["theta_hat"].values(), payload["objective"]))
        assert payload["evaluations"] >= 0 and payload["converged"] in (True, False)


class TestFit:
    @pytest.fixture
    def sample_file(self, capsys, tmp_path):
        path = tmp_path / "a.txt"
        run(capsys, "sample", "--family", "vm", "--kappa", "2.0", "--mu", "0.3",
            "--n", "200", "--seed", "5", "--out", str(path))
        return str(path)

    def test_mle_json(self, capsys, sample_file):
        code, out, _ = run(
            capsys, "fit", "--family", "vm", "--estimator", "mle",
            "--data", sample_file, "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "vm"
        assert payload["estimator"] == "mle"
        assert set(payload["theta_hat"]) == {"mu", "kappa"}
        assert set(payload) == {
            "family", "estimator", "theta_hat", "objective", "evaluations", "converged"
        }

    def test_w1_fit(self, capsys, sample_file):
        code, out, _ = run(
            capsys, "fit", "--family", "vm", "--estimator", "w1",
            "--data", sample_file, "--tol", "1e-6", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["theta_hat"]["kappa"] - 2.0) < 1.0
        assert payload["evaluations"] > 0

    @pytest.mark.parametrize("tol", ("0", "nan", "inf"))
    def test_bad_tol(self, capsys, sample_file, tol):
        code, out, err = run(
            capsys, "fit", "--family", "vm", "--estimator", "w1",
            "--data", sample_file, "--tol", tol,
        )
        assert code == 2
        assert "tol must be" in err

    def fit_json(self, capsys, path, family, *flags):
        code, out, err = run(
            capsys, "fit", "--family", family, "--estimator", "mle", "--data", path,
            "--json", *flags,
        )
        assert code == 0, err
        return json.loads(out)

    def test_vm_mle_counts(self, capsys, sample_file):
        payload = self.fit_json(capsys, sample_file, "vm")
        assert payload["evaluations"] == 0
        assert payload["converged"] is True
        # the objective is the mean negative log-likelihood
        s = load_sample(sample_file)
        theta = mle_von_mises(s).theta_hat
        assert payload["theta_hat"] == {"mu": theta.mu, "kappa": theta.kappa}
        assert payload["objective"] == -loglik(theta, s) / s.n

    def test_wc_mle_counts(self, capsys, tmp_path):
        path = str(tmp_path / "wc.txt")
        run(capsys, "sample", "--family", "wc", "--mu", "0.4", "--rho", "0.4",
            "--n", "300", "--seed", "2", "--out", path)
        payload = self.fit_json(capsys, path, "wc")
        res = mle_wrapped_cauchy(load_sample(path))
        assert payload["evaluations"] == res.evaluations > 0
        assert payload["converged"] is res.converged

    def test_wc_mle_identical_angles(self, capsys, tmp_path):
        # rho lands next to 1, where 1 + rho^2 - 2*rho*cos(0) cancels to 0;
        # the objective is the closed-form mode log-density, valid JSON
        path = tmp_path / "same.txt"
        path.write_text("1.0\n" * 5)
        code, out, err = run(
            capsys, "fit", "--family", "wc", "--estimator", "mle", "--data", str(path), "--json",
        )
        assert code == 0, err

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(out, parse_constant=refuse)
        rho = payload["theta_hat"]["rho"]
        ref = -np.log((1.0 + rho) / (2.0 * np.pi * (1.0 - rho)))
        assert payload["objective"] == pytest.approx(ref, rel=1e-12)

    def test_ssvm_mle_counts(self, capsys, tmp_path):
        path = str(tmp_path / "ssvm.txt")
        run(capsys, "sample", "--family", "ssvm", "--kappa", "1", "--lambda", "0.7",
            "--n", "200", "--seed", "3", "--out", path)
        payload = self.fit_json(capsys, path, "ssvm", "--tol", "1e-8")
        spec = EstimatorSpec(tol=1e-8)
        res = mle_ssvm(load_sample(path), spec)
        assert payload["evaluations"] == res.evaluations > 0
        assert payload["converged"] is res.converged
        assert payload["objective"] == res.objective

    @pytest.mark.parametrize(
        "estimator",
        (pytest.param("w1", id="grid"), pytest.param("w1-equal-mass", id="equal-mass")),
    )
    @pytest.mark.parametrize("points", ("0", "1", "-5"))
    def test_bad_points(self, capsys, sample_file, estimator, points):
        code, out, err = run(
            capsys, "fit", "--family", "vm", "--estimator", estimator,
            "--data", sample_file, "--D", points,
        )
        assert (code, out) == (2, "")
        assert "error" in err

    def test_negative_de_gens(self, capsys, sample_file):
        # the differential evolution flags are gone with it
        code, _, err = run(
            capsys, "fit", "--family", "vm", "--estimator", "w1", "--data", sample_file,
            "--de-gens", "-1",
        )
        assert code == 1
        assert "unrecognized arguments: --de-gens -1" in err

    @pytest.mark.parametrize(
        "flags",
        (("--family", "vm", "--estimator", "mle", "--tol", "0"),
         ("--family", "vm", "--estimator", "mle", "--D", "0")),
        ids=("tol", "points"),
    )
    def test_bad_setting_unused_by_search(self, capsys, sample_file, flags):
        # a setting is checked when the spec is built, not when a search reads it
        code, out, err = run(capsys, "fit", *flags, "--data", sample_file)
        assert (code, out) == (2, "")
        assert "must be " in err

    def test_estimator_names(self):
        fit = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["fit"]
        choices = next(a.choices for a in fit._actions if a.dest == "estimator")
        assert tuple(choices) == tuple(harness._ESTIMATORS)

    def test_w1_equal_mass_by_name(self, capsys, sample_file):
        code, out, err = run(
            capsys, "fit", "--family", "vm", "--estimator", "w1-equal-mass",
            "--data", sample_file, "--tol", "1e-6", "--json",
        )
        assert code == 0, err
        payload = json.loads(out)
        spec = EstimatorSpec(p=1.0, discretization="equal-mass", tol=1e-6)
        res = wasserstein_fit(load_sample(sample_file), "vm", spec)
        assert payload["estimator"] == "w1-equal-mass"
        assert payload["theta_hat"] == {"mu": res.theta_hat.mu, "kappa": res.theta_hat.kappa}
        assert (payload["objective"], payload["evaluations"]) == (res.objective, res.evaluations)

    @pytest.mark.parametrize(
        "flags",
        (("--method", "equal-mass"), ("--opt", "powell"), ("--de-pop", "12"), ("--seed", "4")),
    )
    def test_retired_flags(self, capsys, sample_file, flags):
        code, _, err = run(
            capsys, "fit", "--family", "vm", "--estimator", "w1", "--data", sample_file, *flags
        )
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("estimator", ("w1", "w2"))
    def test_uniform_w_fit(self, capsys, sample_file, estimator):
        code, out, err = run(
            capsys, "fit", "--family", "uniform", "--estimator", estimator,
            "--data", sample_file, "--json",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["theta_hat"] == {}
        assert payload["evaluations"] == 1 and payload["converged"] is True

    def test_text_output(self, capsys, sample_file):
        code, out, _ = run(
            capsys, "fit", "--family", "vm", "--estimator", "mle", "--data", sample_file
        )
        assert code == 0
        assert "theta_hat" in out


class TestFisher:
    def test_wc_half(self, capsys):
        code, out, _ = run(capsys, "fisher", "--family", "wc", "--mu", "0", "--rho", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        row0 = lines[0].split()
        row1 = lines[1].split()
        assert row0[0] == "0.888889" and row0[1] == "0.000000"
        assert row1[0] == "0.000000" and row1[1] == "3.555556"


class TestExperiment:
    def test_end_to_end(self, capsys, tmp_path):
        cfg = {
            "family": "vm",
            "theta0": {"mu": 0.3, "kappa": 2.0},
            "sweep": {"name": "log10N", "values": [1.5]},
            "replications": 2,
            "estimators": ["mle"],
            "master_seed": 42,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "experiment", "--config", str(cfg_path), "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "sweep_name,sweep_value,estimator,parameter,mse,log10_mse,replications,failures"
        assert len(lines) == 3

        wide_path = tmp_path / "wide.csv"
        code, _, _ = run(
            capsys, "experiment", "--config", str(cfg_path), "--out", str(wide_path), "--wide"
        )
        assert code == 0
        assert wide_path.read_text().splitlines()[0].startswith("log10N,MLE_mu")

    @pytest.mark.parametrize("key", ("family", "theta0", "sweep", "replications"))
    def test_missing_key(self, capsys, tmp_path, key):
        cfg = {
            "family": "vm",
            "theta0": {"mu": 0.3, "kappa": 2.0},
            "sweep": {"name": "log10N", "values": [1.5]},
            "replications": 1,
        }
        del cfg[key]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "experiment", "--config", str(cfg_path), "--out",
                           str(tmp_path / "o.csv"))
        assert code == 2
        assert repr(key) in err

    @pytest.mark.parametrize(
        "change,named",
        (
            (lambda cfg: [cfg], "JSON object"),
            (lambda cfg: {**cfg, "theta0": [1]}, "'theta0'"),
            (lambda cfg: {**cfg, "theta0": {"mu": 0.3, "kappa": [2.0]}}, "'kappa'"),
            (lambda cfg: {**cfg, "sweep": {"values": 3}}, "'values'"),
            (lambda cfg: {**cfg, "sweep": {"name": "log10N", "values": [1.5, [2]]}}, "'values'"),
            (lambda cfg: {**cfg, "sweep": {"name": "log10N", "values": [1.5], "step": 1}},
             "'step'"),
            (lambda cfg: {**cfg, "replications": [1]}, "'replications'"),
            (lambda cfg: {**cfg, "estimators": "mle"}, "'estimators'"),
            (lambda cfg: {**cfg, "estimators": ["mle", 3]}, "unknown estimator 3"),
            (lambda cfg: {**cfg, "estimators": ["mle", "MLE", "w1"]}, "'MLE' listed twice"),
            (lambda cfg: {**cfg, "master_sed": 3}, "'master_sed'"),
            (lambda cfg: {**cfg, "optimizer": "de+powell"}, "'optimizer'"),
        ),
        ids=("array", "theta0", "theta0-value", "sweep-values", "sweep-value", "sweep-key",
             "replications", "estimators", "estimator", "duplicate-estimator", "misspelt",
             "optimizer"),
    )
    def test_malformed_config(self, capsys, tmp_path, change, named):
        cfg = {
            "family": "vm",
            "theta0": {"mu": 0.3, "kappa": 2.0},
            "sweep": {"name": "log10N", "values": [1.5]},
            "replications": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(change(cfg)))
        code, _, err = run(capsys, "experiment", "--config", str(cfg_path), "--out",
                           str(tmp_path / "o.csv"))
        assert code == 2
        assert named in err

    def test_unwritable_out_before_sweep(self, capsys, tmp_path, monkeypatch):
        cfg = {
            "family": "vm",
            "theta0": {"mu": 0.3, "kappa": 2.0},
            "sweep": {"name": "log10N", "values": [1.5]},
            "replications": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr(cli, "run_experiment", no_sweep)
        code, _, err = run(capsys, "experiment", "--config", str(cfg_path), "--out",
                           str(tmp_path / "missing" / "o.csv"))
        assert code == 2
        assert "No such file or directory" in err

    @pytest.mark.parametrize("workers", ("0", "-3"))
    def test_workers_below_one(self, capsys, tmp_path, workers):
        code, _, err = run(capsys, "experiment", "--config", str(tmp_path / "cfg.json"),
                           "--out", str(tmp_path / "o.csv"), "--workers", workers)
        assert code == 1
        assert "--workers" in err
        assert not (tmp_path / "o.csv").exists()

    def test_bad_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "vm", "theta0": {"kappa": 2.0},
                                        "sweep": {"name": "bad", "values": [1.0]},
                                        "replications": 1}))
        code, _, _ = run(capsys, "experiment", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o.csv"))
        assert code == 2


class TestDirectoryInput:
    @pytest.mark.parametrize("command", ("dist", "fit"))
    def test_exit_2(self, capsys, tmp_path, command):
        b = tmp_path / "b.txt"
        b.write_text("0.1\n0.2\n")
        if command == "dist":
            argv = ("dist", str(tmp_path), str(b))
        else:
            argv = ("fit", "--family", "vm", "--estimator", "mle", "--data", str(tmp_path))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestModuleEntry:
    def test_python_m_dist(self, tmp_path):
        # python -m circwass is the same CLI as the circwass script
        path = tmp_path / "a.txt"
        path.write_text("0.0\n")
        other = tmp_path / "b.txt"
        other.write_text("1.5\n")
        src = str(Path(circwass.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "circwass", "dist", str(path), str(other)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(1.5, abs=1e-12)


class TestFitInsideBox:
    def test_contam_w1_on_identical_angles(self, capsys, tmp_path):
        # scipy's bounded Powell once evaluated epsilon = -2.5e-32 here, and
        # FamilyParams refused it: exit 2
        path = tmp_path / "same.txt"
        path.write_text("1.0\n" * 5)
        code, out, err = run(
            capsys, "fit", "--family", "vm-contam", "--estimator", "w1", "--data", str(path),
            "--json",
        )
        assert code == 0, err
        assert 0.0 <= json.loads(out)["theta_hat"]["epsilon"] <= 1.0


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "sample", "--family", "uniform", "--n", "3", "--bogus")[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 1

    def test_error_then_good_call(self, capsys, tmp_path):
        # the parser is built once per process: a failed parse must not leak
        # into the next call
        path = tmp_path / "a.txt"
        path.write_text("0.1\n2.0\n4.0\n")
        assert run(capsys, "dist", str(path), str(path), "--bogus")[0] == 1
        code, out, _ = run(capsys, "dist", str(path), str(path), "--p", "2")
        assert code == 0
        assert float(out) == 0.0
        assert cli.build_parser() is cli.build_parser()
