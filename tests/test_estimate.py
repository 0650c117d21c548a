import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import optimize

from circwass import (
    EstimatorSpec,
    FamilyParams,
    circ_dist,
    circular_sq_error,
    family_fisher,
    family_quantile,
    family_sample,
    invert_bessel_ratio,
    make_sample,
    mle_ssvm,
    mle_von_mises,
    mle_wrapped_cauchy,
    wasserstein_fit,
)
from circwass import estimate, families
from circwass.circular import TWO_PI, save_sample
from circwass.cli import run_cli
from circwass.estimate import (
    _moment_start, _rotation_profile, _wasserstein_objective, circular_mean_resultant, fit_mle, mle,
)
from circwass.families import (
    FAMILIES, KAPPA_BOX, RHO_BOX, bessel_ratio, free_param_names, param_box, params_to_vector,
)
from circwass.harness import estimator_spec_from_name
from circwass.optimize import BoxConstraints, diff_evolution_min, powell_min

from conftest import bessel_series, loglik, w1_grid_composition


class TestInvertBesselRatio:
    def test_zero(self):
        assert invert_bessel_ratio(0.0) == 0.0

    @pytest.mark.parametrize("kappa", (0.5, 2.0, 10.0))
    def test_roundtrip(self, kappa):
        assert invert_bessel_ratio(bessel_ratio(kappa)) == pytest.approx(kappa, abs=1e-8)

    def test_bisection_oracle(self):
        # series-based ratio, inverted by plain bisection
        def series_ratio(k):
            return bessel_series(1, k) / bessel_series(0, k)

        ref = optimize.brentq(lambda k: series_ratio(k) - 0.5, 1e-9, 50.0, xtol=1e-13)
        assert invert_bessel_ratio(0.5) == pytest.approx(ref, abs=1e-8)

    def test_residual_bound(self):
        rng = np.random.default_rng(50)
        for r in rng.uniform(0.01, 0.995, 30):
            k = invert_bessel_ratio(float(r))
            assert abs(bessel_ratio(k) - r) <= 1e-10

    def test_residual_to_rounding(self):
        # log grid of r up to A(500), the top of the kappa box
        for r in np.geomspace(1e-9, bessel_ratio(KAPPA_BOX[1]), 800):
            assert abs(bessel_ratio(invert_bessel_ratio(float(r))) - r) <= 1e-15

    def test_ratio_near_one_cheap(self):
        # A(kappa) ~ 1 - 1/(2 kappa): the root is ~5e11, far beyond the box
        t0 = time.perf_counter()
        k = invert_bessel_ratio(1.0 - 1e-12)
        assert time.perf_counter() - t0 < 0.05
        assert k == pytest.approx(5e11, rel=1e-3)
        assert abs(bessel_ratio(k) - (1.0 - 1e-12)) <= 1e-13

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            invert_bessel_ratio(1.0)
        with pytest.raises(ValueError):
            invert_bessel_ratio(-0.1)


class TestMleVonMises:
    def test_symmetric_pairs(self):
        deltas = np.array([0.1, 0.35, 0.8])
        s = make_sample(np.concatenate([np.pi / 2 + deltas, np.pi / 2 - deltas]))
        theta = mle_von_mises(s).theta_hat
        assert theta.mu == pytest.approx(np.pi / 2, abs=1e-12)

    def test_degenerate_error(self):
        with pytest.raises(ValueError, match="mean direction undefined"):
            mle_von_mises(make_sample([0.0, np.pi]))

    def test_rbar_one_clamps(self):
        with pytest.warns(UserWarning):
            theta = mle_von_mises(make_sample([1.0, 1.0, 1.0])).theta_hat
        assert theta.kappa == 500.0

    def test_rbar_near_one_cheap(self):
        # a spread of ~4.5e-6 rad: R-bar = cos(delta) ~ 1 - 1e-11 is below the
        # warning's threshold, so kappa is solved for and then clamped
        delta = np.sqrt(2e-11)
        s = make_sample(1.0 + delta * np.tile([-1.0, 1.0], 50))
        assert 1.0 - circular_mean_resultant(s)[1] == pytest.approx(1e-11, rel=1e-3)
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = mle_von_mises(s).theta_hat
        assert time.perf_counter() - t0 < 0.05
        assert theta.kappa == KAPPA_BOX[1]

    def test_fisher_consistency(self):
        truth = FamilyParams("vm", mu=0.3, kappa=2.0)
        n = 100_000
        s = family_sample(truth, n, 123)
        theta = mle_von_mises(s).theta_hat
        se = 1.0 / np.sqrt(n * family_fisher(truth)[1, 1])
        assert abs(theta.kappa - 2.0) <= 3.0 * se

    def test_stationarity(self):
        # the defining equations: mu-hat is the circular mean direction and
        # A(kappa-hat) equals the mean resultant length
        s = family_sample(FamilyParams("vm", mu=2.0, kappa=5.0), 500, 7)
        theta = mle_von_mises(s).theta_hat
        mu_bar, rbar = circular_mean_resultant(s)
        assert theta.mu == pytest.approx(mu_bar, abs=1e-12)
        assert bessel_ratio(theta.kappa) == pytest.approx(rbar, abs=1e-8)


def _de_loglik_oracle(sample, family, seed=0):
    """Maximize the mean log-likelihood over the parameter box by DE."""
    from circwass.families import param_box, vector_to_params
    from circwass.families import family_logpdf

    lower, upper, periodic = param_box(family)
    box = BoxConstraints(lower, upper, periodic)

    def objective(vec):
        lp = family_logpdf(vector_to_params(family, vec), sample.angles)
        return np.inf if np.any(np.isneginf(lp)) else -float(np.mean(lp))

    rep = diff_evolution_min(objective, box, pop=30, gens=120, seed=seed)
    return -rep.value * sample.n


class TestMleWrappedCauchy:
    def test_equispaced_low_rho(self):
        s = make_sample(TWO_PI * np.arange(200) / 200)
        res = mle_wrapped_cauchy(s)
        assert res.theta_hat.rho <= 0.05

    def test_de_oracle(self):
        truth = FamilyParams("wc", mu=np.pi / 8, rho=0.4)
        s = family_sample(truth, 2000, 11)
        res = mle_wrapped_cauchy(s)
        assert res.converged
        ll = loglik(res.theta_hat, s)
        assert ll >= _de_loglik_oracle(s, "wc", seed=3) - 1e-6

    def test_rotation_equivariance(self):
        s = family_sample(FamilyParams("wc", mu=1.0, rho=0.5), 500, 12)
        delta = 2.2
        r1 = mle_wrapped_cauchy(s)
        r2 = mle_wrapped_cauchy(make_sample(s.angles + delta))
        assert circ_dist(r2.theta_hat.mu, r1.theta_hat.mu + delta) <= 1e-9
        assert r2.theta_hat.rho == pytest.approx(r1.theta_hat.rho, abs=1e-9)

    def test_too_small(self):
        with pytest.raises(ValueError):
            mle_wrapped_cauchy(make_sample([0.1, 0.2]))

    def test_identical_angles_rho_in_box(self):
        # the fixed point runs to rho -> 1; the estimate stops at the box's top
        res = mle_wrapped_cauchy(make_sample([1.0] * 5))
        assert res.theta_hat.rho == RHO_BOX[1]
        assert res.theta_hat.mu == pytest.approx(1.0, abs=1e-12)


class TestMleSsvm:
    def test_lambda0_data(self):
        truth = FamilyParams("ssvm", mu=1.0, kappa=2.0, lam=0.0)
        n = 10_000
        s = family_sample(truth, n, 23)
        res = mle_ssvm(s)
        se = 1.0 / np.sqrt(n * family_fisher(truth)[2, 2])
        assert abs(res.theta_hat.lam) <= 3.0 * se

    def test_dominates_truth(self):
        truth = FamilyParams("ssvm", mu=0.0, kappa=1.0, lam=0.7)
        s = family_sample(truth, 1000, 14)
        res = mle_ssvm(s)
        assert loglik(res.theta_hat, s) >= loglik(truth, s) - 1e-6

    def test_rotation_equivariance(self):
        s = family_sample(FamilyParams("ssvm", mu=0.5, kappa=1.5, lam=0.5), 800, 15)
        delta = 1.7
        # a strong global search keeps both runs in the same likelihood mode
        spec = EstimatorSpec(de_pop=60, de_gens=200, tol=1e-12, seed=0)
        r1 = mle_ssvm(s, spec)
        r2 = mle_ssvm(make_sample(s.angles + delta), spec)
        assert circ_dist(r2.theta_hat.mu, r1.theta_hat.mu + delta) <= 1e-3
        assert r2.theta_hat.lam == pytest.approx(r1.theta_hat.lam, abs=1e-3)

    def test_too_small(self):
        with pytest.raises(ValueError):
            mle_ssvm(make_sample([0.1, 0.2, 0.3]))


class TestEstimatorSpec:
    def test_grid_requires_p1(self):
        with pytest.raises(ValueError):
            EstimatorSpec(p=2.0, discretization="grid")

    def test_bad_p(self):
        for p in (0.5, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="p must be"):
                EstimatorSpec(p=p, discretization="equal-mass")

    def test_negative_de_gens(self):
        with pytest.raises(ValueError, match="de_gens"):
            EstimatorSpec(de_gens=-1)


# angles in [0, 2*pi) with the cut's two sides and ties drawn often
_ANGLE = st.one_of(
    st.sampled_from([0.0, float(np.nextafter(TWO_PI, 0.0)), 1.0, 1.0 + 1e-12, np.pi]),
    st.floats(0.0, TWO_PI, exclude_max=True),
)


@st.composite
def _profile_inputs(draw):
    n = draw(st.integers(1, 50))
    x = np.sort(draw(st.lists(_ANGLE, min_size=n, max_size=n)))
    # b spans less than a turn, from any start
    start = draw(st.floats(-TWO_PI, TWO_PI))
    b = np.sort(start + np.array(draw(st.lists(_ANGLE, min_size=n, max_size=n))))
    return x, b


class TestRotationProfile:
    @given(_profile_inputs())
    def test_shift_scan_oracle(self, xb):
        # every shift k pairs x_i with b_{i+k}, wound by a turn past the end;
        # the best mu of a shift is the mean difference, its cost the variance
        x, b = xb
        n = x.size
        diffs = [x - np.concatenate([b[k:], b[:k] + TWO_PI]) for k in range(n)]
        want = min(float(np.sum((d - np.sum(d) / n) ** 2)) / n for d in diffs)
        value, mu = _rotation_profile(x, b)
        assert value == pytest.approx(want, abs=1e-12)
        # mu attains it, up to whole turns
        assert 0.0 <= mu < TWO_PI
        at_mu = min(float(np.mean((d - mu - TWO_PI * m) ** 2)) for d in diffs for m in range(-4, 5))
        assert at_mu == pytest.approx(want, abs=1e-12)


class TestWassersteinFit:
    def test_perfect_fit_fixed_point(self):
        # sample placed exactly at the model's equal-mass atoms (midpoint
        # levels, cut at the antimode mu + pi): the objective at the truth
        # is 0 and the fit must find (near) zero
        truth = FamilyParams("vm", mu=0.3, kappa=2.0)
        at_cut = FamilyParams("vm", mu=np.pi, kappa=2.0)
        atoms = family_quantile(at_cut, (np.arange(64) + 0.5) / 64) - np.pi + truth.mu
        s = make_sample(atoms)
        spec = EstimatorSpec(p=2.0, discretization="equal-mass", de_gens=0, tol=1e-12)
        res = wasserstein_fit(s, "vm", spec)
        assert res.objective <= 1e-9

    @pytest.mark.parametrize("disc,p", (("grid", 1.0), ("equal-mass", 2.0)))
    def test_rotation_equivariance(self, disc, p):
        s = family_sample(FamilyParams("vm", mu=0.3, kappa=2.0), 200, 16)
        delta = 2.9
        spec = EstimatorSpec(p=p, discretization=disc, de_gens=0, tol=1e-8)
        r1 = wasserstein_fit(s, "vm", spec)
        r2 = wasserstein_fit(make_sample(s.angles + delta), "vm", spec)
        assert circ_dist(r2.theta_hat.mu, r1.theta_hat.mu + delta) <= 0.02
        assert r2.theta_hat.kappa == pytest.approx(r1.theta_hat.kappa, rel=2e-2)

    @pytest.mark.parametrize("phi", (0.3, np.pi, 5.9))
    @pytest.mark.parametrize(
        "truth",
        (
            FamilyParams("vm", mu=0.3, kappa=2.0),
            FamilyParams("wc", mu=0.3, rho=0.6),
            FamilyParams("ssvm", mu=0.3, kappa=2.0, lam=0.5),
            FamilyParams("vm-contam", mu=0.3, kappa=5.0, eps=0.1),
        ),
        ids=lambda t: t.family,
    )
    def test_w2_rotation_equivariance(self, truth, phi):
        # the atoms rotate with mu and mu is solved exactly, so a rotated
        # sample gives the rotated fit; only the 2-D Powell searches of ssvm
        # and vm-contam drift, by rounding, within their tolerance
        s = family_sample(truth, 200, 30)
        spec = EstimatorSpec(p=2.0, discretization="equal-mass", de_gens=0, tol=1e-12)
        r0 = wasserstein_fit(s, truth.family, spec)
        r = wasserstein_fit(make_sample(s.angles + phi), truth.family, spec)
        mu_tol = 1e-6 if truth.family == "ssvm" else 1e-12
        assert circ_dist(r.theta_hat.mu, r0.theta_hat.mu + phi) <= mu_tol
        shape0, shape = params_to_vector(r0.theta_hat)[1:], params_to_vector(r.theta_hat)[1:]
        assert shape == pytest.approx(shape0, rel=1e-6, abs=1e-6)
        assert r.objective == pytest.approx(r0.objective, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "truth",
        (
            FamilyParams("vm", mu=0.3, kappa=2.0),
            FamilyParams("vm", mu=0.3, kappa=400.0),
            FamilyParams("wc", mu=np.pi / 8, rho=0.4),
        ),
        ids=("vm-k2", "vm-k400", "wc"),
    )
    def test_w2_not_above_joint_powell(self, truth):
        # solving mu exactly ends at or below Powell over (mu, shape) on the
        # same objective, from the same start, with the sweep's tolerance
        spec = estimator_spec_from_name("w2")
        box = BoxConstraints(*param_box(truth.family))
        for seed in range(2):
            s = family_sample(truth, 1000, seed)
            res = wasserstein_fit(s, truth.family, spec)
            joint = powell_min(
                _wasserstein_objective(s, truth.family, spec), _moment_start(s, truth.family),
                box, tol=spec.tol,
            )
            assert res.objective <= joint.value * (1.0 + 1e-9)
            assert res.evaluations < joint.evaluations

    def test_equal_mass_points_must_match_n(self):
        s = family_sample(FamilyParams("vm", mu=0.0, kappa=1.0), 50, 17)
        spec = EstimatorSpec(p=2.0, discretization="equal-mass", points=32, de_gens=0)
        with pytest.raises(ValueError):
            wasserstein_fit(s, "vm", spec)

    @pytest.mark.parametrize("disc,p", (("grid", 1.0), ("equal-mass", 2.0)))
    @pytest.mark.parametrize(
        "de_gens", (pytest.param(0, id="powell"), pytest.param(60, id="de+powell"))
    )
    def test_no_free_parameters(self, disc, p, de_gens):
        # the uniform family has nothing to search: one objective evaluation
        s = family_sample(FamilyParams("vm", mu=0.0, kappa=1.0), 40, 19)
        spec = EstimatorSpec(p=p, discretization=disc, de_gens=de_gens)
        res = wasserstein_fit(s, "uniform", spec)
        assert res.theta_hat == FamilyParams("uniform")
        assert (res.evaluations, res.converged) == (1, True)
        assert res.objective > 0.0

    def test_objective_consistency_between_methods(self):
        # grid and equal-mass W1 objectives approximate the same distance
        s = family_sample(FamilyParams("vm", mu=0.3, kappa=2.0), 128, 19)
        theta = FamilyParams("vm", mu=0.5, kappa=1.5)
        grid_spec = EstimatorSpec(p=1.0, discretization="grid")
        em_spec = EstimatorSpec(p=1.0, discretization="equal-mass")
        g = _wasserstein_objective(s, "vm", grid_spec)(params_to_vector(theta))
        e = _wasserstein_objective(s, "vm", em_spec)(params_to_vector(theta))
        assert abs(g - e) <= 8 * np.pi / s.n

    @pytest.mark.parametrize("estimator", ("w1", "w2"))
    @pytest.mark.parametrize(
        "truth",
        (
            FamilyParams("vm", mu=0.3, kappa=2.0),
            FamilyParams("vm", mu=6.2, kappa=50.0),
            FamilyParams("wc", mu=0.05, rho=0.6),
        ),
        ids=("vm-k2", "vm-k50", "wc"),
    )
    def test_not_above_truth(self, estimator, truth):
        # the sweep's fit starts at the moments and must end at or below the
        # objective at the sampling parameter; a search that runs mu over
        # many turns and returns its last point ends far above it on vm-k2 w2
        s = family_sample(truth, 1000, 0)
        spec = estimator_spec_from_name(estimator)
        res = wasserstein_fit(s, truth.family, spec)
        at_truth = _wasserstein_objective(s, truth.family, spec)(params_to_vector(truth))
        assert res.objective <= at_truth

    def test_mle_dominance(self):
        # the MLE's in-sample log-likelihood beats the projection estimate's
        for family, truth in (
            ("vm", FamilyParams("vm", mu=0.3, kappa=2.0)),
            ("wc", FamilyParams("wc", mu=np.pi / 8, rho=0.4)),
        ):
            s = family_sample(truth, 300, 21)
            mle_theta = fit_mle(s, family)
            spec = EstimatorSpec(p=1.0, discretization="grid", de_gens=0, tol=1e-8)
            w_theta = wasserstein_fit(s, family, spec).theta_hat
            assert loglik(mle_theta, s) >= loglik(w_theta, s) - 1e-9


# every shape parameter over its whole domain, kappa's box ends drawn often
_SHAPE = {
    "kappa": st.one_of(st.sampled_from(KAPPA_BOX), st.floats(*KAPPA_BOX)),
    "rho": st.floats(0.0, 1.0, exclude_max=True),
    "lam": st.floats(-1.0, 1.0),
    "eps": st.floats(0.0, 1.0),
}


@st.composite
def _family_vectors(draw):
    """A family and two of its parameter vectors."""
    family = draw(st.sampled_from(FAMILIES))
    names = free_param_names(family)

    def vector():
        if not names:
            return np.array([])
        # mu on several turns either side of [0, 2*pi)
        mu = draw(st.floats(-4.0 * TWO_PI, 4.0 * TWO_PI))
        return np.array([mu, *(draw(_SHAPE[name]) for name in names[1:])])

    return family, vector(), vector()


def _outcome(f):
    try:
        return f()
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestRawGridObjective:
    """The W1 grid objective runs on raw floats and arrays, and must give
    the public composition's value, or raise its error, bit for bit."""

    _TRUTHS = {
        "vm": FamilyParams("vm", mu=0.3, kappa=2.0),
        "wc": FamilyParams("wc", mu=0.4, rho=0.5),
        "ssvm": FamilyParams("ssvm", mu=0.0, kappa=1.0, lam=0.7),
        "uniform": FamilyParams("uniform"),
        "vm-contam": FamilyParams("vm-contam", mu=0.785, kappa=5.0, eps=0.1),
    }

    @given(
        _family_vectors(),
        st.lists(_ANGLE, min_size=1, max_size=40).map(make_sample),
        # the FFT folds harmonics (np.add.at) when D is at most twice the
        # series length: 8 at the bottom of KAPPA_BOX, 434 at the top
        st.one_of(st.integers(2, 40), st.integers(2, 1000)),
    )
    @example(("vm", np.array([-7.0, KAPPA_BOX[1]]), np.array([1.0, 2.0])),
             make_sample([0.0, 1.0, 1.0]), 50)
    @example(("ssvm", np.array([13.0, KAPPA_BOX[0], -1.0]), np.array([0.0, 400.0, 1.0])),
             make_sample([6.0]), 1000)
    @example(("vm-contam", np.array([TWO_PI, KAPPA_BOX[1], 1.0]), np.array([-1.0, 3.0, 0.0])),
             make_sample([3.0]), 434)
    def test_bit_identical_to_public_composition(self, family_vecs, sample, D):
        family, vec, other = family_vecs
        objective = _wasserstein_objective(sample, family, EstimatorSpec(points=D))
        # a mu-only step keeps the kappa factor; another shape must replace it
        moved = vec + np.eye(1, vec.size).ravel() if vec.size else vec
        for v in (vec, moved, other, vec):
            want = _outcome(lambda: w1_grid_composition(sample, family, v, D))
            assert _outcome(lambda: objective(v)) == want

    def test_same_parameter_errors(self):
        sample = make_sample([0.5, 2.0, 4.0])
        for family, vec in (
            ("vm", [0.3, 0.0]), ("vm", [0.3, np.nan]), ("wc", [0.3, 1.0]),
            ("ssvm", [0.3, 2.0, 1.5]), ("vm-contam", [0.3, 2.0, -0.1]),
        ):
            objective = _wasserstein_objective(sample, family, EstimatorSpec())
            want = _outcome(lambda: w1_grid_composition(sample, family, vec, 3))
            assert want.startswith("ValueError")
            assert _outcome(lambda: objective(np.array(vec))) == want

    def test_decreasing_model_cdf_raises(self, monkeypatch):
        # both paths run the same family kernel, so a von Mises part that
        # decreases reaches both, and both refuse it alike
        real = families._vm_cdf_grid
        monkeypatch.setattr(families, "_vm_cdf_grid", lambda *args: 1.0 - real(*args))
        sample = family_sample(self._TRUTHS["vm"], 50, 0)
        for family, vec in (("vm", [0.3, 2.0]), ("ssvm", [0.3, 2.0, 0.5]),
                            ("vm-contam", [0.3, 2.0, 0.1])):
            objective = _wasserstein_objective(sample, family, EstimatorSpec())
            want = "ValueError: grid CDF must be non-decreasing"
            assert _outcome(lambda: w1_grid_composition(sample, family, vec, 50)) == want
            assert _outcome(lambda: objective(np.array(vec))) == want

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fit_json_through_oracle_objective(self, family, monkeypatch, capsys, tmp_path):
        # the whole fit (DE, both Powell runs, the reported objective and
        # evaluation count) is the same with the public composition inside
        path = tmp_path / "x.txt"
        save_sample(family_sample(self._TRUTHS[family], 120, 5), path)
        argv = ["fit", "--family", family, "--estimator", "w1", "--data", str(path), "--json"]
        assert run_cli(argv) == 0
        package = capsys.readouterr().out

        def oracle_objective(sample, family, spec):
            D = sample.n if spec.points is None else spec.points
            return lambda vec: w1_grid_composition(sample, family, vec, D)

        monkeypatch.setattr(estimate, "_wasserstein_objective", oracle_objective)
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == package


class TestCircularSqError:
    def test_values(self):
        assert circular_sq_error(0.0, 0.0) == 0.0
        assert circular_sq_error(0.1, TWO_PI - 0.1) == pytest.approx(0.2**2, abs=1e-12)
        assert circular_sq_error(0.0, np.pi) == pytest.approx(np.pi**2)


class TestFitMleDispatch:
    @pytest.mark.parametrize("family,truth", (
        ("vm", FamilyParams("vm", mu=0.3, kappa=2.0)),
        ("wc", FamilyParams("wc", mu=0.3, rho=0.4)),
        ("ssvm", FamilyParams("ssvm", mu=0.3, kappa=2.0, lam=0.5)),
        ("uniform", FamilyParams("uniform")),
    ))
    def test_one_result_type(self, family, truth):
        # every MLE reports the mean negative log-likelihood as its objective
        s = family_sample(truth, 100, 24)
        spec = EstimatorSpec(de_gens=0, tol=1e-8)
        res = mle(s, family, spec)
        assert res.objective == pytest.approx(-loglik(res.theta_hat, s) / s.n, abs=1e-14)
        assert res.theta_hat == fit_mle(s, family, spec)
        assert (res.evaluations == 0) == (family in ("vm", "uniform"))

    def test_uniform(self):
        s = make_sample([0.1, 0.2, 0.5])
        assert fit_mle(s, "uniform").family == "uniform"

    def test_unknown(self):
        with pytest.raises(ValueError):
            fit_mle(make_sample([0.1]), "vm-contam")
