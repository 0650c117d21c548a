import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, optimize, special

from circwass import (
    FamilyParams,
    family_cdf,
    family_fisher,
    family_logpdf,
    family_pdf,
    family_quantile,
    family_sample,
)
from circwass.circular import TWO_PI
from circwass.families import (
    RHO_BOX, _grid_cdf_kernel, _ive, _vm_fourier_ratios, bessel_ratio, family_grid_cdf,
)

from conftest import bessel_series, cdf_quad, empirical_cdf, scipy_modules_after


def random_theta(rng, family):
    mu = rng.uniform(0.0, TWO_PI)
    if family == "vm":
        return FamilyParams("vm", mu=mu, kappa=rng.uniform(0.1, 20.0))
    if family == "wc":
        return FamilyParams("wc", mu=mu, rho=rng.uniform(0.0, 0.95))
    if family == "ssvm":
        return FamilyParams(
            "ssvm", mu=mu, kappa=rng.uniform(0.1, 10.0), lam=rng.uniform(-0.95, 0.95)
        )
    if family == "uniform":
        return FamilyParams("uniform")
    return FamilyParams(
        "vm-contam", mu=mu, kappa=rng.uniform(0.5, 10.0), eps=rng.uniform(0.0, 1.0)
    )


ALL_FAMILIES = ("vm", "wc", "ssvm", "uniform", "vm-contam")


@st.composite
def any_theta(draw):
    """Parameters of any family, spanning kappa in [1e-3, 500], rho over its
    box, lambda in [-1, 1] and epsilon in [0, 1]."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    mu = draw(st.floats(0.0, TWO_PI))
    kappa = draw(st.floats(1e-3, 500.0))
    if family == "vm":
        return FamilyParams("vm", mu=mu, kappa=kappa)
    if family == "wc":
        return FamilyParams("wc", mu=mu, rho=draw(st.floats(*RHO_BOX)))
    if family == "ssvm":
        return FamilyParams("ssvm", mu=mu, kappa=kappa, lam=draw(st.floats(-1.0, 1.0)))
    if family == "uniform":
        return FamilyParams("uniform")
    return FamilyParams("vm-contam", mu=mu, kappa=kappa, eps=draw(st.floats(0.0, 1.0)))


class TestFamilyParams:
    def test_mu_normalized(self):
        theta = FamilyParams("vm", mu=-0.5, kappa=1.0)
        assert 0.0 <= theta.mu < TWO_PI

    def test_missing_required(self):
        with pytest.raises(ValueError, match="requires"):
            FamilyParams("vm")
        with pytest.raises(ValueError, match="requires"):
            FamilyParams("ssvm", kappa=1.0)

    def test_extraneous(self):
        with pytest.raises(ValueError, match="does not take"):
            FamilyParams("wc", rho=0.3, kappa=1.0)

    def test_out_of_box(self):
        with pytest.raises(ValueError):
            FamilyParams("vm", kappa=-1.0)
        with pytest.raises(ValueError):
            FamilyParams("wc", rho=1.0)
        with pytest.raises(ValueError):
            FamilyParams("ssvm", kappa=1.0, lam=1.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilyParams("cardioid")


def _scipy_ive(nu, kappa):
    """scipy's e^{-kappa} I_nu(kappa). special.ive returns nan above kappa
    ~ 1.1e9 (scipy 1.17); i0e and i1e, with I_2 = I_0 - 2 I_1/kappa, hold there."""
    if kappa < 1e9:
        return float(special.ive(nu, kappa))
    i0, i1 = special.i0e(kappa), special.i1e(kappa)
    return float((i0, i1, i0 - 2.0 * i1 / kappa)[nu])


class TestBessel:
    """The Bessel ratios I_j/I_0 behind the von Mises CDF series and the MLE."""

    def test_at_zero(self):
        assert bessel_ratio(0.0) == 0.0
        assert np.all(_vm_fourier_ratios(0.0) == 0.0)

    def test_series_oracle(self):
        for z in (0.5, 1.0, 2.0, 10.0, 50.0):
            ratios = _vm_fourier_ratios(z)
            i0 = bessel_series(0, z)
            assert bessel_ratio(z) == pytest.approx(bessel_series(1, z) / i0, rel=1e-12)
            for order in (1, 2, 5):
                ref = bessel_series(order, z) / i0
                assert ratios[order - 1] == pytest.approx(ref, rel=1e-12)

    @given(st.one_of(st.just(0.0), st.floats(1e-3, 500.0)))
    def test_ive_oracle(self, kappa):
        # every kept ratio, and the truncation point, against scipy's scaled Bessels
        ratios = _vm_fourier_ratios(kappa)
        ref = special.ive(np.arange(1, 2000), kappa) / special.ive(0, kappa)
        last = max(1, int(np.count_nonzero(ref >= 1e-16)))
        assert ratios.size == last
        assert np.allclose(ratios, ref[:last], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("nu", (0, 1, 2))
    def test_scaled_bessel_grid(self, nu):
        # both sides of the switch to the large-argument expansion at 30, and
        # far out to where the vm MLE inverts mean resultant lengths near 1
        kappas = np.concatenate([
            [0.0, 1e-300, 1e-12], np.linspace(0.0, 60.0, 2401),
            np.nextafter(30.0, [0.0, 60.0]), np.geomspace(1e-6, 1e12, 2401),
        ])
        got = np.array([_ive(nu, k) for k in kappas])
        ref = np.array([_scipy_ive(nu, k) for k in kappas])
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-300)

    @given(st.sampled_from((0, 1, 2)), st.floats(0.0, 1e12))
    def test_scaled_bessel_property(self, nu, kappa):
        assert _ive(nu, kappa) == pytest.approx(_scipy_ive(nu, kappa), rel=1e-13, abs=1e-300)

    def test_recurrence(self):
        # I_{j-1}(z) - I_{j+1}(z) = (2j/z) I_j(z), divided through by I_0(z)
        rng = np.random.default_rng(10)
        for _ in range(30):
            z = rng.uniform(0.5, 100.0)
            j = int(rng.integers(1, 8))
            r = np.concatenate([[1.0], _vm_fourier_ratios(z)])
            lhs = r[j - 1] - r[j + 1]
            assert lhs == pytest.approx(2.0 * j / z * r[j], rel=1e-10, abs=1e-12)


class TestPdf:
    def test_uniform_constant(self):
        theta = FamilyParams("uniform")
        x = np.linspace(0.0, TWO_PI, 11, endpoint=False)
        assert np.allclose(family_pdf(theta, x), 1.0 / TWO_PI, atol=0.0)

    def test_wc_rho0_is_uniform(self):
        theta = FamilyParams("wc", mu=0.0, rho=0.0)
        assert family_pdf(theta, 1.234) == pytest.approx(1.0 / TWO_PI, abs=1e-15)

    def test_vm_mode_value(self):
        # e^2 / (2*pi*I0(2)) with I0 from the series oracle
        theta = FamilyParams("vm", mu=0.0, kappa=2.0)
        ref = np.exp(2.0) / (TWO_PI * bessel_series(0, 2.0))
        assert family_pdf(theta, 0.0) == pytest.approx(ref, rel=1e-13)

    def test_wc_mode_value_near_one(self):
        # (1 + rho) / (2*pi*(1 - rho)) at the top of the rho box, where
        # 1 + rho^2 - 2*rho*cos(x - mu) would cancel
        rho = RHO_BOX[1]
        theta = FamilyParams("wc", mu=0.7, rho=rho)
        ref = (1.0 + rho) / (TWO_PI * (1.0 - rho))
        assert family_pdf(theta, 0.7) == pytest.approx(ref, rel=1e-14)
        assert family_logpdf(theta, 0.7) == pytest.approx(np.log(ref), rel=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_normalization(self, family):
        rng = np.random.default_rng(hash(family) % 2**32)
        for _ in range(5):
            theta = random_theta(rng, family)
            mass, _ = integrate.quad(
                lambda t: family_pdf(theta, t), 0.0, TWO_PI, limit=200
            )
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_vm_symmetric_about_mu(self):
        theta = FamilyParams("vm", mu=2.0, kappa=3.0)
        x = np.linspace(0.01, np.pi, 50)
        assert np.allclose(
            family_pdf(theta, theta.mu + x), family_pdf(theta, theta.mu - x), atol=1e-14
        )

    def test_ssvm_skew_sign(self):
        # sign of p(mu+x) - p(mu-x) equals sign of lambda*sin(x) on (0, pi)
        rng = np.random.default_rng(11)
        for _ in range(10):
            theta = random_theta(rng, "ssvm")
            if abs(theta.lam) < 1e-3:
                continue
            x = rng.uniform(0.05, np.pi - 0.05, 20)
            diff = family_pdf(theta, theta.mu + x) - family_pdf(theta, theta.mu - x)
            assert np.all(np.sign(diff) == np.sign(theta.lam * np.sin(x)))


class TestLogPdf:
    def test_uniform(self):
        theta = FamilyParams("uniform")
        assert family_logpdf(theta, 0.7) == pytest.approx(-np.log(TWO_PI), abs=1e-15)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_exp_matches_pdf(self, family):
        rng = np.random.default_rng(12)
        theta = random_theta(rng, family)
        x = rng.uniform(0.0, TWO_PI, 100)
        assert np.allclose(np.exp(family_logpdf(theta, x)), family_pdf(theta, x), atol=1e-12)

    def test_ssvm_zero_density(self):
        theta = FamilyParams("ssvm", mu=0.0, kappa=1.0, lam=1.0)
        assert family_logpdf(theta, 1.5 * np.pi) == -np.inf


class TestCdf:
    def test_uniform_half(self):
        assert family_cdf(FamilyParams("uniform"), np.pi) == pytest.approx(0.5)

    def test_wc_total_mass(self):
        theta = FamilyParams("wc", mu=0.0, rho=0.5)
        assert family_cdf(theta, TWO_PI) == pytest.approx(1.0, abs=1e-12)

    def test_vm_quadrature_oracle(self):
        theta = FamilyParams("vm", mu=0.0, kappa=2.0)
        assert family_cdf(theta, np.pi) == pytest.approx(cdf_quad(theta, np.pi), abs=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_quadrature_random(self, family):
        rng = np.random.default_rng(13)
        theta = random_theta(rng, family)
        for x in rng.uniform(0.1, TWO_PI - 0.1, 4):
            assert family_cdf(theta, x) == pytest.approx(cdf_quad(theta, x), abs=1e-9)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_winding_and_monotone(self, family):
        rng = np.random.default_rng(14)
        theta = random_theta(rng, family)
        x = np.sort(rng.uniform(0.0, TWO_PI, 200))
        v = family_cdf(theta, x)
        assert np.all(np.diff(v) >= -1e-14)
        assert family_cdf(theta, 0.0) == pytest.approx(0.0, abs=1e-15)
        for k in (-1, 2):
            assert np.allclose(family_cdf(theta, x + TWO_PI * k), v + k, atol=1e-12)


class TestGridCdf:
    # D from 2 up, below the series length too, so the FFT folds harmonics
    @given(any_theta(), st.one_of(st.integers(2, 64), st.integers(2, 5000)))
    def test_matches_series(self, theta, D):
        grid = TWO_PI * np.arange(1, D + 1) / D
        assert np.allclose(family_grid_cdf(theta, D), family_cdf(theta, grid), rtol=0, atol=1e-12)


def _vm_cdf_grid_folded(mu, kappa, D):
    """The grid kernel with every harmonic folded into its bin by np.add.at,
    whatever the series length: the reference for the unfolded fast path."""
    ratios = _vm_fourier_ratios(kappa)
    j = np.arange(1, ratios.size + 1)
    coef = -0.5j * D * ratios / j * np.exp(-1j * j * mu)
    b = j % D
    spectrum = np.zeros(D // 2 + 1, dtype=complex)
    np.add.at(spectrum, np.minimum(b, D - b), np.where(b > D - b, coef.conj(), coef))
    spectrum[[0, -1] if D % 2 == 0 else 0] *= 2.0
    s = np.fft.irfft(spectrum, D)
    return np.arange(1, D + 1) / D + (np.roll(s, -1) - s[0]) / np.pi


class TestGridCdfFolding:
    @pytest.mark.parametrize("kappa", (1e-3, 2.0, 400.0))
    def test_bit_identical_across_switch(self, kappa):
        # harmonics stop folding once the series is shorter than D // 2
        size = _vm_fourier_ratios(kappa).size
        for D in range(2 * size - 2, 2 * size + 4):
            if D >= 2:
                ref = _vm_cdf_grid_folded(1.3, kappa, D)
                assert np.array_equal(_grid_cdf_kernel("vm", D)((1.3, kappa)), ref)
        for D in (2 * size + 100, 4096):
            got = _grid_cdf_kernel("vm", D)((4.0, kappa))
            assert np.array_equal(got, _vm_cdf_grid_folded(4.0, kappa, D))


class TestQuantile:
    @given(any_theta(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
    def test_table_inverse(self, theta, levels):
        u = np.sort(np.concatenate([[0.0, 1.0], levels]))
        x = family_quantile(theta, u)
        assert np.all(np.abs(family_cdf(theta, x) - u) <= 1e-10)
        assert np.all(np.diff(x) >= 0.0)
        assert x[0] == 0.0 and x[-1] == TWO_PI

    def test_uniform(self):
        assert family_quantile(FamilyParams("uniform"), 0.25) == pytest.approx(np.pi / 2)

    def test_wc_rho0_reduces_to_uniform(self):
        theta = FamilyParams("wc", mu=0.0, rho=0.0)
        u = np.linspace(0.05, 0.95, 19)
        assert np.allclose(family_quantile(theta, u), TWO_PI * u, atol=1e-10)

    def test_vm_median_bisection_oracle(self):
        theta = FamilyParams("vm", mu=0.0, kappa=2.0)
        ref = optimize.brentq(lambda t: cdf_quad(theta, t) - 0.5, 1e-12, TWO_PI - 1e-12)
        assert family_quantile(theta, 0.5) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_cdf_roundtrip(self, family):
        rng = np.random.default_rng(15)
        theta = random_theta(rng, family)
        u = np.linspace(0.01, 0.99, 99)
        x = family_quantile(theta, u)
        assert np.allclose(family_cdf(theta, x), u, atol=1e-9)

    @pytest.mark.parametrize("lam", (-1.0, 1.0))
    def test_ssvm_density_zero(self, lam):
        # levels in the table cell holding the zero of 1 + lam*sin(x - mu),
        # where the inverse is not smooth
        for mu in np.linspace(0.0, TWO_PI, 7, endpoint=False):
            theta = FamilyParams("ssvm", mu=mu, kappa=1e-3, lam=lam)
            zero = (mu - lam * np.pi / 2.0) % TWO_PI
            u = family_cdf(theta, zero + np.linspace(-2e-3, 2e-3, 41))
            x = family_quantile(theta, u)
            assert np.all(np.abs(family_cdf(theta, x) - u) <= 1e-10)

    def test_extreme_kappa_roundtrip(self):
        theta = FamilyParams("vm", mu=1.0, kappa=500.0)
        u = np.array([0.001, 0.1, 0.5, 0.9, 0.999])
        assert np.allclose(family_cdf(theta, family_quantile(theta, u)), u, atol=1e-9)

    @pytest.mark.parametrize("kappa", (1000.0, 2000.0, 8000.0))
    def test_roundtrip_above_box(self, kappa):
        # above KAPPA_BOX the table grows to 2^15 and 2^16 points
        theta = FamilyParams("vm", mu=1.0, kappa=kappa)
        u = np.linspace(0.0, 1.0, 20001)
        assert np.max(np.abs(family_cdf(theta, family_quantile(theta, u)) - u)) <= 1e-10

    def test_endpoints(self):
        theta = FamilyParams("vm", mu=0.3, kappa=2.0)
        assert family_quantile(theta, 0.0) == 0.0
        assert family_quantile(theta, 1.0) == pytest.approx(TWO_PI)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            family_quantile(FamilyParams("uniform"), 1.5)
        with pytest.raises(ValueError):
            family_quantile(FamilyParams("uniform"), -0.1)

    def test_monotone_in_u(self):
        rng = np.random.default_rng(16)
        for family in ("vm", "wc", "ssvm"):
            theta = random_theta(rng, family)
            x = family_quantile(theta, np.linspace(0.0, 1.0, 101))
            assert np.all(np.diff(x) >= -1e-12)


class TestSsvmVmReduction:
    def test_lambda_zero_pdf(self):
        grid = np.linspace(0.0, TWO_PI, 100, endpoint=False)
        ssvm = FamilyParams("ssvm", mu=1.1, kappa=2.5, lam=0.0)
        vm = FamilyParams("vm", mu=1.1, kappa=2.5)
        assert np.allclose(family_pdf(ssvm, grid), family_pdf(vm, grid), atol=1e-12)

    def test_lambda_zero_cdf(self):
        grid = np.linspace(0.0, TWO_PI, 100)
        ssvm = FamilyParams("ssvm", mu=1.1, kappa=2.5, lam=0.0)
        vm = FamilyParams("vm", mu=1.1, kappa=2.5)
        assert np.allclose(family_cdf(ssvm, grid), family_cdf(vm, grid), atol=1e-12)


class TestSampling:
    def test_deterministic(self):
        theta = FamilyParams("vm", mu=0.3, kappa=2.0)
        s1 = family_sample(theta, 100, 42)
        s2 = family_sample(theta, 100, 42)
        assert np.array_equal(s1.angles, s2.angles)

    @pytest.mark.parametrize(
        "family,seed", [("vm", 0), ("wc", 1), ("ssvm", 2), ("uniform", 3), ("vm-contam", 4)]
    )
    def test_ks_bound(self, family, seed):
        rng = np.random.default_rng(100 + seed)
        theta = random_theta(rng, family)
        n = 10_000
        s = family_sample(theta, n, seed)
        grid = np.linspace(0.01, TWO_PI - 0.01, 400)
        gap = np.max(np.abs(empirical_cdf(s, grid) - family_cdf(theta, grid)))
        assert gap < 2.0 / np.sqrt(n)

    def test_contaminated_eps0_matches_vm(self):
        contam = FamilyParams("vm-contam", mu=0.3, kappa=2.0, eps=0.0)
        vm = FamilyParams("vm", mu=0.3, kappa=2.0)
        s = family_sample(contam, 10_000, 5)
        grid = np.linspace(0.01, TWO_PI - 0.01, 400)
        gap = np.max(np.abs(empirical_cdf(s, grid) - family_cdf(vm, grid)))
        assert gap < 2.0 / np.sqrt(10_000)

    def test_contaminated_eps1_is_uniform(self):
        contam = FamilyParams("vm-contam", mu=0.3, kappa=2.0, eps=1.0)
        s = family_sample(contam, 10_000, 6)
        grid = np.linspace(0.01, TWO_PI - 0.01, 400)
        gap = np.max(np.abs(empirical_cdf(s, grid) - grid / TWO_PI))
        assert gap < 2.0 / np.sqrt(10_000)


class TestFisher:
    def test_wc_half(self):
        mat = family_fisher(FamilyParams("wc", mu=0.0, rho=0.5))
        assert abs(mat[0, 0] - 8.0 / 9.0) <= 1e-12
        assert abs(mat[1, 1] - 32.0 / 9.0) <= 1e-12
        assert mat[0, 1] == 0.0

    def test_vm_closed_form(self):
        kappa = 2.0
        mat = family_fisher(FamilyParams("vm", mu=0.7, kappa=kappa))
        i0 = bessel_series(0, kappa)
        a1 = bessel_series(1, kappa) / i0
        a2 = bessel_series(2, kappa) / i0
        assert mat[0, 0] == pytest.approx(kappa * a1, rel=1e-12)
        assert mat[1, 1] == pytest.approx(0.5 + 0.5 * a2 - a1**2, rel=1e-12)

    def test_ssvm_kappa_lambda_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            mat = family_fisher(random_theta(rng, "ssvm"))
            assert mat[1, 2] == 0.0 and mat[2, 1] == 0.0

    def test_ssvm_lambda0_block_is_vm(self):
        mat = family_fisher(FamilyParams("ssvm", mu=0.4, kappa=3.0, lam=0.0))
        vm = family_fisher(FamilyParams("vm", mu=0.4, kappa=3.0))
        assert np.allclose(mat[:2, :2], vm, atol=1e-9)

    def test_ssvm_mu_lambda_entry_lambda0(self):
        # at lambda=0 the cross entry is E[cos X] under vM(0, kappa)
        kappa = 3.0
        mat = family_fisher(FamilyParams("ssvm", mu=0.4, kappa=kappa, lam=0.0))
        ref, _ = integrate.quad(
            lambda x: np.exp(kappa * np.cos(x)) * np.cos(x), -np.pi, np.pi
        )
        ref /= TWO_PI * bessel_series(0, kappa)
        assert mat[0, 2] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("family", ("vm", "wc", "ssvm"))
    def test_symmetric_psd(self, family):
        rng = np.random.default_rng(18)
        for _ in range(5):
            mat = family_fisher(random_theta(rng, family))
            assert np.allclose(mat, mat.T, atol=0.0)
            assert np.min(np.linalg.eigvalsh(mat)) >= -1e-9

    def test_boundary_errors(self):
        with pytest.raises(ValueError, match="boundary"):
            family_fisher(FamilyParams("wc", rho=1.0 - 1e-13))
        with pytest.raises(ValueError, match="boundary"):
            family_fisher(FamilyParams("ssvm", kappa=1.0, lam=1.0))

    def test_import_leaves_quadrature_unloaded(self):
        # only the ssvm Fisher matrix needs scipy (its quadrature pulls in
        # scipy.linalg and its BLAS threads); importing the package loads none
        assert scipy_modules_after("import circwass") == []

    def test_unavailable_families(self):
        with pytest.raises(ValueError):
            family_fisher(FamilyParams("uniform"))
        with pytest.raises(ValueError):
            family_fisher(FamilyParams("vm-contam", kappa=1.0, eps=0.1))
