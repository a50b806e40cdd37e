import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, stdtr

from misfdr.covariance import CovarianceMatrix, GridLayout, exponential_cov, identity_cov
from misfdr.errors import BoundaryError, ParameterError
from misfdr.posterior import KnownVariance, ModelSpec, TrueProcess, UnknownVariance
from misfdr.rng import stream
from misfdr.sampdist import (
    SamplingLaw,
    joint_cdf_mc,
    joint_log_pdf,
    law_known_var,
    law_unknown_var,
    marginal_cdf,
    marginal_pdf,
    xi_sampler,
    xi_to_h,
)


def scalar_truth():
    return TrueProcess(np.zeros(1), 0.25, CovarianceMatrix([[1.0]]))


def grid_setup(rows=10, cols=10, range_=5.0, g=1.0, sigma0_sq=0.25):
    sigma1 = exponential_cov(GridLayout(rows, cols), range_)
    m = rows * cols
    truth = TrueProcess(np.zeros(m), sigma0_sq, sigma1)
    noise = KnownVariance(sigma0_sq)
    spec_cor = ModelSpec(np.zeros(m), g, sigma1, noise)
    spec_mis = ModelSpec(np.zeros(m), g, identity_cov(m), noise)
    return truth, spec_cor, spec_mis


class TestLawKnownVar:
    def test_scalar_values(self):
        truth = scalar_truth()
        spec = ModelSpec(np.zeros(1), 1.0, truth.sigma1, KnownVariance(0.25))
        law = law_known_var(truth, spec)
        assert law.a[0, 0] == pytest.approx(0.2)
        assert law.b[0, 0] == pytest.approx(0.8)
        assert law.r[0] == pytest.approx(0.25)
        assert law.spec_tag == "correct"

    def test_identity_misspecification_flat_ratio(self):
        truth, _, spec_mis = grid_setup()
        law = law_known_var(truth, spec_mis)
        np.testing.assert_allclose(law.r, 0.25, atol=1e-10)
        assert law.spec_tag == "misspecified"

    def test_correct_spec_ratio_band(self):
        truth, spec_cor, _ = grid_setup()
        law = law_known_var(truth, spec_cor)
        assert 0.10 < law.r.min() and law.r.max() < 0.20

    def test_mismatched_noise_variance_rejected(self):
        truth = scalar_truth()
        spec = ModelSpec(np.zeros(1), 1.0, truth.sigma1, KnownVariance(0.5))
        with pytest.raises(ParameterError):
            law_known_var(truth, spec)

    def test_vague_prior_ratio_limit(self):
        truth, spec_cor, spec_mis = grid_setup(rows=5, cols=5, g=1e8)
        target = truth.sigma0_sq / (truth.sigma0_sq + np.diag(truth.sigma1.entries))
        for spec in (spec_cor, spec_mis):
            law = law_known_var(truth, spec)
            assert np.abs(law.r - target).max() < 1e-5


class TestLawUnknownVar:
    def test_scalar_values(self):
        truth = scalar_truth()
        spec = ModelSpec(np.zeros(1), 1.0, truth.sigma1, UnknownVariance(1.0, 1.0))
        law = law_unknown_var(truth, spec)
        assert law.a[0, 0] == pytest.approx(0.5)
        assert law.b[0, 0] == pytest.approx(0.3125)
        # quadratic-form scaling: b * (a^-2 - a^-1) = 0.3125 * (4 - 2)
        assert law.c[0, 0] == pytest.approx(0.625)
        assert law.dof == 3.0

    def test_quadratic_form_identity(self):
        # z_b' C z_b must reproduce (y - theta0)'(I + g Sigma)^{-1}(y - theta0)
        truth, spec_cor, _ = grid_setup(rows=4, cols=4)
        spec = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, UnknownVariance(1.0, 1.0))
        law = law_unknown_var(truth, spec)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(truth.m)
        direct = y @ np.linalg.solve(np.eye(truth.m) + spec.g * spec.sigma_spec.entries, y)
        theta_post = law.a @ y
        z_b = theta_post / np.sqrt(np.diag(law.b))
        assert z_b @ law.c @ z_b == pytest.approx(direct, rel=1e-10)

    def test_vague_prior_limits(self):
        truth, _, _ = grid_setup(rows=5, cols=5)
        spec = ModelSpec(np.zeros(25), 1e8, truth.sigma1, UnknownVariance(1.0, 1.0))
        law = law_unknown_var(truth, spec)
        np.testing.assert_allclose(law.a, np.eye(25), atol=1e-6)
        np.testing.assert_allclose(
            law.b, truth.sigma0_sq * np.eye(25) + truth.sigma1.entries, atol=1e-6
        )
        assert np.abs(law.c).max() < 1e-6

    def test_correct_tag(self):
        truth = scalar_truth()
        spec = ModelSpec(np.zeros(1), 1.0, truth.sigma1, UnknownVariance(2.0, 3.0))
        assert law_unknown_var(truth, spec).spec_tag == "correct"


class TestCorrelationFactor:
    @pytest.mark.parametrize(
        "noise, law_of",
        [(KnownVariance(0.25), law_known_var), (UnknownVariance(2.0, 0.5), law_unknown_var)],
    )
    def test_factor_of_p_b(self, noise, law_of):
        truth, spec_cor, spec_mis = grid_setup(rows=4, cols=4, g=3.0)
        for spec in (spec_cor, spec_mis):
            law = law_of(truth, ModelSpec(spec.theta0, spec.g, spec.sigma_spec, noise))
            np.testing.assert_allclose(law._pb_chol @ law._pb_chol.T, law.p_b, rtol=0, atol=1e-12)
            assert not np.triu(law._pb_chol, 1).any()

    def test_hand_built_law_derives_p_b(self):
        b = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        law = SamplingLaw(a=np.diag([0.5, 0.4, 0.2]), b=b, c=None,
                          mode=KnownVariance(1.0), spec_tag="custom")
        sd = np.sqrt(np.diag(b))
        np.testing.assert_allclose(law.p_b, b / np.outer(sd, sd), rtol=0, atol=1e-15)
        np.testing.assert_allclose(law.r, [0.25, 0.4, 0.4], rtol=1e-15)
        np.testing.assert_allclose(law._pb_chol @ law._pb_chol.T, law.p_b, rtol=0, atol=1e-12)


class TestCopulaIdentity:
    def test_random_laws(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            m = int(rng.integers(2, 30))
            raw = rng.standard_normal((m, m))
            sigma1 = CovarianceMatrix(raw @ raw.T + m * np.eye(m))
            raw2 = rng.standard_normal((m, m))
            sigma2 = CovarianceMatrix(raw2 @ raw2.T + m * np.eye(m))
            truth = TrueProcess(np.zeros(m), 0.5, sigma1)
            spec = ModelSpec(np.zeros(m), 2.0, sigma2, KnownVariance(0.5))
            law = law_known_var(truth, spec)
            lhs = law.copula
            root_r = np.sqrt(law.r)
            rhs = root_r[:, None] * np.linalg.inv(law.p_b) * root_r[None, :]
            rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert rel < 1e-8


class TestMarginals:
    def test_cdf_fixed_points(self):
        assert marginal_cdf(0.5, 0.37) == pytest.approx(0.5)
        assert marginal_cdf(0.3, 1.0) == pytest.approx(0.3)
        assert marginal_cdf(0.2, 0.25) == pytest.approx(0.33694, abs=1e-5)

    def test_cdf_rejects_boundary(self):
        with pytest.raises(BoundaryError):
            marginal_cdf(0.0, 0.5)
        with pytest.raises(BoundaryError):
            marginal_cdf(1.0, 0.5)

    def test_pdf_fixed_points(self):
        grid = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(marginal_pdf(grid, 1.0), 1.0)
        assert marginal_pdf(0.5, 0.3) == pytest.approx(np.sqrt(0.3))

    @pytest.mark.parametrize("r", [0.6, 0.8, 0.95])
    def test_pdf_integrates_to_one(self, r):
        # substitute h = Phi(x); the pdf itself diverges at the endpoints
        # when r < 1 but the transformed integrand is a clean Gaussian.
        # finite limits keep Phi(x) strictly interior; the truncated tail
        # mass is 2 Phi(-8 sqrt(r)) < 1e-9 for these r
        total, _ = quad(
            lambda x: marginal_pdf(ndtr(x), r) * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi),
            -8.0, 8.0,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("r", [0.1, 0.25])
    def test_interval_mass_matches_cdf(self, r):
        total, _ = quad(lambda x: marginal_pdf(x, r), 0.1, 0.9)
        assert total == pytest.approx(marginal_cdf(0.9, r) - marginal_cdf(0.1, r), abs=1e-9)

    def test_pdf_is_derivative_of_cdf(self):
        for r in (0.1, 0.25, 0.9):
            for h in (0.05, 0.3, 0.7, 0.95):
                eps = 1e-6
                slope = (marginal_cdf(h + eps, r) - marginal_cdf(h - eps, r)) / (2 * eps)
                assert marginal_pdf(h, r) == pytest.approx(slope, rel=1e-6)


def diagonal_law(r_values, mode=None):
    """Sampling law with independent coordinates and given ratios."""
    r = np.asarray(r_values, dtype=float)
    m = r.size
    return SamplingLaw(
        a=np.diag(r), b=np.eye(m), c=None, mode=mode or KnownVariance(1.0), spec_tag="custom",
    )


class TestJointLogPdf:
    def test_scalar_reduces_to_marginal(self):
        law = diagonal_law([0.4])
        for h in (0.1, 0.5, 0.9):
            assert joint_log_pdf(np.array([h]), law) == pytest.approx(
                np.log(marginal_pdf(h, 0.4))
            )

    def test_independence_factorizes(self):
        law = diagonal_law([0.3, 0.3, 0.3])
        h = np.array([0.2, 0.5, 0.8])
        expected = sum(np.log(marginal_pdf(x, 0.3)) for x in h)
        assert joint_log_pdf(h, law) == pytest.approx(expected)

    def test_bivariate_density_integrates_to_one(self):
        # sigma0_sq chosen so the probit-scale variances stay near 1 and the
        # mass inside |x| < 8 misses less than 1e-10
        truth, spec_cor, _ = grid_setup(rows=1, cols=2, range_=2.0, sigma0_sq=4.0)
        law = law_known_var(truth, spec_cor)
        # integrate in probit coordinates; the h-space density is singular at
        # the corners, while here the integrand is a smooth Gaussian
        n, lim = 600, 8.0
        x = -lim + (np.arange(n) + 0.5) * (2 * lim / n)
        xx1, xx2 = np.meshgrid(x, x)
        pts = np.column_stack([ndtr(xx1.ravel()), ndtr(xx2.ravel())])
        weight = np.exp(-0.5 * (xx1.ravel() ** 2 + xx2.ravel() ** 2)) / (2 * np.pi)
        total = (np.exp(joint_log_pdf(pts, law)) * weight).sum() * (2 * lim / n) ** 2
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_boundary_rejected(self):
        law = diagonal_law([0.5, 0.5])
        with pytest.raises(BoundaryError):
            joint_log_pdf(np.array([0.5, 1.0]), law)


class TestJointCdfMc:
    def test_scalar_matches_marginal(self):
        law = diagonal_law([0.25])
        est, se = joint_cdf_mc(np.array([0.2]), law, 50_000, stream(0, 1))
        assert abs(est - marginal_cdf(0.2, 0.25)) < 3 * se

    def test_upper_corner(self):
        law = diagonal_law([0.5, 0.5])
        est, _ = joint_cdf_mc(np.array([1 - 1e-12, 1 - 1e-12]), law, 2_000, stream(0, 2))
        assert est == pytest.approx(1.0)

    def test_independent_uniform_product(self):
        law = diagonal_law([1.0, 1.0])
        est, se = joint_cdf_mc(np.array([0.3, 0.4]), law, 100_000, stream(0, 3))
        assert abs(est - 0.12) < 3 * se


class TestXiSampler:
    def unknown_law(self):
        truth, spec_cor, _ = grid_setup(rows=3, cols=3)
        spec = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, UnknownVariance(1.0, 1.0))
        return law_unknown_var(truth, spec)

    def test_coordinates_symmetric_about_zero(self):
        law = self.unknown_law()
        draws = xi_sampler(law, 40_000, stream(1, 0))
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se)

    def test_degenerate_quadratic_form(self):
        law = self.unknown_law()
        law_c0 = SamplingLaw(
            a=law.a, b=law.b, c=np.zeros((law.m, law.m)), mode=law.mode, spec_tag="custom",
        )
        draws = xi_sampler(law_c0, 5_000, stream(1, 1))
        # denominator collapses to 2 beta, so draws are scaled Gaussians
        expected_sd = np.sqrt(law.dof / (2.0 * law.mode.beta))
        assert draws.std() == pytest.approx(expected_sd, rel=0.05)

    def test_xi_to_h_convention(self):
        law = self.unknown_law()
        xi = np.full(law.m, 0.7)
        h = xi_to_h(xi, law)
        np.testing.assert_allclose(h, stdtr(law.dof, 0.7 / np.sqrt(law.r)))

    def test_requires_unknown_variance_law(self):
        law = diagonal_law([0.5])
        with pytest.raises(ParameterError):
            xi_sampler(law, 10, stream(1, 2))
        with pytest.raises(ParameterError):
            xi_to_h(np.array([0.0]), law)
