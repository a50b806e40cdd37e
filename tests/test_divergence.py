import numpy as np
import pytest

from misfdr.covariance import CovarianceMatrix, GridLayout, exponential_cov, identity_cov
from misfdr.divergence import KLEstimate, kl_exact, kl_known_var, log_density_ratio
from misfdr.errors import BoundaryError, ParameterError
from misfdr.posterior import KnownVariance, ModelSpec, TrueProcess, UnknownVariance
from misfdr.sampdist import SamplingLaw, joint_log_pdf, law_known_var
from misfdr.simulation import build_cov, builtin_example, paired_specs


def desk_setup(g=1.0):
    grid = GridLayout(10, 10)
    sigma1 = exponential_cov(grid, 5.0)
    truth = TrueProcess(np.zeros(grid.m), 0.25, sigma1)
    noise = KnownVariance(0.25)
    spec_cor = ModelSpec(np.zeros(grid.m), g, sigma1, noise)
    spec_mis = ModelSpec(np.zeros(grid.m), g, identity_cov(grid.m), noise)
    return truth, spec_cor, spec_mis


def scalar_law(r):
    return SamplingLaw(
        a=np.array([[r]]), b=np.eye(1), c=None, mode=KnownVariance(1.0), spec_tag="custom",
    )


def scalar_pair():
    sigma1 = CovarianceMatrix([[1.0]])
    truth = TrueProcess(np.zeros(1), 0.25, sigma1)
    noise = KnownVariance(0.25)
    spec_cor = ModelSpec(np.zeros(1), 1.0, sigma1, noise)
    spec_mis = ModelSpec(np.zeros(1), 10.0, sigma1, noise)
    return truth, spec_cor, spec_mis


def scalar_closed_form(truth, spec_cor, spec_mis):
    # m = 1: h-laws are probit-Gaussian, so the KL equals the Gaussian
    # formula (1/2)(v_c / v_m - 1 - log(v_c / v_m)) with v = 1 / r
    law_c = law_known_var(truth, spec_cor)
    law_m = law_known_var(truth, spec_mis)
    ratio = (1.0 / law_c.r[0]) / (1.0 / law_m.r[0])
    return 0.5 * (ratio - 1.0 - np.log(ratio))


def study2_desk_pair():
    config = builtin_example(2, scale="desk")
    truth_cov = build_cov(config.truth_kernel, config.m, config.grid)
    mis_cov = build_cov(config.mis_kernel, config.m, config.grid)
    return paired_specs(config, truth_cov, mis_cov, config.g)


class TestLogDensityRatio:
    def test_scalar_value(self):
        # at h = 1/2 the quadratic terms vanish and the ratio is
        # (1/2) log(r_cor / r_mis) = (1/2) log(1/2)
        out = log_density_ratio(np.array([0.5]), scalar_law(0.25), scalar_law(0.5))
        assert out == pytest.approx(0.5 * np.log(0.5))

    def test_identical_laws_exactly_zero(self):
        law = scalar_law(0.3)
        h = np.array([[0.1], [0.6], [0.99]])
        np.testing.assert_array_equal(log_density_ratio(h, law, law), np.zeros(3))

    def test_antisymmetry(self):
        truth, spec_cor, spec_mis = desk_setup()
        law_c = law_known_var(truth, spec_cor)
        law_m = law_known_var(truth, spec_mis)
        rng = np.random.default_rng(7)
        h = rng.uniform(0.05, 0.95, size=(20, truth.m))
        forward = log_density_ratio(h, law_c, law_m)
        backward = log_density_ratio(h, law_m, law_c)
        np.testing.assert_allclose(forward, -backward, atol=1e-9)

    def test_matches_joint_log_pdf_difference(self):
        truth, spec_cor, spec_mis = desk_setup()
        law_c = law_known_var(truth, spec_cor)
        law_m = law_known_var(truth, spec_mis)
        rng = np.random.default_rng(8)
        h = rng.uniform(0.05, 0.95, size=(10, truth.m))
        direct = joint_log_pdf(h, law_c) - joint_log_pdf(h, law_m)
        np.testing.assert_allclose(log_density_ratio(h, law_c, law_m), direct, atol=1e-10)

    def test_boundary_rejected(self):
        law = scalar_law(0.5)
        with pytest.raises(BoundaryError):
            log_density_ratio(np.array([0.0]), law, law)


class TestKLEstimate:
    def test_identical_specs_give_exact_zero(self):
        truth, spec_cor, _ = desk_setup()
        kl = kl_known_var(truth, spec_cor, spec_cor, n_draws=50, rng=0)
        assert kl.total == 0.0
        assert kl.per_dim == 0.0
        assert kl.std_err == 0.0

    def test_positive_beyond_noise(self):
        truth, spec_cor, spec_mis = desk_setup()
        kl = kl_known_var(truth, spec_cor, spec_mis, n_draws=400, rng=42)
        assert kl.total > 5 * kl.std_err
        assert kl.per_dim == pytest.approx(kl.total / truth.m)

    def test_deterministic_given_seed(self):
        truth, spec_cor, spec_mis = desk_setup()
        a = kl_known_var(truth, spec_cor, spec_mis, n_draws=100, rng=5)
        b = kl_known_var(truth, spec_cor, spec_mis, n_draws=100, rng=5)
        assert a == b

    def test_scalar_closed_form(self):
        truth, spec_cor, spec_mis = scalar_pair()
        with pytest.warns(UserWarning, match="different g"):
            kl = kl_known_var(truth, spec_cor, spec_mis, n_draws=40_000, rng=11)
        exact = scalar_closed_form(truth, spec_cor, spec_mis)
        assert kl.total == pytest.approx(exact, abs=4 * kl.std_err)

    @pytest.mark.parametrize("kl", [kl_exact, kl_known_var], ids=lambda f: f.__name__)
    def test_wrong_truth_covariance_rejected(self, kl):
        truth, _, spec_mis = desk_setup()
        with pytest.raises(ParameterError, match="true covariance"):
            kl(truth, spec_mis, spec_mis)

    @pytest.mark.parametrize("kl", [kl_exact, kl_known_var], ids=lambda f: f.__name__)
    def test_unknown_variance_rejected(self, kl):
        truth, spec_cor, spec_mis = desk_setup()
        bad = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, UnknownVariance(1.0, 1.0))
        with pytest.raises(ParameterError, match="unknown-variance"):
            kl(truth, bad, spec_mis)

    def test_reports_draw_count(self):
        truth, spec_cor, spec_mis = desk_setup()
        kl = kl_known_var(truth, spec_cor, spec_mis, n_draws=64, rng=1)
        assert isinstance(kl, KLEstimate)
        assert kl.n_draws + kl.n_excluded == 64


def probit_covariance(truth, spec):
    """Covariance of phi = Phi^{-1}(h): D_a^{-1/2} B D_a^{-1/2}."""
    law = law_known_var(truth, spec)
    d = 1.0 / np.sqrt(np.diag(law.a))
    return d[:, None] * law.b * d[None, :]


DESK_PAIRS = pytest.mark.parametrize(
    "setup", [lambda: desk_setup(0.1), lambda: desk_setup(1.0), lambda: desk_setup(10.0),
              study2_desk_pair],
    ids=["study1-g0.1", "study1-g1", "study1-g10", "study2-ar2"],
)


class TestKLExact:
    @DESK_PAIRS
    def test_matches_monte_carlo_oracle(self, setup):
        truth, spec_cor, spec_mis = setup()
        exact = kl_exact(truth, spec_cor, spec_mis)
        mc = kl_known_var(truth, spec_cor, spec_mis, n_draws=4000, rng=2017)
        assert mc.n_excluded == 0
        assert abs(exact - mc.total) <= 4 * mc.std_err

    @DESK_PAIRS
    def test_matches_dense_gaussian_formula(self, setup):
        # KL of N(0, S_cor) from N(0, S_mis) by textbook dense linear algebra
        truth, spec_cor, spec_mis = setup()
        s_cor = probit_covariance(truth, spec_cor)
        s_mis = probit_covariance(truth, spec_mis)
        dense = 0.5 * (np.trace(np.linalg.solve(s_mis, s_cor)) - truth.m
                       + np.linalg.slogdet(s_mis)[1] - np.linalg.slogdet(s_cor)[1])
        assert kl_exact(truth, spec_cor, spec_mis) == pytest.approx(dense, rel=1e-10, abs=0)

    def test_scalar_closed_form(self):
        truth, spec_cor, spec_mis = scalar_pair()
        with pytest.warns(UserWarning, match="different g"):
            exact = kl_exact(truth, spec_cor, spec_mis)
        assert exact == pytest.approx(scalar_closed_form(truth, spec_cor, spec_mis),
                                      rel=1e-12, abs=0)

    def test_identical_specs_give_exact_zero(self):
        truth, spec_cor, _ = desk_setup()
        assert kl_exact(truth, spec_cor, spec_cor) == 0.0
        # a second covariance object with equal entries is the same law
        twin = ModelSpec(spec_cor.theta0, spec_cor.g,
                         CovarianceMatrix(spec_cor.sigma_spec.entries.copy()), spec_cor.noise)
        assert twin.sigma_spec is not spec_cor.sigma_spec
        assert kl_exact(truth, spec_cor, twin) == 0.0
