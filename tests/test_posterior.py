import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from misfdr.covariance import CovarianceMatrix, identity_cov
from misfdr.errors import ParameterError
from misfdr.posterior import (
    KnownVariance,
    ModelSpec,
    PosteriorOperator,
    TrueProcess,
    UnknownVariance,
    draw_replications,
)
from misfdr.rng import Substreams, streams
from misfdr.sampdist import law_known_var, law_unknown_var
from oracles import draw_dataset


def scalar_spec(g=1.0, sigma0_sq=0.25, noise=None):
    return ModelSpec(
        theta0=np.zeros(1),
        g=g,
        sigma_spec=CovarianceMatrix([[1.0]]),
        noise=noise or KnownVariance(sigma0_sq),
    )


class TestDrawDataset:
    def test_deterministic_given_seed(self):
        truth = TrueProcess(np.zeros(3), 0.25, identity_cov(3))
        theta1, y1 = draw_dataset(truth, 42)
        theta2, y2 = draw_dataset(truth, 42)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(theta1, theta2)

    def test_marginal_variance(self):
        # 10,000 values of y as 100 draws at m = 100, all from one Generator
        truth = TrueProcess(np.zeros(100), 0.25, identity_cov(100))
        gen = np.random.default_rng(7)
        y = np.concatenate([draw_dataset(truth, gen)[1] for _ in range(100)])
        assert np.var(y) == pytest.approx(1.25, rel=0.03)

    def test_latent_correlation(self):
        sigma1 = CovarianceMatrix([[1.0, 0.9], [0.9, 1.0]])
        truth = TrueProcess(np.zeros(2), 0.25, sigma1)
        theta, _ = draw_replications(truth, Substreams(11, 20_000))
        assert np.corrcoef(theta.T)[0, 1] == pytest.approx(0.9, abs=0.02)

    def test_batched_rows_match_single_draws(self):
        truth = TrueProcess(np.zeros(4), 0.5, identity_cov(4))
        theta, y = draw_replications(truth, Substreams(5, 3))
        for r, gen in enumerate(streams(5, 3)):
            theta_r, y_r = draw_dataset(truth, gen)
            np.testing.assert_array_equal(theta[r], theta_r)
            np.testing.assert_array_equal(y[r], y_r)


class TestKnownVariance:
    def test_half_at_prior_mean(self):
        h = scalar_spec().posterior.probs(np.zeros(1))
        assert h[0] == pytest.approx(0.5)

    def test_scalar_value_against_quadrature(self):
        spec = scalar_spec()
        h = spec.posterior.probs(np.array([1.0]))
        assert h[0] == pytest.approx(0.96318, abs=1e-5)
        # independent oracle: 1-D quadrature of the unnormalized posterior
        y = 1.0
        dens = lambda t: np.exp(-((y - t) ** 2) / (2 * 0.25) - t**2 / 2)
        upper = quad(dens, 0, 20)[0]
        total = quad(dens, -20, 20)[0]
        assert h[0] == pytest.approx(upper / total, abs=1e-9)

    def test_monotone_limit_in_y(self):
        spec = scalar_spec()
        h = spec.posterior.probs(np.array([50.0]))
        assert h[0] == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.05, 2))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_each_coordinate_diagonal_sigma(self, y0, y1, bump):
        spec = ModelSpec(
            theta0=np.zeros(2),
            g=1.0,
            sigma_spec=CovarianceMatrix(np.diag([1.0, 2.0])),
            noise=KnownVariance(0.25),
        )
        lo = spec.posterior.probs(np.array([y0, y1]))
        hi = spec.posterior.probs(np.array([y0 + bump, y1]))
        assert hi[0] > lo[0]
        assert hi[1] == pytest.approx(lo[1])

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_shift_equivariance(self, y, shift):
        y = np.asarray(y)
        sigma = CovarianceMatrix(
            [[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]]
        )
        base = ModelSpec(np.zeros(3), 1.0, sigma, KnownVariance(0.5))
        shifted = ModelSpec(np.full(3, shift), 1.0, sigma, KnownVariance(0.5))
        h0 = base.posterior.probs(y)
        h1 = shifted.posterior.probs(y + shift)
        np.testing.assert_allclose(h0, h1, atol=1e-10)

    def test_vague_prior_is_data_dominated(self):
        sigma = CovarianceMatrix([[1.0, 0.4], [0.4, 1.0]])
        spec = ModelSpec(np.zeros(2), 1e8, sigma, KnownVariance(0.25))
        y = np.array([1.0, -2.0])
        op = PosteriorOperator(spec)
        mean = op.posterior_mean(y)
        assert np.linalg.norm(mean - y) < 1e-4 * np.linalg.norm(y)
        np.testing.assert_allclose(np.diag(op.a), 0.25, atol=1e-6)

    def test_half_everywhere_at_prior_mean_diagonal(self):
        spec = ModelSpec(
            np.array([1.0, -2.0, 0.5]),
            2.0,
            CovarianceMatrix(np.diag([1.0, 0.5, 2.0])),
            KnownVariance(0.3),
        )
        h = spec.posterior.probs(spec.theta0.copy())
        np.testing.assert_allclose(h, 0.5, atol=1e-12)


class TestUnknownVariance:
    def test_half_at_prior_mean(self):
        spec = scalar_spec(noise=UnknownVariance(1.0, 1.0))
        h = spec.posterior.probs(np.zeros(1))
        assert h[0] == pytest.approx(0.5)

    def test_scalar_value_against_quadrature(self):
        spec = scalar_spec(noise=UnknownVariance(1.0, 1.0))
        h = spec.posterior.probs(np.array([1.0]))
        assert h[0] == pytest.approx(0.7525, abs=1e-4)
        # oracle: the marginal posterior is proportional to
        # [(y - t)^2 + t^2/g + 2 beta]^{-(m + alpha)} with m = 1, alpha = 1
        y = 1.0
        dens = lambda t: ((y - t) ** 2 + t**2 + 2.0) ** (-2.0)
        upper = quad(dens, 0, np.inf)[0]
        total = quad(dens, -np.inf, np.inf)[0]
        assert h[0] == pytest.approx(upper / total, abs=1e-9)

    def test_beta_limit_monotone_toward_half(self):
        y = np.array([1.0])
        values = [
            scalar_spec(noise=UnknownVariance(1.0, b)).posterior.probs(y)[0]
            for b in (1e2, 1e4, 1e6)
        ]
        assert values[0] > values[1] > values[2] > 0.5
        assert values[2] == pytest.approx(0.5, abs=1e-2)


def random_spd_specs(n=20, seed=2024):
    """Random SPD specifications drawn as in acceptance criterion 8."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.integers(2, 51))
        raw = rng.standard_normal((m, m))
        sigma = CovarianceMatrix(raw @ raw.T + m * np.eye(m))
        theta0 = rng.standard_normal(m)
        y = theta0 + rng.standard_normal((3, m))
        yield rng, sigma, theta0, y


PIN_GS = (1e-2, 1e-1, 1.0, 10.0, 1e3, 1e8)


class TestPosteriorOperatorPin:
    """The one-factor operator against dense textbook formulas."""

    @pytest.mark.parametrize("g", PIN_GS)
    def test_known_variance(self, g):
        for rng, sigma, theta0, y in random_spd_specs():
            sigma0_sq = float(rng.uniform(0.1, 2.0))
            spec = ModelSpec(theta0, g, sigma, KnownVariance(sigma0_sq))
            m = spec.m
            sigma_inv = np.linalg.inv(sigma.entries)
            post_cov = np.linalg.inv(np.eye(m) / sigma0_sq + sigma_inv / g)
            mean = (y / sigma0_sq + sigma_inv @ theta0 / g) @ post_cov
            op = PosteriorOperator(spec)
            np.testing.assert_allclose(op.a, post_cov, rtol=1e-10, atol=0)
            np.testing.assert_allclose(op.posterior_mean(y), mean, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("g", PIN_GS)
    def test_known_variance_standardized(self, g):
        # Scored through A, (r @ A) / (s sd); small g cancels in A = s (I - s K^-1),
        # yet the worst relative error over these cases is about 1e-12.
        for rng, sigma, theta0, y in random_spd_specs():
            sigma0_sq = float(rng.uniform(0.1, 2.0))
            spec = ModelSpec(theta0, g, sigma, KnownVariance(sigma0_sq))
            m = spec.m
            sigma_inv = np.linalg.inv(sigma.entries)
            post_cov = np.linalg.inv(np.eye(m) / sigma0_sq + sigma_inv / g)
            mean = (y / sigma0_sq + sigma_inv @ theta0 / g) @ post_cov
            z = (mean - theta0) / np.sqrt(np.diag(post_cov))
            np.testing.assert_allclose(spec.posterior.standardized(y), z, rtol=1e-10, atol=0)
            np.testing.assert_allclose(spec.posterior.standardized(y[0]), z[0], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("g", PIN_GS)
    def test_unknown_variance(self, g):
        for rng, sigma, theta0, y in random_spd_specs():
            noise = UnknownVariance(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.1, 2.0)))
            spec = ModelSpec(theta0, g, sigma, noise)
            m = spec.m
            sigma_inv = np.linalg.inv(sigma.entries)
            shape = np.linalg.inv(np.eye(m) + sigma_inv / g)
            mean = (y + sigma_inv @ theta0 / g) @ shape
            resid = y - theta0
            quad = np.sum(resid * (resid @ np.linalg.inv(np.eye(m) + g * sigma.entries)), axis=1)
            dof = m + 2 * noise.alpha
            scale = (2 * noise.beta + quad) / dof
            op = PosteriorOperator(spec)
            np.testing.assert_allclose(op.a, shape, rtol=1e-10, atol=0)
            np.testing.assert_allclose(op.posterior_mean(y), mean, rtol=1e-10, atol=0)
            # the quadratic form enters only through the t scale
            z = (mean - theta0) / np.sqrt(scale[:, None] * np.diag(shape))
            np.testing.assert_allclose(op.standardized(y), z, rtol=1e-10, atol=0)


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])


class TestNonFiniteParameters:
    # `<= 0` is false for NaN, so each check must also reject non-finite values.
    @NON_FINITE
    def test_true_process_noise(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            TrueProcess(np.zeros(2), bad, identity_cov(2))

    @NON_FINITE
    def test_known_variance(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            KnownVariance(bad)

    @NON_FINITE
    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_unknown_variance(self, bad, which):
        params = {"alpha": 2.0, "beta": 0.5, which: bad}
        with pytest.raises(ParameterError, match="finite"):
            UnknownVariance(**params)

    @NON_FINITE
    def test_model_spec_g(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            ModelSpec(np.zeros(2), bad, identity_cov(2), KnownVariance(0.25))


class TestNoiseModeChecks:
    TRUTH = TrueProcess(np.zeros(1), 0.25, identity_cov(1))

    def test_known_var_law_rejects_unknown_spec(self):
        with pytest.raises(ParameterError, match="known-variance"):
            law_known_var(self.TRUTH, scalar_spec(noise=UnknownVariance(1.0, 1.0)))

    def test_unknown_var_law_rejects_known_spec(self):
        with pytest.raises(ParameterError, match="unknown-variance"):
            law_unknown_var(self.TRUTH, scalar_spec())
