import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import stdtr

from misfdr import posterior
from misfdr.covariance import CovarianceMatrix, identity_cov
from misfdr.errors import NotPositiveDefiniteError, ParameterError
from misfdr.posterior import (
    KnownVariance,
    ModelSpec,
    StudentT,
    TrueProcess,
    UnknownVariance,
    draw_replications,
)
from misfdr.linalg import chol
from misfdr.rng import stream
from misfdr.sampdist import law_known_var, law_unknown_var
from oracles import draw_dataset, probs, standardized


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
        # The residuals have covariance Sigma_1 + sigma0^2 I, and the null
        # masks of two latent coordinates of correlation rho both hold with
        # probability 1/4 + asin(rho) / (2 pi).
        sigma1 = CovarianceMatrix([[1.0, 0.9], [0.9, 1.0]])
        truth = TrueProcess(np.zeros(2), 0.25, sigma1)
        null, resid = draw_replications(truth, chol(sigma1.entries), stream(11), 20_000)
        np.testing.assert_allclose(np.cov(resid.T), [[1.25, 0.9], [0.9, 1.25]], atol=0.05)
        both = np.mean(null[:, 0] & null[:, 1])
        assert both == pytest.approx(0.25 + np.arcsin(0.9) / (2 * np.pi), abs=0.015)

    def test_batched_rows_match_single_draws(self):
        # Row r is (theta >= theta0, y - theta0) of the r-th successive single
        # draw of the same stream; an identity truth at theta0 = 0 makes the
        # batch's matrix product, and so each row, exact.
        truth = TrueProcess(np.zeros(4), 0.5, identity_cov(4))
        null, resid = draw_replications(truth, chol(truth.sigma1.entries), stream(5), 3)
        twin = stream(5)
        for r in range(3):
            theta_r, y_r = draw_dataset(truth, twin)
            np.testing.assert_array_equal(null[r], theta_r >= truth.theta0)
            np.testing.assert_array_equal(resid[r], y_r - truth.theta0)

    def test_dense_rows_match_single_draws_to_rounding(self):
        # A dense factor multiplies a batch in one gemm and a single draw in a
        # matrix-vector product, and the draw adds theta0 = 1 that the
        # residual never holds, so the two agree to rounding.
        raw = np.random.default_rng(2).standard_normal((6, 6))
        truth = TrueProcess(np.ones(6), 0.5, CovarianceMatrix(raw @ raw.T + 6 * np.eye(6)))
        null, resid = draw_replications(truth, chol(truth.sigma1.entries), stream(5, 1), 40)
        twin = stream(5, 1)
        for r in range(40):
            theta_r, y_r = draw_dataset(truth, twin)
            np.testing.assert_array_equal(null[r], theta_r >= truth.theta0)
            np.testing.assert_allclose(resid[r], y_r - truth.theta0, rtol=1e-12)


class TestKnownVariance:
    def test_half_at_prior_mean(self):
        h = probs(scalar_spec(), np.zeros(1))
        assert h[0] == pytest.approx(0.5)

    def test_scalar_value_against_quadrature(self):
        spec = scalar_spec()
        h = probs(spec, np.array([1.0]))
        assert h[0] == pytest.approx(0.96318, abs=1e-5)
        # independent oracle: 1-D quadrature of the unnormalized posterior
        y = 1.0
        dens = lambda t: np.exp(-((y - t) ** 2) / (2 * 0.25) - t**2 / 2)
        upper = quad(dens, 0, 20)[0]
        total = quad(dens, -20, 20)[0]
        assert h[0] == pytest.approx(upper / total, abs=1e-9)

    def test_monotone_limit_in_y(self):
        spec = scalar_spec()
        h = probs(spec, np.array([50.0]))
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
        lo = probs(spec, np.array([y0, y1]))
        hi = probs(spec, np.array([y0 + bump, y1]))
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
        h0 = probs(base, y)
        h1 = probs(shifted, y + shift)
        np.testing.assert_allclose(h0, h1, atol=1e-10)

    def test_vague_prior_is_data_dominated(self):
        sigma = CovarianceMatrix([[1.0, 0.4], [0.4, 1.0]])
        spec = ModelSpec(np.zeros(2), 1e8, sigma, KnownVariance(0.25))
        y = np.array([1.0, -2.0])
        mean = standardized(spec, y) * np.sqrt(np.diag(spec.a))
        assert np.linalg.norm(mean - y) < 1e-4 * np.linalg.norm(y)
        np.testing.assert_allclose(np.diag(spec.a), 0.25, atol=1e-6)

    def test_half_everywhere_at_prior_mean_diagonal(self):
        spec = ModelSpec(
            np.array([1.0, -2.0, 0.5]),
            2.0,
            CovarianceMatrix(np.diag([1.0, 0.5, 2.0])),
            KnownVariance(0.3),
        )
        h = probs(spec, spec.theta0.copy())
        np.testing.assert_allclose(h, 0.5, atol=1e-12)


class TestUnknownVariance:
    def test_half_at_prior_mean(self):
        spec = scalar_spec(noise=UnknownVariance(1.0, 1.0))
        h = probs(spec, np.zeros(1))
        assert h[0] == pytest.approx(0.5)

    def test_scalar_value_against_quadrature(self):
        spec = scalar_spec(noise=UnknownVariance(1.0, 1.0))
        h = probs(spec, np.array([1.0]))
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
            probs(scalar_spec(noise=UnknownVariance(1.0, b)), y)[0]
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
    """A spec's one-factor posterior against dense textbook formulas."""

    @pytest.mark.parametrize("g", PIN_GS)
    def test_known_variance(self, g):
        for rng, sigma, theta0, y in random_spd_specs():
            sigma0_sq = float(rng.uniform(0.1, 2.0))
            spec = ModelSpec(theta0, g, sigma, KnownVariance(sigma0_sq))
            m = spec.m
            sigma_inv = np.linalg.inv(sigma.entries)
            post_cov = np.linalg.inv(np.eye(m) / sigma0_sq + sigma_inv / g)
            np.testing.assert_allclose(spec.a, post_cov, rtol=1e-10, atol=0)

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
            np.testing.assert_allclose(standardized(spec, y), z, rtol=1e-10, atol=0)
            np.testing.assert_allclose(standardized(spec, y[0]), z[0], rtol=1e-10, atol=0)

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
            np.testing.assert_allclose(spec.a, shape, rtol=1e-10, atol=0)
            # the quadratic form enters only through the t scale
            z = (mean - theta0) / np.sqrt(scale[:, None] * np.diag(shape))
            np.testing.assert_allclose(standardized(spec, y), z, rtol=1e-10, atol=0)


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


BAD_THETA0 = pytest.mark.parametrize(
    "theta0, match",
    [(0.0, "1-d"), (np.zeros((2, 2)), "1-d"), (np.array([0.0, np.nan]), "finite"),
     (np.array([np.inf, 0.0]), "finite"), (np.zeros(3), None)],
    ids=["scalar", "2-d", "nan", "inf", "length"],
)


class TestPriorMeanChecks:
    # theta0 must be a finite vector as long as the covariance; a wrong length
    # keeps each constructor's own message.
    @BAD_THETA0
    def test_true_process(self, theta0, match):
        with pytest.raises(ParameterError, match=match or "sigma1 dimension does not match"):
            TrueProcess(theta0, 0.25, identity_cov(2))

    @BAD_THETA0
    def test_model_spec(self, theta0, match):
        with pytest.raises(ParameterError, match=match or "sigma_spec dimension does not match"):
            ModelSpec(theta0, 1.0, identity_cov(2), KnownVariance(0.25))


class TestTruthFactors:
    def test_indefinite_sigma1_rejected(self):
        # Sigma_1 has an eigenvalue of -0.1 while V = 0.25 I + Sigma_1 is
        # positive definite, so only Sigma_1's own factor can catch it.
        sigma1 = CovarianceMatrix([[1.0, 1.1], [1.1, 1.0]])
        assert np.all(np.linalg.eigvalsh(sigma1.entries + 0.25 * np.eye(2)) > 0)
        with pytest.raises(NotPositiveDefiniteError):
            TrueProcess(np.zeros(2), 0.25, sigma1)

    def test_singular_sigma1_rejected(self):
        # Positive semidefinite but singular: refused on construction, not ridged.
        with pytest.raises(NotPositiveDefiniteError):
            TrueProcess(np.zeros(3), 0.25, CovarianceMatrix(np.ones((3, 3))))


class TestNoiseModeChecks:
    TRUTH = TrueProcess(np.zeros(1), 0.25, identity_cov(1))

    def test_known_var_law_rejects_unknown_spec(self):
        with pytest.raises(ParameterError, match="known-variance"):
            law_known_var(self.TRUTH, scalar_spec(noise=UnknownVariance(1.0, 1.0)))

    def test_unknown_var_law_rejects_known_spec(self):
        with pytest.raises(ParameterError, match="unknown-variance"):
            law_unknown_var(self.TRUTH, scalar_spec())


# Degrees of freedom the Student-t kernel is pinned at: the Cauchy law and
# just past it, small ones, the full-scale m + 2 alpha = 904, and far into the
# normal limit.
T_DOFS = pytest.mark.parametrize("dof", [1.0, 1.01, 2.0, 5.0, 30.0, 904.0, 1e5, 1e7, 1e12])
# 50,000 sorted points out to the kernel's cut at |t| = 37, 10,000 of them
# spaced geometrically from below towards t = 0.
T_GRID = np.sort(np.concatenate([np.linspace(-37.0, 37.0, 40_001),
                                 -np.geomspace(1e-12, 37.0, 10_000)]))
EPS = np.finfo(float).eps


def exact_t_cdf(dof, t):
    """The Student-t CDF: stdtr, but the Cauchy CDF's closed form at dof 1,
    where stdtr is off by up to 2.4e-9 near t = 0 (against mpmath)."""
    if dof != 1.0:
        return stdtr(dof, t)
    return np.where(t < 0, np.arctan2(1.0, -t) / np.pi, 1.0 - np.arctan2(1.0, t) / np.pi)


class TestStudentTKernel:
    """`StudentT`, the one code that computes the unknown-variance CDF,
    against stdtr, mpmath and its own out-of-place values."""

    @T_DOFS
    def test_accuracy(self, dof):
        got, exact = StudentT(dof)(T_GRID), exact_t_cdf(dof, T_GRID)
        error = np.abs(got - exact)
        assert error.max() <= 4.5e-16
        lower = T_GRID < 0
        near = lower & (T_GRID >= -8.0)
        assert np.all(error[near] <= 256 * EPS * exact[near])
        assert np.all(error[lower] <= 2e-12 * exact[lower])

    @T_DOFS
    def test_monotone_on_sorted_grids(self, dof):
        # The last two straddle the cut, where stdtr takes over.
        kernel = StudentT(dof)
        for grid in (T_GRID, np.linspace(-1e-3, 1e-3, 10_001), np.linspace(-8.5, -7.5, 10_001),
                     np.linspace(-38.0, -36.0, 20_001), np.linspace(36.0, 38.0, 20_001)):
            assert np.all(np.diff(kernel(grid)) >= 0)

    def test_against_mpmath(self):
        # At the full-scale dof, the kernel is off by at most 4 times what
        # stdtr is off by on the same points (about 100 and 50 ulps).
        mpmath = pytest.importorskip("mpmath")
        dof = 904.0
        t = np.random.default_rng(3).uniform(-8.0, 8.0, 400)
        with mpmath.workdps(40):
            nu = mpmath.mpf(dof)
            lower = [mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + mpmath.mpf(x) ** 2),
                                    regularized=True) / 2 for x in t]
            exact = [tail if x < 0 else 1 - tail for x, tail in zip(t, lower)]

            def worst_ulps(values):
                return max(float(abs(mpmath.mpf(v) - e) / np.spacing(float(e)))
                           for v, e in zip(values, exact))

            kernel_ulps, stdtr_ulps = worst_ulps(StudentT(dof)(t)), worst_ulps(stdtr(dof, t))
        assert 0 < kernel_ulps <= 4 * stdtr_ulps

    @T_DOFS
    def test_stdtr_past_the_cut(self, dof):
        t = np.array([-np.inf, np.inf, np.nan, -1e300, 1e300, -40.0, 37.5,
                      np.nextafter(-37.0, -np.inf), np.nextafter(37.0, np.inf)])
        np.testing.assert_array_equal(StudentT(dof)(t), stdtr(dof, t))

    @T_DOFS
    def test_no_floating_point_warnings(self, dof):
        t = np.array([-np.inf, -1e308, -1e154, -37.0, -1e-300, -0.0, 0.0, 5e-324, 37.0,
                      1e200, np.inf, np.nan])
        # Raised, not warned; underflow to 0 is exact here and ignored, as
        # numpy ignores it by default.
        with np.errstate(all="raise", under="ignore"):
            h = StudentT(dof)(t)
        assert h[0] == 0.0 and h[-2] == 1.0 and np.isnan(h[-1])

    @pytest.mark.parametrize("n", [0, 1, 16_383, 16_384, 16_385])
    def test_in_place_and_chunk_edges(self, n):
        assert posterior._T_CHUNK == 16_384
        kernel = StudentT(904.0)
        t = np.random.default_rng(n).standard_normal(n) * 12.0
        got = kernel(t)
        assert got.shape == (n,)
        if n:
            # The chunks' edges are computed as any other entry is.
            for i in {0, min(n, 16_384) - 1, n - 1}:
                assert kernel(t[i:i + 1])[0] == got[i]
        np.testing.assert_allclose(got, stdtr(904.0, t), rtol=2e-12, atol=4.5e-16)
        in_place = t.copy()
        assert kernel(in_place, out=in_place) is in_place
        np.testing.assert_array_equal(in_place, got)

    def test_any_shape_and_zero_dimensional(self):
        kernel = StudentT(904.0)
        t = np.random.default_rng(4).standard_normal((3, 4, 5)) * 40.0
        np.testing.assert_array_equal(kernel(t), kernel(t.ravel()).reshape(t.shape))
        np.testing.assert_array_equal(kernel(t[:, ::2]), kernel(t[:, ::2].copy()))
        value = kernel(-1.5)
        assert np.ndim(value) == 0 and value == kernel(np.array([-1.5]))[0]
        assert kernel(np.float64(50.0)) == stdtr(904.0, 50.0)
        z = np.array(-1.5)
        assert kernel(z, out=z) is z and z == value

    def test_scratch_is_one_bounded_array(self):
        # One (4, chunk) float array per call, whatever the input's size.
        kernel = StudentT(904.0)
        t = np.random.default_rng(5).standard_normal(200_000)
        tracemalloc.start()
        try:
            kernel(t, out=t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4 * 16_384 * 8 <= peak < 5 * 16_384 * 8

    def test_shared_between_threads(self):
        # The kernel holds only its coefficients, so concurrent callers of
        # one kernel get what each would get alone.
        kernel = StudentT(30.0)
        inputs = [np.random.default_rng(seed).standard_normal(40_000) * 5 for seed in range(8)]
        alone = [kernel(t) for t in inputs]
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(kernel, t) for t in inputs]
            shared = [future.result(timeout=60) for future in futures]
        for a, b in zip(alone, shared):
            np.testing.assert_array_equal(a, b)

    def test_unknown_variance_spec_cdf_is_the_kernel(self):
        spec = ModelSpec(np.zeros(5), 1.0, identity_cov(5), UnknownVariance(2.0, 0.5))
        z = np.linspace(-50.0, 50.0, 1001)
        np.testing.assert_array_equal(spec.cdf(z), StudentT(spec.dof)(z))

    @pytest.mark.parametrize("dof", [0.99, 0.0, -1.0, np.inf, np.nan])
    def test_rejects_dof(self, dof):
        with pytest.raises(ParameterError, match="degrees of freedom"):
            StudentT(dof)

    @pytest.mark.parametrize("out", [np.empty(4), np.empty(3, dtype=np.float32),
                                     np.empty(6)[::2]], ids=["shape", "dtype", "strided"])
    def test_rejects_out(self, out):
        with pytest.raises(ValueError, match="out must be"):
            StudentT(904.0)(np.zeros(3), out=out)
