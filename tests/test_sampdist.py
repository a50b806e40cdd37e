import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, stdtr

from misfdr.covariance import CovarianceMatrix, GridLayout, exponential_cov, identity_cov
from misfdr.errors import BoundaryError, ParameterError
from misfdr.linalg import chol, chol_inverse
from misfdr import posterior, sampdist
from misfdr.divergence import kl_exact
from misfdr.fdr import operating_characteristics
from misfdr.posterior import KnownVariance, ModelSpec, StudentT, TrueProcess, UnknownVariance
from misfdr.rng import stream
from misfdr.sampdist import (
    SamplingLaw,
    joint_log_pdf,
    law_known_var,
    law_unknown_var,
    marginal_cdf,
    marginal_pdf,
    xi_sampler,
    xi_to_h,
)
from oracles import joint_cdf_mc, random_truth_spec_pairs


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
        assert law.a_diag[0] == pytest.approx(0.2)
        assert law.b_diag[0] == pytest.approx(0.8)
        assert law.r[0] == pytest.approx(0.25)

    def test_identity_misspecification_flat_ratio(self):
        truth, _, spec_mis = grid_setup()
        law = law_known_var(truth, spec_mis)
        np.testing.assert_allclose(law.r, 0.25, atol=1e-10)

    def test_correct_spec_ratio_band(self):
        truth, spec_cor, _ = grid_setup()
        law = law_known_var(truth, spec_cor)
        assert 0.10 < law.r.min() and law.r.max() < 0.20

    def test_no_degrees_of_freedom(self):
        truth = scalar_truth()
        law = law_known_var(truth, ModelSpec(np.zeros(1), 1.0, truth.sigma1, KnownVariance(0.25)))
        with pytest.raises(ParameterError, match="only in the unknown-variance mode"):
            law.dof

    @pytest.mark.parametrize("spec_var", [0.25 / 4, 0.25 * 4])
    @pytest.mark.parametrize("cov", [identity_cov(25), exponential_cov(GridLayout(5, 5), 2.0)],
                             ids=["diagonal", "dense"])
    def test_ratio_is_the_variance_of_z_at_any_noise_variance(self, cov, spec_var):
        # The analyst's noise variance differs from the truth's 0.25: the law
        # still gives 1 / r_i = Var(z_i) of the standardized scores, z being
        # Phi^{-1}(h), centred on the truth's prior mean. Var(z_i) r_i is
        # estimated with standard error sqrt(2 / n).
        truth = TrueProcess(np.zeros(25), 0.25, exponential_cov(GridLayout(5, 5), 5.0))
        spec = ModelSpec(np.zeros(25), 1.0, cov, KnownVariance(spec_var))
        n = 40_000
        _, y = posterior.draw_replications(truth, chol(truth.sigma1.entries), stream(29, 0, 0), n)
        z = spec.standardized(y)
        ratio = np.mean(z * z, axis=0) * law_known_var(truth, spec).r
        assert np.abs(ratio - 1.0).max() < 4 * np.sqrt(2 / n)

    def test_vague_prior_ratio_limit(self):
        truth, spec_cor, spec_mis = grid_setup(rows=5, cols=5, g=1e8)
        target = truth.sigma0_sq / (truth.sigma0_sq + np.diag(truth.sigma1.entries))
        for spec in (spec_cor, spec_mis):
            law = law_known_var(truth, spec)
            assert np.abs(law.r - target).max() < 1e-5


SPEC_COVS = pytest.mark.parametrize(
    "cov", [identity_cov(4), exponential_cov(GridLayout(2, 2), 5.0)], ids=["diagonal", "dense"])


class TestDimensionMismatch:
    """A spec whose dimension is not the truth's is a configuration error at
    every place where a truth meets a spec."""

    MISMATCH = "dimension 4 does not match the truth's 3"

    @staticmethod
    def truth():
        return TrueProcess(np.zeros(3), 0.25, identity_cov(3))

    @SPEC_COVS
    def test_law_known_var(self, cov):
        spec = ModelSpec(np.zeros(4), 1.0, cov, KnownVariance(0.25))
        with pytest.raises(ParameterError, match=self.MISMATCH):
            law_known_var(self.truth(), spec)

    @SPEC_COVS
    def test_law_unknown_var(self, cov):
        spec = ModelSpec(np.zeros(4), 1.0, cov, UnknownVariance(2.0, 0.5))
        with pytest.raises(ParameterError, match=self.MISMATCH):
            law_unknown_var(self.truth(), spec)

    @SPEC_COVS
    @pytest.mark.parametrize("noise", [KnownVariance(0.25), UnknownVariance(2.0, 0.5)],
                             ids=["known", "unknown"])
    def test_operating_characteristics(self, cov, noise):
        spec = ModelSpec(np.zeros(4), 1.0, cov, noise)
        with pytest.raises(ParameterError, match=self.MISMATCH):
            operating_characteristics(self.truth(), spec, 0.05, 10)

    @SPEC_COVS
    def test_kl_exact(self, cov):
        truth = self.truth()
        spec_cor = ModelSpec(np.zeros(3), 1.0, truth.sigma1, KnownVariance(0.25))
        spec = ModelSpec(np.zeros(4), 1.0, cov, KnownVariance(0.25))
        with pytest.raises(ParameterError, match=self.MISMATCH):
            kl_exact(truth, spec_cor, spec)
        with pytest.raises(ParameterError, match="true covariance"):
            kl_exact(truth, spec, spec_cor)


class TestPriorMeanMismatch:
    """A law is that of scores centred on the truth's mean. With truth
    theta0 = 0 and spec theta0 = 1 on this Sigma, Phi^-1(h) has a Monte Carlo
    mean of about -2.2 in every coordinate, where a law would say 0."""

    @staticmethod
    def truth_and_cov():
        cov = exponential_cov(GridLayout(1, 3), 2.0)
        return TrueProcess(np.zeros(3), 0.25, cov), cov

    @pytest.mark.parametrize(
        "noise, law_of",
        [(KnownVariance(0.25), law_known_var), (UnknownVariance(2.0, 0.5), law_unknown_var)],
        ids=["known", "unknown"],
    )
    def test_law_rejects_shifted_theta0(self, noise, law_of):
        truth, cov = self.truth_and_cov()
        with pytest.raises(ParameterError, match="prior mean"):
            law_of(truth, ModelSpec(np.ones(3), 1.0, cov, noise))
        # within rounding, the truth's mean is the truth's mean
        law_of(truth, ModelSpec(np.full(3, 1e-13), 1.0, cov, noise))

    def test_monte_carlo_rejects_shifted_theta0(self):
        # The Monte Carlo labels nulls by the truth's theta0, which the
        # spec's scores must be centred on, as a law's are.
        truth, cov = self.truth_and_cov()
        spec = ModelSpec(np.ones(3), 1.0, cov, KnownVariance(0.25))
        with pytest.raises(ParameterError, match="prior mean"):
            operating_characteristics(truth, spec, 0.05, n_reps=50, rng=0)
        spec = ModelSpec(np.full(3, 1e-13), 1.0, cov, KnownVariance(0.25))
        operating_characteristics(truth, spec, 0.05, n_reps=50, rng=0)


class TestLawUnknownVar:
    def test_scalar_values(self):
        truth = scalar_truth()
        spec = ModelSpec(np.zeros(1), 1.0, truth.sigma1, UnknownVariance(1.0, 1.0))
        law = law_unknown_var(truth, spec)
        assert law.a_diag[0] == pytest.approx(0.5)
        assert law.b_diag[0] == pytest.approx(0.3125)
        # quadratic-form scaling: b * (a^-2 - a^-1) = 0.3125 * (4 - 2); a 1 x 1
        # spec is diagonal, so C is kept as its (1,) diagonal
        assert law.c[0] == pytest.approx(0.625)
        assert law.dof == 3.0

    def test_quadratic_form_identity(self):
        # z_b' C z_b must reproduce (y - theta0)'(I + g Sigma)^{-1}(y - theta0)
        truth, spec_cor, _ = grid_setup(rows=4, cols=4)
        spec = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, UnknownVariance(1.0, 1.0))
        law = law_unknown_var(truth, spec)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(truth.m)
        direct = y @ np.linalg.solve(np.eye(truth.m) + spec.g * spec.sigma_spec.entries, y)
        theta_post = spec.a @ y
        z_b = theta_post / np.sqrt(law.b_diag)
        assert z_b @ law.c @ z_b == pytest.approx(direct, rel=1e-10)

    def test_vague_prior_limits(self):
        truth, _, _ = grid_setup(rows=5, cols=5)
        spec = ModelSpec(np.zeros(25), 1e8, truth.sigma1, UnknownVariance(1.0, 1.0))
        law = law_unknown_var(truth, spec)
        np.testing.assert_allclose(spec.a, np.eye(25), atol=1e-6)
        np.testing.assert_allclose(
            law.b_chol @ law.b_chol.T, truth.sigma0_sq * np.eye(25) + truth.sigma1.entries,
            atol=1e-6,
        )
        assert np.abs(law.c).max() < 1e-6

    def test_dense_c_matches_symmetrized_general_product(self):
        # C = P^2 + P by one syrk, against the gemm form symmetrized by hand.
        truth, spec_cor, _ = grid_setup(rows=6, cols=6)
        spec = ModelSpec(spec_cor.theta0, 0.7, spec_cor.sigma_spec, UnknownVariance(2.0, 0.5))
        law = law_unknown_var(truth, spec)
        p = chol_inverse(chol(spec.sigma_spec.entries)) / spec.g
        c = p @ p + p
        c = 0.5 * (c + c.T)
        sd = np.sqrt(law.b_diag)
        np.testing.assert_allclose(law.c, c * sd[:, None] * sd, rtol=1e-12)

    def test_non_psd_c_rejected(self, monkeypatch):
        # With -P for P = Sigma_spec^-1 / g, C = P^2 - P; every eigenvalue of
        # P is below 1 at g = 100, so C is negative definite.
        truth, spec_cor, _ = grid_setup(rows=4, cols=4)
        spec = ModelSpec(spec_cor.theta0, 100.0, spec_cor.sigma_spec, UnknownVariance(1.0, 1.0))
        inverse = sampdist.chol_inverse
        monkeypatch.setattr(sampdist, "chol_inverse", lambda chol, **kw: -inverse(chol, **kw))
        with pytest.raises(ParameterError, match=r"A\^-2 - A\^-1 is not positive semidefinite"):
            law_unknown_var(truth, spec)

    def test_operating_characteristics_and_law_share_one_operator(self, monkeypatch):
        # A dense spec factors its posterior once, on construction: scoring
        # and the law read that A and invert K no more.
        truth, _, _ = grid_setup(rows=4, cols=4)
        inverted = count_calls(monkeypatch, posterior, "chol_inverse")
        spec = ModelSpec(truth.theta0, 1.0, truth.sigma1, UnknownVariance(2.0, 0.5))
        operating_characteristics(truth, spec, 0.05, n_reps=20, rng=0)
        law_unknown_var(truth, spec)
        assert len(inverted) == 1


class TestLawB:
    @pytest.mark.parametrize("g", (1e-2, 1e-1, 1.0, 10.0, 1e3, 1e8))
    @pytest.mark.parametrize("known", [True, False], ids=["known", "unknown"])
    def test_matches_dense_product(self, g, known):
        # B = (S L_V)(S L_V)' by trmm and syrk against A V A / s^2 by two
        # products; the worst elementwise relative error measured over these
        # cases is 1.3e-11, on entries that cancel in the dense product.
        for rng, truth, sigma in random_truth_spec_pairs():
            noise = KnownVariance(truth.sigma0_sq) if known else UnknownVariance(2.0, 0.5)
            spec = ModelSpec(truth.theta0, g, sigma, noise)
            law = (law_known_var if known else law_unknown_var)(truth, spec)
            s = truth.sigma0_sq if known else 1.0
            cov_y = truth.sigma1.entries + truth.sigma0_sq * np.eye(truth.m)
            a = spec.a
            dense = a @ cov_y @ a / (s * s)
            b = law.b_chol @ law.b_chol.T
            np.testing.assert_allclose(b, dense, rtol=1e-10, atol=0)
            np.testing.assert_array_equal(b, b.T)


class TestBuiltPerMode:
    def test_unknown_variance_law_has_no_copula(self):
        truth, spec_cor, _ = grid_setup(rows=3, cols=3)
        spec = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, UnknownVariance(2.0, 0.5))
        law = law_unknown_var(truth, spec)
        assert law.copula is None and law.log_det_copula is None
        with pytest.raises(ParameterError, match="known-variance"):
            joint_log_pdf(np.full(law.m, 0.5), law)


def count_calls(monkeypatch, module, name):
    """Record a copy of the first argument of every call to `module.name`,
    taken before the call, which may overwrite it."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda a, *rest, **kw: calls.append(a.copy()) or original(a, *rest, **kw))
    return calls


BOTH_MODES = pytest.mark.parametrize(
    "noise, law_of",
    [(KnownVariance(0.25), law_known_var), (UnknownVariance(2.0, 0.5), law_unknown_var)],
)


class TestOneMatrixPerObject:
    @pytest.mark.parametrize("noise", [KnownVariance(0.25), UnknownVariance(2.0, 0.5)],
                             ids=["known", "unknown"])
    def test_operator_keeps_one_square_matrix(self, noise):
        _, spec_cor, _ = grid_setup(rows=3, cols=3)
        spec = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, noise)
        square = [v for v in vars(spec).values()
                  if isinstance(v, np.ndarray) and v.shape == (spec.m, spec.m)]
        assert len(square) == 1 and square[0] is spec.a

    @BOTH_MODES
    def test_law_keeps_no_spec_matrix(self, noise, law_of):
        # Once its spec is dropped, a law keeps the memory of the spec's A
        # alive through nothing, not even a view of its diagonal. A is itself
        # a view (`chol_inverse` returns a transpose), so the reference is to
        # the array that owns its memory.
        truth, spec_cor, _ = grid_setup(rows=3, cols=3)
        spec = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, noise)
        a_memory = weakref.ref(spec.a if spec.a.base is None else spec.a.base)
        law = law_of(truth, spec)
        assert not np.shares_memory(law.a_diag, spec.a)
        del spec
        assert a_memory() is None
        assert law.m == truth.m

    @BOTH_MODES
    def test_law_factors_b_once(self, monkeypatch, noise, law_of):
        truth, spec_cor, _ = grid_setup(rows=3, cols=3)
        spec = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, noise)
        factored = count_calls(monkeypatch, sampdist, "chol")
        inverted = count_calls(monkeypatch, sampdist, "chol_inverse")
        law = law_of(truth, spec)
        # B is factored first; the unknown-variance law then factors Sigma_spec
        # to form Sigma_spec^-1 and certifies C by a factor, the known-variance
        # law does neither.
        known = isinstance(noise, KnownVariance)
        assert len(factored) == (1 if known else 3)
        assert (inverted == []) == known
        np.testing.assert_allclose(law.b_chol @ law.b_chol.T, factored[0], rtol=1e-12, atol=0)

    def test_sampler_factors_nothing(self, monkeypatch):
        truth, spec_cor, _ = grid_setup(rows=3, cols=3)
        spec = ModelSpec(spec_cor.theta0, 1.0, spec_cor.sigma_spec, UnknownVariance(2.0, 0.5))
        law = law_unknown_var(truth, spec)
        factored = count_calls(monkeypatch, sampdist, "chol")
        inverted = count_calls(monkeypatch, sampdist, "chol_inverse")
        xi_sampler(law, 10, stream(1, 3))
        xi_sampler(law, 10, stream(1, 4))
        assert factored == [] and inverted == []


class TestCorrelationFactor:
    @BOTH_MODES
    def test_factor_of_p_b(self, noise, law_of):
        truth, spec_cor, spec_mis = grid_setup(rows=4, cols=4, g=3.0)
        for spec in (spec_cor, spec_mis):
            law = law_of(truth, ModelSpec(spec.theta0, spec.g, spec.sigma_spec, noise))
            sd = np.sqrt(law.b_diag)
            pb_chol = law.b_chol / sd[:, None]
            np.testing.assert_allclose(pb_chol @ pb_chol.T,
                                       law.b_chol @ law.b_chol.T / np.outer(sd, sd),
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(law.p_b, law.p_b.T)
            assert not np.triu(law.b_chol, 1).any()

    def test_hand_built_law_derives_p_b(self):
        b = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        law = SamplingLaw(a_diag=np.array([0.5, 0.4, 0.2]), b_diag=np.diag(b),
                          b_chol=np.linalg.cholesky(b), c=None, mode=KnownVariance(1.0))
        sd = np.sqrt(np.diag(b))
        np.testing.assert_allclose(law.p_b, b / np.outer(sd, sd), rtol=0, atol=1e-15)
        np.testing.assert_allclose(law.r, [0.25, 0.4, 0.4], rtol=1e-15)
        np.testing.assert_allclose(law.b_chol @ law.b_chol.T, b, rtol=0, atol=1e-15)

    def test_hand_built_law_rejects_a_nonpositive_ratio(self):
        with pytest.raises(ParameterError, match="ratios a_ii/b_ii must be positive"):
            SamplingLaw(a_diag=np.array([0.5, -0.1]), b_diag=np.ones(2), b_chol=np.eye(2),
                        c=None, mode=KnownVariance(1.0))


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

    @pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf])
    def test_ratio_must_be_positive_and_finite(self, r):
        for marginal in (marginal_cdf, marginal_pdf):
            with pytest.raises(ParameterError, match="positive and finite"):
                marginal(0.3, r)

    def test_shapes_that_do_not_broadcast_refused(self):
        for marginal in (marginal_cdf, marginal_pdf):
            with pytest.raises(ParameterError, match=r"h of shape \(3,\) and r_i of shape "
                                                     r"\(2,\) do not broadcast together"):
                marginal(np.full(3, 0.5), np.ones(2))
            # Shapes that broadcast still give one value per pair.
            assert marginal(np.full((2, 1), 0.5), np.ones(3)).shape == (2, 3)

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
        a_diag=r, b_diag=np.ones(m), b_chol=np.eye(m), c=None, mode=mode or KnownVariance(1.0),
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

    @pytest.mark.parametrize("h", [np.full(3, 0.5), np.full((4, 3), 0.5), np.full((2, 2, 2), 0.5)],
                             ids=["short", "short-rows", "3-d"])
    def test_wrong_shape_rejected(self, h):
        with pytest.raises(ParameterError, match=r"\(m,\) or \(n, m\) array with m = 2"):
            joint_log_pdf(h, diagonal_law([0.5, 0.5]))


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
            a_diag=law.a_diag, b_diag=law.b_diag, b_chol=law.b_chol,
            c=np.zeros((law.m, law.m)), mode=law.mode,
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

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "dense"])
    def test_draws_match_the_out_of_place_expressions(self, diagonal):
        truth, spec_cor, spec_mis = grid_setup(rows=3, cols=3)
        cov = (spec_mis if diagonal else spec_cor).sigma_spec
        law = law_unknown_var(truth, ModelSpec(truth.theta0, 1.0, cov, UnknownVariance(1.0, 1.0)))
        assert (law.c.ndim == 1) is diagonal
        z = stream(1, 5).standard_normal((300, law.m)) @ law.b_chol.T
        z /= np.sqrt(law.b_diag)
        quad = np.square(z) @ law.c if diagonal else np.sum(z * (z @ law.c), axis=1)
        xi = np.sqrt(law.dof / (quad + 2.0 * law.mode.beta))[:, None] * z
        draws = xi_sampler(law, 300, stream(1, 5))
        np.testing.assert_array_equal(draws, xi)
        np.testing.assert_array_equal(xi_to_h(draws, law), StudentT(law.dof)(xi / np.sqrt(law.r)))

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "dense"])
    def test_peak_memory_is_the_draws_and_one_block(self, diagonal):
        # The quadratic forms are made a block of rows at a time: beside the
        # (n, m) draws, one (128, m) buffer and a few (n,) vectors.
        truth, spec_cor, spec_mis = grid_setup(rows=10, cols=10)
        cov = (spec_mis if diagonal else spec_cor).sigma_spec
        law = law_unknown_var(truth, ModelSpec(truth.theta0, 1.0, cov, UnknownVariance(1.0, 1.0)))
        n, gen = 1000, stream(1, 6)
        tracemalloc.start()
        try:
            xi_sampler(law, n, gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        draws = n * law.m * 8
        assert sampdist._QUAD_ROWS == 128
        assert draws < peak < draws + 128 * law.m * 8 + 4 * n * 8

    @pytest.mark.parametrize("n_draws", [0, -3])
    def test_draw_count_must_be_positive(self, n_draws):
        with pytest.raises(ParameterError, match="n_draws"):
            xi_sampler(self.unknown_law(), n_draws, stream(1, 2))

    @pytest.mark.parametrize("n_draws", [2.5, 3.0, "3"])
    def test_draw_count_must_be_an_integer(self, n_draws):
        with pytest.raises(ParameterError, match=f"n_draws must be an integer, not {n_draws!r}"):
            xi_sampler(self.unknown_law(), n_draws, stream(1, 2))

    def test_numpy_integer_draw_count_accepted(self):
        law = self.unknown_law()
        draws = xi_sampler(law, np.int64(3), stream(1, 2))
        assert np.array_equal(draws, xi_sampler(law, 3, stream(1, 2)))

    def test_requires_unknown_variance_law(self):
        law = diagonal_law([0.5])
        with pytest.raises(ParameterError):
            xi_sampler(law, 10, stream(1, 2))
        with pytest.raises(ParameterError):
            xi_to_h(np.array([0.0]), law)
