import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misfdr import sampdist
from misfdr.covariance import CovarianceMatrix, GridLayout, exponential_cov, identity_cov
from misfdr.divergence import kl_exact, kl_laws
from misfdr.errors import BoundaryError, ParameterError
from misfdr.posterior import KnownVariance, ModelSpec, TrueProcess, UnknownVariance
from misfdr.sampdist import SamplingLaw, joint_log_pdf, law_known_var, law_unknown_var
from misfdr.simulation import build_cov, builtin_example, paired_specs
from oracles import (
    KLEstimate,
    kl_copula_difference,
    kl_known_var,
    log_density_ratio,
    random_truth_spec_pairs,
)


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
        a_diag=np.array([r]), b_diag=np.ones(1), b_chol=np.eye(1),
        mode=KnownVariance(1.0),
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

    def test_unknown_variance_law_rejected(self):
        # The same 3x3 case once returned 5.48, a Gaussian-copula ratio for a
        # law that has no joint density.
        grid = GridLayout(1, 3)
        truth = TrueProcess(np.zeros(3), 0.25, exponential_cov(grid, 5.0))
        spec = ModelSpec(np.zeros(3), 1.0, identity_cov(3), UnknownVariance(2.0, 0.5))
        law_unknown = law_unknown_var(truth, spec)
        law_known = law_known_var(truth, ModelSpec(np.zeros(3), 1.0, truth.sigma1, KnownVariance(0.25)))
        h = np.full(3, 0.3)
        for pair in ((law_unknown, law_known), (law_known, law_unknown)):
            with pytest.raises(ParameterError, match="only for the known-variance law"):
                log_density_ratio(h, *pair)
            with pytest.raises(ParameterError, match="only for the known-variance law"):
                kl_laws(*pair)


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
        with pytest.raises(ParameterError, match="known-variance noise mode"):
            kl(truth, bad, spec_mis)

    @pytest.mark.parametrize("which", ["cor"])
    def test_noise_variance_checked_by_the_law(self, which):
        # spec_cor must use the truth's noise variance (`check_kl_specs`);
        # spec_mis may use any, as its law reads the spec's own s.
        truth, spec_cor, spec_mis = desk_setup()
        specs = {"cor": spec_cor, "mis": spec_mis}
        bad = specs[which]
        specs[which] = ModelSpec(bad.theta0, bad.g, bad.sigma_spec, KnownVariance(0.5))
        with pytest.raises(ParameterError, match="equal the truth"):
            kl_exact(truth, specs["cor"], specs["mis"])

    def test_true_covariance_to_within_rounding_only(self):
        # A covariance 1e-7 away from the truth's is a misspecification.
        truth, spec_cor, _ = desk_setup()
        near_cov = CovarianceMatrix(truth.sigma1.entries * (1 + 1e-7))
        near = ModelSpec(spec_cor.theta0, spec_cor.g, near_cov, spec_cor.noise)
        with pytest.raises(ParameterError, match="true covariance"):
            kl_exact(truth, near, near)

    def test_reports_draw_count(self):
        truth, spec_cor, spec_mis = desk_setup()
        kl = kl_known_var(truth, spec_cor, spec_mis, n_draws=64, rng=1)
        assert isinstance(kl, KLEstimate)
        assert kl.n_draws + kl.n_excluded == 64


def probit_covariance(truth, spec):
    """Covariance of phi = Phi^{-1}(h): D_a^{-1/2} B D_a^{-1/2}."""
    law = law_known_var(truth, spec)
    d = 1.0 / np.sqrt(law.a_diag)
    return d[:, None] * (law.b_chol @ law.b_chol.T) * d[None, :]


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

    @pytest.mark.parametrize(
        "noise, grid, theta0, match",
        [(UnknownVariance(1.0, 1.0), GridLayout(10, 10), 0.0, "known-variance noise mode"),
         (KnownVariance(0.25), GridLayout(9, 11), 0.0,
          "dimension 99 does not match the truth's 100"),
         (KnownVariance(0.25), GridLayout(10, 10), 1.0, "prior mean")],
        ids=["noise-mode", "dimension", "prior-mean"],
    )
    def test_both_specs_checked_before_any_factorization(self, monkeypatch, noise, grid,
                                                         theta0, match):
        # A bad spec_mis is rejected before spec_cor's law factors B.
        truth, spec_cor, _ = desk_setup()
        bad_mis = ModelSpec(np.full(grid.m, theta0), 1.0, exponential_cov(grid, 2.0), noise)
        factored = []
        chol = sampdist.chol

        def counting_chol(a, **kw):
            factored.append(a.shape)
            return chol(a, **kw)

        monkeypatch.setattr(sampdist, "chol", counting_chol)
        with pytest.raises(ParameterError, match=match):
            kl_exact(truth, spec_cor, bad_mis)
        assert factored == []

    def test_identical_specs_give_exact_zero(self):
        truth, spec_cor, _ = desk_setup()
        assert kl_exact(truth, spec_cor, spec_cor) == 0.0
        # a second covariance object with equal entries is the same law
        twin = ModelSpec(spec_cor.theta0, spec_cor.g,
                         CovarianceMatrix(spec_cor.sigma_spec.entries.copy()), spec_cor.noise)
        assert twin.sigma_spec is not spec_cor.sigma_spec
        assert kl_exact(truth, spec_cor, twin) == 0.0


def law_pair(truth, sigma, g):
    """Known-variance laws of the truth's covariance and of `sigma` at scale g."""
    noise = KnownVariance(truth.sigma0_sq)
    return (law_known_var(truth, ModelSpec(truth.theta0, g, truth.sigma1, noise)),
            law_known_var(truth, ModelSpec(truth.theta0, g, sigma, noise)))


def random_spd(rng, m):
    raw = rng.standard_normal((m, m))
    return CovarianceMatrix(raw @ raw.T + 1e-3 * np.eye(m))


class TestKLLaws:
    @pytest.mark.parametrize("g", (1e-2, 1e-1, 1.0, 10.0, 1e3, 1e8))
    def test_matches_copula_difference(self, g):
        # The reference cancels O(m) terms, so its own error is a few ulps of
        # their size; beyond that the two agree to 1e-9. At g >= 10 that
        # rounding dominates (the reference even goes negative at g = 1e8).
        for _, truth, sigma in random_truth_spec_pairs():
            law_cor, law_mis = law_pair(truth, sigma, g)
            ref = kl_copula_difference(law_cor, law_mis)
            size = abs(law_cor.log_det_copula) + abs(law_mis.log_det_copula) + truth.m
            tol = 1e-9 * abs(ref) + 4 * np.finfo(float).eps * size
            assert abs(kl_laws(law_cor, law_mis) - ref) <= tol

    def test_vague_prior_decay(self):
        # Both laws tend to the same limit with a difference O(1/g), so
        # g^2 KL converges: this checks the large-g values, where the
        # reference of the test above is rounding noise.
        for _, truth, sigma in random_truth_spec_pairs():
            scaled = [g * g * kl_laws(*law_pair(truth, sigma, g)) for g in (1e7, 1e8)]
            assert scaled[1] == pytest.approx(scaled[0], rel=1e-5, abs=0)

    @pytest.mark.parametrize("m", [1, 6, 12])
    @pytest.mark.parametrize("spec_var", [0.25 / 4, 0.25 * 4])
    def test_mismatched_noise_variance_matches_dense_gaussian_kl(self, m, spec_var):
        # The analyst's noise variance s differs from the truth's 0.25. phi =
        # D_a^{-1/2} S r with S = I - s K^{-1}, K = s I + g Sigma_spec and
        # r ~ N(0, V), V = 0.25 I + Sigma_1: both covariances of phi by dense
        # textbook algebra, from none of the law's factors.
        rng = np.random.default_rng(m)
        truth = TrueProcess(np.zeros(m), 0.25, random_spd(rng, m))
        v = truth.sigma1.entries + 0.25 * np.eye(m)

        def phi_cov(sigma, s, g=2.0):
            smoother = np.eye(m) - s * np.linalg.inv(s * np.eye(m) + g * sigma.entries)
            d = 1.0 / np.sqrt(s * np.diag(smoother))
            return d[:, None] * (smoother @ v @ smoother.T) * d

        for sigma in (truth.sigma1, random_spd(rng, m), identity_cov(m)):
            spec_cor = ModelSpec(np.zeros(m), 2.0, truth.sigma1, KnownVariance(0.25))
            spec_mis = ModelSpec(np.zeros(m), 2.0, sigma, KnownVariance(spec_var))
            s_cor, s_mis = phi_cov(truth.sigma1, 0.25), phi_cov(sigma, spec_var)
            dense = 0.5 * (np.trace(np.linalg.solve(s_mis, s_cor)) - m
                           + np.linalg.slogdet(s_mis)[1] - np.linalg.slogdet(s_cor)[1])
            laws = (law_known_var(truth, spec_cor), law_known_var(truth, spec_mis))
            assert dense > 0.0
            assert kl_laws(*laws) == pytest.approx(dense, rel=1e-9, abs=0)
            assert kl_exact(truth, spec_cor, spec_mis) == kl_laws(*laws)

    def test_laws_of_different_dimension_rejected(self):
        truth, spec_cor, _ = desk_setup()
        small_truth, small_spec, _ = scalar_pair()
        with pytest.raises(ParameterError, match="dimensions 100 and 1"):
            kl_laws(law_known_var(truth, spec_cor), law_known_var(small_truth, small_spec))

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
           g=st.floats(min_value=1e-3, max_value=1e6),
           sigma0_sq=st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_zero_for_identical_specs(self, seed, m, g, sigma0_sq):
        rng = np.random.default_rng(seed)
        truth = TrueProcess(np.zeros(m), sigma0_sq, random_spd(rng, m))
        law_cor, law_mis = law_pair(truth, random_spd(rng, m), g)
        assert kl_laws(law_cor, law_mis) >= 0.0
        assert kl_laws(law_mis, law_cor) >= 0.0
        assert kl_laws(law_mis, law_mis) == 0.0
        # Two specs built from equal inputs give equal laws.
        twin = CovarianceMatrix(truth.sigma1.entries.copy())
        assert kl_laws(*law_pair(truth, twin, g)) == 0.0
