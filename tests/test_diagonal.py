"""The closed forms of a diagonal specification against the dense path.

A covariance whose entries are diagonal takes closed forms end to end: the
posterior operator keeps diag(A) and factors nothing, and the sampling law
takes L_B as a row scaling of the truth's factor. `oracles.dense_twin` runs
the same entries through the dense path, the reference pinned here.
"""

import numpy as np
import pytest
from scipy.special import ndtr

from misfdr import posterior, sampdist
from misfdr.covariance import CovarianceMatrix, identity_cov
from misfdr.divergence import check_kl_specs, kl_laws
from misfdr.errors import NotPositiveDefiniteError, ParameterError
from misfdr.fdr import drawn_datasets, replicate
from misfdr.posterior import KnownVariance, ModelSpec, TrueProcess, UnknownVariance
from misfdr.rng import stream
from misfdr.sampdist import joint_log_pdf, law_known_var, law_unknown_var
from oracles import dense_twin, probs, random_truth_spec_pairs

RTOL = 1e-12
DIAGONAL_GS = (1e-2, 1.0, 1e2, 1e4, 1e8)


def diagonal_cases():
    """(rng, truth, diagonal spec covariance): the identity and a random positive
    heteroscedastic diagonal against each of six random SPD truths."""
    for rng, truth, _ in list(random_truth_spec_pairs())[:6]:
        yield rng, truth, identity_cov(truth.m)
        yield rng, truth, CovarianceMatrix(np.diag(rng.uniform(0.05, 5.0, truth.m)))


def noise_of(truth, known):
    return KnownVariance(truth.sigma0_sq) if known else UnknownVariance(2.0, 0.5)


def assert_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=0)


KNOWN = pytest.mark.parametrize("known", [True, False], ids=["known", "unknown"])


class TestOperatorPin:
    @KNOWN
    @pytest.mark.parametrize("g", DIAGONAL_GS)
    def test_scores_match_dense_path(self, g, known):
        for rng, truth, cov in diagonal_cases():
            theta0 = rng.standard_normal(truth.m)
            y = theta0 + 1.5 * rng.standard_normal((5, truth.m))
            fast = ModelSpec(theta0, g, cov, noise_of(truth, known))
            dense = ModelSpec(theta0, g, dense_twin(cov), noise_of(truth, known))
            assert fast.diagonal and not dense.diagonal
            assert_close(fast.a_diag, np.diag(dense.a))
            assert_close(fast.standardized(y), dense.standardized(y))
            assert_close(fast.standardized(y[0]), dense.standardized(y[0]))
            assert_close(probs(fast, y), probs(dense, y))


class TestLawPin:
    @KNOWN
    @pytest.mark.parametrize("g", DIAGONAL_GS)
    def test_law_matches_dense_path(self, g, known):
        law_of = law_known_var if known else law_unknown_var
        for rng, truth, cov in diagonal_cases():
            fast = law_of(truth, ModelSpec(truth.theta0, g, cov, noise_of(truth, known)))
            dense = law_of(truth, ModelSpec(truth.theta0, g, dense_twin(cov),
                                            noise_of(truth, known)))
            assert_close(fast.r, dense.r)
            assert_close(fast.b_diag, dense.b_diag)
            assert_close(fast.b_chol @ fast.b_chol.T, dense.b_chol @ dense.b_chol.T)
            assert not np.triu(fast.b_chol, 1).any()
            if known:
                assert fast.c is None
                assert_close(fast.log_det_copula, dense.log_det_copula)
                h = ndtr(rng.standard_normal((4, truth.m)))
                assert_close(joint_log_pdf(h, fast), joint_log_pdf(h, dense))
            else:
                assert_close(fast.c, np.diag(dense.c))

    @pytest.mark.parametrize("g", DIAGONAL_GS)
    def test_kl_matches_dense_path(self, g):
        # KL is quadratic in E = F_mis^-1 (F_cor - F_mis), so an absolute error
        # of a few ulps in either side's factor moves it by about
        # |E|_F ulp = sqrt(2 KL) ulp: at g = 1e8 the two paths differ by
        # 6.6e-8 relative, and by at most 1.0e-15 sqrt(2 KL) from g = 1e2 up.
        for _, truth, cov in diagonal_cases():
            noise = noise_of(truth, True)
            law_cor = law_known_var(truth, ModelSpec(truth.theta0, g, truth.sigma1, noise))
            fast = law_known_var(truth, ModelSpec(truth.theta0, g, cov, noise))
            dense = law_known_var(truth, ModelSpec(truth.theta0, g, dense_twin(cov), noise))
            for actual, ref in ((kl_laws(law_cor, fast), kl_laws(law_cor, dense)),
                                (kl_laws(fast, law_cor), kl_laws(dense, law_cor))):
                assert abs(actual - ref) <= RTOL * ref + 1e-13 * np.sqrt(2 * ref)


class TestOneForm:
    @KNOWN
    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    def test_matrices_kept(self, dense, known):
        # A known-variance law keeps L_B as its one m x m matrix. An
        # unknown-variance law keeps none of its own: its one 2-d attribute
        # is the truth's L_V itself, and it refers to its spec, whose A (or
        # diag(A)) its sampler reads. A dense operator keeps A, a diagonal
        # one no matrix at all.
        _, truth, cov = next(diagonal_cases())
        spec = ModelSpec(truth.theta0, 1.0, dense_twin(cov) if dense else cov,
                         noise_of(truth, known))
        law = (law_known_var if known else law_unknown_var)(truth, spec)
        # Reading the derived matrices keeps none of them.
        law.copula, law.p_b, law.b_chol, law.c
        law_matrices = {name: v for name, v in vars(law).items() if np.ndim(v) == 2}
        if known:
            assert law_matrices.keys() == {"_b_chol"}
        else:
            assert law_matrices.keys() == {"v_chol"} and law.v_chol is truth.cov_y_chol
            assert law.spec is spec
        op_matrices = {name for name, v in vars(spec).items() if np.ndim(v) == 2}
        assert op_matrices == ({"a"} if dense else set())
        # The replications factor Sigma_1 for themselves and keep the factor
        # nowhere: the dense Sigma_1 keeps its entries alone, the truth V's
        # factor alone.
        replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(1), 3))
        cov_matrices = {name for name, v in vars(truth.sigma1).items() if np.ndim(v) == 2}
        assert cov_matrices == {"_entries"}
        truth_matrices = {name for name, v in vars(truth).items() if np.ndim(v) == 2}
        assert truth_matrices == {"cov_y_chol"}


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kw: calls.append(name) or original(*args, **kw))
    return calls


class TestNoDenseAlgebra:
    @KNOWN
    def test_operator_and_law_factor_nothing(self, monkeypatch, known):
        _, truth, cov = next(diagonal_cases())
        calls = [count_calls(monkeypatch, module, name)
                 for module, names in ((posterior, ("chol", "chol_inverse")),
                                       (sampdist, ("chol", "chol_inverse", "congruence")))
                 for name in names]
        spec = ModelSpec(truth.theta0, 1.0, cov, noise_of(truth, known))
        (law_known_var if known else law_unknown_var)(truth, spec)
        assert calls == [[]] * 5

    def test_counts_see_the_dense_path(self, monkeypatch):
        # The same counters on the dense twin: they are not vacuous.
        _, truth, cov = next(diagonal_cases())
        factored = count_calls(monkeypatch, posterior, "chol")
        inverted = count_calls(monkeypatch, posterior, "chol_inverse")
        congruences = count_calls(monkeypatch, sampdist, "congruence")
        law_known_var(truth, ModelSpec(truth.theta0, 1.0, dense_twin(cov), noise_of(truth, True)))
        assert (len(factored), len(inverted), len(congruences)) == (1, 1, 1)


class TestErrorParity:
    """The diagonal path rejects exactly what the dense path rejects, with the same error."""

    @KNOWN
    def test_k_not_positive_definite(self, known):
        cov = CovarianceMatrix(np.diag([1.0, -2.0, 1.0]))
        for sigma in (cov, dense_twin(cov)):
            noise = KnownVariance(0.25) if known else UnknownVariance(2.0, 0.5)
            with pytest.raises(NotPositiveDefiniteError):
                ModelSpec(np.zeros(3), 1.0, sigma, noise)

    def test_unknown_variance_nonpositive_entry(self):
        # K = s I + g Sigma_spec is positive definite in either noise mode, but
        # a_11 is negative, or exactly zero for the zero entry, which would
        # make every score of that coordinate NaN.
        for entries in ([1.0, -1e-3, 2.0], [1.0, 0.0, 2.0]):
            cov = CovarianceMatrix(np.diag(entries))
            for sigma in (cov, dense_twin(cov)):
                for noise in (KnownVariance(0.25), UnknownVariance(2.0, 0.5)):
                    with pytest.raises(NotPositiveDefiniteError):
                        ModelSpec(np.zeros(3), 1.0, sigma, noise)


class TestUsesTrueCov:
    """`check_kl_specs` accepts `spec_cor` exactly when the full comparison of
    the entries finds the truth's covariance, diagonal or not."""

    @staticmethod
    def full_comparison(truth, spec):
        return np.allclose(spec.sigma_spec.entries, truth.sigma1.entries, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec_entries, true_entries", [
        (np.eye(4), np.eye(4)),
        (np.eye(4), np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9])),
        (np.eye(4), np.diag([1.0, 1.0, 1.0, 1.0 + 1e-13])),
        (np.eye(4), np.full((4, 4), 0.3) + 0.7 * np.eye(4)),
        (np.full((4, 4), 0.3) + 0.7 * np.eye(4), np.eye(4)),
        # Off-diagonal entries within the tolerance of zero: still the same matrix.
        (np.eye(4), np.eye(4) + 1e-13 * (1.0 - np.eye(4))),
        (np.eye(4) + 1e-13 * (1.0 - np.eye(4)), np.eye(4)),
        # A small superdiagonal, with a large entry elsewhere.
        (np.eye(4), np.eye(4) + 0.2 * (np.eye(4, k=3) + np.eye(4, k=-3))),
    ], ids=["same", "diagonals-differ", "diagonals-within-rounding", "dense-truth",
            "dense-spec", "near-diagonal-truth", "near-diagonal-spec", "far-corner"])
    def test_matches_full_comparison(self, spec_entries, true_entries):
        truth = TrueProcess(np.zeros(4), 0.25, CovarianceMatrix(true_entries))
        spec = ModelSpec(np.zeros(4), 1.0, CovarianceMatrix(spec_entries), KnownVariance(0.25))
        if self.full_comparison(truth, spec):
            check_kl_specs(truth, spec, spec)
        else:
            with pytest.raises(ParameterError, match="true covariance"):
                check_kl_specs(truth, spec, spec)
