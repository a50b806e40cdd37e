"""`linalg.chol` and `linalg.chol_inverse` on scipy's LAPACK: pinned to
numpy.linalg to rounding, refusing what has no factor, writing over their
input only where the caller allows it, and the m x m footprint of the three
call sites that factor in place."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from misfdr import sampdist
from misfdr.covariance import CovarianceMatrix, GridLayout, exponential_cov, identity_cov
from misfdr.errors import NotPositiveDefiniteError
from misfdr.linalg import chol, chol_inverse, congruence
from misfdr.posterior import KnownVariance, ModelSpec, TrueProcess, UnknownVariance
from misfdr.sampdist import law_known_var, law_unknown_var
from misfdr.simulation import build_cov, builtin_example, run_sweep, sweep_spec, sweep_truth

EPS = np.finfo(float).eps


def random_spd(rng, m):
    raw = rng.standard_normal((m, m))
    return raw @ raw.T + m * np.eye(m)


def study_matrices():
    """(name, matrix) for K = s I + g Sigma_spec and B = S V S' of every dense
    spec at every point of the desk studies 1-3."""
    for which in (1, 2, 3):
        config = builtin_example(which, "desk")
        for value in config.sweep_values:
            point = config.at(value)
            truth = sweep_truth(point, build_cov(point.truth_kernel, point.m, point.grid))
            for cov in (truth.sigma1, build_cov(point.mis_kernel, point.m, point.grid)):
                if cov.is_diagonal:
                    continue
                spec = sweep_spec(point, cov, point.g)
                k = point.g * cov.entries + point.sigma0_sq * np.eye(point.m)
                b = congruence(spec.a, truth.cov_y_chol, 1.0 / spec.scale)
                yield f"study{which}-{value}", k
                yield f"study{which}-{value}", b


def random_matrices():
    rng = np.random.default_rng(2024)
    for m in [1, 2, 3, *rng.integers(4, 61, size=17)]:
        yield f"random-{m}", random_spd(rng, int(m))


CASES = [*random_matrices(), *study_matrices()]


def assert_close_to_rounding(got, expected, a):
    """Entrywise within 8 eps cond(a) of the largest entry: the forward error
    bound shared by any two backward-stable Cholesky factors or inverses."""
    tol = 8 * EPS * np.linalg.cond(a) * np.abs(expected).max()
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


class TestAgainstNumpy:
    @pytest.mark.parametrize("a", [a for _, a in CASES], ids=[name for name, _ in CASES])
    def test_factor_and_inverse(self, a):
        factor = chol(a)
        assert factor.flags.c_contiguous
        np.testing.assert_array_equal(np.triu(factor, 1), 0.0)
        assert_close_to_rounding(factor, np.linalg.cholesky(a), a)
        # Backward stable whatever the conditioning: L L' is a to rounding.
        np.testing.assert_allclose(factor @ factor.T, a, rtol=0,
                                   atol=8 * a.shape[0] * EPS * np.abs(a).max())
        inverse = chol_inverse(factor)
        assert inverse.flags.c_contiguous
        np.testing.assert_array_equal(inverse, inverse.T)
        assert_close_to_rounding(inverse, np.linalg.inv(a), a)

    def test_study_cases_cover_k_and_b_of_each_study(self):
        names = [name for name, _ in CASES if name.startswith("study")]
        assert {name.partition("-")[0] for name in names} == {"study1", "study2", "study3"}
        # Study 1's one dense spec is the correct one: K and B at each of 6 g.
        assert sum(name.startswith("study1-") for name in names) == 2 * 6


class TestRefusal:
    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("a", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.ones((3, 3)),
        np.diag([1.0, 1.0, np.nan, 1.0]),
        np.diag([1.0, np.inf, 1.0]),
        np.array([[1.0, 0.0], [np.nan, 1.0]]),
    ], ids=["indefinite", "singular-psd", "nan-pivot", "inf-pivot", "nan-below-diagonal"])
    def test_no_factor_refused(self, a, overwrite):
        # LAPACK potrf reports success on a NaN pivot: the check of the
        # factor's diagonal refuses it.
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            chol(a.copy(), overwrite=overwrite)

    def test_singular_factor_refused_in_place(self):
        with pytest.raises(NotPositiveDefiniteError, match="singular"):
            chol_inverse(np.array([[1.0, 0.0], [1.0, 0.0]]), overwrite=True)


class TestOverwrite:
    def test_in_place_results_share_the_input(self):
        a = random_spd(np.random.default_rng(7), 40)
        expected = np.linalg.inv(a)
        buffer = a.copy()
        factor = chol(buffer, overwrite=True)
        assert np.shares_memory(factor, buffer) and factor.flags.c_contiguous
        np.testing.assert_array_equal(factor, buffer)
        inverse = chol_inverse(factor, overwrite=True)
        assert np.shares_memory(inverse, buffer) and inverse.flags.c_contiguous
        np.testing.assert_allclose(inverse, expected, rtol=1e-12, atol=0)

    def test_default_leaves_the_input(self):
        a = random_spd(np.random.default_rng(8), 40)
        before = a.copy()
        factor = chol(a)
        np.testing.assert_array_equal(a, before)
        factor_before = factor.copy()
        inverse = chol_inverse(factor)
        np.testing.assert_array_equal(factor, factor_before)
        assert not np.shares_memory(factor, a) and not np.shares_memory(inverse, factor)

    @pytest.mark.parametrize("make", [
        lambda a: a.copy(order="F")[:, :-1][:-1],
        lambda a: np.asfortranarray(a),
        lambda a: a.astype(np.float32),
        lambda a: CovarianceMatrix(a).entries,
    ], ids=["strided", "fortran", "float32", "read-only"])
    @pytest.mark.parametrize("routine", [chol, chol_inverse])
    def test_refused_unless_writable_c_float64(self, make, routine):
        # LAPACK would write over a read-only array: f2py ignores `writeable`.
        a = make(random_spd(np.random.default_rng(9), 6))
        before = a.copy()
        with pytest.raises(ValueError, match="writable, C-contiguous float64"):
            routine(a, overwrite=True)
        np.testing.assert_array_equal(a, before)


def covariances_built(monkeypatch):
    """(matrix, copy of its entries) for every CovarianceMatrix built from now
    on, from entries or from variances: both constructors end in `_keep`."""
    built = []
    keep = CovarianceMatrix._keep

    def recording_keep(self, variances, entries):
        keep(self, variances, entries)
        built.append((self, self.entries.copy()))

    monkeypatch.setattr(CovarianceMatrix, "_keep", recording_keep)
    return built


class TestCovariancesUnchanged:
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_desk_sweep(self, monkeypatch, which):
        built = covariances_built(monkeypatch)
        run_sweep(replace(builtin_example(which, "desk"), n_reps=50))
        assert len(built) >= 2
        for cov, entries in built:
            np.testing.assert_array_equal(cov.entries, entries, strict=True)

    def test_law_unknown_var_on_a_dense_spec(self, monkeypatch):
        built = covariances_built(monkeypatch)
        sigma1 = exponential_cov(GridLayout(6, 6), 5.0)
        truth = TrueProcess(np.zeros(36), 0.25, sigma1)
        spec = ModelSpec(truth.theta0, 2.0, exponential_cov(GridLayout(6, 6), 2.0),
                         UnknownVariance(2.0, 0.5))
        law_unknown_var(truth, spec)
        assert len(built) == 2
        for cov, entries in built:
            np.testing.assert_array_equal(cov.entries, entries, strict=True)


M = 200
SQUARE_BYTES = M * M * 8
# A diagonal M x M input, built outside any traced call.
DIAGONAL = np.diag(np.linspace(0.5, 2.0, M))


def traced(call):
    """(result, bytes kept, peak bytes) of `call()`, counting only what it
    allocates: kept is what is still traced when it returns."""
    tracemalloc.start()
    try:
        result = call()
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


class TestSquareFootprint:
    """Peak m x m arrays beyond the inputs, at m = 200 (vectors are m floats)."""

    @pytest.fixture(scope="class")
    def setup(self):
        layout = GridLayout(10, 20)
        return (TrueProcess(np.zeros(M), 0.25, exponential_cov(layout, 5.0)),
                exponential_cov(layout, 2.0))

    def test_truth_factors_v_in_its_copy(self, setup):
        truth, _ = setup
        _, _, peak = traced(lambda: TrueProcess(truth.theta0, 0.25, truth.sigma1))
        assert peak < 1.5 * SQUARE_BYTES

    @pytest.mark.parametrize("noise", [KnownVariance(0.25), UnknownVariance(2.0, 0.5)],
                             ids=["known", "unknown"])
    def test_spec_builds_k_its_factor_and_a_in_one_buffer(self, setup, noise):
        truth, cov = setup
        spec, _, peak = traced(lambda: ModelSpec(truth.theta0, 1.0, cov, noise))
        assert spec.a.shape == (M, M)
        assert peak < 1.5 * SQUARE_BYTES

    def test_known_law_holds_w_and_b_then_factors_b_in_place(self, setup, monkeypatch):
        truth, cov = setup
        spec = ModelSpec(truth.theta0, 1.0, cov, KnownVariance(0.25))
        # From the moment B exists, the law allocates no second m x m array.
        after_b = []
        form_b = sampdist.congruence

        def formed(*args):
            b = form_b(*args)
            tracemalloc.reset_peak()
            after_b.append(tracemalloc.get_traced_memory()[0])
            return b

        monkeypatch.setattr(sampdist, "congruence", formed)
        tracemalloc.start()
        try:
            law = law_known_var(truth, spec)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert law.b_chol.shape == (M, M) and len(after_b) == 1
        assert after_b[0] > 0.9 * SQUARE_BYTES
        assert peak < after_b[0] + 0.5 * SQUARE_BYTES
        _, _, whole = traced(lambda: law_known_var(truth, spec))
        assert whole < 2.5 * SQUARE_BYTES

    @pytest.mark.parametrize("build", [lambda: identity_cov(M),
                                       lambda: CovarianceMatrix(DIAGONAL)],
                             ids=["identity", "diagonal-entries"])
    def test_diagonal_covariance_keeps_no_square(self, build):
        cov, kept, _ = traced(build)
        assert cov.is_diagonal and kept < 0.1 * SQUARE_BYTES

    def test_identity_built_without_a_square(self):
        _, _, peak = traced(lambda: identity_cov(M))
        assert peak < 0.1 * SQUARE_BYTES

    @pytest.mark.parametrize("noise", [KnownVariance(0.25), UnknownVariance(2.0, 0.5)],
                             ids=["known", "unknown"])
    def test_diagonal_spec_keeps_no_square(self, setup, noise):
        truth, _ = setup
        cov = identity_cov(M)
        spec, kept, _ = traced(lambda: ModelSpec(truth.theta0, 1.0, cov, noise))
        assert spec.diagonal and kept < 0.1 * SQUARE_BYTES

    def test_diagonal_law_allocates_only_its_factor(self, setup):
        truth, _ = setup
        spec = ModelSpec(truth.theta0, 1.0, identity_cov(M), KnownVariance(0.25))
        law, kept, peak = traced(lambda: law_known_var(truth, spec))
        assert law.b_chol.shape == (M, M)
        assert 0.9 * SQUARE_BYTES < kept and peak < 1.5 * SQUARE_BYTES
