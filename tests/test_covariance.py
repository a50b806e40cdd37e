import numpy as np
import pytest

from misfdr.covariance import (
    CovarianceMatrix,
    GridLayout,
    ar2_autocovariance,
    ar2_cov,
    exponential_cov,
    identity_cov,
    separable_cov,
)
from misfdr.errors import NotPositiveDefiniteError, ParameterError
from misfdr.linalg import chol_inverse, congruence


class TestExponential:
    def test_single_point(self):
        cov = exponential_cov(GridLayout(1, 1), range_=3.0)
        np.testing.assert_allclose(cov.entries, [[1.0]])

    def test_two_points_unit_spacing(self):
        cov = exponential_cov(GridLayout(1, 2), range_=5.0)
        assert cov.entries[0, 1] == pytest.approx(np.exp(-0.2))
        assert np.all(np.diag(cov.entries) == 1.0)

    def test_full_grid_is_positive_definite(self):
        cov = exponential_cov(GridLayout(30, 30), range_=5.0)
        assert cov.dim == 900
        factor = cov.chol
        assert np.all(np.diag(factor) > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spacing_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            GridLayout(2, 2, bad)

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ParameterError):
            exponential_cov(GridLayout(2, 2), range_=0.0)

    def test_grid_transpose_is_a_consistent_permutation(self):
        a = exponential_cov(GridLayout(3, 4), range_=2.0).entries
        b = exponential_cov(GridLayout(4, 3), range_=2.0).entries
        # transposing the grid maps point (i, j) -> (j, i)
        perm = np.array([j * 3 + i for i in range(3) for j in range(4)])
        np.testing.assert_allclose(a, b[np.ix_(perm, perm)], atol=1e-15)


class TestAR2:
    def test_white_noise_is_identity(self):
        cov = ar2_cov(3, 0.0, 0.0)
        np.testing.assert_allclose(cov.entries, np.eye(3))

    def test_oscillating_autocorrelation(self):
        gamma = ar2_autocovariance(1.5, -0.9, 1.0, 40)
        signs = np.sign(gamma)
        assert np.any(signs > 0) and np.any(signs < 0)
        # sign changes recur throughout the sequence, not just once
        flips = np.count_nonzero(np.diff(signs) != 0)
        assert flips >= 5

    def test_positive_autocorrelation_case(self):
        cov = ar2_cov(50, 0.6, 0.3)
        assert np.all(cov.entries > 0)

    def test_against_long_simulated_path(self):
        # independent oracle: sample autocovariance of a 1e6-length path
        rng = np.random.default_rng(1234)
        rho1, rho2, n = 0.6, 0.3, 1_000_000
        eps = rng.standard_normal(n + 500)
        x = np.zeros(n + 500)
        for i in range(2, n + 500):
            x[i] = rho1 * x[i - 1] + rho2 * x[i - 2] + eps[i]
        x = x[500:]
        gamma = ar2_autocovariance(rho1, rho2, 1.0, 6)
        for lag in range(6):
            sample = np.mean(x[: n - lag] * x[lag:])
            assert sample == pytest.approx(gamma[lag], rel=0.02)

    def test_recursion_holds_exactly(self):
        gamma = ar2_autocovariance(1.5, -0.9, 1.0, 30)
        for k in range(2, 30):
            assert gamma[k] == pytest.approx(
                1.5 * gamma[k - 1] - 0.9 * gamma[k - 2], abs=1e-12
            )

    def test_normalize_gives_unit_diagonal(self):
        cov = ar2_cov(10, 1.5, -0.9, normalize=True)
        np.testing.assert_allclose(np.diag(cov.entries), 1.0)

    @pytest.mark.parametrize(
        "rho1,rho2,fragment",
        [(0.7, 0.4, "rho1 + rho2"), (-0.5, 0.6, "rho2 - rho1"), (0.0, -1.0, "|rho2|")],
    )
    def test_nonstationary_rejected_naming_condition(self, rho1, rho2, fragment):
        import re

        with pytest.raises(ParameterError, match=re.escape(fragment)):
            ar2_cov(5, rho1, rho2)


class TestIdentity:
    @pytest.mark.parametrize("m", [1, 3, 900])
    def test_identity(self, m):
        cov = identity_cov(m)
        np.testing.assert_array_equal(cov.entries, np.eye(m))


class TestSeparable:
    def test_single_point_single_time(self):
        cov = separable_cov([[0.0, 0.0]], [1], delta=2.5, range_=1.0, alpha=0.5)
        np.testing.assert_allclose(cov.entries, [[2.5]])

    def test_identical_locations_adjacent_times(self):
        cov = separable_cov(
            [[0.0, 0.0], [0.0, 0.0]], [1, 2], delta=1.0, range_=3.0, alpha=0.7
        )
        # time-major ordering: entries (0, 2) and (1, 3) pair a station with itself
        assert cov.entries[0, 2] == pytest.approx(0.7)

    def test_station_grid_is_positive_definite(self):
        pts = GridLayout(2, 2).points()
        cov = separable_cov(pts, [1, 2, 3], delta=1.0, range_=5.0, alpha=0.5)
        assert cov.dim == 12
        cov.chol

    def test_same_time_block_is_scaled_exponential(self):
        layout = GridLayout(2, 3)
        pts = layout.points()
        delta = 1.7
        cov = separable_cov(pts, [1, 2], delta=delta, range_=4.0, alpha=0.3)
        spatial = exponential_cov(layout, range_=4.0).entries
        np.testing.assert_allclose(cov.entries[:6, :6], delta * spatial)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0, "range_": 1.0, "alpha": 0.5},
            {"delta": 1.0, "range_": -1.0, "alpha": 0.5},
            {"delta": 1.0, "range_": 1.0, "alpha": 1.0},
            {"delta": 1.0, "range_": 1.0, "alpha": 0.0},
        ],
    )
    def test_parameter_domains(self, kwargs):
        with pytest.raises(ParameterError):
            separable_cov([[0.0, 0.0]], [1], **kwargs)


class TestCholesky:
    def test_identity_factor(self):
        np.testing.assert_array_equal(identity_cov(3).chol, np.eye(3))

    def test_closed_form_2x2(self):
        cov = CovarianceMatrix([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        np.testing.assert_allclose(cov.chol, expected)

    def test_reconstruction(self):
        cov = exponential_cov(GridLayout(10, 10), range_=5.0)
        factor = cov.chol
        err = np.linalg.norm(factor @ factor.T - cov.entries)
        assert err / np.linalg.norm(cov.entries) < 1e-8

    def test_not_positive_definite(self):
        cov = CovarianceMatrix([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            cov.chol

    def test_no_jitter_needed_on_clean_matrix(self):
        cov = exponential_cov(GridLayout(3, 3), range_=1.0)
        cov.chol
        assert cov.jitter == 0.0


class TestCholInverse:
    def test_matches_dense_inverse(self):
        # random SPD matrices drawn as in acceptance criterion 8
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m = int(rng.integers(2, 51))
            raw = rng.standard_normal((m, m))
            a = raw @ raw.T + m * np.eye(m)
            inv = chol_inverse(np.linalg.cholesky(a))
            np.testing.assert_allclose(inv, np.linalg.inv(a), rtol=1e-10, atol=0)
            np.testing.assert_array_equal(inv, inv.T)

    def test_singular_factor_rejected(self):
        with pytest.raises(NotPositiveDefiniteError, match="singular"):
            chol_inverse(np.array([[1.0, 0.0], [1.0, 0.0]]))


class TestCongruence:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m = int(rng.integers(2, 51))
            raw = rng.standard_normal((m, m))
            v = raw @ raw.T + m * np.eye(m)
            a = rng.standard_normal((m, m))
            got = congruence(a, np.linalg.cholesky(v), 0.5)
            np.testing.assert_allclose(got, 0.25 * a @ v @ a.T, rtol=0, atol=1e-12 * np.abs(got).max())
            np.testing.assert_array_equal(got, got.T)
            assert got.flags.c_contiguous


class TestCovarianceMatrix:
    def test_asymmetry_rejected(self):
        with pytest.raises(ParameterError):
            CovarianceMatrix([[1.0, 0.3], [0.2, 1.0]])

    @pytest.mark.parametrize("entries", [np.zeros((0, 0)), np.zeros((2, 3))], ids=["empty", "wide"])
    def test_non_square_or_empty_rejected(self, entries):
        with pytest.raises(ParameterError, match="nonempty square"):
            CovarianceMatrix(entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_non_finite_entries_rejected(self, bad, where):
        entries = np.eye(2)
        if where == "diagonal":
            entries[0, 0] = bad
        else:
            entries[0, 1] = entries[1, 0] = bad
        with pytest.raises(ParameterError, match="finite"):
            CovarianceMatrix(entries)

    def test_gross_asymmetry_rejected_at_kernel_size(self):
        entries = exponential_cov(GridLayout(6, 6), 2.0).entries.copy()
        entries[0, 5] += 1e-3
        with pytest.raises(ParameterError, match="not symmetric"):
            CovarianceMatrix(entries)

    def test_exactly_symmetric_entries_kept_bit_for_bit(self):
        kernel = exponential_cov(GridLayout(6, 6), 2.0).entries
        assert np.array_equal(kernel, kernel.T)
        np.testing.assert_array_equal(CovarianceMatrix(kernel).entries, kernel)

    def test_rounding_asymmetry_symmetrized(self):
        entries = np.array([[1.0, 0.3], [0.3 + 1e-14, 1.0]])
        cov = CovarianceMatrix(entries)
        np.testing.assert_array_equal(cov.entries, cov.entries.T)
        assert cov.entries[0, 1] == 0.5 * (0.3 + (0.3 + 1e-14))

    def test_entries_are_immutable(self):
        cov = identity_cov(2)
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 2.0
