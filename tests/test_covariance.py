import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from misfdr.covariance import (
    _distances,
    CovarianceMatrix,
    GridLayout,
    ar2_autocovariance,
    ar2_cov,
    exponential_cov,
    identity_cov,
    separable_cov,
)
from misfdr.errors import NotPositiveDefiniteError, ParameterError
from misfdr.linalg import _mirror_lower, chol, chol_inverse, congruence, square


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
        factor = chol(cov.entries)
        assert np.all(np.diag(factor) > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spacing_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            GridLayout(2, 2, bad)

    @pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0)])
    def test_empty_grid_rejected(self, rows, cols):
        with pytest.raises(ParameterError, match="grid dimensions must be positive"):
            GridLayout(rows, cols)

    @pytest.mark.parametrize("rows, cols", [(2.5, 3), (3, 2.5), (3.0, 3), (3, np.float64(3.0))])
    def test_non_integer_grid_rejected(self, rows, cols):
        with pytest.raises(ParameterError, match="grid dimensions must be positive integers"):
            GridLayout(rows, cols)

    def test_numpy_integer_grid_accepted(self):
        assert GridLayout(np.int64(3), 4).m == 12

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
        gamma = ar2_autocovariance(1.5, -0.9, 40)
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
        gamma = ar2_autocovariance(rho1, rho2, 6)
        for lag in range(6):
            sample = np.mean(x[: n - lag] * x[lag:])
            assert sample == pytest.approx(gamma[lag], rel=0.02)

    def test_recursion_holds_exactly(self):
        gamma = ar2_autocovariance(1.5, -0.9, 30)
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


@pytest.mark.parametrize("build", [identity_cov, lambda m: ar2_cov(m, 0.6, 0.3)],
                         ids=["identity", "ar2"])
def test_nonpositive_dimension_rejected(build):
    with pytest.raises(ParameterError, match="m must be positive"):
        build(0)


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
        chol(cov.entries)

    def test_same_time_block_is_scaled_exponential(self):
        layout = GridLayout(2, 3)
        pts = layout.points()
        delta = 1.7
        cov = separable_cov(pts, [1, 2], delta=delta, range_=4.0, alpha=0.3)
        spatial = exponential_cov(layout, range_=4.0).entries
        np.testing.assert_allclose(cov.entries[:6, :6], delta * spatial)

    def test_time_major_order_of_every_entry(self):
        # Entry (t n_s + i, t' n_s + j) pairs station i at time t with station j
        # at time t'; uneven times and spacing make every factor distinguishable.
        pts = GridLayout(2, 3, spacing=1.5).points()
        times = [0.0, 1.0, 3.0]
        delta, range_, alpha = 1.7, 4.0, 0.6
        cov = separable_cov(pts, times, delta=delta, range_=range_, alpha=alpha)
        n_s = len(pts)
        assert cov.dim == n_s * len(times)
        for (t, time_t), (u, time_u) in product(enumerate(times), repeat=2):
            for i, j in product(range(n_s), repeat=2):
                dist = np.hypot(*(pts[i] - pts[j]))
                expected = delta * np.exp(-dist / range_) * alpha ** abs(time_t - time_u)
                assert cov.entries[t * n_s + i, u * n_s + j] == pytest.approx(expected, rel=1e-14)

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

    @pytest.mark.parametrize("locations", [[0.0, 1.0, 2.0], 1.0, np.zeros((2, 3, 2))],
                             ids=["1-d", "0-d", "3-d"])
    def test_locations_must_be_one_station_per_row(self, locations):
        # A 1-d list is not one station in len(list) dimensions.
        with pytest.raises(ParameterError, match=r"locations must be an \(n, d\) array"):
            separable_cov(locations, [1.0, 2.0], delta=1.0, range_=2.0, alpha=0.5)


def scipy_distances(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return squareform(pdist(points)) if len(points) > 1 else np.zeros((1, 1))


class TestDistancesMatchScipy:
    """The kernels form their distance matrices without `scipy.spatial`; every
    entry must be the one `squareform(pdist(...))` gives, bit for bit."""

    @pytest.mark.parametrize(
        "layout",
        [(30, 30, 1.0), (10, 10, 1.0), (7, 3, 0.37), (13, 11, np.pi), (1, 5, 1.0), (1, 1, 1.0)],
        ids=str,
    )
    @pytest.mark.parametrize("range_", [0.7, 5.0])
    def test_exponential_entries(self, layout, range_):
        grid = GridLayout(*layout)
        expected = np.exp(-scipy_distances(grid.points()) / range_)
        np.testing.assert_array_equal(exponential_cov(grid, range_).entries, expected)

    @pytest.mark.parametrize("layout", [(30, 30, 1.0), (7, 11, 0.1), (10, 10, 0.37)], ids=str)
    @pytest.mark.parametrize("range_", [0.1, 5.0, 20.0])
    def test_grid_kernel_is_the_kernel_of_its_distances(self, layout, range_):
        # The grid kernel sums row and column offsets without a distance
        # matrix; the free-location path `_distances` must give the same bits.
        grid = GridLayout(*layout)
        expected = np.exp(-_distances(grid.points()) / range_)
        np.testing.assert_array_equal(exponential_cov(grid, range_).entries, expected)

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_separable_entries_at_random_stations(self, dim):
        rng = np.random.default_rng(dim)
        locations = rng.uniform(-3.0, 3.0, size=(6, dim))
        times = np.array([0.0, 1.0, 2.5])
        spatial = np.exp(-scipy_distances(locations) / 1.7)
        temporal = 0.6 ** np.abs(times[:, None] - times[None, :])
        expected = 2.0 * np.kron(temporal, spatial)
        cov = separable_cov(locations, times, delta=2.0, range_=1.7, alpha=0.6)
        np.testing.assert_array_equal(cov.entries, expected)

    def test_single_station(self):
        cov = separable_cov([[0.3, 0.4]], [0.0, 1.0], delta=1.0, range_=2.0, alpha=0.5)
        np.testing.assert_array_equal(cov.entries, [[1.0, 0.5], [0.5, 1.0]])


def test_cli_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial costs tens of milliseconds at every process start, and
    # nothing in the package needs it.
    code = "import misfdr.cli, sys; print('scipy.spatial' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.stdout.strip() == "False"


class TestCholesky:
    def test_identity_factor(self):
        np.testing.assert_array_equal(chol(identity_cov(3).entries), np.eye(3))

    def test_closed_form_2x2(self):
        cov = CovarianceMatrix([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        np.testing.assert_allclose(chol(cov.entries), expected)

    def test_reconstruction(self):
        cov = exponential_cov(GridLayout(10, 10), range_=5.0)
        factor = chol(cov.entries)
        err = np.linalg.norm(factor @ factor.T - cov.entries)
        assert err / np.linalg.norm(cov.entries) < 1e-8

    def test_not_positive_definite(self):
        cov = CovarianceMatrix([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            chol(cov.entries)

    def test_singular_psd_refused(self):
        # Positive semidefinite with a zero pivot: refused, not ridged.
        with pytest.raises(NotPositiveDefiniteError):
            chol(np.ones((3, 3)))


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


class TestSquare:
    def test_matches_general_product(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m = int(rng.integers(2, 51))
            raw = rng.standard_normal((m, m))
            p = chol_inverse(np.linalg.cholesky(raw @ raw.T + m * np.eye(m)))
            got = square(p)
            np.testing.assert_allclose(got, p @ p, rtol=1e-12)
            np.testing.assert_array_equal(got, got.T)
            assert got.flags.c_contiguous


def mirror_by_column(sym):
    """The column-at-a-time mirror `linalg._mirror_lower` replaced."""
    for i in range(1, sym.shape[0]):
        sym[:i, i] = sym[i, :i]
    return sym.T


class TestMirrorLower:
    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 130, 900])
    def test_matches_column_loop_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        lower = np.tril(rng.standard_normal((m, m)))
        # NaN above the diagonal: any entry the mirror misses stays NaN.
        sym = np.asfortranarray(lower + np.triu(np.full((m, m), np.nan), 1))
        expected = mirror_by_column(sym.copy(order="F"))
        got = _mirror_lower(sym)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.tril(got), lower)
        assert got.flags.c_contiguous and np.shares_memory(got, sym)

    def test_no_square_temporary(self):
        m = 900
        sym = np.asfortranarray(np.random.default_rng(0).standard_normal((m, m)))
        tracemalloc.start()
        try:
            _mirror_lower(sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 / 8


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

    @pytest.mark.parametrize("cov, diagonal", [
        (identity_cov(1), True),
        (identity_cov(5), True),
        (CovarianceMatrix(np.diag([2.0, 0.5, 3.0])), True),
        (CovarianceMatrix([[2.0]]), True),
        (exponential_cov(GridLayout(3, 3), 5.0), False),
        # exp(-1 / 1e-3) underflows to 0.0: the entries are diagonal.
        (exponential_cov(GridLayout(3, 3), 1e-3), True),
        (CovarianceMatrix([[1.0, 1e-300], [1e-300, 1.0]]), False),
        (CovarianceMatrix([[0.0, 0.5], [0.5, 1.0]]), False),
    ], ids=["identity-1", "identity-5", "heteroscedastic", "scalar", "exponential",
            "underflowed-exponential", "tiny-off-diagonal", "zero-diagonal-entry"])
    def test_is_diagonal_read_from_entries(self, cov, diagonal):
        assert cov.is_diagonal is diagonal

    def test_holds_only_its_entries_and_what_they_fix(self):
        # A diagonal matrix keeps its variances and no m x m array; a dense
        # one keeps its entries, and its variances are their diagonal's view.
        for cov in (identity_cov(3), CovarianceMatrix(np.diag([2.0, 0.5, 3.0]))):
            assert set(vars(cov)) == {"variances", "_entries"}
            assert cov._entries is None and cov.variances.shape == (3,)
        dense = exponential_cov(GridLayout(2, 2), 1.0)
        assert dense._entries.shape == (4, 4)
        assert np.shares_memory(dense.variances, dense._entries)

    @pytest.mark.parametrize("cov", [identity_cov(4), CovarianceMatrix(np.diag([2.0, 0.5, 3.0])),
                                     exponential_cov(GridLayout(3, 3), 1e-3)],
                             ids=["identity", "heteroscedastic", "underflowed-exponential"])
    def test_diagonal_entries_formed_anew_on_each_read(self, cov):
        first, second = cov.entries, cov.entries
        np.testing.assert_array_equal(first, np.diag(cov.variances), strict=True)
        assert not first.flags.writeable
        assert first is not second and not np.shares_memory(first, second)

    @pytest.mark.parametrize("cov", [exponential_cov(GridLayout(3, 3), 5.0), ar2_cov(6, 0.6, 0.3),
                                     CovarianceMatrix([[1.0, 1e-300], [1e-300, 2.0]])],
                             ids=["exponential", "ar2", "tiny-off-diagonal"])
    def test_dense_variances_are_the_diagonal(self, cov):
        np.testing.assert_array_equal(cov.variances, cov.entries.diagonal(), strict=True)
        assert not cov.variances.flags.writeable
        assert cov.entries is cov.entries

    def test_from_variances_is_the_diagonal_matrix(self):
        d = [2.0, 0.5, 3.0]
        cov, built = CovarianceMatrix.from_variances(d), CovarianceMatrix(np.diag(d))
        assert cov.is_diagonal and cov.dim == 3
        np.testing.assert_array_equal(cov.variances, built.variances, strict=True)
        np.testing.assert_array_equal(cov.entries, built.entries, strict=True)
        with pytest.raises(ValueError):
            cov.variances[0] = 1.0

    @pytest.mark.parametrize("bad, message", [
        ([], "nonempty vector"), (np.eye(2), "nonempty vector"), ([1.0, np.nan], "finite"),
        ([1.0, np.inf], "finite"),
    ], ids=["empty", "square", "nan", "inf"])
    def test_from_variances_refuses(self, bad, message):
        with pytest.raises(ParameterError, match=message):
            CovarianceMatrix.from_variances(bad)

    def test_entries_are_immutable(self):
        cov = identity_cov(2)
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 2.0
