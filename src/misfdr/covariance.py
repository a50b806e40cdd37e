"""Structured covariance matrices used as truth and as (mis)specification.

Constructors cover the kernels exercised in the numerical studies: an
exponential spatial kernel on a regular grid, stationary AR(2) autocovariance,
the identity, and a separable space-time product kernel. Matrices are
immutable values and keep no factor: a `TrueProcess` or a `ModelSpec` that
needs one builds it on construction with `linalg.chol`, which refuses a
matrix that is not positive definite rather than ridging it. Whether a
matrix is diagonal is read from its entries on construction, and it picks
both the storage and the algebra: a diagonal matrix keeps only its m
variances, and the posterior and the sampling law of a diagonal
specification are closed form in them. The identity is built from a vector
(`CovarianceMatrix.from_variances`), so building it forms no m x m array.
The kernels a config names are the table `simulation.KERNELS`, which
calls these constructors by name.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .errors import ParameterError

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class GridLayout:
    """Regular rows x cols spatial grid with constant spacing."""

    rows: int
    cols: int
    spacing: float = 1.0

    def __post_init__(self) -> None:
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (self.rows, self.cols)):
            raise ParameterError("grid dimensions must be positive integers")
        if not 0 < self.spacing < np.inf:
            raise ParameterError("grid spacing must be positive and finite")

    @property
    def m(self) -> int:
        return self.rows * self.cols

    def points(self) -> np.ndarray:
        """(m, 2) coordinates in row-major order."""
        rr, cc = np.meshgrid(
            np.arange(self.rows), np.arange(self.cols), indexing="ij"
        )
        return self.spacing * np.column_stack([rr.ravel(), cc.ravel()]).astype(float)


class CovarianceMatrix:
    """Symmetric matrix: its `entries`, its diagonal `variances`, `dim` and
    `is_diagonal`.

    Immutable after construction. Positive definiteness is certified by
    whoever factors the entries (`linalg.chol`).
    `is_diagonal` is True when every off-diagonal entry is zero. A diagonal
    matrix keeps its variances alone, m floats: its `entries` are formed
    from them on each read, a fresh read-only array, so a spec and its law
    read its variances instead. A dense matrix keeps its entries, and its
    `variances` are a view of their diagonal. `dim` and `is_diagonal` are
    read from what is kept.
    """

    def __init__(self, entries):
        entries = np.array(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
            raise ParameterError("covariance must be a nonempty square matrix")
        # NaN fails both symmetry tests below, so finiteness is checked first.
        if not np.isfinite(entries).all():
            raise ParameterError("covariance entries must be finite")
        # Kernels are symmetric by construction: only a matrix that is not
        # exactly so is checked and symmetrized.
        if not np.array_equal(entries, entries.T):
            scale = max(1.0, float(np.abs(entries).max()))
            if np.abs(entries - entries.T).max() > SYMMETRY_RTOL * scale:
                raise ParameterError("covariance is not symmetric")
            entries = 0.5 * (entries + entries.T)
        # No off-diagonal entry is nonzero: one pass over the entries.
        if np.count_nonzero(entries) == np.count_nonzero(entries.diagonal()):
            self._keep(entries.diagonal().copy(), None)
        else:
            entries.setflags(write=False)
            self._keep(entries.diagonal(), entries)

    @classmethod
    def from_variances(cls, variances) -> CovarianceMatrix:
        """The diagonal matrix diag(variances), built and kept as its m
        variances: no m x m array is formed."""
        variances = np.array(variances, dtype=float)
        if variances.ndim != 1 or variances.size == 0:
            raise ParameterError("variances must be a nonempty vector")
        if not np.isfinite(variances).all():
            raise ParameterError("covariance entries must be finite")
        cov = cls.__new__(cls)
        cov._keep(variances, None)
        return cov

    def _keep(self, variances: np.ndarray, entries: np.ndarray | None) -> None:
        """Keep the variances and, unless the matrix is diagonal, its entries."""
        variances.setflags(write=False)
        self.variances, self._entries = variances, entries

    @property
    def dim(self) -> int:
        return self.variances.shape[0]

    @property
    def is_diagonal(self) -> bool:
        """Whether every off-diagonal entry is zero: no entries are kept."""
        return self._entries is None

    @property
    def entries(self) -> np.ndarray:
        """The m x m entries: those kept, or diag(variances) formed anew."""
        if self._entries is not None:
            return self._entries
        entries = np.diag(self.variances)
        entries.setflags(write=False)
        return entries

    def __repr__(self) -> str:
        return f"CovarianceMatrix(dim={self.dim}, is_diagonal={self.is_diagonal})"


def _distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of an (n, d) array, bit for bit as
    scipy's `squareform(pdist(points))`: squares summed coordinate by coordinate."""
    squared = np.zeros((len(points), len(points)))
    for coord in points.T:
        diff = coord[:, None] - coord[None, :]
        diff *= diff
        squared += diff
    return np.sqrt(squared, out=squared)


def exponential_cov(layout: GridLayout, range_: float) -> CovarianceMatrix:
    """exp(-d/range) kernel on a regular grid, row-major point order.

    The squared distance between points (i, j) and (k, l) is the squared row
    offset of (i, k) plus the squared column offset of (j, l): both small
    tables are broadcast into one m x m array, with the subtraction and the
    order of the sum of `_distances`, so every entry is the same bit for bit.
    """
    if range_ <= 0:
        raise ParameterError("range must be positive")
    points = layout.points()
    rows, cols = (coord[:, None] - coord[None, :]
                  for coord in (points[::layout.cols, 0], points[:layout.cols, 1]))
    rows *= rows
    cols *= cols
    kernel = (rows[:, None, :, None] + cols[None, :, None, :]).reshape(layout.m, layout.m)
    np.sqrt(kernel, out=kernel)
    np.negative(kernel, out=kernel)
    kernel /= range_
    return CovarianceMatrix(np.exp(kernel, out=kernel))


def ar2_autocovariance(rho1: float, rho2: float, n_lags: int) -> np.ndarray:
    """Stationary AR(2) autocovariance gamma(0..n_lags-1) under unit innovation
    variance, Yule-Walker form."""
    _check_ar2_stationary(rho1, rho2)
    gamma = np.empty(max(n_lags, 2))
    gamma[0] = (1 - rho2) / ((1 + rho2) * ((1 - rho2) ** 2 - rho1**2))
    gamma[1] = rho1 * gamma[0] / (1 - rho2)
    for k in range(2, n_lags):
        gamma[k] = rho1 * gamma[k - 1] + rho2 * gamma[k - 2]
    return gamma[:n_lags]


def _check_ar2_stationary(rho1: float, rho2: float) -> None:
    if rho1 + rho2 >= 1:
        raise ParameterError(f"nonstationary AR(2): rho1 + rho2 = {rho1 + rho2} >= 1")
    if rho2 - rho1 >= 1:
        raise ParameterError(f"nonstationary AR(2): rho2 - rho1 = {rho2 - rho1} >= 1")
    if abs(rho2) >= 1:
        raise ParameterError(f"nonstationary AR(2): |rho2| = {abs(rho2)} >= 1")


def ar2_cov(m: int, rho1: float, rho2: float, normalize: bool = False) -> CovarianceMatrix:
    """Toeplitz covariance of a stationary AR(2) series of length m, with unit
    innovation variance.

    With normalize=True the matrix is rescaled to unit diagonal (a
    correlation matrix); the default is the raw Yule-Walker autocovariance.
    """
    if m < 1:
        raise ParameterError("m must be positive")
    gamma = ar2_autocovariance(rho1, rho2, m)
    if normalize:
        gamma = gamma / gamma[0]
    return CovarianceMatrix(toeplitz(gamma))


def identity_cov(m: int) -> CovarianceMatrix:
    if m < 1:
        raise ParameterError("m must be positive")
    return CovarianceMatrix.from_variances(np.ones(m))


def separable_cov(
    locations,
    times,
    delta: float,
    range_: float,
    alpha: float,
) -> CovarianceMatrix:
    """Separable space-time kernel delta * exp(-d/range) * alpha^|t-t'|.

    Index order is time-major: all stations at the first time, then all
    stations at the second, and so on. Downstream A/B matrices depend on
    this ordering being consistent.
    """
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if range_ <= 0:
        raise ParameterError("range must be positive")
    if not 0 < alpha < 1:
        raise ParameterError("alpha must lie in (0, 1)")
    locations = np.asarray(locations, dtype=float)
    if locations.ndim != 2:
        raise ParameterError("locations must be an (n, d) array, one station per row")
    times = np.asarray(times, dtype=float)
    spatial = np.exp(-_distances(locations) / range_)
    temporal = alpha ** np.abs(times[:, None] - times[None, :])
    return CovarianceMatrix(delta * np.kron(temporal, spatial))
