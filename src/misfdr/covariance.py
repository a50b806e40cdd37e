"""Structured covariance matrices used as truth and as (mis)specification.

Constructors cover the kernels exercised in the numerical studies: an
exponential spatial kernel on a regular grid, stationary AR(2) autocovariance,
the identity, and a separable space-time product kernel. Matrices are
immutable; the Cholesky factor is computed lazily, once, under a lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.spatial.distance import pdist, squareform

from .errors import ParameterError
from .linalg import chol_psd

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class GridLayout:
    """Regular rows x cols spatial grid with constant spacing."""

    rows: int
    cols: int
    spacing: float = 1.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ParameterError("grid dimensions must be positive")
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
    """Symmetric positive-definite matrix with kernel provenance.

    Immutable after construction; the cached Cholesky factor is computed at
    most once, so instances are safe to share across concurrent replications.
    """

    def __init__(self, entries, kernel: str = "custom", params: dict | None = None):
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
        entries.setflags(write=False)
        self.entries = entries
        self.dim = entries.shape[0]
        self.kernel = kernel
        self.params = dict(params or {})
        self._chol: np.ndarray | None = None
        self._jitter: float = 0.0
        self._lock = threading.Lock()

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor; certifies positive definiteness."""
        if self._chol is None:
            with self._lock:
                if self._chol is None:
                    factor, jitter = chol_psd(self.entries)
                    self._jitter = jitter
                    self._chol = factor
        return self._chol

    @property
    def jitter(self) -> float:
        """Ridge added during factorization (0.0 if none was needed)."""
        self.chol
        return self._jitter

    def __repr__(self) -> str:
        return f"CovarianceMatrix(dim={self.dim}, kernel={self.kernel!r}, params={self.params})"


def exponential_cov(layout: GridLayout, range_: float) -> CovarianceMatrix:
    """exp(-d/range) kernel on a regular grid, row-major point order."""
    if range_ <= 0:
        raise ParameterError("range must be positive")
    pts = layout.points()
    dists = squareform(pdist(pts)) if layout.m > 1 else np.zeros((1, 1))
    entries = np.exp(-dists / range_)
    return CovarianceMatrix(
        entries,
        kernel="exponential",
        params={"range": range_, "rows": layout.rows, "cols": layout.cols,
                "spacing": layout.spacing},
    )


def ar2_autocovariance(
    rho1: float, rho2: float, innovation_var: float, n_lags: int
) -> np.ndarray:
    """Stationary AR(2) autocovariance gamma(0..n_lags-1), Yule-Walker form."""
    _check_ar2_stationary(rho1, rho2)
    gamma = np.empty(max(n_lags, 2))
    gamma[0] = (
        (1 - rho2)
        * innovation_var
        / ((1 + rho2) * ((1 - rho2) ** 2 - rho1**2))
    )
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


def ar2_cov(
    m: int,
    rho1: float,
    rho2: float,
    innovation_var: float = 1.0,
    normalize: bool = False,
) -> CovarianceMatrix:
    """Toeplitz covariance of a stationary AR(2) series of length m.

    With normalize=True the matrix is rescaled to unit diagonal (a
    correlation matrix); the default is the raw Yule-Walker autocovariance.
    """
    if m < 1:
        raise ParameterError("m must be positive")
    if innovation_var <= 0:
        raise ParameterError("innovation variance must be positive")
    gamma = ar2_autocovariance(rho1, rho2, innovation_var, m)
    if normalize:
        gamma = gamma / gamma[0]
    entries = toeplitz(gamma)
    return CovarianceMatrix(
        entries,
        kernel="ar2",
        params={"rho1": rho1, "rho2": rho2, "innovation_var": innovation_var,
                "normalize": normalize},
    )


def identity_cov(m: int) -> CovarianceMatrix:
    if m < 1:
        raise ParameterError("m must be positive")
    return CovarianceMatrix(np.eye(m), kernel="identity", params={})


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
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    times = np.asarray(times, dtype=float)
    n_s = locations.shape[0]
    sp_d = squareform(pdist(locations)) if n_s > 1 else np.zeros((1, 1))
    spatial = np.exp(-sp_d / range_)
    temporal = alpha ** np.abs(times[:, None] - times[None, :])
    entries = delta * np.kron(temporal, spatial)
    return CovarianceMatrix(
        entries,
        kernel="separable",
        params={"delta": delta, "range": range_, "alpha": alpha,
                "n_stations": n_s, "n_times": len(times)},
    )
