"""Cholesky-based helpers for symmetric positive-definite matrices.

All solves and inverses in the package go through these routines; nothing
inverts a covariance matrix directly with a general-purpose solver.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotri

from .errors import NotPositiveDefiniteError

# One retry with a ridge of this size (relative to the mean diagonal);
# silent heavier regularization would bias the divergence study.
JITTER_SCALE = 1e-10


def chol_psd(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of `a`, with one jittered retry.

    Returns (L, jitter) where jitter is the ridge actually added (0.0 on
    first-try success). Raises NotPositiveDefiniteError if the jittered
    attempt also fails.
    """
    try:
        return np.linalg.cholesky(a), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_SCALE * float(np.mean(np.diag(a)))
    try:
        ridged = a + jitter * np.eye(a.shape[0])
        return np.linalg.cholesky(ridged), jitter
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(
            f"matrix of dim {a.shape[0]} is not positive definite "
            f"(jitter {jitter:.3e} did not help)"
        ) from err


def psd_solve(chol_l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor of A."""
    return cho_solve((chol_l, True), b)


def chol_inverse(chol_l: np.ndarray) -> np.ndarray:
    """Inverse of A = L L' given its lower Cholesky factor L, exactly symmetric.

    LAPACK potri writes the lower triangle of the inverse into a copy of L,
    which is mirrored into the upper triangle in place: no second m x m array.
    """
    inv, info = dpotri(chol_l, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"cannot invert from a singular Cholesky factor of dim {chol_l.shape[0]} "
            f"(potri info {info})"
        )
    for i in range(1, inv.shape[0]):
        inv[:i, i] = inv[i, :i]
    # The inverse is symmetric, so its transpose is the same matrix in C order.
    return inv.T
