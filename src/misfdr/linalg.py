"""Cholesky-based helpers for symmetric positive-definite matrices.

All factorizations, inverses and solves in the package go through these
routines; nothing inverts or solves with a general-purpose solver. Nothing
is regularized either: a matrix that has no Cholesky factor is refused.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dsyrk, dtrmm, dtrsm
from scipy.linalg.lapack import dpotri

from .errors import NotPositiveDefiniteError

# Columns `_mirror_lower` mirrors per block copy, so its Python loop makes
# ceil(m / 64) passes rather than m; and the mask of a diagonal block's upper
# triangle.
_MIRROR_COLUMNS = 64
_UPPER = np.triu(np.ones((_MIRROR_COLUMNS, _MIRROR_COLUMNS), dtype=bool), 1)
_UPPER.setflags(write=False)


def chol(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of `a`, which certifies that `a` is positive
    definite. Raises NotPositiveDefiniteError if the factorization fails;
    nothing is added to the diagonal."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(
            f"matrix of dim {a.shape[0]} is not positive definite"
        ) from err


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
    return _mirror_lower(inv)


def tri_solve(chol_l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} b for a lower triangular L and b of shape (m,) or (m, k), by one
    BLAS trsm written over b when b is C-ordered float64: b in C order is b'
    in Fortran order, so solving X L' = b' gives X = (L^{-1} b)' in place."""
    rhs = b.reshape(chol_l.shape[0], -1).T
    return dtrsm(1.0, chol_l.T, rhs, side=1, lower=0, overwrite_b=1).T.reshape(b.shape)


def tri_mul(x: np.ndarray, chol_l: np.ndarray) -> np.ndarray:
    """x L' for a lower triangular L and an (n, m) x, by one BLAS trmm: m^2 n
    flops, half those of a general product. x in C order is x' in Fortran
    order, so L x' is written over x when x is C-ordered float64 (any other x
    is copied first), and L' in C order is L in the Fortran order BLAS reads,
    so the factor is not copied."""
    return dtrmm(1.0, chol_l.T, x.T, lower=0, trans_a=1, overwrite_b=1).T


def congruence(a: np.ndarray, chol_l: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """alpha^2 a V a' for V = L L' given its lower Cholesky factor L, exactly
    symmetric.

    BLAS trmm forms W = alpha a L and syrk its Gram matrix W W': 2 m^3 flops,
    where the two general products a V a' take 4 m^3.
    """
    # L' in C order is L in the Fortran order BLAS reads, so L is not copied.
    w = dtrmm(alpha, chol_l.T, a, side=1, lower=0, trans_a=1)
    gram = dsyrk(1.0, w, lower=1)
    del w
    return _mirror_lower(gram)


def square(p: np.ndarray) -> np.ndarray:
    """p @ p for a symmetric p, exactly symmetric.

    p p = p' p is one BLAS syrk: m^3 flops for the lower triangle, where a
    general product takes 2 m^3 and is symmetric only up to rounding.
    """
    # p' in C order is p in the Fortran order BLAS reads, so p is not copied.
    return _mirror_lower(dsyrk(1.0, p.T, lower=1))


def _mirror_lower(sym: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of a Fortran-ordered LAPACK/BLAS result into its
    upper triangle in place, _MIRROR_COLUMNS columns at a time; return it in
    C order."""
    m = sym.shape[0]
    for start in range(0, m, _MIRROR_COLUMNS):
        stop = min(start + _MIRROR_COLUMNS, m)
        # Above the diagonal block: one copy of the rows left of the block.
        sym[:start, start:stop] = sym[start:stop, :start].T
        # The diagonal block: its transpose, written over its upper triangle
        # only (numpy reads an overlapping source as if it were a copy).
        block = sym[start:stop, start:stop]
        np.copyto(block, block.T, where=_UPPER[:stop - start, :stop - start])
    # The matrix is symmetric, so its transpose is the same matrix in C order.
    return sym.T
