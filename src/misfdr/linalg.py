"""Cholesky-based helpers for symmetric positive-definite matrices.

All factorizations, inverses and solves in the package go through these
routines; nothing inverts or solves with a general-purpose solver. Every
one calls scipy's LAPACK and BLAS (`dpotrf`, `dpotri`, `dtrsm`, `dtrmm`,
`dsyrk`), one OpenBLAS build; `numpy.linalg` is not used. Nothing is
regularized either: a matrix that has no Cholesky factor is refused, and so
is a "factor" whose diagonal is not finite and positive, which LAPACK
returns without an error code when a pivot is NaN.

A C-ordered matrix read in Fortran order is its transpose, so LAPACK works
on a C-ordered symmetric matrix as it stands, with no work copy: `chol` and
`chol_inverse` write their result over their input when the caller passes
`overwrite=True`, and over a copy otherwise. LAPACK ignores numpy's
`writeable` flag, so `overwrite=True` raises unless the input is a writable,
C-contiguous float64 array: the immutable entries of a `CovarianceMatrix`
are refused, never factored in place.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dsyrk, dtrmm, dtrsm
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import NotPositiveDefiniteError

# Columns `_mirror_lower` mirrors per block copy, so its Python loop makes
# ceil(m / 64) passes rather than m; and the mask of a diagonal block's upper
# triangle.
_MIRROR_COLUMNS = 64
_UPPER = np.triu(np.ones((_MIRROR_COLUMNS, _MIRROR_COLUMNS), dtype=bool), 1)
_UPPER.setflags(write=False)


def _scratch(a: np.ndarray, overwrite: bool) -> np.ndarray:
    """`a` itself when the caller lets it be overwritten, which requires a
    writable, C-contiguous float64 array; a C-ordered float64 copy otherwise."""
    if not overwrite:
        return np.array(a, dtype=float, order="C")
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError("overwrite=True needs a writable, C-contiguous float64 array")
    return a


def chol(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor L of the symmetric `a`, read from its lower
    triangle, which certifies that `a` is positive definite; written over `a`
    when `overwrite` is True (see the module docstring), over a copy
    otherwise. Raises NotPositiveDefiniteError if LAPACK potrf fails or the
    diagonal of L is not finite and positive; nothing is added to the
    diagonal."""
    a = _scratch(a, overwrite)
    # a.T is a read in Fortran order, where a's lower triangle is the upper
    # one: potrf writes U = L' there, which read back in C order is L.
    upper, info = dpotrf(a.T, lower=0, clean=1, overwrite_a=1)
    factor = upper.T
    diag = factor.diagonal()
    if info != 0 or not np.all(np.isfinite(diag) & (diag > 0)):
        raise NotPositiveDefiniteError(
            f"matrix of dim {a.shape[0]} is not positive definite"
            + (f" (potrf info {info})" if info else ": its factor is not finite")
        )
    return factor


def chol_inverse(chol_l: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Inverse of A = L L' given its lower Cholesky factor L, exactly symmetric;
    written over L when `overwrite` is True (see the module docstring), over a
    copy otherwise.

    L' in Fortran order is L here, so LAPACK potri writes the upper triangle
    of the inverse there, its lower triangle here, which is mirrored into the
    upper triangle in place: no second m x m array.
    """
    chol_l = _scratch(chol_l, overwrite)
    inv, info = dpotri(chol_l.T, lower=0, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"cannot invert from a singular Cholesky factor of dim {chol_l.shape[0]} "
            f"(potri info {info})"
        )
    # inv.T holds the lower triangle in C order; the mirror returns its
    # transpose, so one more transpose gives the symmetric inverse in C order.
    return _mirror_lower(inv.T).T


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
    """Copy the lower triangle of `sym` into its upper triangle in place,
    _MIRROR_COLUMNS columns at a time; return its transpose, the same matrix,
    which is in C order when `sym` is a Fortran-ordered LAPACK/BLAS result."""
    m = sym.shape[0]
    for start in range(0, m, _MIRROR_COLUMNS):
        stop = min(start + _MIRROR_COLUMNS, m)
        # Above the diagonal block: one copy of the rows left of the block.
        sym[:start, start:stop] = sym[start:stop, :start].T
        # The diagonal block: its transpose, written over its upper triangle
        # only (numpy reads an overlapping source as if it were a copy).
        block = sym[start:stop, start:stop]
        np.copyto(block, block.T, where=_UPPER[:stop - start, :stop - start])
    # The matrix is symmetric, so its transpose is the same matrix.
    return sym.T
