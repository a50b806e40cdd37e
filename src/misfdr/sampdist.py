"""Analytic sampling laws of the test statistics.

Under a Gaussian truth and a (possibly misspecified) Gaussian model, the
marginal law of each statistic is governed by the ratio r_i = a_ii / b_ii,
and the joint law by the correlation matrix of B. The unknown-variance case
replaces the Gaussian copula with a scaled-Gaussian-over-quadratic-form
vector that we expose as a sampler.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import BoundaryError, NotPositiveDefiniteError, ParameterError
from .linalg import chol, chol_inverse, congruence, square, tri_mul, tri_solve
from .posterior import (KnownVariance, ModelSpec, StudentT, TrueProcess, UnknownVariance,
                        check_spec, require_noise)

# Rows of the draws whose quadratic forms `xi_sampler` forms at a time.
_QUAD_ROWS = 128


class SamplingLaw:
    """The law of the scores of one spec on data from one truth, fixed by the
    matrices A, B and, under unknown variance, C; it keeps diag(A), diag(B),
    B's lower Cholesky factor L_B and C.

    The ratios are r = diag(A) / diag(B). Every joint quantity reads L_B:
    phi = Phi^{-1}(h) of a known-variance law is N(0, F F') with
    F = D_a^{-1/2} L_B, and P_b has the factor D_b^{-1/2} L_B. The copula
    C = (F F')^{-1} and P_b are formed anew each time they are read, and
    never kept.

    `c` is C as an m x m matrix, its diagonal as an (m,) vector when C is
    diagonal, or None under known variance.
    """

    def __init__(self, a_diag: np.ndarray, b_diag: np.ndarray, b_chol: np.ndarray,
                 c: np.ndarray | None, mode: KnownVariance | UnknownVariance):
        self.a_diag, self.b_diag, self.b_chol, self.c = a_diag, b_diag, b_chol, c
        self.mode, self.known = mode, c is None
        self.r = a_diag / b_diag
        if not np.all(self.r > 0):
            raise ParameterError("all ratios a_ii/b_ii must be positive")

    @property
    def copula(self) -> np.ndarray | None:
        """C = D_a^{1/2} B^{-1} D_a^{1/2} = (F F')^{-1}; None for an unknown-variance law."""
        if self.known:
            return chol_inverse(self.b_chol / np.sqrt(self.a_diag)[:, None], overwrite=True)

    @property
    def log_det_copula(self) -> float | None:
        """log det C = -2 sum_i log F_ii; None for an unknown-variance law."""
        if self.known:
            return float(np.sum(np.log(self.a_diag)) - 2 * np.sum(np.log(np.diag(self.b_chol))))

    @property
    def p_b(self) -> np.ndarray:
        """B's correlation matrix G G' from its factor G = D_b^{-1/2} L_B."""
        factor = self.b_chol / np.sqrt(self.b_diag)[:, None]
        return factor @ factor.T

    @property
    def m(self) -> int:
        return self.a_diag.shape[0]

    @property
    def dof(self) -> float:
        if not isinstance(self.mode, UnknownVariance):
            raise ParameterError("degrees of freedom exist only in the unknown-variance mode")
        return self.m + 2 * self.mode.alpha


def check_law(truth: TrueProcess, spec: ModelSpec, mode: type) -> None:
    """Raise unless `_law` can build the law of `spec` in the noise mode `mode`
    on data from `truth`: the spec must use that mode, the truth's dimension
    and the truth's prior mean (the law is that of scores centred on the
    truth's mean). A known noise variance may differ from the truth's: the
    law reads the spec's own s and the truth's V. It factors nothing."""
    require_noise(spec, mode)
    check_spec(truth, spec)


def _law(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law of the statistics of `spec` on data from `truth`, from
    the posterior the spec factored on construction. It checks nothing: its
    callers run `check_law` first.

    The posterior mean is theta0 + S (y - theta0) with the smoother S = A / s,
    so its sampling covariance is B = S V S' with V = sigma0^2 I + Sigma_1,
    and L_B = S L_V from the truth's factor L_V. A diagonal spec has S =
    diag(a / s), so L_B is a row scaling of L_V, lower triangular as it
    stands; otherwise B is formed as (S L_V)(S L_V)' and factored in place,
    so a dense law holds at most two m x m arrays at once, (S L_V) and B.
    """
    if spec.diagonal:
        w = spec.a_diag / spec.scale
        b_chol = truth.cov_y_chol * w[:, None]
        b_diag = w * w * (truth.sigma1.variances + truth.sigma0_sq)
    else:
        b = congruence(spec.a, truth.cov_y_chol, 1.0 / spec.scale)
        b_diag = b.diagonal().copy()
        b_chol = chol(b, overwrite=True)
    if spec.known:
        c = None
    elif spec.diagonal:
        # P = diag(1 / (g d)) for Sigma_spec = diag(d), so C is diagonal too.
        p = 1.0 / (spec.g * spec.sigma_spec.variances)
        c = (p * p + p) * b_diag
    else:
        # A^-1 = I + P with P = Sigma_spec^-1 / g, so A^-2 - A^-1 = P + P^2,
        # formed in place: P is inverted in the buffer of Sigma_spec's factor
        # and becomes C there. P^2 is the one temporary m x m array, and as it
        # is made after C and freed first, it leaves no hole below C in the
        # heap, where the next larger array could not reuse it.
        c = chol_inverse(chol(spec.sigma_spec.entries), overwrite=True)
        c /= spec.g
        c += square(c)
        # C is positive definite because P is; a Cholesky factor certifies it
        # at a fraction of the cost of its eigenvalues.
        try:
            chol(c)
        except NotPositiveDefiniteError:
            raise ParameterError("A^-2 - A^-1 is not positive semidefinite") from None
        # diag(B)^{1/2} on both sides: this is what the substitution
        # theta_post - theta0 = diag(B)^{1/2} z_b actually yields, and it is the
        # unique scaling under which sampler and simulation agree in distribution.
        sd = np.sqrt(b_diag)
        c *= sd[:, None]
        c *= sd
    return SamplingLaw(spec.a_diag, b_diag, b_chol, c, spec.noise)


def law_known_var(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law of the statistics for a known-variance model spec."""
    check_law(truth, spec, KnownVariance)
    return _law(truth, spec)


def law_unknown_var(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law for an unknown-variance (IG prior) model spec."""
    check_law(truth, spec, UnknownVariance)
    return _law(truth, spec)


def _check_open_unit(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0.0) or np.any(h >= 1.0):
        raise BoundaryError("statistics must lie strictly inside (0, 1)")
    return h


def _check_ratio(r_i) -> None:
    r_i = np.asarray(r_i, dtype=float)
    if not np.all((0 < r_i) & (r_i < np.inf)):
        raise ParameterError("ratio a_ii/b_ii must be positive and finite")


def _check_marginal(h, r_i) -> np.ndarray:
    """h as a float array, once it and the ratios r_i are checked and found to
    broadcast together."""
    _check_ratio(r_i)
    h = _check_open_unit(h)
    try:
        np.broadcast_shapes(h.shape, np.shape(r_i))
    except ValueError:
        raise ParameterError(f"h of shape {h.shape} and r_i of shape {np.shape(r_i)} "
                             "do not broadcast together") from None
    return h


def marginal_cdf(h, r_i):
    """CDF of one statistic: Phi(sqrt(r_i) * Phi^{-1}(h))."""
    h = _check_marginal(h, r_i)
    return ndtr(np.sqrt(r_i) * ndtri(h))


def marginal_pdf(h, r_i):
    """Density of one statistic: sqrt(r_i) exp{(1 - r_i) phi^2 / 2}."""
    h = _check_marginal(h, r_i)
    phi = ndtri(h)
    return np.sqrt(r_i) * np.exp(0.5 * (1.0 - r_i) * phi**2)


def require_density(*laws: SamplingLaw) -> None:
    """Raise unless every law has an implemented joint density: known-variance laws only."""
    if not all(law.known for law in laws):
        raise ParameterError("joint density is implemented only for the known-variance law")


def joint_log_pdf(h: np.ndarray, law: SamplingLaw) -> float | np.ndarray:
    """Log joint density of the statistics (known-variance law only).

    Accepts a single (m,) vector or a batch of shape (n, m).
    """
    require_density(law)
    h = _check_open_unit(h)
    if h.ndim not in (1, 2) or h.shape[-1] != law.m:
        raise ParameterError(f"h must be an (m,) or (n, m) array with m = {law.m}, "
                             f"not of shape {h.shape}")
    phi = ndtri(h)
    # phi' C phi = |F^{-1} phi|^2 with F^{-1} phi = L_B^{-1} D_a^{1/2} phi.
    white = tri_solve(law.b_chol, (phi * np.sqrt(law.a_diag)).T)
    quad = np.sum(phi * phi, axis=-1) - np.sum(white * white, axis=0)
    return 0.5 * law.log_det_copula + 0.5 * quad


def _quadratic_forms(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """z_r' C z_r for each row z_r of the (n, m) z, with C as `SamplingLaw.c`
    holds it (m x m, or its diagonal). `_QUAD_ROWS` rows at a time, in one
    buffer, so no temporary as large as z is made."""
    quad = np.empty(z.shape[0])
    work = np.empty((min(_QUAD_ROWS, z.shape[0]), z.shape[1]))
    for lo in range(0, z.shape[0], _QUAD_ROWS):
        block = z[lo:lo + _QUAD_ROWS]
        w, q = work[:len(block)], quad[lo:lo + len(block)]
        if c.ndim == 1:
            np.matmul(np.square(block, out=w), c, out=q)
        else:
            np.matmul(block, c, out=w)
            w *= block
            np.sum(w, axis=1, out=q)
    return quad


def xi_sampler(law: SamplingLaw, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of the scaled Gaussian vector governing the unknown-variance law.

    Each row is sqrt((m + 2 alpha) / (z' C z + 2 beta)) * z, z ~ N(0, P_b).
    """
    if law.known:
        raise ParameterError("law has no C matrix; use the unknown-variance constructor")
    if not isinstance(n_draws, numbers.Integral):
        raise ParameterError(f"n_draws must be an integer, not {n_draws!r}")
    if n_draws < 1:
        raise ParameterError("n_draws must be at least 1")
    z = tri_mul(rng.standard_normal((n_draws, law.m)), law.b_chol)
    z /= np.sqrt(law.b_diag)
    quad = _quadratic_forms(z, law.c)
    z *= np.sqrt(law.dof / (quad + 2.0 * law.mode.beta))[:, None]
    return z


def xi_to_h(xi: np.ndarray, law: SamplingLaw) -> np.ndarray:
    """Map xi draws to statistics: h_i = Psi_dof(xi_i / sqrt(r_i)), with the
    Student-t kernel `posterior.StudentT`."""
    if law.known:
        raise ParameterError("xi-to-h mapping applies to the unknown-variance law")
    quotient = np.asarray(xi) / np.sqrt(law.r)
    return StudentT(law.dof)(quotient, out=quotient)
