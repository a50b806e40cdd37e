"""Analytic sampling laws of the test statistics.

Under a Gaussian truth and a (possibly misspecified) Gaussian model, the
marginal law of each statistic is governed by the ratio r_i = a_ii / b_ii,
and the joint law by the correlation matrix of B. The unknown-variance case
replaces the Gaussian copula with a scaled-Gaussian-over-quadratic-form
vector that we expose as a sampler: its draws are the spec's own
standardized scores of residuals drawn from the truth, scaled by sqrt(r).
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import BoundaryError, NotPositiveDefiniteError, ParameterError
from .linalg import (chol, chol_inverse, congruence, congruence_diagonal, square, tri_mul,
                     tri_solve)
from .posterior import (KnownVariance, ModelSpec, StudentT, TrueProcess, UnknownVariance,
                        check_spec, require_noise)

# Rows of the draws `xi_sampler` scores at a time.
_SCORE_ROWS = 128


class SamplingLaw:
    """The law of the scores of one spec on data from one truth, fixed by the
    matrices A, B = S V S' (S = A / s) and, under unknown variance, C. Every
    law keeps diag(A) and diag(B), and the ratios r = diag(A) / diag(B).

    A known-variance law needs `b_chol` and keeps B's lower Cholesky factor
    L_B, and nothing of its spec: phi = Phi^{-1}(h) is N(0, F F') with
    F = D_a^{-1/2} L_B. An unknown-variance law needs `spec` and `v_chol`
    (a `ParameterError` otherwise) and keeps no matrix of its own: it refers to its spec, whose A (or diag(A)
    when Sigma_spec is diagonal) it so keeps alive, and to the truth's factor
    L_V of V, the two operators its sampler reads.

    Everything else is formed anew each time it is read and never kept: the
    copula (F F')^{-1} of a known law, C of an unknown one, the factor L_B of
    an unknown law (`b_chol`) and the correlation matrix P_b, whose factor is
    D_b^{-1/2} L_B.
    """

    def __init__(self, a_diag: np.ndarray, b_diag: np.ndarray,
                 mode: KnownVariance | UnknownVariance, b_chol: np.ndarray | None = None, *,
                 spec: ModelSpec | None = None, v_chol: np.ndarray | None = None):
        self.a_diag, self.b_diag, self.mode = a_diag, b_diag, mode
        self.known = isinstance(mode, KnownVariance)
        if self.known:
            if b_chol is None:
                raise ParameterError("a known-variance law needs b_chol")
            self._b_chol = b_chol
        else:
            if spec is None or v_chol is None:
                raise ParameterError("an unknown-variance law needs spec and v_chol")
            self.spec, self.v_chol = spec, v_chol
        self.r = a_diag / b_diag
        if not np.all(self.r > 0):
            raise ParameterError("all ratios a_ii/b_ii must be positive")

    @property
    def b_chol(self) -> np.ndarray:
        """L_B: kept by a known-variance law, formed from the spec's A and
        L_V on each read of an unknown-variance one."""
        if self.known:
            return self._b_chol
        return _factor_b(self.v_chol, self.spec)[0]

    @property
    def c(self) -> np.ndarray | None:
        """C = D_b^{1/2} (A^-2 - A^-1) D_b^{1/2} of an unknown-variance law
        as an m x m matrix, or its (m,) diagonal for a diagonal Sigma_spec;
        None under known variance. Formed on each read from the spec's
        Sigma_spec and g: A^-1 = I + P with P = Sigma_spec^-1 / g, so
        A^-2 - A^-1 = P + P^2. It is the matrix of the quadratic form
        z_b' C z_b = r' K^{-1} r of z_b = S r / sqrt(diag B), which the
        sampler computes from r itself."""
        if self.known:
            return None
        spec = self.spec
        if spec.diagonal:
            p = 1.0 / (spec.g * spec.sigma_spec.variances)
            return (p * p + p) * self.b_diag
        # P is inverted in the buffer of Sigma_spec's factor and becomes C
        # there; P^2 is the one temporary m x m array.
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
        # theta_post - theta0 = diag(B)^{1/2} z_b actually yields.
        sd = np.sqrt(self.b_diag)
        c *= sd[:, None]
        c *= sd
        return c

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


def _factor_b(v_chol: np.ndarray, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """(L_B, diag(B)) with L_B = S L_V from the truth's factor L_V, and diag(B)
    None for a diagonal spec. A diagonal spec has S = diag(a / s), so L_B is
    a row scaling of L_V, lower triangular as it stands; otherwise B is
    formed as (S L_V)(S L_V)', its diagonal read and B factored in place,
    so at most two m x m arrays are held at once, (S L_V) and B."""
    if spec.diagonal:
        return v_chol * (spec.a_diag / spec.scale)[:, None], None
    b = congruence(spec.a, v_chol, 1.0 / spec.scale)
    b_diag = b.diagonal().copy()
    return chol(b, overwrite=True), b_diag


def _law(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law of the statistics of `spec` on data from `truth`, from
    the posterior the spec factored on construction. It checks nothing: its
    callers run `check_law` first.

    The posterior mean is theta0 + S (y - theta0) with the smoother S = A / s,
    so its sampling covariance is B = S V S' with V = sigma0^2 I + Sigma_1.
    A diagonal spec has diag(B) = (a / s)^2 diag(V) in closed form. A
    known-variance law factors B (`_factor_b`). An unknown-variance law
    needs only diag(B), the squared row norms of S L_V (one trmm), and
    certifies a dense Sigma_spec positive definite by one Cholesky attempt,
    whose factor it drops.
    """
    if spec.diagonal:
        w = spec.a_diag / spec.scale
        b_diag = w * w * (truth.sigma1.variances + truth.sigma0_sq)
    if spec.known:
        b_chol, dense_diag = _factor_b(truth.cov_y_chol, spec)
        return SamplingLaw(spec.a_diag, b_diag if spec.diagonal else dense_diag, spec.noise,
                           b_chol)
    if not spec.diagonal:
        # C is defined for a positive definite Sigma_spec only: its factor
        # certifies that, and is dropped.
        chol(spec.sigma_spec.entries)
        b_diag = congruence_diagonal(spec.a, truth.cov_y_chol)
    return SamplingLaw(spec.a_diag, b_diag, spec.noise, spec=spec, v_chol=truth.cov_y_chol)


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


def xi_sampler(law: SamplingLaw, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of the scaled Gaussian vector governing the unknown-variance law.

    Each row is sqrt((m + 2 alpha) / (z' C z + 2 beta)) * z, z ~ N(0, P_b).
    With z = S x / sqrt(diag B) for a residual x = L_V e ~ N(0, V), that row
    is sqrt(r) times the spec's standardized score of x, z' C z being
    x' K^{-1} x: so each row is drawn as x from one (n, m) block of normals
    `e` and scored in place by `ModelSpec.standardized_residual`,
    `_SCORE_ROWS` rows at a time.

    Drawn this way, the rows of a dense spec differ at a given seed from
    those drawn as z = D_b^{-1/2} L_B e through B's own Cholesky factor L_B
    (S L_V is not lower triangular), but have the same law; for a diagonal
    spec, S L_V is L_B, and the rows agree up to rounding.
    """
    if law.known:
        raise ParameterError("law has no C matrix; use the unknown-variance constructor")
    if not isinstance(n_draws, numbers.Integral):
        raise ParameterError(f"n_draws must be an integer, not {n_draws!r}")
    if n_draws < 1:
        raise ParameterError("n_draws must be at least 1")
    x = tri_mul(rng.standard_normal((n_draws, law.m)), law.v_chol)
    for lo in range(0, n_draws, _SCORE_ROWS):
        block = x[lo:lo + _SCORE_ROWS]
        law.spec.standardized_residual(block, out=block)
    x *= np.sqrt(law.r)
    return x


def xi_to_h(xi: np.ndarray, law: SamplingLaw) -> np.ndarray:
    """Map xi draws to statistics: h_i = Psi_dof(xi_i / sqrt(r_i)), with the
    Student-t kernel `posterior.StudentT`."""
    if law.known:
        raise ParameterError("xi-to-h mapping applies to the unknown-variance law")
    quotient = np.asarray(xi) / np.sqrt(law.r)
    return StudentT(law.dof)(quotient, out=quotient)
