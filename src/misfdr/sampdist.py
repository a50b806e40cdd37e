"""Analytic sampling laws of the test statistics.

Under a Gaussian truth and a (possibly misspecified) Gaussian model, the
marginal law of each statistic is governed by the ratio r_i = a_ii / b_ii,
and the joint law by the correlation matrix of B. The unknown-variance case
replaces the Gaussian copula with a scaled-Gaussian-over-quadratic-form
vector that we expose as a sampler.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import ndtr, ndtri, stdtr

from .errors import BoundaryError, NotPositiveDefiniteError, ParameterError
from .linalg import chol_inverse, chol_psd, congruence, tri_solve
from .posterior import KnownVariance, ModelSpec, TrueProcess, UnknownVariance, require_noise


class SamplingLaw:
    """The law of the scores of one spec on data from one truth, fixed by the
    matrices A, B and, under unknown variance, C; it reads them through
    diag(A), diag(B), B's lower Cholesky factor L_B and C, formed once.

    The ratios are r = diag(A) / diag(B). Every joint quantity reads L_B:
    phi = Phi^{-1}(h) of a known-variance law is N(0, F F') with
    F = D_a^{-1/2} L_B, and P_b has the factor D_b^{-1/2} L_B. The copula
    C = (F F')^{-1} and P_b are formed only when read.

    A law is built from the m x m matrices A, B and C (None under known
    variance), and factors B. The law of a diagonal spec is built from the
    diagonals of A, B and C as (m,) vectors and from L_B itself (`b_chol`):
    its m x m `a`, `b` and `c` are formed only when read, and nothing in the
    package reads them.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray | None,
                 mode: KnownVariance | UnknownVariance, spec_tag: str,
                 b_chol: np.ndarray | None = None):
        self.mode, self.spec_tag, self.known = mode, spec_tag, c is None
        if b_chol is None:
            # Set here, these shadow the properties that form a diagonal law's matrices.
            self.a, self.b, self.c = a, b, c
            self.a_diag, self.b_diag, self.c_diag = np.diag(a), np.diag(b), None
        else:
            self.a_diag, self.b_diag, self.c_diag = a, b, c
        self.r = self.a_diag / self.b_diag
        if not np.all(self.r > 0):
            raise ParameterError("all ratios a_ii/b_ii must be positive")
        self.b_chol = chol_psd(b)[0] if b_chol is None else b_chol

    @functools.cached_property
    def a(self) -> np.ndarray:
        """A as an m x m matrix."""
        return np.diag(self.a_diag)

    @functools.cached_property
    def b(self) -> np.ndarray:
        """B = L_B L_B' as an m x m matrix."""
        return self.b_chol @ self.b_chol.T

    @functools.cached_property
    def c(self) -> np.ndarray | None:
        """C as an m x m matrix; None for a known-variance law."""
        if not self.known:
            return np.diag(self.c_diag)

    @functools.cached_property
    def copula(self) -> np.ndarray | None:
        """C = D_a^{1/2} B^{-1} D_a^{1/2} = (F F')^{-1}; None for an unknown-variance law."""
        if self.known:
            return chol_inverse(self.b_chol / np.sqrt(self.a_diag)[:, None])

    @property
    def log_det_copula(self) -> float | None:
        """log det C = -2 sum_i log F_ii; None for an unknown-variance law."""
        if self.known:
            return float(np.sum(np.log(self.a_diag)) - 2 * np.sum(np.log(np.diag(self.b_chol))))

    @functools.cached_property
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


_SAME_COV_TOL = 1e-12


def _uses_true_cov(truth: TrueProcess, spec: ModelSpec) -> bool:
    """True when the spec's covariance is the truth's, entry by entry to
    within rounding.

    The diagonal flags answer most pairs without comparing m x m entries:
    two diagonal matrices compare by their diagonals, and a diagonal matrix
    differs from a dense one with a superdiagonal entry beyond the tolerance.
    """
    spec_cov, true_cov = spec.sigma_spec, truth.sigma1
    if spec_cov is true_cov:
        return True
    x, y = spec_cov.entries, true_cov.entries
    if spec_cov.is_diagonal and true_cov.is_diagonal:
        x, y = x.diagonal(), y.diagonal()
    elif spec_cov.is_diagonal or true_cov.is_diagonal:
        dense = y if spec_cov.is_diagonal else x
        # |entry| > 2 tol fails |x - y| <= tol + tol |y| against a zero, either way round.
        if np.abs(dense.diagonal(1)).max() > 2 * _SAME_COV_TOL:
            return False
    return np.allclose(x, y, rtol=_SAME_COV_TOL, atol=_SAME_COV_TOL)


def _law(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law of the statistics of `spec` on data from `truth`,
    reusing the factorization of the spec's posterior operator.

    The posterior mean is theta0 + S (y - theta0) with the smoother S = A / s,
    so its sampling covariance is B = S V S' with V = sigma0^2 I + Sigma_1,
    formed from the truth's factor L_V as (S L_V)(S L_V)'. The law shares the
    operator's A.
    """
    op = spec.posterior
    if op.known and not np.isclose(op.scale, truth.sigma0_sq):
        raise ParameterError(
            "known-variance theory requires the spec noise variance to equal the truth"
        )
    tag = "correct" if _uses_true_cov(truth, spec) else "misspecified"
    if op.diagonal:
        return _diagonal_law(truth, spec, tag)
    a = op.a
    b = congruence(a, truth.cov_y_chol, 1.0 / op.scale)
    c = None
    if not op.known:
        # A^-1 = I + P with P = Sigma_spec^-1 / g, so A^-2 - A^-1 = P (I + P),
        # formed in place: P and C are the only new m x m arrays.
        p = chol_inverse(spec.sigma_spec.chol)
        p /= spec.g
        c = p @ p
        c += p
        del p
        c += c.T
        c *= 0.5
        # C is positive definite because P is; a Cholesky factor certifies it
        # at a fraction of the cost of its eigenvalues.
        try:
            chol_psd(c)
        except NotPositiveDefiniteError:
            raise ParameterError("A^-2 - A^-1 is not positive semidefinite") from None
        # diag(B)^{1/2} on both sides: this is what the substitution
        # theta_post - theta0 = diag(B)^{1/2} z_b actually yields, and it is the
        # unique scaling under which sampler and simulation agree in distribution.
        sd = np.sqrt(np.diag(b))
        c *= sd[:, None]
        c *= sd
    return SamplingLaw(a=a, b=b, c=c, mode=spec.noise, spec_tag=tag)


def _diagonal_law(truth: TrueProcess, spec: ModelSpec, tag: str) -> SamplingLaw:
    """`_law` of a diagonal spec in closed form. S = diag(a / s), so L_B = S L_V
    is a row scaling of the truth's factor, lower triangular as it stands, and
    diag(B) = (a / s)^2 diag(V). Under unknown variance P = diag(1 / (g d)) for
    Sigma_spec = diag(d), so C = diag((p^2 + p) diag(B)) is diagonal too."""
    op = spec.posterior
    w = op.a_diag / op.scale
    b_chol = truth.cov_y_chol * w[:, None]
    b_diag = w * w * (truth.sigma1.entries.diagonal() + truth.sigma0_sq)
    c_diag = None
    if not op.known:
        d = spec.sigma_spec.entries.diagonal()
        if not np.all(d > 0):
            raise NotPositiveDefiniteError(
                f"diagonal Sigma_spec of dim {spec.m} is not positive definite: "
                f"{np.count_nonzero(~(d > 0))} entries are not positive"
            )
        p = 1.0 / (spec.g * d)
        c_diag = (p * p + p) * b_diag
    return SamplingLaw(op.a_diag, b_diag, c_diag, spec.noise, tag, b_chol=b_chol)


def law_known_var(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law of the statistics for a known-variance model spec."""
    require_noise(spec, KnownVariance)
    return _law(truth, spec)


def law_unknown_var(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law for an unknown-variance (IG prior) model spec."""
    require_noise(spec, UnknownVariance)
    return _law(truth, spec)


def _check_open_unit(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0.0) or np.any(h >= 1.0):
        raise BoundaryError("statistics must lie strictly inside (0, 1)")
    return h


def marginal_cdf(h, r_i):
    """CDF of one statistic: Phi(sqrt(r_i) * Phi^{-1}(h))."""
    h = _check_open_unit(h)
    return ndtr(np.sqrt(r_i) * ndtri(h))


def marginal_pdf(h, r_i):
    """Density of one statistic: sqrt(r_i) exp{(1 - r_i) phi^2 / 2}."""
    h = _check_open_unit(h)
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
    phi = ndtri(h)
    # phi' C phi = |F^{-1} phi|^2 with F^{-1} phi = L_B^{-1} D_a^{1/2} phi.
    white = tri_solve(law.b_chol, (phi * np.sqrt(law.a_diag)).T)
    quad = np.sum(phi * phi, axis=-1) - np.sum(white * white, axis=0)
    return 0.5 * law.log_det_copula + 0.5 * quad


def xi_sampler(law: SamplingLaw, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of the scaled Gaussian vector governing the unknown-variance law.

    Each row is sqrt((m + 2 alpha) / (z' C z + 2 beta)) * z, z ~ N(0, P_b).
    """
    if law.known:
        raise ParameterError("law has no C matrix; use the unknown-variance constructor")
    z = rng.standard_normal((n_draws, law.m)) @ law.b_chol.T
    z /= np.sqrt(law.b_diag)
    if law.c_diag is None:
        quad = np.sum(z * (z @ law.c), axis=1)
    else:
        quad = np.square(z) @ law.c_diag
    scale = np.sqrt(law.dof / (quad + 2.0 * law.mode.beta))
    return scale[:, None] * z


def xi_to_h(xi: np.ndarray, law: SamplingLaw) -> np.ndarray:
    """Map xi draws to statistics: h_i = Psi_dof(xi_i / sqrt(r_i))."""
    if law.known:
        raise ParameterError("xi-to-h mapping applies to the unknown-variance law")
    return stdtr(law.dof, np.asarray(xi) / np.sqrt(law.r))
