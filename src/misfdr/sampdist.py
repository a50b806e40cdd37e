"""Analytic sampling laws of the test statistics.

Under a Gaussian truth and a (possibly misspecified) Gaussian model, the
marginal law of each statistic is governed by the ratio r_i = a_ii / b_ii,
and the joint law by the correlation matrix of B. The unknown-variance case
replaces the Gaussian copula with a scaled-Gaussian-over-quadratic-form
vector that we expose as a sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri, stdtr

from .errors import BoundaryError, ParameterError
from .linalg import chol_psd, psd_solve
from .posterior import (
    KnownVariance,
    ModelSpec,
    PosteriorOperator,
    TrueProcess,
    UnknownVariance,
    require_noise,
)


@dataclass
class SamplingLaw:
    """The (A, B, C) bundle determining the law, with the derived ratios
    r = diag(A) / diag(B) and B's correlation P_b."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray | None
    mode: KnownVariance | UnknownVariance
    spec_tag: str
    r: np.ndarray = field(init=False)
    p_b: np.ndarray = field(init=False)
    copula: np.ndarray = field(init=False, repr=False)
    log_det_copula: float = field(init=False, repr=False)
    _pb_chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        diag_a = np.diag(self.a)
        self.r = diag_a / np.diag(self.b)
        if not np.all(self.r > 0):
            raise ParameterError("all ratios a_ii/b_ii must be positive")
        b_chol, _ = chol_psd(self.b)
        b_inv = psd_solve(b_chol, np.eye(self.m))
        # diag(A)^{1/2} B^{-1} diag(A)^{1/2}; equals R^{1/2} P_b^{-1} R^{1/2}
        root = np.sqrt(diag_a)
        self.copula = root[:, None] * b_inv * root[None, :]
        self.copula = 0.5 * (self.copula + self.copula.T)
        self.log_det_copula = float(
            np.sum(np.log(diag_a)) - 2.0 * np.sum(np.log(np.diag(b_chol)))
        )
        # P_b = D^-1 B D^-1 with D = diag(B)^{1/2}, so its factor is D^-1 L_B.
        sd = np.sqrt(np.diag(self.b))
        self.p_b = self.b / np.outer(sd, sd)
        np.fill_diagonal(self.p_b, 1.0)
        self.p_b = 0.5 * (self.p_b + self.p_b.T)
        self._pb_chol = b_chol / sd[:, None]

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def dof(self) -> float:
        if not isinstance(self.mode, UnknownVariance):
            raise ParameterError("degrees of freedom exist only in the unknown-variance mode")
        return self.m + 2 * self.mode.alpha


def _spec_tag(truth: TrueProcess, spec: ModelSpec) -> str:
    same = np.allclose(spec.sigma_spec.entries, truth.sigma1.entries, rtol=1e-12, atol=1e-12)
    return "correct" if same else "misspecified"


def _law(truth: TrueProcess, op: PosteriorOperator) -> SamplingLaw:
    """Sampling law of the statistics scored by `op` on data from `truth`.

    The posterior mean is theta0 + S (y - theta0) with the smoother S = A / s,
    so its sampling covariance is B = S (sigma0^2 I + Sigma_1) S'.
    """
    spec, a, m = op.spec, op.a, op.spec.m
    cov_y = truth.sigma1.entries.copy()
    cov_y[np.diag_indices(m)] += truth.sigma0_sq
    b = a @ cov_y @ a
    del cov_y
    b /= op.scale * op.scale
    b += b.T
    b *= 0.5
    c = None
    if not op.known:
        # A^-1 = I + P with P = Sigma_spec^-1 / g, so A^-2 - A^-1 = P (I + P),
        # formed in place: P and C are the only new m x m arrays.
        p = psd_solve(spec.sigma_spec.chol, np.eye(m))
        p /= spec.g
        c = p @ p
        c += p
        del p
        c += c.T
        c *= 0.5
        if np.linalg.eigvalsh(c).min() < -1e-10:
            raise ParameterError("A^-2 - A^-1 is not positive semidefinite")
        # diag(B)^{1/2} on both sides: this is what the substitution
        # theta_post - theta0 = diag(B)^{1/2} z_b actually yields, and it is the
        # unique scaling under which sampler and simulation agree in distribution.
        sd = np.sqrt(np.diag(b))
        c *= sd[:, None]
        c *= sd
    return SamplingLaw(a=a, b=b, c=c, mode=spec.noise, spec_tag=_spec_tag(truth, spec))


def law_known_var(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law of the statistics for a known-variance model spec."""
    require_noise(spec, KnownVariance)
    if not np.isclose(spec.noise.sigma0_sq, truth.sigma0_sq):
        raise ParameterError(
            "known-variance theory requires the spec noise variance to equal the truth"
        )
    return _law(truth, PosteriorOperator(spec))


def law_unknown_var(truth: TrueProcess, spec: ModelSpec) -> SamplingLaw:
    """Sampling law for an unknown-variance (IG prior) model spec."""
    require_noise(spec, UnknownVariance)
    return _law(truth, PosteriorOperator(spec))


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


def joint_log_pdf(h: np.ndarray, law: SamplingLaw) -> float | np.ndarray:
    """Log joint density of the statistics (known-variance law only).

    Accepts a single (m,) vector or a batch of shape (n, m).
    """
    if law.c is not None:
        raise ParameterError("joint density is available only for the known-variance law")
    h = _check_open_unit(h)
    phi = ndtri(h)
    quad = np.sum(phi * phi, axis=-1) - np.sum(phi * (phi @ law.copula), axis=-1)
    return 0.5 * law.log_det_copula + 0.5 * quad


def joint_cdf_mc(
    h: np.ndarray, law: SamplingLaw, n_draws: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of the joint CDF, with binomial standard error."""
    if law.c is not None:
        raise ParameterError("joint CDF evaluator applies to the known-variance law")
    h = _check_open_unit(h)
    thresholds = np.sqrt(law.r) * ndtri(h)
    z = rng.standard_normal((n_draws, law.m)) @ law._pb_chol.T
    hits = np.all(z <= thresholds, axis=1)
    p = float(hits.mean())
    se = float(np.sqrt(p * (1.0 - p) / n_draws))
    return p, se


def xi_sampler(law: SamplingLaw, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of the scaled Gaussian vector governing the unknown-variance law.

    Each row is sqrt((m + 2 alpha) / (z' C z + 2 beta)) * z, z ~ N(0, P_b).
    """
    if law.c is None:
        raise ParameterError("law has no C matrix; use the unknown-variance constructor")
    z = rng.standard_normal((n_draws, law.m)) @ law._pb_chol.T
    quad = np.sum(z * (z @ law.c), axis=1)
    scale = np.sqrt(law.dof / (quad + 2.0 * law.mode.beta))
    return scale[:, None] * z


def xi_to_h(xi: np.ndarray, law: SamplingLaw) -> np.ndarray:
    """Map xi draws to statistics: h_i = Psi_dof(xi_i / sqrt(r_i))."""
    if law.c is None:
        raise ParameterError("xi-to-h mapping applies to the unknown-variance law")
    return stdtr(law.dof, np.asarray(xi) / np.sqrt(law.r))
