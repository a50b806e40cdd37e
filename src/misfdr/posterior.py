"""The data-generating process, the analyst's model and its posterior scores.

The statistic for hypothesis i is h_i = P(theta_i >= theta0_i | y): the
posterior probability, under the analyst's assumed model, that theta_i is at
least its prior mean theta0_i. A spec scores data as `spec.posterior.probs(y)`.
Two noise modes are supported: known noise variance (Gaussian posterior) and
unknown noise variance with an inverse-gamma prior (multivariate-t posterior).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, stdtr

from .covariance import CovarianceMatrix
from .errors import ParameterError
from .linalg import chol_inverse, chol_psd
from .rng import Substreams


@dataclass(frozen=True)
class TrueProcess:
    """Data-generating triple: true mean, true noise variance, true latent
    covariance; with the lower Cholesky factor of the data covariance
    V = sigma0^2 I + Sigma_1, which every sampling law of the scores reads."""

    theta0: np.ndarray
    sigma0_sq: float
    sigma1: CovarianceMatrix
    cov_y_chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        theta0 = np.asarray(self.theta0, dtype=float)
        object.__setattr__(self, "theta0", theta0)
        if not 0 < self.sigma0_sq < np.inf:
            raise ParameterError("true noise variance must be positive and finite")
        if self.sigma1.dim != theta0.shape[0]:
            raise ParameterError("sigma1 dimension does not match theta0")
        cov_y = self.sigma1.entries.copy()
        cov_y[np.diag_indices(self.m)] += self.sigma0_sq
        object.__setattr__(self, "cov_y_chol", chol_psd(cov_y)[0])

    @property
    def m(self) -> int:
        return self.theta0.shape[0]


@dataclass(frozen=True)
class KnownVariance:
    sigma0_sq: float

    def __post_init__(self) -> None:
        if not 0 < self.sigma0_sq < np.inf:
            raise ParameterError("noise variance must be positive and finite")


@dataclass(frozen=True)
class UnknownVariance:
    """Inverse-gamma prior IG(alpha, beta) on the noise variance."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise ParameterError("inverse-gamma parameters must be positive and finite")


@dataclass(frozen=True)
class ModelSpec:
    """The analyst's assumed model: prior mean, scale g, specified covariance,
    noise mode, and the posterior they imply, factored once on construction."""

    theta0: np.ndarray
    g: float
    sigma_spec: CovarianceMatrix
    noise: KnownVariance | UnknownVariance
    posterior: PosteriorOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        theta0 = np.asarray(self.theta0, dtype=float)
        object.__setattr__(self, "theta0", theta0)
        if not 0 < self.g < np.inf:
            raise ParameterError("prior scale g must be positive and finite")
        if self.sigma_spec.dim != theta0.shape[0]:
            raise ParameterError("sigma_spec dimension does not match theta0")
        # Built eagerly: a lazy build would run after the draws it scores and
        # raise the peak memory of a sweep point.
        object.__setattr__(self, "posterior", PosteriorOperator(self))

    @property
    def m(self) -> int:
        return self.theta0.shape[0]


def draw_replications(truth: TrueProcess, block: Substreams) -> tuple[np.ndarray, np.ndarray]:
    """(theta, y) as (n, m) arrays, one row per substream of the block:
    theta ~ N(theta0, Sigma1), y = theta + N(0, sigma0^2 I).

    Row r is bit-identical to the single draw `tests/oracles.draw_dataset(truth,
    gen)` for child r's Generator, the reference the tests pin it to.
    """
    z_theta = np.empty((len(block), truth.m))
    z_eps = np.empty((len(block), truth.m))
    block.fill(z_theta, z_eps)
    # At most three (n, m) arrays at once: y is formed in the noise draws.
    theta = z_theta @ truth.sigma1.chol.T
    del z_theta
    theta += truth.theta0
    y = z_eps
    y *= np.sqrt(truth.sigma0_sq)
    y += theta
    return theta, y


def require_noise(spec: ModelSpec, mode: type) -> None:
    """Raise unless `spec` uses the noise mode `mode`."""
    if not isinstance(spec.noise, mode):
        name = "known-variance" if mode is KnownVariance else "unknown-variance"
        raise ParameterError(f"spec must use the {name} noise mode")


class PosteriorOperator:
    """Posterior of theta under one model spec, from one Cholesky factor.

    With noise scale s (sigma0^2 when the variance is known, 1 under the
    inverse-gamma prior) and K = s I + g Sigma_spec, the posterior covariance
    (the shape matrix of the multivariate t when the variance is unknown) is
    A = s (I - s K^{-1}), and with r = y - theta0 the posterior mean is
    theta0 + S r with the smoother S = A / s = I - s K^{-1}. Under the
    inverse-gamma prior the posterior is multivariate t with m + 2 alpha
    degrees of freedom, and its scale depends on y only through the quadratic
    form r' K^{-1} r. Nothing here inverts Sigma_spec, so an ill-conditioned
    specification is only ever factored after adding s I.

    K^{-1} comes from K's Cholesky factor (LAPACK potri), and the factor is
    then dropped. A known-variance operator keeps only A and scores with one
    product, S r = A r / s. An unknown-variance operator also keeps K^{-1}:
    one product r' K^{-1} gives both S r = r - K^{-1} r and the quadratic form.

    Each `ModelSpec` builds its own as `spec.posterior`. The operator keeps
    only the values of the spec it needs, never the spec itself: a reference
    back would make a cycle that only the cyclic garbage collector frees,
    keeping the m x m matrices alive long after their sweep point.
    """

    def __init__(self, spec: ModelSpec):
        self.known = isinstance(spec.noise, KnownVariance)
        self.scale = spec.noise.sigma0_sq if self.known else 1.0
        self.theta0 = spec.theta0
        self.beta = None if self.known else spec.noise.beta
        m = spec.m
        diag = np.diag_indices(m)
        k = spec.g * spec.sigma_spec.entries
        k[diag] += self.scale
        k_chol, _ = chol_psd(k)
        del k
        k_inv = chol_inverse(k_chol)
        del k_chol
        # Known variance: A is formed in place of K^{-1}, the one m x m array kept.
        self._k_inv = None if self.known else k_inv
        a = k_inv if self.known else k_inv.copy()
        a *= -self.scale * self.scale
        a[diag] += self.scale
        self.a = a
        self._sd = np.sqrt(np.diag(a))
        self.dof = None if self.known else m + 2 * spec.noise.alpha

    def _shift(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(S r, r' K^{-1} r) with r = y - theta0, accepting (m,) or (n, m);
        the quadratic form is None when the variance is known."""
        resid = np.asarray(y, dtype=float) - self.theta0
        if self.known:
            # A is symmetric, so r @ A is (A r')'.
            shift = resid @ self.a
            shift /= self.scale
            return shift, None
        shift = resid @ self._k_inv
        quad = np.sum(resid * shift, axis=-1)
        # In place, so a batch costs two (n, m) arrays: r - K^{-1} r.
        shift *= -1.0
        shift += resid
        return shift, quad

    def posterior_mean(self, y: np.ndarray) -> np.ndarray:
        """Posterior mean of theta given y; accepts (m,) or (n, m)."""
        shift, _ = self._shift(y)
        shift += self.theta0
        return shift

    def standardized(self, y: np.ndarray) -> np.ndarray:
        """(posterior mean - theta0) / posterior scale: the argument of the
        posterior CDF in `probs`, so Phi^{-1}(h) exactly when the variance is
        known and the Student-t quantile of h when it is not.

        Downstream density evaluations work with this quantity directly so
        that tail values are not lost to Phi saturating at 1.0 in float64.
        """
        z, quad = self._shift(y)
        z /= self._sd
        if not self.known:
            z /= np.sqrt((2 * self.beta + quad) / self.dof)[..., None]
        return z

    def probs(self, y: np.ndarray) -> np.ndarray:
        """h_i = P(theta_i >= theta0_i | y); accepts (m,) or (n, m)."""
        z = self.standardized(y)
        return ndtr(z, out=z) if self.known else stdtr(self.dof, z, out=z)

