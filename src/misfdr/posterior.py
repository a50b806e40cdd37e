"""The data-generating process, the analyst's model and its posterior scores.

The statistic for hypothesis i is h_i = P(theta_i >= theta0_i | y): the
posterior probability, under the analyst's assumed model, that theta_i is at
least its prior mean theta0_i. A spec scores data in two steps: the
standardized score z = `spec.standardized(y)`, then h = `spec.cdf(z)`, the
posterior CDF Psi at z. Psi is monotone, so the step-up rule sorts z and
applies Psi only to the prefix of each sorted row it reads (`fdr.replicate`).
Two noise modes are supported: known noise variance (Gaussian posterior) and
unknown noise variance with an inverse-gamma prior (multivariate-t posterior).

Psi is `ndtr` under known variance. Under the inverse-gamma prior it is the
Student-t CDF with m + 2 alpha degrees of freedom, and `StudentT` is the one
code that computes it, for `ModelSpec.cdf` and `sampdist.xi_to_h` alike:
Hill's normalizing transform (CACM Algorithm 395) with a correction fitted
on construction, within 4.5e-16 of the exact CDF for 1 <= dof <= 1e12, at
about a fifth of the cost of `stdtr`, which it calls itself for |t| > 37,
inf and NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly
from scipy.special import betainc, ndtr, ndtri, stdtr

from .covariance import CovarianceMatrix
from .errors import NotPositiveDefiniteError, ParameterError
from .linalg import chol, chol_inverse, tri_mul


def _prior_mean(theta0, cov: CovarianceMatrix, cov_name: str) -> np.ndarray:
    """theta0 as a float vector, checked to be 1-d, finite and of the
    dimension of `cov`."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.ndim != 1 or not np.all(np.isfinite(theta0)):
        raise ParameterError("theta0 must be a finite 1-d vector")
    if cov.dim != theta0.shape[0]:
        raise ParameterError(f"{cov_name} dimension does not match theta0")
    return theta0


@dataclass(frozen=True)
class TrueProcess:
    """Data-generating triple: true mean, true noise variance, true latent
    covariance; with the lower Cholesky factor of the data covariance
    V = sigma0^2 I + Sigma_1 (`cov_y_chol`), which every sampling law of the
    scores reads, built on construction. Sigma_1 is factored on construction
    too, so one that is not positive definite fails here, but its factor is
    not kept: only the draws read it, and whoever draws factors Sigma_1 once
    for all its blocks (`fdr.drawn_datasets`) and frees the factor after the
    last. A truth keeps one m x m array, `cov_y_chol`, beside Sigma_1, which
    keeps its entries when dense and only its variances when diagonal.
    Its prior mean theta0 is the bound of every hypothesis, H0i being
    theta_i >= theta0_i."""

    theta0: np.ndarray
    sigma0_sq: float
    sigma1: CovarianceMatrix
    cov_y_chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta0", _prior_mean(self.theta0, self.sigma1, "sigma1"))
        if not 0 < self.sigma0_sq < np.inf:
            raise ParameterError("true noise variance must be positive and finite")
        chol(self.sigma1.entries)
        cov_y = self.sigma1.entries.copy()
        cov_y[np.diag_indices(self.m)] += self.sigma0_sq
        object.__setattr__(self, "cov_y_chol", chol(cov_y, overwrite=True))

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


# The Student-t kernel's constants: the degree of its fitted correction, the
# Chebyshev nodes it is fitted on, the |t| past which `stdtr` itself is
# called, and the values per pass over one row of its scratch array.
_T_DEGREE, _T_NODES, _T_CUT, _T_CHUNK = 24, 96, 37.0, 16384


@dataclass(frozen=True)
class StudentT:
    """Psi, the Student-t CDF with `dof` >= 1 degrees of freedom, called as a
    numpy ufunc is: `StudentT(dof)(t)` for t of any shape, 0-d included, or
    with `out=`, a C-contiguous float64 array of t's shape or t itself.

    Hill's normalizing transform (Hill 1970, CACM Algorithm 395): for t <= 0
    and y = (dof - 1/2) log1p(t^2 / dof), Phi^{-1}(Psi(t)) = -sqrt(y) Q(y),
    with Q - 1 small (about 1e-6 at dof 904). On construction Q - 1 is fitted
    by a degree-24 Chebyshev series on y in [0, y(37)] from its values at 96
    Chebyshev nodes, Phi^{-1} of the exact CDF there, and the series is
    turned into powers of the Chebyshev variable, so that a call costs two
    passes per degree (Horner). A call returns ndtr(r + r series) with
    r = sign(t) sqrt(y): signs and symmetry are ndtr's, and so is the
    accuracy of the upper tail.

    Measured against `stdtr` for dof from 1 to 1e12 (against the Cauchy
    CDF's closed form at dof 1, where `stdtr` is off by up to 2.4e-9 near
    t = 0), the error is at most 4.5e-16 absolutely, 256 ulps relatively for
    -8 <= t < 0 and 2e-12 relatively down to t = -37; against mpmath at dof
    904 it is at most 4 times `stdtr`'s own. Values never decrease along a
    sorted grid, but can step down between arguments a few ulps apart, as
    `stdtr`'s do, and where `stdtr` takes over at t = -37, by up to 5e-13
    relatively (over 300 dof from 1 to 1e12). Entries with |t| > 37, +-inf
    and NaN get `stdtr` itself.

    A call works in chunks of 16384 values with one (4, chunk) scratch array
    of its own, so its memory is bounded, and a kernel holds nothing but its
    coefficients: its calls share no state.
    """

    dof: float
    _u_scale: float = field(init=False, repr=False, compare=False)
    _power: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1.0 <= self.dof < np.inf:
            raise ParameterError("Student-t degrees of freedom must be finite and at least 1")
        nu = self.dof
        y_max = (nu - 0.5) * np.log1p(_T_CUT * _T_CUT / nu)
        angle = np.pi * (np.arange(_T_NODES) + 0.5) / _T_NODES
        t = -np.sqrt(nu * np.expm1((np.cos(angle) + 1.0) * (0.5 * y_max / (nu - 0.5))))
        cdf = stdtr(nu, t)
        # Near the centre the CDF is 1/2 - I_x(1/2, dof/2) / 2 with
        # x = t^2 / (dof + t^2), free of the cancellation that puts stdtr at
        # dof 1 off by 1e-15 at t = -0.01 and 1e-11 at t = -1e-6 (mpmath).
        centre = t > -0.5
        t2 = t[centre] * t[centre]
        cdf[centre] = 0.5 - 0.5 * betainc(0.5, 0.5 * nu, t2 / (nu + t2))
        # Q - 1 at the y a call computes from each node's t.
        q = -ndtri(cdf) / np.sqrt((nu - 0.5) * np.log1p(t * t / nu)) - 1.0
        cheb = np.cos(np.outer(np.arange(_T_DEGREE + 1), angle)) @ q * (2.0 / _T_NODES)
        cheb[0] *= 0.5
        object.__setattr__(self, "_u_scale", 2.0 / y_max)
        object.__setattr__(self, "_power", tuple(cheb2poly(cheb).tolist()))

    def __call__(self, t, out: np.ndarray | None = None):
        t = np.asarray(t, dtype=float)
        result = np.empty(t.shape) if out is None else out
        if result.shape != t.shape or result.dtype != float or not result.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array of the input's shape")
        source, target = t.reshape(-1), result.reshape(-1)
        work = np.empty((4, min(_T_CHUNK, source.size)))
        for lo in range(0, source.size, _T_CHUNK):
            x, h = source[lo:lo + _T_CHUNK], target[lo:lo + _T_CHUNK]
            clamped, root, u, series = work[:, :x.size]
            # Clamped before any arithmetic, so that inf raises no warning;
            # the entries this changes, and NaN, get stdtr, read before h
            # is written in case h is x.
            np.clip(x, -_T_CUT, _T_CUT, out=clamped)
            tail = np.flatnonzero(clamped != x)
            exact = stdtr(self.dof, x[tail])
            np.multiply(clamped, clamped, out=root)
            root /= self.dof
            np.log1p(root, out=root)
            root *= self.dof - 0.5
            np.multiply(root, self._u_scale, out=u)
            u -= 1.0
            np.sqrt(root, out=root)
            np.copysign(root, clamped, out=root)
            series.fill(self._power[-1])
            for c in self._power[-2::-1]:
                series *= u
                series += c
            # r (1 + series) as r + r series: 1 + series is never rounded.
            series *= root
            series += root
            ndtr(series, out=h)
            h[tail] = exact
        return result if out is not None or t.ndim else result[()]


def draw_replications(
    truth: TrueProcess, sigma1_chol: np.ndarray, gen: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, y) as (n, m) arrays, the next n replications of `gen`:
    theta ~ N(theta0, Sigma1), y = theta + N(0, sigma0^2 I), with
    `sigma1_chol` the lower Cholesky factor of Sigma1, which the caller
    builds once for all its blocks.

    Row r is the r-th successive single draw `tests/oracles.draw_dataset(truth,
    gen)` would make, the reference the tests pin it to: m normals for theta,
    then m for the noise, all n rows from one `standard_normal` call.
    """
    m = truth.m
    z = gen.standard_normal((n, 2 * m))
    theta = tri_mul(z[:, :m], sigma1_chol)
    theta += truth.theta0
    y = z[:, m:]
    y *= np.sqrt(truth.sigma0_sq)
    y += theta
    return theta, y


# Tolerance, relative and absolute, for a spec's value to equal the truth's
# entry by entry: its prior mean here, its covariance in `divergence`.
_SAME_TOL = 1e-12


def check_spec(truth: TrueProcess, spec: ModelSpec) -> None:
    """Raise unless `spec` has the dimension and the prior mean of `truth`.
    H0i is theta_i >= theta0_i for the truth's theta0, and the spec's scores
    are centred on its own, so the two must agree for the scores to test
    the hypotheses: the Monte Carlo (`fdr.replicate`) and the sampling laws
    (`sampdist.check_law`) both require it."""
    if spec.m != truth.m:
        raise ParameterError(f"spec dimension {spec.m} does not match the truth's {truth.m}")
    if not np.allclose(spec.theta0, truth.theta0, rtol=_SAME_TOL, atol=_SAME_TOL):
        raise ParameterError("the spec's prior mean must equal the truth's")


def require_noise(spec: ModelSpec, mode: type) -> None:
    """Raise unless `spec` uses the noise mode `mode`."""
    if not isinstance(spec.noise, mode):
        name = "known-variance" if mode is KnownVariance else "unknown-variance"
        raise ParameterError(f"spec must use the {name} noise mode")


class ModelSpec:
    """The analyst's assumed model: prior mean theta0, prior scale g,
    specified covariance Sigma_spec and noise mode; and the posterior of theta
    it implies, from one Cholesky factor built on construction.

    With noise scale s (sigma0^2 when the variance is known, 1 under the
    inverse-gamma prior) and K = s I + g Sigma_spec, the posterior covariance
    (the shape matrix of the multivariate t when the variance is unknown) is
    A = s (I - s K^{-1}), and with r = y - theta0 the posterior mean is
    theta0 + S r with the smoother S = A / s = I - s K^{-1}. Under the
    inverse-gamma prior the posterior is multivariate t with m + 2 alpha
    degrees of freedom, and its scale depends on y only through the quadratic
    form r' K^{-1} r = r.r - r.(S r), since s = 1. Nothing here inverts
    Sigma_spec, so an ill-conditioned specification is only ever factored
    after adding s I. K is factored in place and A formed in place of K^{-1}
    (LAPACK potri from K's factor), so A is the one m x m array the spec
    builds, in either mode.

    A diagonal Sigma_spec = diag(d) needs no factor: A = diag(a) with
    a_i = s g d_i / (s + g d_i), and the spec keeps only the vector a
    (`a_diag`), scaling residuals elementwise.

    Every posterior variance a_ii must be positive, or the scores of that
    coordinate are NaN: a dense spec checks diag(A), a diagonal one checks
    d > 0, which holds exactly when both K and A are positive. The posterior
    is built eagerly: a lazy build would run after the draws it scores and
    raise the peak memory of a sweep point.
    """

    def __init__(self, theta0, g: float, sigma_spec: CovarianceMatrix,
                 noise: KnownVariance | UnknownVariance):
        if not 0 < g < np.inf:
            raise ParameterError("prior scale g must be positive and finite")
        self.theta0 = _prior_mean(theta0, sigma_spec, "sigma_spec")
        self.g, self.sigma_spec, self.noise = g, sigma_spec, noise
        self.m = self.theta0.shape[0]
        self.known = isinstance(noise, KnownVariance)
        self.scale = noise.sigma0_sq if self.known else 1.0
        self.diagonal = sigma_spec.is_diagonal
        if self.diagonal:
            d = sigma_spec.variances
            if not np.all(d > 0):
                raise NotPositiveDefiniteError(
                    f"diagonal Sigma_spec of dim {self.m} is not positive definite: "
                    f"{np.count_nonzero(~(d > 0))} entries are not positive"
                )
            gd = g * d
            self.a_diag = self.scale * gd / (gd + self.scale)
        else:
            diag = np.diag_indices(self.m)
            # K, its factor and A share one m x m buffer.
            a = g * sigma_spec.entries
            a[diag] += self.scale
            a = chol_inverse(chol(a, overwrite=True), overwrite=True)
            a *= -self.scale * self.scale
            a[diag] += self.scale
            self.a = a
            # A copy: a view would keep A alive in every law built from the spec.
            self.a_diag = a.diagonal().copy()
            if not np.all(self.a_diag > 0):
                raise NotPositiveDefiniteError(
                    f"posterior covariance A of dim {self.m} has "
                    f"{np.count_nonzero(~(self.a_diag > 0))} variances that are not positive"
                )
        self._sd = np.sqrt(self.a_diag)
        self.dof = None if self.known else self.m + 2 * noise.alpha
        self._psi = ndtr if self.known else StudentT(self.dof)

    def _shift(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(S r, r' K^{-1} r) with r = y - theta0, accepting (m,) or (n, m);
        the quadratic form is None when the variance is known."""
        resid = np.asarray(y, dtype=float) - self.theta0
        # A is symmetric, so r @ A is (A r')'; a diagonal A scales each column.
        shift = resid * self.a_diag if self.diagonal else resid @ self.a
        if self.known:
            shift /= self.scale
            return shift, None
        # Row-wise dot products without an (n, m) temporary.
        quad = np.einsum("...i,...i->...", resid, resid)
        quad -= np.einsum("...i,...i->...", resid, shift)
        return shift, quad

    def standardized(self, y: np.ndarray) -> np.ndarray:
        """(posterior mean - theta0) / posterior scale: the argument of the
        posterior CDF `cdf`, so Phi^{-1}(h) exactly when the variance is
        known and the Student-t quantile of h when it is not.

        Downstream density evaluations work with this quantity directly so
        that tail values are not lost to Phi saturating at 1.0 in float64.
        """
        z, quad = self._shift(y)
        z /= self._sd
        if not self.known:
            z /= np.sqrt((2 * self.noise.beta + quad) / self.dof)[..., None]
        return z

    def cdf(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """h = Psi(z), the posterior CDF at the standardized score z: `ndtr`
        when the variance is known, and the Student-t kernel `StudentT(dof)`
        when it is not (Hill's transform with a fitted correction, within
        4.5e-16 of the exact CDF, and `stdtr` itself for |z| > 37, inf and
        NaN).
        `cdf(standardized(y))` is h_i = P(theta_i >= theta0_i | y), for (m,)
        or (n, m) y; `out` is as for a numpy ufunc, z itself included."""
        return self._psi(z, out=out)

