"""KL divergence between the correct and misspecified laws of the scores.

Under either known-variance law, phi = Phi^{-1}(h) ~ N(0, C^{-1}) with C the
law's copula matrix, so the divergence has a closed form (`kl_exact`).
`kl_known_var` estimates the same quantity by Monte Carlo and serves as its
test oracle. The unknown-variance law has no closed-form joint density and is
rejected with an explanatory error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import BoundaryError, ParameterError
from .posterior import KnownVariance, ModelSpec, PosteriorOperator, TrueProcess, draw_replications
from .rng import spawn
from .sampdist import SamplingLaw, _check_open_unit, _law, law_known_var

DEFAULT_DRAWS = 1000

# Abort if more than this fraction of draws hit a floating-point boundary.
MAX_EXCLUDED_FRACTION = 1e-3


@dataclass(frozen=True)
class KLEstimate:
    total: float
    per_dim: float
    std_err: float
    n_draws: int
    n_excluded: int = 0


def _log_density_ratio_phi(phi: np.ndarray, law_cor: SamplingLaw, law_mis: SamplingLaw):
    diff = law_mis.copula - law_cor.copula
    quad = np.sum(phi * (phi @ diff), axis=-1)
    return 0.5 * (law_cor.log_det_copula - law_mis.log_det_copula) + 0.5 * quad


def log_density_ratio(h: np.ndarray, law_cor: SamplingLaw, law_mis: SamplingLaw):
    """log f_cor(h) - log f_mis(h) with the phi'phi terms cancelled.

    Accepts (m,) or (n, m); identical laws give exactly zero.
    """
    return _log_density_ratio_phi(ndtri(_check_open_unit(h)), law_cor, law_mis)


def _check_kl_specs(truth: TrueProcess, spec_cor: ModelSpec, spec_mis: ModelSpec) -> None:
    if not isinstance(spec_cor.noise, KnownVariance) or not isinstance(
        spec_mis.noise, KnownVariance
    ):
        raise ParameterError(
            "KL divergence is implemented for known-variance laws only; the "
            "unknown-variance law has no closed-form joint density"
        )
    if not (np.allclose(spec_cor.sigma_spec.entries, truth.sigma1.entries)
            and np.isclose(spec_cor.noise.sigma0_sq, truth.sigma0_sq)):
        raise ParameterError("spec_cor must use the true covariance and noise variance")
    if not np.isclose(spec_cor.g, spec_mis.g):
        warnings.warn("correct and misspecified specs use different g", stacklevel=3)


def kl_exact(truth: TrueProcess, spec_cor: ModelSpec, spec_mis: ModelSpec) -> float:
    """KL(f_cor || f_mis) of the statistic vector in nats, in closed form.

    The expectation under f_cor of the log density ratio:
    (1/2)(log det C_cor - log det C_mis) + (1/2) sum_ij (C_mis - C_cor)_ij S_ij,
    with S = C_cor^{-1} = D_a^{-1/2} B_cor D_a^{-1/2}. Through the difference
    C_mis - C_cor, identical laws give exactly zero.
    """
    _check_kl_specs(truth, spec_cor, spec_mis)
    law_cor = law_known_var(truth, spec_cor)
    law_mis = law_known_var(truth, spec_mis)
    diff = law_mis.copula - law_cor.copula
    diff *= law_cor.b
    root = 1.0 / np.sqrt(np.diag(law_cor.a))
    trace = float(root @ diff @ root)
    return 0.5 * (law_cor.log_det_copula - law_mis.log_det_copula) + 0.5 * trace


def kl_known_var(
    truth: TrueProcess,
    spec_cor: ModelSpec,
    spec_mis: ModelSpec,
    n_draws: int = DEFAULT_DRAWS,
    rng=0,
) -> KLEstimate:
    """KL(f_cor || f_mis) of the statistic vector, by Monte Carlo: the test
    oracle for `kl_exact`.

    `rng` may be an int root seed (per-draw substreams are derived from it,
    so the estimate is reproducible and order-independent) or a Generator.
    """
    _check_kl_specs(truth, spec_cor, spec_mis)

    _, y = draw_replications(truth, spawn(rng, n_draws))
    # Work with phi = Phi^{-1}(h) computed directly from the standardized
    # posterior mean: round-tripping through h loses the tail (h saturates
    # at 1.0 in float64 once phi exceeds ~8.2) and would force exclusions.
    op_cor = PosteriorOperator(spec_cor)
    phi = op_cor.standardized(y)

    interior = np.all(np.isfinite(phi), axis=1)
    n_excluded = int(n_draws - interior.sum())
    if n_excluded > MAX_EXCLUDED_FRACTION * n_draws:
        raise BoundaryError(
            f"{n_excluded} of {n_draws} draws produced boundary statistics"
        )

    law_cor = _law(truth, op_cor)
    law_mis = law_known_var(truth, spec_mis)
    summands = _log_density_ratio_phi(phi[interior], law_cor, law_mis)
    n_kept = summands.shape[0]
    total = float(summands.mean())
    std_err = float(summands.std(ddof=1) / np.sqrt(n_kept)) if n_kept > 1 else 0.0
    return KLEstimate(
        total=total,
        per_dim=total / truth.m,
        std_err=std_err,
        n_draws=n_kept,
        n_excluded=n_excluded,
    )
