"""KL divergence between the correct and misspecified laws of the scores.

Under either known-variance law, phi = Phi^{-1}(h) ~ N(0, C^{-1}) with C the
law's copula matrix, so the divergence has a closed form: `kl_laws` from
two laws, `kl_exact` from the truth and the two specs. The unknown-variance
law has no closed-form joint density and is rejected with an explanatory error.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError
from .posterior import KnownVariance, ModelSpec, TrueProcess
from .sampdist import SamplingLaw, _uses_true_cov, law_known_var, require_density


def check_kl_specs(truth: TrueProcess, spec_cor: ModelSpec, spec_mis: ModelSpec) -> None:
    """Raise unless both specs use known variance and `spec_cor` is the truth's
    covariance and noise variance; warn when the two use different g."""
    if not isinstance(spec_cor.noise, KnownVariance) or not isinstance(
        spec_mis.noise, KnownVariance
    ):
        raise ParameterError(
            "KL divergence is implemented for known-variance laws only; the "
            "unknown-variance law has no closed-form joint density"
        )
    same_noise = np.isclose(spec_cor.noise.sigma0_sq, truth.sigma0_sq)
    if not (_uses_true_cov(truth, spec_cor) and same_noise):
        raise ParameterError("spec_cor must use the true covariance and noise variance")
    if not np.isclose(spec_cor.g, spec_mis.g):
        warnings.warn("correct and misspecified specs use different g", stacklevel=3)


def kl_laws(law_cor: SamplingLaw, law_mis: SamplingLaw) -> float:
    """KL(f_cor || f_mis) of the statistic vector in nats, in closed form,
    from the two known-variance laws.

    The expectation under f_cor of the log density ratio:
    (1/2)(log det C_cor - log det C_mis) + (1/2) sum_ij (C_mis - C_cor)_ij S_ij,
    with S = C_cor^{-1} = D_a^{-1/2} B_cor D_a^{-1/2}. Through the difference
    C_mis - C_cor, identical laws give exactly zero.
    """
    require_density(law_cor, law_mis)
    diff = law_mis.copula - law_cor.copula
    diff *= law_cor.b
    root = 1.0 / np.sqrt(np.diag(law_cor.a))
    trace = float(root @ diff @ root)
    return 0.5 * (law_cor.log_det_copula - law_mis.log_det_copula) + 0.5 * trace


def kl_exact(truth: TrueProcess, spec_cor: ModelSpec, spec_mis: ModelSpec) -> float:
    """KL(f_cor || f_mis) of the statistic vector in nats, in closed form: the
    checks of `check_kl_specs`, then `kl_laws` of the two specs' laws."""
    check_kl_specs(truth, spec_cor, spec_mis)
    return kl_laws(law_known_var(truth, spec_cor), law_known_var(truth, spec_mis))

