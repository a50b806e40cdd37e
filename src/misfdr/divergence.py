"""KL divergence between the correct and misspecified laws of the scores.

Under either known-variance law, phi = Phi^{-1}(h) ~ N(0, F F') with F the
law's factor, so the divergence has a closed form: `kl_laws` from two laws,
`kl_exact` from the truth and the two specs. The unknown-variance joint
density is not implemented yet: `check_law` rejects a spec in that mode.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError
from .linalg import tri_solve
from .posterior import _SAME_TOL, KnownVariance, ModelSpec, TrueProcess
from .sampdist import SamplingLaw, _law, check_law, require_density


def check_kl_specs(truth: TrueProcess, spec_cor: ModelSpec, spec_mis: ModelSpec) -> None:
    """Raise unless `spec_cor` uses the truth's covariance, entry by entry to
    within rounding, and a known noise variance equal to the truth's; warn
    when the two specs use different g. The noise mode, dimension and prior
    mean of each spec are checked by `check_law`."""
    spec_cov, true_cov = spec_cor.sigma_spec, truth.sigma1
    same_cov = spec_cov is true_cov or (spec_cov.dim == true_cov.dim and np.allclose(
        spec_cov.entries, true_cov.entries, rtol=_SAME_TOL, atol=_SAME_TOL
    ))
    if not same_cov:
        raise ParameterError("spec_cor must use the true covariance")
    if spec_cor.known and not np.isclose(spec_cor.noise.sigma0_sq, truth.sigma0_sq):
        raise ParameterError("spec_cor's noise variance must equal the truth's")
    if not np.isclose(spec_cor.g, spec_mis.g):
        warnings.warn("correct and misspecified specs use different g", stacklevel=3)


def kl_laws(law_cor: SamplingLaw, law_mis: SamplingLaw) -> float:
    """KL(f_cor || f_mis) of the statistic vector in nats, in closed form,
    from the two known-variance laws.

    With E = F_mis^{-1} (F_cor - F_mis), lower triangular, KL = (1/2)|E|_F^2 +
    sum_i (E_ii - log1p E_ii): nonnegative term by term, exactly zero for
    identical laws. F = D_a^{-1/2} L_B, so E = L_mis^{-1} (D_w L_cor - L_mis)
    with w = (diag A_mis / diag A_cor)^{1/2}, one solve in place.
    """
    require_density(law_cor, law_mis)
    if law_cor.m != law_mis.m:
        raise ParameterError(f"the laws have dimensions {law_cor.m} and {law_mis.m}")
    w = np.sqrt(law_mis.a_diag / law_cor.a_diag)
    diff = law_cor.b_chol * w[:, None]
    diff -= law_mis.b_chol
    e = tri_solve(law_mis.b_chol, diff)
    e_diag = np.diag(e)
    return float(0.5 * np.vdot(e, e) + np.sum(e_diag - np.log1p(e_diag)))


def kl_exact(truth: TrueProcess, spec_cor: ModelSpec, spec_mis: ModelSpec) -> float:
    """KL(f_cor || f_mis) of the statistic vector in nats, in closed form: the
    checks of `check_kl_specs` and each spec's `check_law` (noise mode,
    dimension, prior mean), all before either law is built, then
    `kl_laws` of the two laws."""
    check_kl_specs(truth, spec_cor, spec_mis)
    for spec in (spec_cor, spec_mis):
        check_law(truth, spec, KnownVariance)
    return kl_laws(_law(truth, spec_cor), _law(truth, spec_mis))

