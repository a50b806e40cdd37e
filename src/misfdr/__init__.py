"""Influence of covariance misspecification on posterior-probability FDR control."""

__version__ = "0.1.0"

from .covariance import (
    CovarianceMatrix,
    GridLayout,
    ar2_cov,
    exponential_cov,
    identity_cov,
    separable_cov,
)
from .divergence import KLEstimate, kl_exact, kl_known_var, log_density_ratio
from .errors import BoundaryError, NotPositiveDefiniteError, ParameterError
from .fdr import (
    DecisionSet,
    OperatingCharacteristics,
    operating_characteristics,
    step_up,
    truth_labels,
)
from .posterior import (
    Dataset,
    Hypotheses,
    KnownVariance,
    ModelSpec,
    TrueProcess,
    UnknownVariance,
    draw_dataset,
    posterior_probs_known_var,
    posterior_probs_unknown_var,
)
from .sampdist import (
    SamplingLaw,
    joint_cdf_mc,
    joint_log_pdf,
    law_known_var,
    law_unknown_var,
    marginal_cdf,
    marginal_pdf,
    xi_sampler,
    xi_to_h,
)
from .simulation import ExperimentConfig, SweepRow, builtin_example, run_sweep
