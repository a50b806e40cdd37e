"""Influence of covariance misspecification on posterior-probability FDR control."""

__version__ = "0.2.0"

from .covariance import (
    CovarianceMatrix,
    GridLayout,
    ar2_cov,
    exponential_cov,
    identity_cov,
    separable_cov,
)
from .divergence import kl_exact
from .errors import BoundaryError, NotPositiveDefiniteError, ParameterError
from .fdr import (
    DecisionSet,
    OperatingCharacteristics,
    operating_characteristics,
    step_up,
)
from .posterior import (
    KnownVariance,
    ModelSpec,
    TrueProcess,
    UnknownVariance,
)
from .sampdist import (
    SamplingLaw,
    joint_log_pdf,
    law_known_var,
    law_unknown_var,
    marginal_cdf,
    marginal_pdf,
    xi_sampler,
    xi_to_h,
)
from .simulation import ExperimentConfig, SweepRow, builtin_example, run_sweep
