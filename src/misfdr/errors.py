"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside its allowed domain."""


class NotPositiveDefiniteError(ValueError):
    """A matrix has no Cholesky factor: it is not positive definite."""


class BoundaryError(ValueError):
    """A statistic sits at 0 or 1, where the Gaussian quantile is infinite."""
