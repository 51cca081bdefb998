"""Exception types shared across the package."""


class RvqlabError(ValueError):
    """Base class for domain and precondition failures."""


class DegenerateSpectrumError(RvqlabError):
    """Eigenvalue gap too small for a closed form; use sampling or quadrature."""


class UnsupportedModelError(RvqlabError):
    """Operation does not apply to this channel model or dimension."""


class SingularSkewError(RvqlabError):
    """Skew matrix is rank deficient (or numerically close to it)."""


class SingularCovarianceError(RvqlabError):
    """Covariance input is not positive definite where it must be."""


class ResourceLimitError(RvqlabError):
    """Requested size exceeds a hard resource cap (codebook bits, intervals)."""
