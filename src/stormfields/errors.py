"""Exception hierarchy shared across the package."""


class StormFieldsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(StormFieldsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotPositiveDefiniteError(StormFieldsError):
    """A matrix that must be symmetric positive definite is not."""


class FactorizationError(StormFieldsError):
    """A correlation matrix could not be factored: it is not positive
    (semi)definite within the factor's tolerance, or not finite."""


class UnsupportedModelError(StormFieldsError):
    """The requested quantity is not available for this model family."""


class ConfigError(StormFieldsError, ValueError):
    """A run configuration failed validation."""
