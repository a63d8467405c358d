"""Exception types shared across the package."""


class NldropError(Exception):
    """Base class for all package errors."""


class ParameterError(NldropError, ValueError):
    """A scalar parameter is outside its admissible range."""


class DomainError(NldropError, ValueError):
    """An evaluation point is outside the function's domain."""


class PreconditionError(NldropError):
    """A structural precondition of an operation does not hold."""


class ConfigError(NldropError):
    """Invalid, missing, or unknown configuration input."""


class ShapeFormatError(NldropError):
    """A shape file does not conform to the documented format."""
