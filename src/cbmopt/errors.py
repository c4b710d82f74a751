"""Exception hierarchy shared across the library."""


class CbmError(Exception):
    """Base class for all library errors."""


class DomainError(CbmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegrationError(CbmError, ArithmeticError):
    """Adaptive quadrature met a non-finite integrand value or could not reach its tolerance."""


class TruncationCapError(CbmError, ArithmeticError):
    """A shock-count or gamma-mixture series hit its term cap before its tail bound was met."""


class TailCapError(CbmError, ArithmeticError):
    """The inspection-count series hit its cap before detection became near-certain."""


class HorizonCapError(CbmError, RuntimeError):
    """A simulated cycle exceeded the maximum number of inspections."""


class AllStartsFailedError(CbmError, RuntimeError):
    """No optimizer start produced a finite objective value."""


class ConfigError(CbmError, ValueError):
    """A run configuration is malformed or violates an invariant."""
