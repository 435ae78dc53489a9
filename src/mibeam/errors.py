"""Exception types shared across the package."""


class MibeamError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MibeamError):
    """Invalid or inconsistent experiment configuration."""


class Infeasible(MibeamError):
    """The requested constraints cannot be met (rate target vs power budget)."""


class NumericalError(MibeamError):
    """A numerical routine failed in a way that indicates a broken input."""


class NotPositiveDefinite(NumericalError):
    """A matrix required to be Hermitian positive definite is not."""


class NotPSD(NumericalError):
    """A matrix required to be Hermitian positive semidefinite is not."""


class BracketFailure(NumericalError):
    """The secular-equation Newton solve could not bracket the power multiplier."""


class DegenerateConstraint(NumericalError):
    """A constraint became numerically degenerate during a dual update."""
