"""Exception types shared across the package."""


class GaussExtremalError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GaussExtremalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotPositiveDefinite(GaussExtremalError):
    """A matrix required to be positive definite failed its pivot test."""


class CrossCheckFailed(GaussExtremalError):
    """Two equivalent computations of one quantity disagreed beyond roundoff."""


class Infeasible(GaussExtremalError):
    """No test channel attains the requested distortion targets."""
