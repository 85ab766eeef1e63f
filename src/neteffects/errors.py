"""Exception types raised by the package."""

__all__ = ["NetworkEffectsError", "DuplicateEdgeError", "SelfLoopError", "NonFiniteWeightError",
           "TooFewNodesError", "UnsupportedEffectError", "ZeroVarianceError",
           "NonFiniteStatisticError", "InvalidSpecError"]


class NetworkEffectsError(ValueError):
    """Base class for all errors raised by this package."""


class DuplicateEdgeError(NetworkEffectsError):
    """The same ordered (source, target) pair appears more than once."""


class SelfLoopError(NetworkEffectsError):
    """An edge record has source == target."""


class NonFiniteWeightError(NetworkEffectsError):
    """A weight is NaN or infinite."""


class TooFewNodesError(NetworkEffectsError):
    """The network is too small for the requested computation."""


class UnsupportedEffectError(NetworkEffectsError):
    """The requested effect has no such operation (e.g. no degeneracy
    diagnostic exists for the same-sender and same-receiver effects)."""


class ZeroVarianceError(NetworkEffectsError):
    """A studentized statistic is undefined because the variance estimate
    is exactly zero (e.g. on a constant network)."""


class NonFiniteStatisticError(NetworkEffectsError):
    """A test statistic or diagnostic came out NaN or infinite, e.g. because
    products of the weights overflow float64."""


class InvalidSpecError(NetworkEffectsError):
    """A simulation specification contains invalid values."""
