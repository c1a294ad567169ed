"""Exception types shared across the library: one class per way a call fails."""


class LamsepError(Exception):
    """Base class for all library errors."""


class PointBelowWall(LamsepError):
    """A point lies strictly inside the wall circle."""


class OutOfChart(LamsepError):
    """A point falls outside the angular sector covered by the boundary chart."""


class DomainError(LamsepError):
    """An argument violates a documented domain restriction (e.g. r >= alpha1/alpha2,
    or a pressure whose wall gradient is not the no-slip value nu*(a1/delta - a2))."""


class NonMonotoneSequence(LamsepError):
    """Successive differences of an extrapolation sequence do not shrink."""


class NoCrossing(LamsepError):
    """A traced curve met no target (a normal ray, a wall distance, a level curve or
    level) within its length."""


class CriticalPoint(LamsepError):
    """The traced field, a velocity or a pressure gradient, vanished or is singular."""


class ConfigError(LamsepError):
    """A simulation input (a configuration or a probe radius) violates its invariants."""


class Diverged(LamsepError):
    """The simulated tangential velocity grew beyond ten times its initial maximum."""


class ParseError(LamsepError):
    """A run configuration could not be parsed (unknown or malformed keys)."""


class ValidationError(LamsepError):
    """A run configuration parsed but failed validation; message lists all violations."""
