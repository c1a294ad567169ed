"""Exception types: one class per way a call fails, and every refused input a ValidationError."""


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


class Diverged(LamsepError):
    """The simulated tangential velocity grew beyond ten times its initial maximum."""


class ValidationError(LamsepError, ValueError):
    """A refused input: malformed JSON, an unknown key or flag, a bad value, a record
    or argument check, a simulation config or probe.  The message says what the
    value must be; a config's lists every violation.  A ValueError too, so that a
    caller catches it as either."""
