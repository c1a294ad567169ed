"""Exception types shared across the library."""


class LamsepError(Exception):
    """Base class for all library errors."""


class PointBelowWall(LamsepError):
    """A point lies strictly inside the wall circle."""


class OutOfChart(LamsepError):
    """A point falls outside the angular sector covered by the boundary chart."""


class DomainError(LamsepError):
    """An argument violates a documented domain restriction (e.g. r >= alpha1/alpha2)."""


class NonMonotoneSequence(LamsepError):
    """Successive differences of an extrapolation sequence do not shrink."""


class StagnationEncountered(LamsepError):
    """The speed dropped below the stagnation tolerance while tracing."""


class NoCrossing(LamsepError):
    """A streamline never crossed the target normal ray within the length budget."""


class CriticalPoint(LamsepError):
    """The pressure gradient vanished while tracing a pressure line."""


class NoIntersection(LamsepError):
    """A pressure line never met the target level curve within the length budget."""


class WallGradientMismatch(LamsepError):
    """The wall pressure gradient deviates from the no-slip value nu*(a1/delta - a2)."""


class ConfigError(LamsepError):
    """A simulation configuration violates its invariants."""


class Diverged(LamsepError):
    """The simulated tangential velocity grew beyond ten times its initial maximum."""


class ProbeOutsideGrid(LamsepError):
    """A probe radius falls outside the simulated annulus."""


class ParseError(LamsepError):
    """A run configuration could not be parsed (unknown or malformed keys)."""


class ValidationError(LamsepError):
    """A run configuration parsed but failed validation; message lists all violations."""
