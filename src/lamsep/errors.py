"""Exception types: one class per way a call fails.  A malformed value or a failed
record or argument check is a ValidationError; a value outside a formula's or a
construction's domain, or a result past the float range, is a DomainError."""


class LamsepError(Exception):
    """Base class for all library errors."""


class OutOfChart(LamsepError):
    """A point is off the boundary chart: strictly inside the wall circle, or outside
    the padded angular sector."""


class DomainError(LamsepError):
    """A value outside a formula's or a construction's domain (e.g. r >= alpha1/alpha2,
    a zeta station outside the padded segment, or a pressure whose wall gradient is
    not the no-slip value nu*(a1/delta - a2)), or a result past the float range."""


class NonMonotoneSequence(LamsepError):
    """Successive differences of an extrapolation sequence do not shrink."""


class NoCrossing(LamsepError):
    """A traced curve met no target (a normal ray, a wall distance, a level curve or
    level) within its length."""


class CriticalPoint(LamsepError):
    """The traced field, a velocity or a pressure gradient, fell below 1e-10 of its
    size at the march's start, is singular or is not finite."""


class Diverged(LamsepError):
    """The simulated tangential velocity grew beyond ten times its initial maximum."""


class ValidationError(LamsepError, ValueError):
    """A malformed value, or a failed record or argument check: malformed JSON, an
    unknown key or flag, a bad value, a simulation config or probe.  The message says
    what the value must be; a config's lists every violation.  A ValueError too, so
    that a caller catches it as either."""


class CheckedRecord:
    """First base of an input record, before its NamedTuple: runs ``_check`` when made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)
