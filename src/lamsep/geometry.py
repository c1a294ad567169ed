"""Constant-curvature wall geometry and normal (wall-fitted) coordinates.

The wall is an arc of radius ``delta`` traversed clockwise, so the tangent
angle decreases with arc length and the fluid sits on the outward-normal side.
The wall's circle is centred on the origin; with ``a(s) = s / delta`` the
parametrization is

    boundary point   phi(s)  = delta * (sin a, cos a)
    unit tangent     e1(s)   = (cos a, -sin a)
    outward normal   e2(s)   = (sin a, cos a)

and the normal-coordinate chart places (s, r) at ``(delta+r)*e2(s)``.
The maps take one station ``s`` as a float and return float pairs, so a trace
maps its chart points one by one; ``to_cartesian`` also takes an array of
wall distances ``r`` at one station and then returns arrays of x and y.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CheckedRecord, DomainError, OutOfChart, ValidationError

# the chart takes this fraction of the s-range beyond each end, so a trace that
# overshoots the sector slightly (and from_cartesian's points) stays in it
CHART_PADDING = 0.10


class _ArcFields(NamedTuple):
    delta: float
    s_range: tuple[float, float]


class ArcBoundary(CheckedRecord, _ArcFields):
    """Circular wall segment about the origin: radius ``delta``, s-interval."""

    __slots__ = ()

    def __new__(cls, delta, s_range):  # the s-interval as a float pair
        return super().__new__(cls, delta, (float(s_range[0]), float(s_range[1])))

    def _check(self):
        if self.delta <= 0:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        if self.s_range[0] >= self.s_range[1]:
            raise ValidationError(f"s_range must be increasing, got {self.s_range}")

    @property
    def padded_s_range(self) -> tuple[float, float]:
        """The chart's stations: s_range widened by CHART_PADDING of its length at
        each end, refused when as long as the wall circle, on which
        ``wall_station`` would wrap a station onto another."""
        s1, s2 = self.s_range
        pad = CHART_PADDING * (s2 - s1)
        lo, hi = s1 - pad, s2 + pad
        period = 2.0 * math.pi * self.delta
        if not hi - lo < period:  # inf and NaN fail too
            raise DomainError(f"s_range {list(self.s_range)} widened to the chart's "
                              f"[{lo:g}, {hi:g}] must be shorter than the wall circle "
                              f"2*pi*delta = {period:g} (delta = {self.delta:g})")
        return lo, hi


class NormalPoint(NamedTuple):
    """Wall-fitted coordinates: arc length ``s`` along the wall, distance ``r`` above it."""

    s: float
    r: float


class LocalFrame(NamedTuple):
    """Orthonormal frame at a wall point: origin Q, tangent e1, outward normal e2 (float pairs)."""

    origin: tuple[float, float]
    e1: tuple[float, float]
    e2: tuple[float, float]

    def to_world(self, s: float, r: float) -> tuple[float, float]:
        """Map frame coordinates (s, r) to the plane: Q + s*e1 + r*e2."""
        (q0, q1), (t0, t1), (n0, n1) = self.origin, self.e1, self.e2
        return q0 + s * t0 + r * n0, q1 + s * t1 + r * n1

    def components(self, vec) -> tuple[float, float]:
        """Decompose a plane vector into (tangential, normal) components."""
        (t0, t1), (n0, n1) = self.e1, self.e2
        return vec[0] * t0 + vec[1] * t1, vec[0] * n0 + vec[1] * n1


def arc_point(arc: ArcBoundary, s: float) -> tuple[float, float]:
    """Boundary point phi(s); clockwise, unit speed."""
    return to_cartesian(arc, (s, 0.0))


def arc_tangent(arc: ArcBoundary, s: float) -> tuple[float, float]:
    """Unit tangent e1(s) = d phi/ds = (n1, -n0) for the normal (n0, n1)."""
    n0, n1 = arc_normal(arc, s)
    return n1, -n0


def arc_normal(arc: ArcBoundary, s: float) -> tuple[float, float]:
    """Unit normal e2(s) = (sin a, cos a), pointing away from the origin (into the fluid)."""
    a = s / arc.delta
    if not math.isfinite(a):
        raise DomainError(f"wall station s = {s} leaves the float range: its angle s/delta = {a}")
    return math.sin(a), math.cos(a)


def local_frame(arc: ArcBoundary, s: float) -> LocalFrame:
    return LocalFrame(origin=arc_point(arc, s), e1=arc_tangent(arc, s), e2=arc_normal(arc, s))


def to_cartesian(arc: ArcBoundary, p: tuple[float, float]):
    """Chart map: (s, r) -> (delta + r) * e2(s), as the pair (x, y).

    ``s`` is one float; ``r`` may be an array, which gives arrays x and y.
    """
    s, r = p
    n0, n1 = arc_normal(arc, s)
    scale = arc.delta + r
    return scale * n0, scale * n1


def from_cartesian(arc: ArcBoundary, x) -> NormalPoint:
    """Invert the chart: plane point (a float pair or a 2-vector) -> NormalPoint.

    Raises OutOfChart for a point inside the wall circle or at an angular position
    outside the padded sector (and DomainError for a sector the chart would wrap).
    """
    x0, x1 = float(x[0]), float(x[1])
    dist = abs(complex(x0, x1))  # libm hypot
    if dist < arc.delta * (1.0 - 1e-12):
        raise OutOfChart(f"|x| = {dist} < delta = {arc.delta}")
    r = max(dist - arc.delta, 0.0)
    s = wall_station(arc, x0, x1)
    lo, hi = arc.padded_s_range
    if not lo <= s <= hi:
        raise OutOfChart(f"s = {s} outside padded sector [{lo}, {hi}]")
    return NormalPoint(s=s, r=r)


def wall_station(arc: ArcBoundary, x: float, y: float) -> float:
    """The station s of the point (x, y), in the period of the wall circle
    nearest the middle of ``s_range``."""
    # angle convention matches arc_point: x = sin, y = cos
    s_raw = math.atan2(x, y) * arc.delta
    period = 2.0 * math.pi * arc.delta
    mid = 0.5 * (arc.s_range[0] + arc.s_range[1])
    return s_raw - period * round((s_raw - mid) / period)


def norm(x: float, y: float) -> float:
    """The length sqrt(x*x + y*y) of (x, y): its distance from the wall circle's center.

    The field evaluators rely on this rounding for their values; math.hypot
    would round differently in the last bit.
    """
    return math.sqrt(x * x + y * y)


def local_center_distance(delta: float, s: float, r: float) -> float:
    """Distance from the arc center to the frame point Q + s*e1 + r*e2.

    Equals sqrt((delta + r)^2 + s^2): the frame coordinates form a right
    triangle with the center offset delta + r.
    """
    return abs(complex(delta + r, s))


def arc_segment_length(arc: ArcBoundary, s1: float, s2: float, r: float) -> float:
    """Length of the offset arc {Phi(s', r): s1 <= s' <= s2}.

    Concentric arcs scale with their radius: ((r + delta) / delta) * (s2 - s1).
    """
    return (r + arc.delta) / arc.delta * (s2 - s1)
