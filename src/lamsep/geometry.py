"""Constant-curvature wall geometry and normal (wall-fitted) coordinates.

The wall is an arc of radius ``delta`` traversed clockwise, so the tangent
angle decreases with arc length and the fluid sits on the outward-normal side.
With ``a(s) = (s + phase) / delta`` the parametrization is

    boundary point   phi(s)  = center + delta * (sin a, cos a)
    unit tangent     e1(s)   = (cos a, -sin a)
    outward normal   e2(s)   = (sin a, cos a)

and the normal-coordinate chart places (s, r) at ``center + (delta+r)*e2(s)``.
The array maps broadcast over numpy arrays of ``s`` and ``r``; ``chart_pair``
and ``center_offset`` are their float twins for one point, which the tracer
calls in its loops, and agree with them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfChart, PointBelowWall

# from_cartesian accepts this fraction of the s-range beyond each end, so
# tracers that overshoot the sector slightly still get chart coordinates.
CHART_PADDING = 0.10


@dataclass(frozen=True)
class ArcBoundary:
    """Circular wall segment: radius ``delta``, phase shift, center, s-interval."""

    delta: float
    phase: float
    center: tuple[float, float]
    s_range: tuple[float, float]

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.s_range[0] >= self.s_range[1]:
            raise ValueError(f"s_range must be increasing, got {self.s_range}")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "s_range", (float(self.s_range[0]), float(self.s_range[1])))

    @property
    def center_array(self) -> np.ndarray:
        return np.array(self.center, dtype=float)

    @property
    def padded_s_range(self) -> tuple[float, float]:
        s1, s2 = self.s_range
        pad = CHART_PADDING * (s2 - s1)
        return s1 - pad, s2 + pad


@dataclass(frozen=True)
class NormalPoint:
    """Wall-fitted coordinates: arc length ``s`` along the wall, distance ``r`` above it."""

    s: float
    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"wall distance r must be >= 0, got {self.r}")


@dataclass(frozen=True)
class LocalFrame:
    """Orthonormal frame at a wall point: origin Q, tangent e1, outward normal e2."""

    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def to_world(self, s: float, r: float) -> np.ndarray:
        """Map frame coordinates (s, r) to the plane: Q + s*e1 + r*e2."""
        return self.origin + s * self.e1 + r * self.e2

    def components(self, vec: np.ndarray) -> tuple[float, float]:
        """Decompose a plane vector into (tangential, normal) components."""
        return float(np.dot(vec, self.e1)), float(np.dot(vec, self.e2))


def _angle(arc: ArcBoundary, s):
    return (np.asarray(s, dtype=float) + arc.phase) / arc.delta


def arc_point(arc: ArcBoundary, s):
    """Boundary point phi(s); clockwise, unit speed."""
    a = _angle(arc, s)
    return arc.center_array + arc.delta * np.stack([np.sin(a), np.cos(a)], axis=-1)


def arc_tangent(arc: ArcBoundary, s):
    """Unit tangent e1(s) = d phi/ds."""
    a = _angle(arc, s)
    return np.stack([np.cos(a), -np.sin(a)], axis=-1)


def arc_normal(arc: ArcBoundary, s):
    """Unit normal e2(s), pointing away from the center (into the fluid)."""
    a = _angle(arc, s)
    return np.stack([np.sin(a), np.cos(a)], axis=-1)


def local_frame(arc: ArcBoundary, s: float) -> LocalFrame:
    return LocalFrame(
        origin=arc_point(arc, s),
        e1=arc_tangent(arc, s),
        e2=arc_normal(arc, s),
    )


def chart_pair(arc: ArcBoundary, s: float, r: float):
    """Float twin of ``to_cartesian`` and ``arc_normal`` at one (s, r).

    Returns the plane point (x, y) and the outward normal (n0, n1) = e2(s) as
    float pairs, bit for bit the array maps' values; the tangent e1(s) is
    (n1, -n0).
    """
    a = (s + arc.phase) / arc.delta
    n0, n1 = math.sin(a), math.cos(a)
    scale = arc.delta + r
    return (arc.center[0] + scale * n0, arc.center[1] + scale * n1), (n0, n1)


def to_cartesian(arc: ArcBoundary, p: NormalPoint | tuple[float, float]):
    """Chart map: (s, r) -> center + (delta + r) * e2(s)."""
    if isinstance(p, NormalPoint):
        s, r = p.s, p.r
    else:
        s, r = p
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    a = _angle(arc, s)
    offset = np.stack([np.sin(a), np.cos(a)], axis=-1)
    return arc.center_array + (arc.delta + r)[..., None] * offset


def from_cartesian(arc: ArcBoundary, x) -> NormalPoint:
    """Invert the chart: plane point (a float pair or a 2-vector) -> NormalPoint.

    Raises PointBelowWall for points inside the wall circle and OutOfChart for
    angular positions outside the padded sector.
    """
    rx, ry = float(x[0]) - arc.center[0], float(x[1]) - arc.center[1]
    dist = float(np.hypot(rx, ry))
    if dist < arc.delta * (1.0 - 1e-12):
        raise PointBelowWall(f"|x - center| = {dist} < delta = {arc.delta}")
    r = max(dist - arc.delta, 0.0)
    # angle convention matches arc_point: x offset = sin, y offset = cos
    s_raw = math.atan2(rx, ry) * arc.delta - arc.phase
    lo, hi = arc.padded_s_range
    period = 2.0 * math.pi * arc.delta
    mid = 0.5 * (arc.s_range[0] + arc.s_range[1])
    s = s_raw - period * round((s_raw - mid) / period)
    if not lo <= s <= hi:
        raise OutOfChart(f"s = {s} outside padded sector [{lo}, {hi}]")
    return NormalPoint(s=s, r=r)


def center_offset(center, x: float, y: float) -> tuple[float, float, float]:
    """Offset (rx, ry) of the point (x, y) from ``center`` and its length.

    The length is sqrt(rx*rx + ry*ry), bit for bit what
    ``np.linalg.norm(offsets, axis=-1)`` gives (math.hypot is not).
    """
    rx, ry = x - center[0], y - center[1]
    return rx, ry, math.sqrt(rx * rx + ry * ry)


def local_center_distance(delta: float, s, r):
    """Distance from the arc center to the frame point Q + s*e1 + r*e2.

    Equals sqrt((delta + r)^2 + s^2): the frame coordinates form a right
    triangle with the center offset delta + r.
    """
    return np.hypot(np.asarray(delta, dtype=float) + r, s)


def arc_segment_length(arc: ArcBoundary, s1, s2, r):
    """Length of the offset arc {Phi(s', r): s1 <= s' <= s2}.

    Concentric arcs scale with their radius: ((r + delta) / delta) * (s2 - s1).
    """
    return (np.asarray(r, dtype=float) + arc.delta) / arc.delta * (np.asarray(s2) - np.asarray(s1))
