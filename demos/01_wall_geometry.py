"""Wall geometry: the circular boundary chart and its exact identities.

The wall is an arc of radius delta traversed clockwise (tangent angle
decreasing), with the fluid on the outward-normal side.  Normal coordinates
(s, r) place a point at distance r above the wall point at arc length s.
"""

import numpy as np

from lamsep import (
    ArcBoundary,
    arc_point,
    arc_segment_length,
    arc_tangent,
    from_cartesian,
    local_center_distance,
    local_frame,
    to_cartesian,
)

arc = ArcBoundary(delta=2.0, s_range=(0.0, 1.0))

print("== boundary parametrization ==")
print("phi(0)      =", arc_point(arc, 0.0), " (crown of the circle)")
print("tangent(0)  =", arc_tangent(arc, 0.0), " -> flow direction is +x here")
for s in (0.0, 0.25, 0.5):
    ang = np.degrees(np.arctan2(*arc_tangent(arc, s)[::-1]))
    print(f"tangent angle at s={s}: {ang:8.3f} deg  (decreasing: clockwise wall)")

print()
print("== normal coordinates ==")
p = to_cartesian(arc, (0.3, 0.5))
print("Phi(0.3, 0.5) =", p)
back = from_cartesian(arc, p)
print("chart inverse  -> s =", back.s, " r =", back.r)

print()
print("== the right-triangle distance to the center ==")
# a point placed with the local frame at Q = phi(0.35) sits at distance
# sqrt((delta + r)^2 + s^2) from the center, the origin, however it is constructed
frame = local_frame(arc, 0.35)
for s_loc, r_loc in ((0.4, 0.1), (-0.2, 0.7)):
    y = frame.to_world(s_loc, r_loc)
    direct = np.linalg.norm(y)
    closed = local_center_distance(arc.delta, s_loc, r_loc)
    print(f"frame point (s={s_loc:+.1f}, r={r_loc:.1f}): |Cy| = {direct:.12f}"
          f"  closed form = {closed:.12f}")

print()
print("== concentric arcs scale with their radius ==")
for r in (0.0, 0.2, 0.4):
    L = arc_segment_length(arc, 0.1, 0.7, r)
    print(f"arc from s=0.1 to 0.7 at height {r}: length {L:.6f}"
          f"  (ratio to wall: {L / 0.6:.4f})")
