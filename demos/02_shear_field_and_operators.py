"""The shear field around the wall, checked against finite differences.

Velocity: speed h(r) = a1*r - (a2/2)*r^2 carried along circles concentric
with the wall.  Everything claimed in closed form (Laplacian, advection,
the stationary pressure-gradient ansatz) is re-derived here by central
differences that only ever evaluate the field.
"""

import numpy as np

from lamsep import (
    ArcBoundary,
    LaminarParams,
    StencilSpec,
    advection,
    analytic_laplacian,
    fd_advection,
    fd_divergence,
    fd_laplacian,
    laminar_field,
    profile_h,
    stationary_gradp_ansatz,
    to_cartesian,
)
from lamsep.geometry import arc_normal, arc_tangent

arc = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))
params = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)
field = laminar_field(arc, params)

print("== speed law |u(Phi(s, r))| = h(r), no slip at the wall ==")
for r in (0.0, 0.1, 0.3):
    x = to_cartesian(arc, (0.2, r))
    print(f"r={r}: |u| = {np.linalg.norm(field(x)):.10f}   h(r) = {profile_h(params, r):.10f}")

print()
print("== divergence-free (FD check at a few chart points) ==")
spec = StencilSpec(h=1e-4, order=4)
divs = [abs(fd_divergence(field, to_cartesian(arc, (s, r)), spec))
        for s, r in ((0.1, 0.1), (0.3, 0.25), (0.4, 0.05))]
print("max |div u| =", max(divs))

print()
print("== vector Laplacian: closed form vs FD ==")
s0 = 0.2
x = to_cartesian(arc, (s0, 0.1))
lap_fd = fd_laplacian(field, x, StencilSpec(h=1e-3, order=4))
tang, norm = analytic_laplacian(params, arc.delta, 0.1)
print(f"tangential: closed {tang:+.9f}   FD {np.dot(lap_fd, arc_tangent(arc, s0)):+.9f}")
print(f"normal:     closed {norm:+.9f}   FD {np.dot(lap_fd, arc_normal(arc, s0)):+.9f}")

print()
print("== advection (u.grad)u: the FD oracle picks between the two variants ==")
print("the two closed-form candidates differ by a factor h(r) in the normal part")
for r in (0.05, 0.1, 0.2):
    x = to_cartesian(arc, (s0, r))
    adv = fd_advection(field, x, StencilSpec(h=1e-4, order=4))
    n_fd = np.dot(adv, arc_normal(arc, s0))
    print(f"r={r}: FD normal {n_fd:+.8f}   printed {advection(params, 1.0, r, 'paper'):+.8f}"
          f"   with-speed-factor {advection(params, 1.0, r, 'corrected'):+.8f}")
print("-> the FD value lands on the with-speed-factor (centripetal) variant")

print()
print("== stationary pressure-gradient ansatz ==")
for r in (0.0, 0.1):
    p_t, p_n = stationary_gradp_ansatz(params, arc.delta, r)
    print(f"r={r}: P = {p_t:+.7f}   Pperp = {p_n:+.7f}")
