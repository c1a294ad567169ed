"""Pressure-line geometry: the eta ratio and the zeta length bounds.

Two constructions drive the pressure analysis near the wall:

* eta: trace a pressure line from height r until it meets the level curve of
  a downstream point at the same height.  The traced length over the offset
  arc length tends to |P| / sqrt(P^2 + Pperp^2) (cosine of the gradient tilt).
* zeta: from a wall point, follow the level curve up to height r, then the
  pressure line to the level of a downstream wall point.  The traced length,
  normalized by ((r + delta)/delta) * eps, tends to 1, squeezed between
  explicit bounds with fitted constants.
"""

import numpy as np

from lamsep import (
    ArcBoundary,
    LaminarParams,
    eta_ratio,
    stationary_gradp_ansatz,
    stationary_gradp_field,
    zeta_check,
)
from lamsep.tracing import (
    angular_pressure,
    perturbed_angular_pressure,
    piecewise_linear_length,
)

arc = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))

print("== eta ratio on the stationary-gradient ansatz ==")
params = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)
gradp = stationary_gradp_field(arc, params)
r = 0.1
p_t, p_n = stationary_gradp_ansatz(params, arc.delta, r)
expected = abs(p_t) / np.hypot(p_t, p_n)
res = eta_ratio(gradp, arc, 0.15, r, [4e-3, 2e-3, 1e-3])
print(f"traced |eta|/|Phi-arc| -> {res.value:.6f}")
print(f"closed form |P|/sqrt(P^2+Pperp^2) = {expected:.6f}")
print(f"extrapolation error estimate {res.error_estimate:.1e}, order {res.observed_order:.2f}")

print()
print("== zeta machinery on wall-compatible pressure fields ==")
params2 = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)  # nonzero wall gradient

plain = zeta_check(angular_pressure(arc, params2), arc, params2,
                   s=0.1, r_list=[0.04, 0.02, 0.01], eps_over_r=2.0)
print(f"angular pressure (circular pressure lines): ratio limit = {plain.ratio.value:.9f}")

p_pert = perturbed_angular_pressure(arc, params2, amp=0.3)
pert = zeta_check(p_pert, arc, params2, s=0.1, r_list=[0.08, 0.04, 0.02], eps_over_r=2.0)
print(f"perturbed pressure: fitted c = {pert.fitted.c:.4f}, "
      f"eps_hat = {pert.fitted.epsilon_hat:.4f}, bounds hold: {pert.bounds_hold}")
print(" r      |zeta| traced      lower bound       upper bound")
for sm in pert.samples:
    print(f"{sm.r:.2f}   {sm.traced_length:.10f}   {sm.lower_bound:.10f}   {sm.upper_bound:.10f}")

sm = pert.samples[0]
print()
print("piecewise-linear reconstruction converges to the traced length (order 1):")
for n in (32, 64, 128, 256):
    val = piecewise_linear_length(p_pert, arc, sm, n)
    print(f"  N={n:4d}: sum = {val:.10f}   error = {abs(val - sm.traced_length):.2e}")
