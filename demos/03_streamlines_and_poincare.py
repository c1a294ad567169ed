"""Streamline tracing and the return map on a normal ray.

The return height L(r): launch a normalized streamline from height r, record
the height at which it first crosses the normal ray at a downstream station.
L(r)/r = 1 characterizes the parallel flow; straight-ray fans give constant
ratios above 1; a field with dr/ds = c*r^2 gives ratios tending to 1.
"""

import numpy as np

from lamsep import (
    ArcBoundary,
    LaminarParams,
    classify_flow,
    default_trace_config,
    laminar_field,
    poincare_L,
    to_cartesian,
    trace_streamline,
)
from lamsep.tracing import TraceConfig, fan_expected_crossing, fan_field, radial_growth_field

arc = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))
params = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)
field = laminar_field(arc, params)
cfg = default_trace_config(arc)

print("== a traced streamline stays on its circle ==")
line = trace_streamline(field, to_cartesian(arc, (0.05, 0.2)),
                        TraceConfig(step=1e-3, max_length=0.4))
radii = np.linalg.norm(line.points, axis=1)
print(f"traced {line.length:.3f} units; radius drift {np.max(np.abs(radii - 1.2)):.2e}")

print()
print("== return heights, three flow types ==")
s, s1 = 0.1, 0.25
source = to_cartesian(arc, (-0.5, 0.0))
fan = fan_field(source)
weak = radial_growth_field(arc, 1.0)
print(" r      parallel L/r      fan L/r (exact)        quadratic-growth L/r")
for r in (0.2, 0.1, 0.05):
    lam = poincare_L(field, arc, s, s1, r, cfg) / r
    fr = poincare_L(fan, arc, s, s1, r, cfg) / r
    fe = fan_expected_crossing(arc, source, s, s1, r) / r
    wk = poincare_L(weak, arc, s, s1, r, cfg) / r
    print(f"{r:.2f}   {lam:.10f}   {fr:.6f} ({fe:.6f})      {wk:.8f}")

print()
print("== classification ==")
for name, fld, radii_list in (
    ("parallel shear", field, [0.2, 0.1, 0.05]),
    ("fan from an upstream wall point", fan, [0.2, 0.1, 0.05]),
    ("quadratic radial growth", weak, [0.2, 0.1, 0.05, 0.025]),
):
    result = classify_flow(fld, arc, radii_list, s, s1, 1.2, cfg)
    print(f"{name:34s} -> {result.kind}")
