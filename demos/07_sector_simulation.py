"""Desk-scale Navier-Stokes on an annular sector: the t=0 budget and a run to reversal.

The solver samples the shear profile on a staggered polar grid that is
periodic along the wall, drives it with the wall-anchored pressure drop as a
body force, and measures the discrete tangential material derivative
<nu*lap(u) - grad p, t_hat> / <u0, t_hat> at near-wall probes.  The measured
ratio is negative (the parcel decelerates) and its magnitude grows when the
wall curvature grows.  The first step follows that budget, and where
alpha1/delta > alpha2 the near-wall series then decelerates through zero:
the flow next to the wall reverses.
"""

import numpy as np

from lamsep import (
    ArcBoundary,
    LaminarParams,
    SimConfig,
    init_sim,
    probe_diagnostics,
    run_experiment,
    theorem2_ratio,
)
from lamsep.field import write_csv
from lamsep.nssim import kinetic_energy

params = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)

print("== t = 0 tangential budget at mid-sector probes ==")
print(" delta   r        nu*lap_t      grad_t p     ratio       closed form")
for delta in (0.5, 1.0, 2.0):
    arc = ArcBoundary(delta, (0.0, 0.5 * delta))
    cfg = SimConfig(arc=arc, params=params, n_s=48, n_r=48)
    state = init_sim(cfg)
    for s in probe_diagnostics(state, cfg, [0.1 * delta]):
        closed = float(theorem2_ratio(params, delta, s.r))
        print(f" {delta:4.1f}   {s.r:.4f}   {s.visc_t:+.6f}   {s.gradp_t:+.6f}"
              f"   {s.ratio:+.5f}   {closed:+.5f}")
print("-> negative everywhere near the wall, larger magnitude at smaller delta")

print()
print("== an unsteady run to t = 1 (delta = 0.5, alpha1 = 2: alpha1/delta > alpha2) ==")
arc = ArcBoundary(0.5, (0.0, 0.25))
cfg = SimConfig(arc=arc, params=LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0),
                n_s=16, n_r=24, t_end=1.0)
rep = run_experiment(cfg)
print("probe heights:", [f"{r:.4f}" for r in rep.probe_r])
print(f"t = {rep.times[0]:.3f}: u_t = {np.round(rep.u_t[0], 6)}")
print(f"t = {rep.times[-1]:.3f}: u_t = {np.round(rep.u_t[-1], 6)}")
energy = [kinetic_energy(state, cfg) for state in (init_sim(cfg), rep.final_state)]
print("kinetic energy:", f"{energy[0]:.6f} -> {energy[1]:.6f}")
print("first reversal per probe:", [None if t is None else round(t, 3) for t in rep.first_reversal],
      " (the near-wall flow reverses)")

write_csv("sector_series.csv", rep.CSV_HEADER, rep.rows())
print("wrote sector_series.csv (t, probe_r, u_t, ratio)")
