"""Why the parallel shear flow cannot be stationary next to a curved wall.

If it were, the pressure gradient would have to equal the stationary ansatz
(P, Pperp) pointwise, while the level-set route (wall value times the arc
contraction delta/(delta+r), divided by the eta ratio) produces a different
magnitude.  The gap M(r) between the two is strictly positive for every
0 < r < bl, across the whole parameter range.
"""

import numpy as np

from lamsep import ArcBoundary, LaminarParams, theorem1_mismatch, theorem1_verify
from lamsep.theorems import default_r_grid

params = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)

print("== the two magnitudes and their gap, alpha1 = alpha2 = delta = 1 ==")
print(" r        wall route      Laplacian route    gap M(r)")
for r in (0.2, 0.1, 0.05, 0.01):
    lhs, rhs, m = theorem1_mismatch(params, 1.0, r)
    print(f"{r:.2f}   {lhs:14.10f}   {rhs:14.10f}   {m:.10f}")
print("(here alpha1/delta = alpha2, so the wall route vanishes while the")
print(" Laplacian route stays positive: the easiest contradiction case)")

print()
print("== M(r)/r approaches alpha1/delta^2 + 2*alpha2/delta ==")
for r in (1e-2, 1e-4, 1e-6):
    _, _, m = theorem1_mismatch(params, 1.0, r)
    print(f"r={r:.0e}: M/r = {m / r:.8f}")

print()
print("== uniform positivity over random parameters ==")
rng = np.random.default_rng(0)
worst = np.inf
for _ in range(300):
    a1, a2, d = rng.uniform(0.1, 10.0, 3)
    p = LaminarParams(alpha1=a1, alpha2=a2, nu=1.0)
    grid = np.asarray(default_r_grid(p, d))
    grid = grid[grid < 0.5 * min(p.bl, d)]
    m = np.array([theorem1_mismatch(p, d, r)[2] for r in grid])
    worst = min(worst, float(np.min(m / grid)))
print(f"min over 300 draws of min_r M(r)/r = {worst:.6f}  (> 0)")

print()
print("== the same gap seen by tracing ==")
p2 = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)
arc = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))
report = theorem1_verify(p2, 1.0, arc=arc)  # traced at r_grid[0] = 0.1
r, traced, ansatz, factor = report.geometric_crosscheck[0]
lhs, rhs, _ = theorem1_mismatch(p2, 1.0, r)
print(f"at r={r}: level-set route gives |grad p| = {traced:.6f},")
print(f"the ansatz magnitude is {ansatz:.6f}; their quotient {factor:.6f}")
print(f"equals the closed-form quotient lhs/rhs = {lhs / rhs:.6f} and is not 1.")
