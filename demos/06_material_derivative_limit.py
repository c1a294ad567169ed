"""The near-wall material-derivative limit and its adjudication.

ratio(r) = (P(r) - wall-anchored tangential gradient) / h(r) is negative for
all 0 < r < bl and tends to a finite negative limit as r -> 0.  Two closed
forms compete for that limit; the exact rational oracle decides.  The limit
grows with the wall curvature 1/delta and scales linearly in the viscosity.
"""

from lamsep import LaminarParams, theorem2_limit, theorem2_ratio
from lamsep.theorems import derived_limit, oracle_limit, paper_limit

params = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)

print("== ratio(r) for alpha1 = alpha2 = nu = delta = 1 ==")
for r in (0.1, 0.05, 0.02, 0.01, 0.001):
    print(f"r={r:<6}: ratio = {float(theorem2_ratio(params, 1.0, r)):+.7f}")

print()
print("== extrapolation and adjudication ==")
rep = theorem2_limit(params, 1.0)
print(f"Richardson limit      : {rep.limit.value:+.9f} "
      f"(error estimate {rep.limit.error_estimate:.1e})")
print(f"exact rational oracle : {rep.oracle_value:+.9f}")
print(f"printed closed form   : {rep.paper_value:+.9f}")
print(f"re-derived closed form: {rep.derived_value:+.9f}")
print(f"-> the extrapolated limit agrees with: {rep.agrees_with}")
print("   (the printed form misses a factor 2 on the alpha2 term)")

print()
print("== curvature dependence: |limit| grows as delta shrinks ==")
print(" delta    limit          (oracle check)")
for d in (0.5, 1.0, 2.0, 4.0):
    lim = theorem2_limit(params, d).limit.value
    print(f" {d:4.1f}   {lim:+.7f}   ({oracle_limit(params, d):+.7f})")

print()
print("== viscosity scaling: the limit is linear in nu ==")
for nu in (0.5, 1.0, 2.0):
    p = LaminarParams(alpha1=1.0, alpha2=1.0, nu=nu)
    print(f" nu={nu:3.1f}: limit = {derived_limit(p, 1.0):+.4f}   "
          f"paper form = {paper_limit(p, 1.0):+.4f}")
