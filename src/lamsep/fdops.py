"""Finite-difference oracles and Richardson extrapolation.

These routines only ever evaluate the field itself — one point call of the
handle per stencil point — so they stay independent of the closed-form
derivatives they verify (``analytic_laplacian`` and ``advection`` in
:mod:`lamsep.field`).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import CheckedRecord, NonMonotoneSequence, ValidationError
from .field import FieldHandle

MIN_LEVELS = 4  # fewest fine-end samples a limit is fitted on, when more are given


class _StencilFields(NamedTuple):
    h: float
    order: int = 2


class StencilSpec(CheckedRecord, _StencilFields):
    """Central-difference stencil: step h and truncation order (2 or 4)."""

    __slots__ = ()

    def _check(self):
        if self.h <= 0:
            raise ValidationError(f"step h must be positive, got {self.h}")
        if self.order not in (2, 4):
            raise ValidationError(f"order must be 2 or 4, got {self.order}")


class ExtrapolationResult(NamedTuple):
    value: float
    error_estimate: float
    observed_order: float
    levels_used: int


def _shifted(x: tuple[float, float], j: int, d: float) -> tuple[float, float]:
    """The point x moved by d along axis j."""
    return (x[0] + d, x[1]) if j == 0 else (x[0], x[1] + d)


def _partial(field: FieldHandle, x, j: int, spec: StencilSpec) -> tuple[float, float]:
    """d(u, v)/dx_j at x by central differences, O(h^order)."""
    h = spec.h
    if spec.order == 2:
        (a0, a1), (b0, b1) = field(_shifted(x, j, h)), field(_shifted(x, j, -h))
        return (a0 - b0) / (2 * h), (a1 - b1) / (2 * h)
    p2, p1, m1, m2 = (field(_shifted(x, j, d)) for d in (2 * h, h, -h, -2 * h))
    return tuple((-p2[i] + 8 * p1[i] - 8 * m1[i] + m2[i]) / (12 * h) for i in range(2))


def fd_gradient(field: FieldHandle, x, spec: StencilSpec):
    """Jacobian J[i][j] = du_i/dx_j by central differences, O(h^order), as two row pairs."""
    x = (float(x[0]), float(x[1]))
    c0, c1 = _partial(field, x, 0, spec), _partial(field, x, 1, spec)
    return (c0[0], c1[0]), (c0[1], c1[1])


def fd_laplacian(field: FieldHandle, x, spec: StencilSpec) -> tuple[float, float]:
    """Vector Laplacian by the 5-point (order 2) or 9-point (order 4) stencil."""
    x = (float(x[0]), float(x[1]))
    h = spec.h
    c = field(x)
    if spec.order == 2:
        v = [field(_shifted(x, j, d)) for j in range(2) for d in (h, -h)]
        return tuple((v[0][i] + v[1][i] + v[2][i] + v[3][i] - 4 * c[i]) / (h * h)
                     for i in range(2))
    out = (0.0, 0.0)
    for j in range(2):
        p2, p1, m1, m2 = (field(_shifted(x, j, d)) for d in (2 * h, h, -h, -2 * h))
        out = tuple(out[i] + (-p2[i] + 16 * p1[i] - 30 * c[i] + 16 * m1[i] - m2[i]) / (12 * h * h)
                    for i in range(2))
    return out


def fd_divergence(field: FieldHandle, x, spec: StencilSpec) -> float:
    """Divergence from the FD Jacobian trace."""
    (j00, _), (_, j11) = fd_gradient(field, x, spec)
    return j00 + j11


def fd_advection(field: FieldHandle, x, spec: StencilSpec) -> tuple[float, float]:
    """(u . grad) u at x: FD Jacobian contracted with u(x)."""
    (j00, j01), (j10, j11) = fd_gradient(field, x, spec)
    u0, u1 = field((float(x[0]), float(x[1])))
    return j00 * u0 + j01 * u1, j10 * u0 + j11 * u1


def richardson(samples: Sequence[tuple[float, float]], order: float) -> ExtrapolationResult:
    """Eliminate the leading O(h^order) term from (h, value) samples.

    Samples must have positive, strictly decreasing h.  Samples that already
    agree (a spread below 1e-9 of the last value) are converged: the last value
    is the limit and the spread its error.  Otherwise the fit uses the longest
    fine-end tail of at least MIN_LEVELS samples (all, if fewer) whose
    differences shrink above a roundoff floor of 1e-12 of the tail's values
    (where the slope changes sign they grow once first), and raises
    NonMonotoneSequence when no tail does.  Successive extrapolants come from
    consecutive pairs; the last one is reported, with the error estimate taken
    from the spread of extrapolants (or the last correction when only two
    samples are fitted).  Observed order comes from sample triplets.  The
    arithmetic is generic: ``fractions.Fraction`` samples give exact results.
    """
    hs = [h for h, _ in samples]
    vs = [v for _, v in samples]
    if not samples or hs[-1] <= 0 or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValidationError("step sizes must be positive and strictly decreasing")
    spread = max(vs) - min(vs)
    if spread < 1e-9 * max(abs(vs[-1]), 1e-300):
        return ExtrapolationResult(vs[-1], spread, float("nan"), len(vs))
    if len(vs) < 2:  # a lone non-finite sample
        raise ValidationError("richardson needs at least two samples")

    for start in range(max(len(vs) - MIN_LEVELS, 0) + 1):
        tail = vs[start:]
        diffs = [abs(b - a) for a, b in zip(tail, tail[1:])]
        floor = 1e-12 * max(max(map(abs, tail)), 1e-300)
        grows = [k for k in range(len(diffs) - 1) if diffs[k] <= diffs[k + 1] > floor]
        if not grows:
            break
    else:  # v[i] counts the caller's samples, from the start of the last tail tried
        k = grows[0]
        i = start + k
        raise NonMonotoneSequence(
            f"|v[{i + 1}]-v[{i + 2}]| = {diffs[k + 1]} (h = {hs[i + 1]} to {hs[i + 2]}) "
            f"did not shrink from {diffs[k]} (h = {hs[i]} to {hs[i + 1]})")
    hs, vs = hs[start:], vs[start:]

    extrapolants = []
    for k in range(len(vs) - 1):
        rho = (hs[k] / hs[k + 1]) ** order
        extrapolants.append(vs[k + 1] + (vs[k + 1] - vs[k]) / (rho - 1))
    value = extrapolants[-1]
    if len(extrapolants) >= 2:
        error = abs(extrapolants[-1] - extrapolants[-2])
    else:
        error = abs(value - vs[-1])

    orders = []
    for k in range(len(vs) - 2):
        num = vs[k] - vs[k + 1]
        den = vs[k + 1] - vs[k + 2]
        shrink = float(num / den) if den != 0 else 0.0
        if shrink > 0:
            orders.append(math.log(shrink) / math.log(float(hs[k] / hs[k + 1])))
    observed = _median(orders) if orders else float("nan")
    return ExtrapolationResult(
        value=value, error_estimate=error, observed_order=observed, levels_used=len(vs)
    )


def _median(values: list[float]) -> float:
    """Middle value; the mean of the two middle values of an even count."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
