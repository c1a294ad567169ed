"""Finite-difference oracles and Richardson extrapolation.

These routines only ever evaluate the field itself — one point call of the
handle per stencil point — so they stay independent of the closed-form
derivatives they verify (``analytic_laplacian`` and ``advection`` in
:mod:`lamsep.field`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonMonotoneSequence
from .field import FieldHandle

_E = np.eye(2)


@dataclass(frozen=True)
class StencilSpec:
    """Central-difference stencil: step h and truncation order (2 or 4)."""

    h: float
    order: int = 2

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"step h must be positive, got {self.h}")
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")


@dataclass(frozen=True)
class ExtrapolationResult:
    value: float
    error_estimate: float
    observed_order: float
    levels_used: int


def _at_rows(field: FieldHandle, pts) -> np.ndarray:
    """The field at each row of the (n, 2) points ``pts``, one point call per row."""
    return np.array([field((a, b)) for a, b in np.asarray(pts, dtype=float).tolist()])


def fd_gradient(field: FieldHandle, x, spec: StencilSpec) -> np.ndarray:
    """Jacobian J[i, j] = du_i/dx_j by central differences, O(h^order)."""
    x = np.asarray(x, dtype=float)
    h = spec.h
    if spec.order == 2:
        pts = np.stack([x + h * _E[j] for j in range(2)] + [x - h * _E[j] for j in range(2)])
        vals = _at_rows(field, pts)
        cols = [(vals[j] - vals[2 + j]) / (2 * h) for j in range(2)]
    else:
        pts = np.stack(
            [x + 2 * h * _E[j] for j in range(2)]
            + [x + h * _E[j] for j in range(2)]
            + [x - h * _E[j] for j in range(2)]
            + [x - 2 * h * _E[j] for j in range(2)]
        )
        v = _at_rows(field, pts)
        cols = [(-v[j] + 8 * v[2 + j] - 8 * v[4 + j] + v[6 + j]) / (12 * h) for j in range(2)]
    return np.stack(cols, axis=-1)


def fd_laplacian(field: FieldHandle, x, spec: StencilSpec) -> np.ndarray:
    """Vector Laplacian by the 5-point (order 2) or 9-point (order 4) stencil."""
    x = np.asarray(x, dtype=float)
    h = spec.h
    if spec.order == 2:
        pts = np.stack([x + h * _E[0], x - h * _E[0], x + h * _E[1], x - h * _E[1], x])
        v = _at_rows(field, pts)
        return (v[0] + v[1] + v[2] + v[3] - 4 * v[4]) / (h * h)
    out = np.zeros(2)
    for j in range(2):
        pts = np.stack([x + 2 * h * _E[j], x + h * _E[j], x, x - h * _E[j], x - 2 * h * _E[j]])
        v = _at_rows(field, pts)
        out = out + (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
    return out


def fd_divergence(field: FieldHandle, x, spec: StencilSpec) -> float:
    """Divergence from the FD Jacobian trace."""
    return float(np.trace(fd_gradient(field, x, spec)))


def fd_advection(field: FieldHandle, x, spec: StencilSpec) -> np.ndarray:
    """(u . grad) u at x: FD Jacobian contracted with u(x)."""
    jac = fd_gradient(field, x, spec)
    return jac @ _at_rows(field, [x])[0]


def richardson(samples: Sequence[tuple[float, float]], order: float) -> ExtrapolationResult:
    """Eliminate the leading O(h^order) term from (h, value) samples.

    Samples must have strictly decreasing h.  Successive extrapolants are
    produced from consecutive pairs; the last one is reported, with the error
    estimate taken from the spread of extrapolants (or the last correction when
    only two samples are given).  Observed order comes from sample triplets.
    Raises NonMonotoneSequence when successive value differences fail to shrink.
    The arithmetic is generic: ``fractions.Fraction`` samples give exact results.
    """
    if len(samples) < 2:
        raise ValueError("richardson needs at least two samples")
    hs = [h for h, _ in samples]
    vs = [v for _, v in samples]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("step sizes must be strictly decreasing")

    diffs = [abs(b - a) for a, b in zip(vs, vs[1:])]
    for k in range(len(diffs) - 1):
        if diffs[k + 1] >= diffs[k] and diffs[k + 1] > 1e-12 * max(max(map(abs, vs)), 1e-300):
            raise NonMonotoneSequence(
                f"|v[{k + 1}]-v[{k + 2}]| = {diffs[k + 1]} did not shrink from {diffs[k]}"
            )

    extrapolants = []
    for k in range(len(vs) - 1):
        rho = (hs[k] / hs[k + 1]) ** order
        extrapolants.append(vs[k + 1] + (vs[k + 1] - vs[k]) / (rho - 1))
    value = extrapolants[-1]
    if len(extrapolants) >= 2:
        error = abs(extrapolants[-1] - extrapolants[-2])
    else:
        error = abs(value - vs[-1])

    orders = []  # np.log, not math.log: they differ in the last bit on ~0.1 % of arguments
    for k in range(len(vs) - 2):
        num = vs[k] - vs[k + 1]
        den = vs[k + 1] - vs[k + 2]
        if den != 0 and num / den > 0:
            orders.append(np.log(float(num / den)) / np.log(float(hs[k] / hs[k + 1])))
    observed = float(np.median(orders)) if orders else float("nan")
    return ExtrapolationResult(
        value=value, error_estimate=error, observed_order=observed, levels_used=len(samples)
    )
