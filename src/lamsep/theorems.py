"""Quantified forms of the two main statements about the shear-around-a-curve flow.

First statement: the balance that a stationary flow would force between the
wall-anchored pressure gradient and the field's own Laplacian fails by a
strictly positive margin M(r) for every wall distance 0 < r < bl.

Second statement: the wall-tangential material derivative over the flow speed,

    ratio(r) = (P(r) - nu*(a1/d - a2) * d/(d + r)) / h(r),

is negative and tends to a finite negative limit as r -> 0.  The printed
closed form of that limit is kept alongside an independent exact rational
oracle; the two disagree by a factor of 2 in the alpha2 term, and every report
records which one the numerics support.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from . import _load
from .errors import DomainError, NonMonotoneSequence, ValidationError
from .fdops import ExtrapolationResult, richardson
from .field import (LaminarParams, anchored_gradient, near_wall_scale, profile_h,
                    stationary_gradp_ansatz, stationary_gradp_field)
from .geometry import ArcBoundary

ADJUDICATION_RTOL = 1e-4


def agrees(value: float, reference: float) -> bool:
    """Whether ``value`` matches ``reference`` to ``ADJUDICATION_RTOL`` of ``reference``."""
    return abs(value - reference) <= ADJUDICATION_RTOL * abs(reference)


def _require_inside_layer(params: LaminarParams, r: float):
    if not 0 < r < params.bl:
        raise DomainError(f"need 0 < r < bl = {params.bl}, got {r}")


def default_r_grid(params: LaminarParams, delta: float) -> list[float]:
    """Geometric grid: 12 points from 0.1*min(bl, delta) down by factor 2."""
    top = 0.1 * near_wall_scale(params, delta)
    return [top * 0.5**k for k in range(12)]


def _float_grid(params: LaminarParams, delta: float, r_grid) -> list[float]:
    """``r_grid`` as floats, or the default grid when it is None."""
    return default_r_grid(params, delta) if r_grid is None else [float(r) for r in r_grid]


def theorem1_mismatch(params: LaminarParams, delta: float, r: float):
    """Both sides of the stationary balance at wall distance r, and the gap between them.

    lhs = |a1/d - a2| * d/(d + r) is the wall-anchored gradient magnitude the
    level-set route produces; rhs = |P(r)|/nu is what the field's Laplacian
    requires.  Rearranged, a stationary flow would force

        -a2*r/(d + r) = h(r)/(d + r)**2 + a2*r/(d + r),

    whose two sides differ by M(r) = h(r)/(d + r)**2 + 2*a2*r/(d + r) > 0.
    """
    _require_inside_layer(params, r)
    a1, a2 = params.alpha1, params.alpha2
    h = profile_h(params, r)
    s = delta + r
    lhs = abs(a1 / delta - a2) * delta / s
    rhs = abs((a1 - a2 * r) / s - h / (s * s) - a2)
    mismatch = h / (s * s) + 2.0 * a2 * r / s
    return lhs, rhs, mismatch


class CrossCheck(NamedTuple):
    """|grad p| at wall distance r by the level-set route and by the ansatz, and their ratio."""
    r: float
    traced_gradp: float
    ansatz_gradp: float
    discrepancy_factor: float


class Theorem1Report(NamedTuple):
    r_grid: list[float]
    lhs: list[float]
    rhs: list[float]
    mismatch: list[float]
    min_mismatch: float
    geometric_crosscheck: list[CrossCheck]  # one entry given the wall arc, else empty


def theorem1_verify(
    params: LaminarParams,
    delta: float,
    r_grid=None,
    arc: ArcBoundary | None = None,
) -> Theorem1Report:
    """Evaluate the stationary contradiction on a grid of wall distances.

    Given the wall ``arc``, also reproduce |grad p| at the grid's first radius
    r_grid[0] by the level-set route (the traced eta ratio times the
    wall-anchored magnitude) and compare it with the ansatz magnitude
    sqrt(P^2 + Pperp^2); the two disagree by the factor lhs/rhs, which is the
    contradiction seen geometrically.  An eta ratio whose fit is not resolved to
    1e-2 of its value is refused with a DomainError naming nu and delta: the
    ratio scales with nu, and reads 0 below 1e-13 of |grad p| (nu ~ 1e-14).
    """
    r_grid = _float_grid(params, delta, r_grid)
    if not r_grid:
        raise ValidationError("r_grid must hold at least one radius")
    lhs, rhs, mism = (list(side) for side in
                      zip(*(theorem1_mismatch(params, delta, r) for r in r_grid)))

    crosscheck = []
    if arc is not None:
        tracing = _load(".tracing")  # on first use: the integrator stack
        gradp = stationary_gradp_field(arc, params)
        s0, s1 = arc.s_range
        arc.padded_s_range  # a segment the chart would wrap is refused here, named once
        s_mid = s0 + 0.3 * (s1 - s0)
        eps_list = [4e-3 * delta, 2e-3 * delta, 1e-3 * delta]
        r = r_grid[0]
        try:  # the segment sets the station s_mid: its offsets are checked before any trace
            for eps in eps_list:
                tracing.offset_arc_length(arc, s_mid, eps, r)
        except DomainError as exc:
            raise DomainError(f"s_range {list(arc.s_range)}: {exc}") from exc
        unresolved = f"nu = {params.nu:g}, delta = {delta:g}: the traced eta ratio"
        try:
            ratio = tracing.eta_ratio(gradp, arc, s_mid, r, eps_list)
        except NonMonotoneSequence as exc:
            raise DomainError(f"{unresolved} is not resolved ({exc})") from exc
        # the ratio scales with nu, and a traced one carries roundoff relative to itself;
        # its eps-truncation estimate reaches 1.3e-3 of the value at ordinary nu
        if ratio.value == 0 or not ratio.error_estimate <= 1e-2 * abs(ratio.value):
            raise DomainError(f"{unresolved} {ratio.value:g} is not resolved (error estimate "
                              f"{ratio.error_estimate:g})")
        p_t, p_n = stationary_gradp_ansatz(params, delta, r)
        ansatz_mag = abs(complex(p_t, p_n))  # libm hypot
        traced_mag = abs(anchored_gradient(params, delta, delta + r)) / ratio.value
        crosscheck.append(CrossCheck(r, traced_mag, ansatz_mag, traced_mag / ansatz_mag))

    return Theorem1Report(
        r_grid=r_grid,
        lhs=lhs,
        rhs=rhs,
        mismatch=mism,
        min_mismatch=min(mism),
        geometric_crosscheck=crosscheck,
    )


def theorem2_ratio(params: LaminarParams, delta: float, r: float) -> float:
    """Tangential material derivative over flow speed at wall distance r.

    (P(r) - nu*(a1/delta - a2)*delta/(delta + r)) / h(r): the numerator pairs
    the field's Laplacian term P(r) with the tangential pressure gradient the
    level-set length limit implies.
    """
    _require_inside_layer(params, r)
    p_t, _ = stationary_gradp_ansatz(params, delta, r)
    return (p_t - anchored_gradient(params, delta, delta + r)) / profile_h(params, r)


def paper_limit(params: LaminarParams, delta: float) -> float:
    """The printed r -> 0 limit: -nu*a2/(delta*a1) - nu/delta**2."""
    return -params.nu * params.alpha2 / (delta * params.alpha1) - params.nu / delta**2


def derived_limit(params: LaminarParams, delta: float) -> float:
    """The re-derived r -> 0 limit: -2*nu*a2/(delta*a1) - nu/delta**2.

    Expanding the ratio: the numerator is -nu*(2*a2*r/(r+d) + h(r)/(r+d)**2)
    and h(r) = a1*r*(1 + O(r)), so the a2 term enters twice (once from the
    Laplacian, once from the wall anchor), not once as printed.
    """
    return -2.0 * params.nu * params.alpha2 / (delta * params.alpha1) - params.nu / delta**2


class _Dual(NamedTuple):
    """x + dx*eps with eps**2 = 0: a value and its first-order term."""
    x: Fraction
    dx: Fraction

    def __add__(self, o):
        return _Dual(self.x + o.x, self.dx + o.dx)

    def __sub__(self, o):
        return _Dual(self.x - o.x, self.dx - o.dx)

    def __mul__(self, o):
        return _Dual(self.x * o.x, self.x * o.dx + self.dx * o.x)

    def __truediv__(self, o):
        return _Dual(self.x / o.x, (self.dx * o.x - self.x * o.dx) / (o.x * o.x))


def oracle_limit(params: LaminarParams, delta: float) -> float:
    """The r -> 0 limit of theorem2_ratio in exact arithmetic, independent of
    any closed form.

    Float inputs are exact rationals, so the ratio's formula is evaluated in
    Fractions on the series r = 0 + 1*eps, eps**2 = 0.  Its numerator and h
    both vanish at r = 0, so the limit is the ratio of their eps-terms.
    """
    Fraction = _load("fractions").Fraction  # only the theorem-2 commands pay for it

    zero = Fraction(0)
    a1, a2, nu, d = (_Dual(Fraction(v), zero)
                     for v in (params.alpha1, params.alpha2, params.nu, delta))
    half_a2 = _Dual(a2.x / 2, zero)
    r = _Dual(zero, Fraction(1))
    s = r + d
    h = a1 * r - half_a2 * r * r
    p_t = nu * ((a1 - a2 * r) / s - h / (s * s) - a2)
    numerator = p_t - nu * (a1 / d - a2) * d / s
    return float(numerator.dx / h.dx)


class Theorem2Report(NamedTuple):
    r_grid: list[float]
    ratio: list[float]
    limit: ExtrapolationResult
    paper_value: float
    oracle_value: float
    derived_value: float
    agrees_with: str


_FLOAT_RANGE = "the theorem-2 ratio or a limit leaves the float range at these parameters"


def theorem2_limit(params: LaminarParams, delta: float, r_grid=None) -> Theorem2Report:
    """Extrapolate theorem2_ratio to r -> 0 and adjudicate against both candidates."""
    r_grid = _float_grid(params, delta, r_grid)
    if len(r_grid) < 2 or any(b >= a for a, b in zip(r_grid, r_grid[1:])):
        raise ValidationError("r_grid must hold at least two strictly decreasing radii")
    ratios = [theorem2_ratio(params, delta, r) for r in r_grid]
    paper = paper_limit(params, delta)
    oracle = oracle_limit(params, delta)
    derived = derived_limit(params, delta)
    # every ratio and the limit -nu*(2*a2/(delta*a1) + 1/delta**2) are strictly
    # negative: one of 0 underflowed, and one below the smallest normal float
    # keeps too few bits to fit or adjudicate
    if not (all(math.isfinite(v) and abs(v) >= sys.float_info.min for v in [*ratios, oracle])
            and math.isfinite(paper) and math.isfinite(derived)):
        raise DomainError(_FLOAT_RANGE)
    limit = richardson(list(zip(r_grid, ratios)), order=1)
    if not math.isfinite(limit.value) or limit.value == 0.0:
        raise DomainError(_FLOAT_RANGE)
    agrees_with = ("oracle" if agrees(limit.value, oracle)
                   else "paper" if agrees(limit.value, paper) else "neither")
    return Theorem2Report(
        r_grid=r_grid,
        ratio=ratios,
        limit=limit,
        paper_value=paper,
        oracle_value=oracle,
        derived_value=derived,
        agrees_with=agrees_with,
    )
