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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonMonotoneSequence
from .fdops import ExtrapolationResult, richardson
from .field import LaminarParams, profile_h, stationary_gradp_ansatz
from .geometry import ArcBoundary

ADJUDICATION_RTOL = 1e-4
MIN_LEVELS = 4  # fewest r-grid levels a theorem-2 limit is fitted on


def _require_theorem_params(params: LaminarParams):
    if params.alpha2 <= 0:
        raise DomainError("theorem operations require alpha2 > 0 (no pure-shear test mode)")


def _require_inside_layer(params: LaminarParams, r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0) or np.any(r >= params.bl):
        raise DomainError(f"need 0 < r < bl = {params.bl}, got {r}")


def default_r_grid(params: LaminarParams, delta: float, n: int = 12) -> np.ndarray:
    """Geometric grid: n points from 0.1*min(bl, delta) down by factor 2."""
    top = 0.1 * min(params.bl, delta)
    return top * 0.5 ** np.arange(n)


def theorem1_mismatch(params: LaminarParams, delta: float, r):
    """Both sides of the stationary balance and the gap between them.

    lhs = |a1/d - a2| * d/(d + r) is the wall-anchored gradient magnitude the
    level-set route produces; rhs = |P(r)|/nu is what the field's Laplacian
    requires.  Rearranged, a stationary flow would force

        -a2*r/(d + r) = h(r)/(d + r)**2 + a2*r/(d + r),

    whose two sides differ by M(r) = h(r)/(d + r)**2 + 2*a2*r/(d + r) > 0.
    """
    _require_theorem_params(params)
    _require_inside_layer(params, r)
    r = np.asarray(r, dtype=float)
    a1, a2 = params.alpha1, params.alpha2
    h = profile_h(params, r)
    lhs = np.abs(a1 / delta - a2) * delta / (delta + r)
    rhs = np.abs((a1 - a2 * r) / (r + delta) - h / (r + delta) ** 2 - a2)
    mismatch = h / (delta + r) ** 2 + 2.0 * a2 * r / (r + delta)
    return lhs, rhs, mismatch


@dataclass(frozen=True)
class Theorem1Report:
    r_grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    mismatch: np.ndarray
    min_mismatch: float
    geometric_crosscheck: list

    def to_dict(self) -> dict:
        return {
            "r_grid": self.r_grid.tolist(),
            "lhs": self.lhs.tolist(),
            "rhs": self.rhs.tolist(),
            "mismatch": self.mismatch.tolist(),
            "min_mismatch": self.min_mismatch,
            "geometric_crosscheck": [
                {
                    "r": r,
                    "traced_gradp": traced,
                    "ansatz_gradp": ansatz,
                    "discrepancy_factor": factor,
                }
                for r, traced, ansatz, factor in self.geometric_crosscheck
            ],
        }


def theorem1_verify(
    params: LaminarParams,
    delta: float,
    r_grid=None,
    use_tracing: bool = False,
    arc: ArcBoundary | None = None,
) -> Theorem1Report:
    """Evaluate the stationary contradiction on a grid of wall distances.

    With use_tracing, also reproduce |grad p| at the grid's first radius
    r_grid[0] by the level-set route (the traced eta ratio times the
    wall-anchored magnitude) and compare it with the ansatz magnitude
    sqrt(P^2 + Pperp^2); the two disagree by the factor lhs/rhs, which is the
    contradiction seen geometrically.
    """
    _require_theorem_params(params)
    if r_grid is None:
        r_grid = default_r_grid(params, delta)
    r_grid = np.asarray(r_grid, dtype=float)
    lhs, rhs, mism = theorem1_mismatch(params, delta, r_grid)

    crosscheck = []
    if use_tracing:
        from . import tracing  # local import: tracing pulls in the integrator stack

        if arc is None:
            arc = ArcBoundary(delta=delta, phase=0.0, center=(0.0, 0.0),
                              s_range=(0.0, 0.5 * delta))
        cfg = tracing.default_trace_config(arc, params)
        from .field import stationary_gradp_field

        gradp = stationary_gradp_field(arc, params)
        s_mid = 0.3 * (arc.s_range[0] + arc.s_range[1])
        eps_list = [4e-3 * delta, 2e-3 * delta, 1e-3 * delta]
        r = float(r_grid[0])
        ratio = tracing.eta_ratio(gradp, arc, s_mid, r, eps_list, cfg)
        p_t, p_n = stationary_gradp_ansatz(params, delta, r)
        ansatz_mag = float(np.hypot(p_t, p_n))
        wall_mag = params.nu * abs(params.alpha1 / delta - params.alpha2)
        traced_mag = wall_mag * (delta / (delta + r)) / ratio.value
        crosscheck.append((r, traced_mag, ansatz_mag, traced_mag / ansatz_mag))

    return Theorem1Report(
        r_grid=r_grid,
        lhs=lhs,
        rhs=rhs,
        mismatch=mism,
        min_mismatch=float(np.min(mism)),
        geometric_crosscheck=crosscheck,
    )


def theorem2_ratio(params: LaminarParams, delta: float, r):
    """Tangential material derivative over flow speed at wall distance r.

    (P(r) - nu*(a1/delta - a2)*delta/(delta + r)) / h(r): the numerator pairs
    the field's Laplacian term P(r) with the tangential pressure gradient the
    level-set length limit implies.
    """
    _require_theorem_params(params)
    _require_inside_layer(params, r)
    r = np.asarray(r, dtype=float)
    p_t, _ = stationary_gradp_ansatz(params, delta, r)
    wall = params.nu * (params.alpha1 / delta - params.alpha2) * delta / (delta + r)
    return (p_t - wall) / profile_h(params, r)


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


def oracle_limit(params: LaminarParams, delta: float) -> float:
    """Exact rational r -> 0 limit of theorem2_ratio, independent of any closed form.

    Float inputs are exact rationals, so the ratio is evaluated in Fractions at r
    in {1e-4, 5e-5, 2.5e-5} times min(bl, delta).  Richardson removes the O(r)
    term from each pair and the O(r^2) term from the two extrapolants.
    """
    from fractions import Fraction  # only the theorem-2 commands pay for the import

    _require_theorem_params(params)
    a1, a2, nu, d = (Fraction(v) for v in (params.alpha1, params.alpha2, params.nu, delta))
    half_a2 = a2 / 2
    wall_num = nu * (a1 / d - a2) * d

    def ratio(r):
        s = r + d
        h = a1 * r - half_a2 * r * r
        p_t = nu * ((a1 - a2 * r) / s - h / (s * s) - a2)
        return (p_t - wall_num / s) / h

    scale = Fraction(min(params.alpha1 / params.alpha2, delta))
    samples = [(r, ratio(r)) for r in (scale / 10000, scale / 20000, scale / 40000)]
    coarse = richardson(samples[:2], order=1).value
    fine = richardson(samples[1:], order=1).value
    return float(richardson([(samples[0][0], coarse), (samples[1][0], fine)], order=2).value)


@dataclass(frozen=True)
class Theorem2Report:
    r_grid: np.ndarray
    ratio: np.ndarray
    limit: ExtrapolationResult
    paper_value: float
    oracle_value: float
    derived_value: float
    agrees_with: str

    def to_dict(self) -> dict:
        return {
            "r_grid": self.r_grid.tolist(),
            "ratio": self.ratio.tolist(),
            "limit_extrapolated": self.limit.value,
            "limit_error_estimate": self.limit.error_estimate,
            "limit_observed_order": self.limit.observed_order,
            "limit_levels_used": self.limit.levels_used,
            "paper_value": self.paper_value,
            "oracle_value": self.oracle_value,
            "derived_value": self.derived_value,
            "agrees_with": self.agrees_with,
        }


def _fine_tail_limit(samples) -> ExtrapolationResult:
    """First-order Richardson on the longest fine-end tail (at least MIN_LEVELS
    samples) whose differences shrink: where the ratio's slope changes sign in
    the grid, its differences grow once before they shrink.
    """
    last_start = max(len(samples) - MIN_LEVELS, 0)
    for start in range(last_start + 1):
        try:
            return richardson(samples[start:], order=1)
        except NonMonotoneSequence:
            if start == last_start:
                raise


def theorem2_limit(params: LaminarParams, delta: float, r_grid=None) -> Theorem2Report:
    """Extrapolate theorem2_ratio to r -> 0 and adjudicate against both candidates."""
    _require_theorem_params(params)
    if r_grid is None:
        r_grid = default_r_grid(params, delta)
    r_grid = np.asarray(r_grid, dtype=float)
    ratios = theorem2_ratio(params, delta, r_grid)
    limit = _fine_tail_limit(list(zip(r_grid.tolist(), ratios.tolist())))
    paper = paper_limit(params, delta)
    oracle = oracle_limit(params, delta)
    if abs(limit.value - oracle) <= ADJUDICATION_RTOL * abs(oracle):
        agrees = "oracle"
    elif abs(limit.value - paper) <= ADJUDICATION_RTOL * abs(paper):
        agrees = "paper"
    else:
        agrees = "neither"
    return Theorem2Report(
        r_grid=r_grid,
        ratio=np.asarray(ratios),
        limit=limit,
        paper_value=paper,
        oracle_value=oracle,
        derived_value=derived_limit(params, delta),
        agrees_with=agrees,
    )
