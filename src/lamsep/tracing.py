"""Streamline and pressure-line tracing next to the curved wall, in the wall chart.

Every march runs in the wall chart, on float pairs (sigma, rho): offsets from
an origin (s0, r0), its start point, to the station s = s0 + sigma and the wall
distance r = r0 + rho.  It follows the field's unit tangential and normal parts
(t, n) as dsigma/dl = (delta/(delta + r))*t and drho/dl = n, so every curve is
parametrized by its plane arc length l, and no station or wall distance is read
back through plane coordinates (:func:`_chart_form` reads the field).  A
laminar streamline is rho = 0, which RK4 keeps exactly at any step.  There is
one fixed-step classical RK4 march, :func:`_march`, which yields its steps: a
trace collects the points, and a crossing event (a normal ray, a target wall
distance, a pressure level) is the first sign change of a scalar along the
march, found by :func:`_first_crossing` with one evaluation per march point.  A
march point exactly on the target is the hit, and a sign change within a step
is bisected along the step to 1e-10 of it.  The pressure line of the eta ratio
stops instead where it first meets the traced level curve.  Every march stops
with :class:`CriticalPoint` where its field falls below 1e-10 of its size at
the march's start, is singular or is not finite (:func:`_unit_direction`), and
a curve that meets no target within its length raises :class:`NoCrossing`.  A
traced curve is a :class:`Polyline` of plane points, mapped from the chart once
the march has ended.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import CheckedRecord, CriticalPoint, DomainError, NoCrossing, ValidationError
from .fdops import ExtrapolationResult, richardson
from .field import (FieldHandle, LaminarParams, ScalarFieldHandle, anchored_gradient,
                    wall_field, wall_gradient)
from .geometry import (ArcBoundary, arc_normal, arc_segment_length, norm, to_cartesian,
                       wall_station)


class Polyline(NamedTuple):
    """Ordered traced path (float pairs) with cumulative chord lengths."""

    points: list[tuple[float, float]]
    cumulative_length: list[float]

    @classmethod
    def from_points(cls, points) -> "Polyline":
        pts = [(float(x), float(y)) for x, y in points]
        cum = [0.0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            dx, dy = x1 - x0, y1 - y0
            cum.append(cum[-1] + math.sqrt(dx * dx + dy * dy))
        return cls(points=pts, cumulative_length=cum)

    @property
    def length(self) -> float:
        return self.cumulative_length[-1]

    CSV_HEADER = ("index", "x", "y", "cumlen")

    def rows(self) -> list[tuple]:
        """CSV rows (index, x, y, cumlen), one per point."""
        return [(i, x, y, c) for i, ((x, y), c) in
                enumerate(zip(self.points, self.cumulative_length))]


class _TraceFields(NamedTuple):
    step: float
    max_length: float


# a trace takes at most this many steps (as a simulate run, nssim._MAX_STEPS)
_MAX_STEPS = 10**6


class TraceConfig(CheckedRecord, _TraceFields):
    """A march's step and its trace length (at most ``_MAX_STEPS`` steps of it);
    a refusal names the step and the length."""

    __slots__ = ()

    def _check(self):
        step, max_length = self.step, self.max_length
        if step <= 0 or max_length <= step:
            raise ValidationError(f"step {step:g} must be positive and below the trace "
                                  f"length {max_length:g}")
        if not max_length <= _MAX_STEPS * step:  # no division: NaN and inf fail too
            raise ValidationError(f"step {step:g} over the trace length {max_length:g} "
                                  f"makes more than {_MAX_STEPS} steps")


def default_trace_config(arc: ArcBoundary) -> TraceConfig:
    return TraceConfig(step=1e-3 * arc.delta, max_length=10.0 * arc.delta)


class FlowClass(NamedTuple):
    kind: str
    C_threshold: float
    evidence: list


class BoundTolerances(NamedTuple):
    """Fitted constants of the level-set length bounds."""

    c: float
    c1: float
    c2: float
    epsilon_hat: float


# ----------------------------------------------------------------------------
# integrators
# ----------------------------------------------------------------------------


def _rk_step(fn, x, h):
    """One classical RK4 step of size h from the float pair x; fn maps a pair to a pair."""
    x0, x1 = x
    k1 = fn(x)
    k2 = fn((x0 + 0.5 * h * k1[0], x1 + 0.5 * h * k1[1]))
    k3 = fn((x0 + 0.5 * h * k2[0], x1 + 0.5 * h * k2[1]))
    k4 = fn((x0 + h * k3[0], x1 + h * k3[1]))
    h6 = h / 6.0
    return (x0 + h6 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            x1 + h6 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))


def _chart_form(field: FieldHandle, arc: ArcBoundary) -> FieldHandle:
    """``field`` in the wall chart: (s, r) -> its (tangential, normal) parts there."""
    # Two readers, as a field comes in two forms.  A wall field is its parts already,
    # so its march never passes through plane coordinates.  A field given in the
    # plane alone (fan_field, a test's formula) is evaluated at to_cartesian's image
    # of (s, r) and read in the wall frame there, with one sin/cos pair.
    if field.chart is not None:
        return FieldHandle(field.chart)
    evaluate, delta = field.evaluator, arc.delta

    def read(s: float, r: float) -> tuple[float, float]:
        n0, n1 = arc_normal(arc, s)
        u, v = evaluate((delta + r) * n0, (delta + r) * n1)
        # the clockwise tangent is (n1, -n0), the outward normal (n0, n1)
        return u * n1 - v * n0, u * n0 + v * n1

    return FieldHandle(read)


def _unit_direction(field: FieldHandle, arc: ArcBoundary, origin, sign=1.0, perpendicular=False):
    """For one march about ``origin = (s0, r0)``, the direction (dsigma/dl, drho/dl)
    = ((delta/(delta + r))*t, n) of the field's unit parts (t, n) at
    (s0 + sigma, r0 + rho), optionally turned +90 degrees.

    Its first call, at the march's start, sets the stop threshold to 1e-10 of
    |field| there, and refuses a start whose field is zero or subnormal.  A
    field below the threshold, singular or not finite (infinite or NaN) raises
    :class:`CriticalPoint`, naming the chart point (s, r).
    """
    (s0, r0), chart, delta = origin, _chart_form(field, arc), arc.delta
    tol = None

    def fn(p):
        nonlocal tol
        at = (s0 + p[0], r0 + p[1])
        try:
            t, n = chart(at)
            stretch = delta / (delta + at[1])
        except ZeroDivisionError as exc:
            raise CriticalPoint(f"field is singular at {at}") from exc
        speed = abs(complex(t, n))  # libm hypot
        if tol is None:  # the march's start
            if speed < sys.float_info.min:
                raise CriticalPoint(f"|field| = {speed} at the start {at} is below the "
                                    f"normal float range")
            tol = 1e-10 * speed
        if not tol <= speed < math.inf:  # NaN fails too
            if speed < tol:
                raise CriticalPoint(f"|field| = {speed} < {tol} at {at}")
            raise CriticalPoint(f"field is not finite at {at}: ({t}, {n})")
        t, n = t / speed, n / speed
        if perpendicular:
            t, n = -n, t
        return sign * stretch * t, sign * n

    return fn


def _march(dirfn, start, cfg: TraceConfig):
    """Fixed-step march of a unit direction field from ``start`` for cfg.max_length.

    Yields each step as (x, x_new, cum, h): the chart point x at arc length
    cum, and the point x_new one step of length h on.
    """
    x = (float(start[0]), float(start[1]))
    cum = 0.0
    n_full = int(math.floor(cfg.max_length / cfg.step + 1e-12))
    steps = [cfg.step] * n_full
    remainder = cfg.max_length - n_full * cfg.step
    if remainder > 1e-9 * cfg.step:
        steps.append(remainder)
    for h in steps:
        x_new = _rk_step(dirfn, x, h)
        yield x, x_new, cum, h
        cum += h
        x = x_new


def _first_crossing(dirfn, start, cfg: TraceConfig, psi):
    """The first sign change of ``psi`` along the march from ``start``, as the pair
    (point, arc length), or None when cfg.max_length runs out first.

    A march point with psi exactly 0 is the hit; a sign change within a step
    is located by :func:`_refine_on_step`.
    """
    p_prev = None
    for x, x_new, cum, h in _march(dirfn, start, cfg):
        if p_prev is None:  # psi of the start, once the first step is made
            p_prev = psi(x)
        p_new = psi(x_new)
        if p_new == 0.0:  # the march landed on the target itself
            return x_new, cum + h
        if p_prev != 0.0 and (p_prev > 0) != (p_new > 0):
            hit, extra = _refine_on_step(dirfn, x, h, psi, p_new)
            return hit, cum + extra
        p_prev = p_new
    return None


def _refine_on_step(dirfn, x_prev, step, psi, psi_new):
    """Bisect psi == 0 between x_prev and its full step (psi_new there) to a midpoint
    with psi exactly 0, or else to the middle of the bracket once it is at most 1e-10
    of the step (34 halvings): the stop rule's number, of the step, not the field."""
    lo, hi, f_hi = 0.0, 1.0, psi_new
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        x_mid = _rk_step(dirfn, x_prev, mid * step)
        f_mid = psi(x_mid)
        if f_mid == 0.0:
            return x_mid, mid * step
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo = mid
    mid = 0.5 * (lo + hi)
    return _rk_step(dirfn, x_prev, mid * step), mid * step


# ----------------------------------------------------------------------------
# public tracing operations
# ----------------------------------------------------------------------------


def _traced(dirfn, arc: ArcBoundary, start, cfg: TraceConfig) -> Polyline:
    """The march of ``dirfn`` about ``start = (s0, r0)``, as plane points."""
    s0, r0 = start
    points = [(0.0, 0.0)] + [x for _, x, _, _ in _march(dirfn, (0.0, 0.0), cfg)]
    return Polyline.from_points([to_cartesian(arc, (s0 + sig, r0 + rho)) for sig, rho in points])


def trace_streamline(field: FieldHandle, arc: ArcBoundary, start, cfg: TraceConfig) -> Polyline:
    """Integrate the normalized velocity from the chart point ``start = (s, r)``."""
    return _traced(_unit_direction(field, arc, start), arc, start, cfg)


def trace_pressure_line(gradp: FieldHandle, arc: ArcBoundary, start, cfg: TraceConfig, *,
                        perpendicular=False, orientation=1.0) -> Polyline:
    """Integrate the normalized pressure gradient, or its perpendicular (a level
    curve), from the chart point ``start = (s, r)``."""
    dirfn = _unit_direction(gradp, arc, start, orientation, perpendicular)
    return _traced(dirfn, arc, start, cfg)


def _require_on_segment(arc: ArcBoundary, name: str, station: float) -> None:
    """Refuse the wall station ``name`` outside the padded wall segment."""
    lo, hi = arc.padded_s_range
    if not lo <= station <= hi:
        raise DomainError(f"{name} = {station:g} leaves the padded wall segment [{lo:g}, {hi:g}]")


def poincare_L(
    field: FieldHandle, arc: ArcBoundary, s: float, s1: float, r: float, cfg: TraceConfig
) -> float:
    """Wall distance at which the streamline from Phi(s, r) first crosses the
    normal ray at s1; a station off the padded wall segment is refused untraced."""
    if s == s1:
        raise ValidationError("launch station s and target station s1 must differ")
    if r <= 0:
        raise ValidationError("launch wall distance r must be positive")
    _require_on_segment(arc, "s", s)
    _require_on_segment(arc, "s1", s1)
    lo, hi = (end - s for end in arc.padded_s_range)  # the march is made about (s, r)
    floor, target = -1e-12 * arc.delta, s1 - s  # the chart allows floor below the wall

    def station(p):
        if not (lo <= p[0] <= hi and r + p[1] >= floor):
            raise NoCrossing(f"streamline left the chart before reaching s1={s1}")
        return p[0] - target

    hit = _first_crossing(_unit_direction(field, arc, (s, r)), (0.0, 0.0), cfg, station)
    if hit is None:
        raise NoCrossing(f"no crossing of the normal ray at s1={s1} within {cfg.max_length}")
    tau = r + hit[0][1]
    if tau <= 0:
        raise NoCrossing(f"crossing found below the wall (tau={tau})")
    return tau


def classify_flow(
    field: FieldHandle,
    arc: ArcBoundary,
    radii,
    s: float,
    s1: float,
    C: float,
    cfg: TraceConfig,
    tol_par: float = 1e-4,
) -> FlowClass:
    """Classify the near-wall flow from sampled Poincare ratios L(r)/r.

    radii must decrease toward 0.  Parallel: every ratio within tol_par of 1.
    Strong diverging: every ratio above C.  Weak diverging: ratios >= 1 - tol_par
    with |ratio - 1| shrinking toward 0.  Anything else: Unclassified.
    """
    if C <= 1:
        raise ValidationError(f"threshold C must exceed 1, got {C}")
    if tol_par <= 0:
        raise ValidationError(f"tol_par must be positive, got {tol_par}")
    radii = list(radii)
    if not radii or any(r <= 0 for r in radii) or any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii must be non-empty, positive and strictly decreasing")
    evidence = [(r, poincare_L(field, arc, s, s1, r, cfg) / r) for r in radii]
    ratios = [ratio for _, ratio in evidence]
    dev = [abs(q - 1.0) for q in ratios]
    if all(d <= tol_par for d in dev):
        kind = "Parallel"
    elif all(q > C for q in ratios):
        kind = "StrongDiverging"
    elif (
        all(q >= 1.0 - tol_par for q in ratios)
        and all(b - a <= 0.05 * a for a, b in zip(dev, dev[1:]))
        and dev[-1] <= 0.5 * dev[0]
    ):
        kind = "WeakDiverging"
    else:
        kind = "Unclassified"
    return FlowClass(kind=kind, C_threshold=C, evidence=evidence)


# ----------------------------------------------------------------------------
# synthetic fields for classification tests
# ----------------------------------------------------------------------------


def fan_field(source) -> FieldHandle:
    """Unit field of straight rays out of a virtual source point."""
    src = (float(source[0]), float(source[1]))

    def evaluate(x: float, y: float) -> tuple[float, float]:
        rx, ry = x - src[0], y - src[1]
        d = norm(rx, ry)
        return rx / d, ry / d

    return FieldHandle(evaluate)


def fan_expected_crossing(arc: ArcBoundary, source, s: float, s1: float, r: float) -> float:
    """Exact Poincare height of a fan field: intersect the ray from the source
    through Phi(s, r) with the normal ray at s1."""
    a = to_cartesian(arc, (s, r))
    n0, n1 = arc_normal(arc, s1)
    # solve source + w*(a - source) = t*e2 by Cramer's rule
    a0, a1 = a[0] - source[0], a[1] - source[1]
    b0, b1 = -source[0], -source[1]
    det = -a0 * n1 + n0 * a1
    if det == 0:
        raise NoCrossing("fan ray is parallel to the target normal ray")
    w = (-b0 * n1 + n0 * b1) / det
    t = (a0 * b1 - b0 * a1) / det
    if w <= 0 or t <= arc.delta:
        raise NoCrossing("fan ray does not reach the target normal ray above the wall")
    return t - arc.delta


def radial_growth_field(arc: ArcBoundary, growth: float) -> FieldHandle:
    """Unit-tangential field whose streamlines satisfy dr/ds = growth * r**2.

    The Poincare ratio is L(r)/r = 1/(1 - growth*r*(s1-s)): above 1 and tending
    to 1 as r -> 0, i.e. weak diverging.
    """
    delta = arc.delta
    # the clockwise tangent tilted outward by growth * r**2 * delta/(delta + r)
    return wall_field(arc, lambda r: (1.0, growth * r * r * delta / (delta + r)))


# ----------------------------------------------------------------------------
# eta: Poincare map on the pressure lines
# ----------------------------------------------------------------------------


# segments per bounding box of the polyline crossing search
_BLOCK = 16
# the parameter slack of a crossing, and the (wider) box padding that covers it
_CROSS_EPS = 1e-12
_BOX_PAD = 1e-9


def _segment_blocks(points):
    """The segments (qx, qy, dx, dy) of the polyline through ``points``, and a
    padded bounding box (xmin, xmax, ymin, ymax, first, stop) for each run of
    _BLOCK consecutive segments, built once per polyline."""
    segs = [(x0, y0, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(points, points[1:])]
    blocks = []
    for first in range(0, len(segs), _BLOCK):
        stop = min(first + _BLOCK, len(segs))
        xs = [p[0] for p in points[first:stop + 1]]
        ys = [p[1] for p in points[first:stop + 1]]
        pad = _BOX_PAD * max(abs(dx) + abs(dy) for _, _, dx, dy in segs[first:stop])
        blocks.append((min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad, first, stop))
    return segs, blocks


def _first_polyline_crossing(a0, a1, segs, blocks):
    """Earliest intersection of the step a0->a1 (float pairs) with a polyline.

    The polyline is given by :func:`_segment_blocks`.  A block whose box misses
    the step's box, both padded well beyond the parameter slack, holds no
    crossing; the others are tested segment by segment.  Returns the step's
    parameter t at the crossing, or None.
    """
    d1x, d1y = a1[0] - a0[0], a1[1] - a0[1]
    pad = _BOX_PAD * (abs(d1x) + abs(d1y))
    x_lo, x_hi = min(a0[0], a1[0]) - pad, max(a0[0], a1[0]) + pad
    y_lo, y_hi = min(a0[1], a1[1]) - pad, max(a0[1], a1[1]) + pad
    lo, hi = -_CROSS_EPS, 1.0 + _CROSS_EPS
    best_t = math.inf
    for bx_lo, bx_hi, by_lo, by_hi, first, stop in blocks:
        if bx_hi < x_lo or bx_lo > x_hi or by_hi < y_lo or by_lo > y_hi:
            continue
        for idx in range(first, stop):
            qx, qy, d2x, d2y = segs[idx]
            denom = d1x * d2y - d1y * d2x
            if not abs(denom) > 1e-300:
                continue
            wx, wy = qx - a0[0], qy - a0[1]
            t = (wx * d2y - wy * d2x) / denom
            u = (wx * d1y - wy * d1x) / denom
            if lo <= t <= hi and lo <= u <= hi and t < best_t:
                best_t = t
    if best_t == math.inf:
        return None
    return min(max(best_t, 0.0), 1.0)


def offset_arc_length(arc: ArcBoundary, s: float, eps: float, r: float) -> float:
    """The length of the offset arc from wall station s to s + eps at wall
    distance r, which a trace over it takes as its scale; a DomainError when
    either station leaves the padded wall segment, when |eps| < 1e-8*delta, or
    when the length is not positive and finite.  A station carries about
    1e-16*delta of roundoff where a pressure reads it, so a shorter offset's ratio is noise
    (zeta-check's ratios at eps_over_r = 1e-12 were up to 17 % off)."""
    _require_on_segment(arc, "s", s)
    _require_on_segment(arc, "s + eps", s + eps)
    if abs(eps) < 1e-8 * arc.delta:
        raise DomainError(f"the offset eps = {eps:g} is shorter than 1e-8*delta = "
                          f"{1e-8 * arc.delta:g}, too short to trace above roundoff")
    length = arc_segment_length(arc, s, s + eps, r)
    if not 0 < length < math.inf:
        raise DomainError(f"the offset arc from wall station s = {s:g} over eps = {eps:g} "
                          f"has length {length:g}, not a positive finite length")
    return length


def eta_trace(gradp: FieldHandle, arc: ArcBoundary, s: float, r: float, eps: float) -> float:
    """Trace the pressure line from Phi(s, r) to the level curve through
    Phi(s+eps, r): the ratio of its length to the offset arc's.  Both curves
    are marched, and crossed, in the wall chart."""
    phi_len = offset_arc_length(arc, s, eps, r)
    start, anchor = (0.0, 0.0), ((s + eps) - s, 0.0)  # both curves are marched about (s, r)
    level_cfg = TraceConfig(step=phi_len / 80.0, max_length=3.0 * phi_len)
    fwd, back = ([x for _, x, _, _ in _march(_unit_direction(gradp, arc, (s, r), sign, True),
                                             anchor, level_cfg)] for sign in (1.0, -1.0))
    level_pts = back[::-1] + [anchor] + fwd

    # orient the pressure line toward increasing s so it meets the level curve
    along, normal = _chart_form(gradp, arc)((s, r))
    sign = 1.0 if along >= 0 else -1.0
    if abs(along) <= 1e-13 * abs(complex(along, normal)):
        # gradient purely normal: the level curve already passes through the start
        return 0.0
    dirfn = _unit_direction(gradp, arc, (s, r), sign)
    press_cfg = TraceConfig(step=phi_len / 80.0, max_length=4.0 * phi_len)
    segs, blocks = _segment_blocks(level_pts)
    for x, x_new, cum, h in _march(dirfn, start, press_cfg):
        hit = _first_polyline_crossing(x, x_new, segs, blocks)
        if hit is not None:
            break
    else:
        raise NoCrossing(f"pressure line from (s={s}, r={r}) missed the level curve "
                         f"for eps={eps}")
    return (cum + hit * h) / phi_len


def eta_ratio(gradp: FieldHandle, arc: ArcBoundary, s: float, r: float,
              eps_list) -> ExtrapolationResult:
    """Extrapolated eps -> 0 limit of |eta arc| / |offset wall arc|.

    For the stationary gradient ansatz this limit is |P| / sqrt(P^2 + Pperp^2).
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    samples = [(eps, eta_trace(gradp, arc, s, r, eps)) for eps in eps_list]
    return richardson(samples, order=1)


# ----------------------------------------------------------------------------
# zeta: level-set arc length bounds for the non-stationary estimate
# ----------------------------------------------------------------------------


def angular_pressure(arc: ArcBoundary, params: LaminarParams) -> ScalarFieldHandle:
    """p = nu*(a1/delta - a2) * s(x): wall-compatible, circular pressure lines."""
    return perturbed_angular_pressure(arc, params, amp=0.0)


def perturbed_angular_pressure(
    arc: ArcBoundary, params: LaminarParams, amp: float
) -> ScalarFieldHandle:
    """Angular pressure plus the radial perturbation amp*k*(dist - delta)**2/delta.

    k = nu*(a1/delta - a2) is the wall gradient.  The perturbation vanishes to
    first order at the wall, so the wall gradient still equals k*e1.  Scaled
    by k/delta, it tilts the level curves by an angle that depends on the
    dimensionless ``amp`` and on (dist - delta)/delta only, however small k is.
    """
    delta = arc.delta
    k = wall_gradient(params, delta)
    scale = amp * k / delta

    def evaluate(x: float, y: float) -> float:
        return k * wall_station(arc, x, y) + scale * (norm(x, y) - delta) ** 2

    gradient = wall_field(arc, lambda r: (anchored_gradient(params, delta, delta + r),
                                          2.0 * scale * r))
    return ScalarFieldHandle(evaluate, gradient, lambda s, r: k * s + scale * r**2)


class ZetaSample(NamedTuple):
    r: float
    eps: float
    s_hat: float
    r_hat: float
    s_hat2: float
    r_hat2: float
    traced_length: float
    lower_bound: float
    upper_bound: float


class ZetaReport(NamedTuple):
    samples: list
    fitted: BoundTolerances
    bounds_hold: bool
    ratio: ExtrapolationResult
    wall_gradient_rel_dev: float


def _zeta_sample(p_field: ScalarFieldHandle, gradp: FieldHandle, arc: ArcBoundary, k: float,
                 s: float, r: float, eps: float) -> ZetaSample:
    """The foot of the level curve of phi(s) at wall distance r, and the
    pressure line from it to the level of phi(s + eps); k is the wall gradient.
    Both are marched about (s, 0), so a hit is (sigma, rho) = (s_hat - s, r)."""
    arc_span = offset_arc_length(arc, s, eps, r)

    # foot trace: level curve from phi(s) up to wall distance r
    along, _ = _chart_form(gradp, arc)((s, 0.0))
    dirfn_level = _unit_direction(gradp, arc, (s, 0.0), 1.0 if along >= 0 else -1.0, True)
    level_cfg = TraceConfig(step=r / 100.0, max_length=4.0 * r)
    foot_hit = _first_crossing(dirfn_level, (0.0, 0.0), level_cfg, lambda p: p[1] - r)
    if foot_hit is None:
        raise NoCrossing(f"level curve from phi({s}) never reached wall distance {r}")
    foot, r_hat = foot_hit

    # zeta trace: pressure line from the foot to the level of phi(s + eps), the pressure
    # read as a field is: its chart form, or its formula at the plane image (in a handle,
    # as every evaluation is a call of one)
    chart = p_field.chart or (lambda s_, r_: p_field.evaluator(*to_cartesian(arc, (s_, r_))))
    p_chart = p_field._replace(evaluator=lambda sigma, rho: chart(s + sigma, rho))
    p_target = p_chart((eps, 0.0))
    dirfn_press = _unit_direction(gradp, arc, (s, 0.0), math.copysign(1.0, k))
    press_cfg = TraceConfig(step=arc_span / 100.0, max_length=5.0 * arc_span)

    def level_gap(p):
        return p_chart(p) - p_target

    zeta_hit = _first_crossing(dirfn_press, foot, press_cfg, level_gap)
    if zeta_hit is None:
        raise NoCrossing(f"pressure line from the foot missed the level of phi({s + eps})")
    (sigma2, r_hat2), traced = zeta_hit
    return ZetaSample(r, eps, s + foot[0], r_hat, s + sigma2, r_hat2, traced, math.nan, math.nan)


def piecewise_linear_length(
    p_field: ScalarFieldHandle, arc: ArcBoundary, sample: ZetaSample, n: int
) -> float:
    """Euler reconstruction of a zeta sample's pressure-line length in wall coordinates.

    March n equal wall-arc steps from (sample.s_hat, sample.r), the foot (at
    wall distance r to the bisection's 1e-10 of a step), to sample.s_hat2; at each node
    tilt by the angle between the gradient and the wall tangent, summing
    segment lengths ((delta + r)/delta) * ds / cos(theta).  First-order in 1/n.
    """
    chart = _chart_form(p_field.gradient, arc)
    delta = arc.delta
    ds = (sample.s_hat2 - sample.s_hat) / n
    s_k, r_k = sample.s_hat, sample.r
    total = 0.0
    for _ in range(n):
        g_t, g_n = chart((s_k, r_k))
        gnorm = abs(complex(g_t, g_n))  # libm hypot
        if gnorm == 0.0:
            raise CriticalPoint(f"gradient vanished at {(s_k, r_k)}")
        seg = (delta + r_k) / delta * ds / (abs(g_t) / gnorm)
        total += seg
        r_k = r_k + seg * (g_n / gnorm)
        s_k = s_k + ds
    return total


def zeta_check(
    p_field: ScalarFieldHandle,
    arc: ArcBoundary,
    params: LaminarParams,
    s: float,
    r_list,
    eps_over_r: float,
) -> ZetaReport:
    """Verify the level-set construction and its length bounds on a pressure field.

    For each r (with eps = eps_over_r * r) this traces the foot point, the zeta
    arc and its wall-coordinate endpoints, fits the smallest constants c and
    epsilon_hat satisfying |s_hat - s| <= c r^2 and (1 -+ eps_hat) r bracketing
    r_hat2 (reported as fitted, unclamped), checks with them ``bounds_hold``: e < 1/2 and

        (1-e)(r+d)/d (eps - 2c(1+e)^2 r^2) <= |zeta| <= (1+e)/(1-cr^2) (r+d)/d (eps + 2c(1+e)^2 r^2),

    and accumulates the ratio |zeta| * d / ((r+d) eps) for extrapolation to 1.
    """
    delta = arc.delta
    k = wall_gradient(params, delta)
    if not sys.float_info.min <= abs(k) < math.inf:  # else every march refuses its start
        raise DomainError(f"zeta machinery needs a wall gradient nu*(a1/delta - a2) in the "
                          f"normal float range, got {k:g}")
    gradp = p_field.gradient

    # wall-compatibility gate: the parts at nine stations of the segment against (k, 0)
    chart, (lo, hi) = _chart_form(gradp, arc), arc.s_range
    stations = [lo + j * ((hi - lo) / 8) for j in range(8)] + [hi]
    rel_dev = max(abs(complex(t - k, n)) for t, n in map(chart, ((si, 0.0) for si in stations)))
    rel_dev /= abs(k)
    if rel_dev > 1e-6:
        raise DomainError(
            f"wall gradient deviates from nu*(a1/delta - a2)*e1 by {rel_dev:.3e} relative"
        )

    r_list = list(r_list)
    if not r_list or any(r <= 0 for r in r_list) or any(b >= a for a, b in zip(r_list, r_list[1:])):
        raise ValidationError("r_list must be non-empty, positive and strictly decreasing")
    if not eps_over_r > 0:
        raise ValidationError(f"eps_over_r must be positive, got {eps_over_r}")
    _require_on_segment(arc, "s", s)
    try:
        raw = [_zeta_sample(p_field, gradp, arc, k, s, r, eps_over_r * r) for r in r_list]
    except DomainError as exc:  # s is inside: its offset s + eps is not
        raise DomainError(f"eps_over_r = {eps_over_r:g}: {exc}") from exc

    # fit the constants
    tiny = 1e-12
    floor = tiny / delta  # c and c1 have the unit 1/length; c2 and e have none
    c = max(max(abs(sm.s_hat - s) / sm.r**2 for sm in raw), floor) * (1.0 + 1e-9) + floor
    c1 = max(max((s + sm.eps - sm.s_hat2) / sm.r_hat2**2 for sm in raw), floor)
    c2 = max(max((sm.s_hat2 - (s + sm.eps)) / sm.r_hat2 for sm in raw), tiny)
    e = max(max(abs(sm.r_hat2 / sm.r - 1.0) for sm in raw), tiny)

    samples = []
    holds = e < 0.5  # the premise of the sandwich
    for sm in raw:
        scale = (sm.r + delta) / delta
        slack = 2.0 * c * (1.0 + e) ** 2 * sm.r**2
        lo_b = (1.0 - e) * scale * (sm.eps - slack)
        hi_b = (1.0 + e) / (1.0 - c * sm.r**2) * scale * (sm.eps + slack)
        holds = holds and lo_b <= sm.traced_length <= hi_b
        samples.append(sm._replace(lower_bound=lo_b, upper_bound=hi_b))

    ratio = richardson([
        (sm.r, sm.traced_length * delta / ((sm.r + delta) * sm.eps)) for sm in samples
    ], order=1)
    return ZetaReport(samples=samples, fitted=BoundTolerances(c, c1, c2, e), bounds_hold=holds,
                      ratio=ratio, wall_gradient_rel_dev=rel_dev)
