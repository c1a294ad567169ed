"""Streamline and pressure-line tracing next to the curved wall.

Everything here works on normalized direction fields with one fixed-step
classical RK4 march, so every traced curve is arc-length parametrized.  A
crossing event (a normal ray, a target wall distance, a pressure level) is the
first sign change of a scalar along the march, made by :func:`_crossing`: a
march point exactly on the target is the hit, and a sign change within a step
is located by bisection along the step followed by one secant polish, which
stays robust for nearly tangential crossings.  The pressure line of the eta
ratio stops instead where it first meets the traced level curve.

The march runs on float pairs: a point is a tuple ``(x, y)``, and each field
is called in point form, ``field((x, y)) -> (u, v)`` (see
:class:`lamsep.field.FieldHandle`).  Numpy enters only where a whole traced
curve is handled at once: building a :class:`Polyline` and intersecting a step
with one.  Each float operation is the one the array form performed (numpy's
``hypot``, BLAS ``dot`` and ``arctan2`` are kept where they were, since the
``math`` versions round differently), so traces are bit for bit those of the
array code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import (
    CriticalPoint,
    DomainError,
    NoCrossing,
    NoIntersection,
    OutOfChart,
    StagnationEncountered,
    WallGradientMismatch,
)
from .fdops import ExtrapolationResult, richardson
from .field import FieldHandle, LaminarParams, ScalarFieldHandle
from .geometry import (
    ArcBoundary,
    arc_normal,
    arc_point,
    arc_segment_length,
    arc_tangent,
    center_offset,
    chart_pair,
    from_cartesian,
    to_cartesian,
)


@dataclass(frozen=True)
class Polyline:
    """Ordered traced path with cumulative chord lengths."""

    points: np.ndarray
    cumulative_length: np.ndarray

    @classmethod
    def from_points(cls, points) -> "Polyline":
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(chords)])
        return cls(points=pts, cumulative_length=cum)

    @property
    def length(self) -> float:
        return float(self.cumulative_length[-1])

    def validate(self, tol: float = 1e-12) -> None:
        chords = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        if np.any(chords == 0):
            raise ValueError("consecutive polyline points must be distinct")
        expect = np.concatenate([[0.0], np.cumsum(chords)])
        scale = max(self.length, 1.0)
        if np.max(np.abs(expect - self.cumulative_length)) > tol * scale:
            raise ValueError("cumulative_length inconsistent with chord sums")

    CSV_HEADER = ("index", "x", "y", "cumlen")

    def rows(self) -> list[tuple]:
        """CSV rows (index, x, y, cumlen), one per point."""
        return [(i, x, y, c) for i, ((x, y), c) in
                enumerate(zip(self.points.tolist(), self.cumulative_length.tolist()))]


@dataclass(frozen=True)
class TraceConfig:
    step: float
    max_length: float
    stagnation_tol: float = 1e-12

    def __post_init__(self):
        if self.step <= 0 or self.max_length <= self.step:
            raise ValueError("need step > 0 and max_length > step")
        if self.stagnation_tol <= 0:
            raise ValueError("stagnation_tol must be positive")


def default_trace_config(arc: ArcBoundary, params: LaminarParams | None = None) -> TraceConfig:
    tol = 1e-10 * params.alpha1 * arc.delta if params is not None else 1e-12
    return TraceConfig(
        step=1e-3 * arc.delta,
        max_length=10.0 * arc.delta,
        stagnation_tol=tol,
    )


@dataclass(frozen=True)
class FlowClass:
    kind: str
    C_threshold: float
    evidence: list = dc_field(default_factory=list)


@dataclass(frozen=True)
class BoundTolerances:
    """Fitted constants of the level-set length bounds."""

    c: float
    c1: float
    c2: float
    epsilon_hat: float

    def __post_init__(self):
        if min(self.c, self.c1, self.c2, self.epsilon_hat) <= 0:
            raise ValueError("all bound constants must be positive")
        if self.epsilon_hat >= 0.5:
            raise ValueError("epsilon_hat must be < 0.5")


# ----------------------------------------------------------------------------
# integrators
# ----------------------------------------------------------------------------


def _center_distance(arc: ArcBoundary, x) -> float:
    """|x - center| as ``np.linalg.norm`` of the 2-vector forms it.

    That is sqrt of the BLAS dot product, which fuses a multiply and an add,
    so it can differ from sqrt(rx*rx + ry*ry) in the last bit.
    """
    rel = np.subtract(x, arc.center)
    return math.sqrt(np.dot(rel, rel))


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


def _unit_direction(field: FieldHandle, tol: float, sign: float = 1.0, perpendicular=False):
    """The field normalized to unit length (optionally turned +90 degrees), in point form."""
    def fn(x):
        try:
            u, v = field(x)
        except ZeroDivisionError as exc:
            raise StagnationEncountered(f"field is singular at {x}") from exc
        speed = float(np.hypot(u, v))
        if speed < tol:
            raise StagnationEncountered(f"|field| = {speed} < {tol} at {x}")
        u, v = u / speed, v / speed
        if perpendicular:
            u, v = -v, u
        return sign * u, sign * v

    return fn


def _march(dirfn, start, cfg: TraceConfig, on_point=None):
    """Fixed-step march of a unit direction field; optional per-point callback.

    Points are float pairs, ``start`` included once converted.
    ``on_point(x_prev, x_new, cum_prev, h)`` may return a (hit_point,
    hit_length) pair to stop the trace at an event.  Returns (points, hit)
    where hit is the callback result or None when max_length was exhausted.
    """
    x = (float(start[0]), float(start[1]))
    pts = [x]
    cum = 0.0
    n_full = int(math.floor(cfg.max_length / cfg.step + 1e-12))
    steps = [cfg.step] * n_full
    remainder = cfg.max_length - n_full * cfg.step
    if remainder > 1e-9 * cfg.step:
        steps.append(remainder)
    for h in steps:
        x_new = _rk_step(dirfn, x, h)
        if on_point is not None:
            hit = on_point(x, x_new, cum, h)
            if hit is not None:
                pts.append(hit[0])
                return pts, hit
        pts.append(x_new)
        cum += h
        x = x_new
    return pts, None


def _march_pressure(dirfn, start, cfg: TraceConfig, on_point=None):
    """:func:`_march` along the pressure gradient or a level curve.

    There the direction field stagnates only where the gradient vanishes, so a
    stagnation is a :class:`CriticalPoint`.
    """
    try:
        return _march(dirfn, start, cfg, on_point)
    except StagnationEncountered as exc:
        raise CriticalPoint(str(exc)) from exc


def _crossing(dirfn, psi, tol):
    """March callback that stops at the first sign change of ``psi``.

    A march point with psi exactly 0 is the hit.  Otherwise a sign change
    within a step is refined to |psi| <= tol along that step.
    """
    def on_point(x_prev, x_new, cum, h):
        p_prev, p_new = psi(x_prev), psi(x_new)
        if p_new == 0.0:  # the march landed on the target itself
            return x_new, cum + h
        if p_prev == 0.0 or (p_prev > 0) == (p_new > 0):
            return None
        hit, extra = _refine_on_step(dirfn, x_prev, h, psi, p_prev, p_new, tol)
        return hit, cum + extra

    return on_point


def _refine_on_step(dirfn, x_prev, step, psi, psi_prev, psi_new, tol):
    """Locate psi == 0 between x_prev and its full step by bisection + secant."""
    lo, hi = 0.0, 1.0
    f_lo, f_hi = psi_prev, psi_new

    def value(lam):
        if lam == 0.0:
            return x_prev, f_lo
        x = _rk_step(dirfn, x_prev, lam * step)
        return x, psi(x)

    x_mid = x_prev
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        x_mid, f_mid = value(mid)
        if abs(f_mid) <= tol:
            return x_mid, mid * step
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    # one secant polish on the bracket
    if f_hi != f_lo:
        lam = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        lam = min(max(lam, 0.0), 1.0)
        x_mid, _ = value(lam)
        return x_mid, lam * step
    return x_mid, 0.5 * (lo + hi) * step


# ----------------------------------------------------------------------------
# public tracing operations
# ----------------------------------------------------------------------------


def trace_streamline(field: FieldHandle, start, cfg: TraceConfig) -> Polyline:
    """Integrate the normalized velocity from ``start`` for cfg.max_length."""
    dirfn = _unit_direction(field, cfg.stagnation_tol)
    pts, _ = _march(dirfn, start, cfg)
    return Polyline.from_points(pts)


def trace_pressure_line(
    gradp: FieldHandle,
    start,
    cfg: TraceConfig,
    direction: str = "along",
    orientation: float = 1.0,
) -> Polyline:
    """Integrate the normalized pressure gradient ("along") or its perpendicular."""
    if direction not in ("along", "perpendicular"):
        raise ValueError(f"direction must be 'along' or 'perpendicular', got {direction!r}")
    dirfn = _unit_direction(
        gradp, cfg.stagnation_tol, sign=orientation, perpendicular=direction == "perpendicular"
    )
    pts, _ = _march_pressure(dirfn, start, cfg)
    return Polyline.from_points(pts)


def poincare_L(
    field: FieldHandle, arc: ArcBoundary, s: float, s1: float, r: float, cfg: TraceConfig
) -> float:
    """Wall distance at which the streamline from Phi(s, r) first crosses the
    normal ray at s1."""
    if s == s1:
        raise ValueError("launch station s and target station s1 must differ")
    if r <= 0:
        raise ValueError("launch wall distance r must be positive")
    start = to_cartesian(arc, (s, r))
    dirfn = _unit_direction(field, cfg.stagnation_tol)

    def station(x):
        return from_cartesian(arc, x).s - s1

    try:
        _, hit = _march(dirfn, start, cfg, _crossing(dirfn, station, 1e-13 * arc.delta))
    except OutOfChart as exc:
        raise NoCrossing(f"streamline left the chart before reaching s1={s1}") from exc
    if hit is None:
        raise NoCrossing(f"no crossing of the normal ray at s1={s1} within {cfg.max_length}")
    tau = _center_distance(arc, hit[0]) - arc.delta
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
        raise ValueError(f"threshold C must exceed 1, got {C}")
    if tol_par <= 0:
        raise ValueError(f"tol_par must be positive, got {tol_par}")
    radii = list(radii)
    if any(r <= 0 for r in radii) or any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be positive and strictly decreasing")
    evidence = [(r, poincare_L(field, arc, s, s1, r, cfg) / r) for r in radii]
    ratios = np.array([ratio for _, ratio in evidence])
    dev = np.abs(ratios - 1.0)
    if np.all(dev <= tol_par):
        kind = "Parallel"
    elif np.all(ratios > C):
        kind = "StrongDiverging"
    elif (
        np.all(ratios >= 1.0 - tol_par)
        and np.all(np.diff(dev) <= 0.05 * dev[:-1])
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
        rx, ry, d = center_offset(src, x, y)
        return rx / d, ry / d

    return FieldHandle(evaluator=evaluate, name="fan")


def fan_expected_crossing(arc: ArcBoundary, source, s: float, s1: float, r: float) -> float:
    """Exact Poincare height of a fan field: intersect the ray from the source
    through Phi(s, r) with the normal ray at s1."""
    src = np.asarray(source, dtype=float)
    a = to_cartesian(arc, (s, r))
    e2 = arc_normal(arc, s1)
    # solve source + w*(a - source) = center + t*e2
    mat = np.column_stack([a - src, -e2])
    w, t = np.linalg.solve(mat, arc.center_array - src)
    if w <= 0 or t <= arc.delta:
        raise NoCrossing("fan ray does not reach the target normal ray above the wall")
    return float(t - arc.delta)


def radial_growth_field(arc: ArcBoundary, growth: float) -> FieldHandle:
    """Unit-tangential field whose streamlines satisfy dr/ds = growth * r**2.

    The Poincare ratio is L(r)/r = 1/(1 - growth*r*(s1-s)): above 1 and tending
    to 1 as r -> 0, i.e. weak diverging.
    """
    delta = arc.delta

    def evaluate(x: float, y: float) -> tuple[float, float]:
        rx, ry, d = center_offset(arc.center, x, y)
        r = d - delta
        n0, n1 = rx / d, ry / d
        w = growth * r * r * delta / d
        # the clockwise tangent (n1, -n0) tilted outward by w
        return n1 + w * n0, -n0 + w * n1

    return FieldHandle(evaluator=evaluate, name="radial-growth")


# ----------------------------------------------------------------------------
# eta: Poincare map on the pressure lines
# ----------------------------------------------------------------------------


def _first_polyline_crossing(a0, a1, q0, d2):
    """Earliest intersection of the step a0->a1 (float pairs) with a polyline.

    The polyline is given by its segments, starts q0 and vectors d2 (arrays
    of shape (n, 2)), built once per polyline.  Vectorised over the segments;
    returns (t, point, segment index) or None.
    """
    d1 = (a1[0] - a0[0], a1[1] - a0[1])
    w = q0 - a0
    denom = d1[0] * d2[:, 1] - d1[1] * d2[:, 0]
    ok = np.abs(denom) > 1e-300
    t = np.where(ok, (w[:, 0] * d2[:, 1] - w[:, 1] * d2[:, 0]) / np.where(ok, denom, 1.0), np.inf)
    u = np.where(ok, (w[:, 0] * d1[1] - w[:, 1] * d1[0]) / np.where(ok, denom, 1.0), np.inf)
    eps = 1e-12
    valid = ok & (t >= -eps) & (t <= 1 + eps) & (u >= -eps) & (u <= 1 + eps)
    if not np.any(valid):
        return None
    idx = int(np.argmin(np.where(valid, t, np.inf)))
    t_hit = float(np.clip(t[idx], 0.0, 1.0))
    return t_hit, (a0[0] + t_hit * d1[0], a0[1] + t_hit * d1[1]), idx


@dataclass(frozen=True)
class EtaSample:
    eps: float
    eta_length: float
    phi_length: float
    ratio: float
    corner_angle: float


def eta_trace(
    gradp: FieldHandle, arc: ArcBoundary, s: float, r: float, eps: float, cfg: TraceConfig
) -> EtaSample:
    """Trace the pressure line from Phi(s, r) to the level curve through
    Phi(s+eps, r) and measure its length against the offset arc."""
    phi_len = float(arc_segment_length(arc, s, s + eps, r))
    start = to_cartesian(arc, (s, r))
    anchor = to_cartesian(arc, (s + eps, r))
    level_cfg = replace(cfg, step=phi_len / 80.0, max_length=3.0 * phi_len)
    fwd = trace_pressure_line(gradp, anchor, level_cfg, "perpendicular", +1.0)
    back = trace_pressure_line(gradp, anchor, level_cfg, "perpendicular", -1.0)
    level_pts = np.vstack([back.points[::-1], fwd.points[1:]])

    # orient the pressure line toward increasing s so it meets the level curve
    g0 = gradp(start)
    along = float(np.dot(g0, arc_tangent(arc, s)))
    sign = 1.0 if along >= 0 else -1.0
    if abs(along) <= 1e-13 * float(np.linalg.norm(g0)):
        # gradient purely normal: the level curve already passes through the start
        return EtaSample(eps=eps, eta_length=0.0, phi_length=phi_len, ratio=0.0,
                         corner_angle=0.5 * math.pi)
    dirfn = _unit_direction(gradp, cfg.stagnation_tol, sign=sign)
    press_cfg = replace(cfg, step=phi_len / 80.0, max_length=4.0 * phi_len)
    seg_starts = level_pts[:-1]
    seg_vectors = level_pts[1:] - seg_starts

    crossing = {}

    def on_point(x_prev, x_new, cum, h):
        hit = _first_polyline_crossing(x_prev, x_new, seg_starts, seg_vectors)
        if hit is None:
            return None
        t_hit, point, seg_idx = hit
        crossing["segment"] = seg_idx
        crossing["chord"] = np.subtract(x_new, x_prev)
        return point, cum + t_hit * h

    _, hit = _march_pressure(dirfn, start, press_cfg, on_point)
    if hit is None:
        raise NoIntersection(
            f"pressure line from (s={s}, r={r}) missed the level curve for eps={eps}"
        )
    eta_len = float(hit[1])
    level_seg = seg_vectors[crossing["segment"]]
    chord = crossing["chord"]
    cosang = abs(np.dot(chord, level_seg)) / (np.linalg.norm(chord) * np.linalg.norm(level_seg))
    corner = math.acos(min(1.0, float(cosang)))
    return EtaSample(eps=eps, eta_length=eta_len, phi_length=phi_len,
                     ratio=eta_len / phi_len, corner_angle=corner)


def eta_ratio(
    gradp: FieldHandle, arc: ArcBoundary, s: float, r: float, eps_list, cfg: TraceConfig
) -> ExtrapolationResult:
    """Extrapolated eps -> 0 limit of |eta arc| / |offset wall arc|.

    For the stationary gradient ansatz this limit is |P| / sqrt(P^2 + Pperp^2).
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    return _traced_limit([(eps, eta_trace(gradp, arc, s, r, eps, cfg).ratio) for eps in eps_list])


def _traced_limit(samples) -> ExtrapolationResult:
    """First-order Richardson limit of traced (h, value) samples.

    Samples that already agree to tracer accuracy (a spread below 1e-9 of the
    last value) leave nothing to extrapolate: the last value is the limit.
    Their differences are roundoff, so Richardson's monotonicity check would
    refuse them for no reason.
    """
    values = [v for _, v in samples]
    spread = max(values) - min(values)
    if spread < 1e-9 * max(abs(values[-1]), 1e-300):
        return ExtrapolationResult(values[-1], spread, float("nan"), len(samples))
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
    k = params.nu * (params.alpha1 / arc.delta - params.alpha2)
    delta = arc.delta
    scale = amp * k / delta
    s_mid = 0.5 * (arc.s_range[0] + arc.s_range[1])
    period = 2.0 * math.pi * delta

    def evaluate(x: float, y: float) -> float:
        rx, ry, d = center_offset(arc.center, x, y)
        # the station s of (x, y), unwrapped next to the sector
        s_raw = float(np.arctan2(rx, ry)) * delta - arc.phase
        station = s_raw - period * round((s_raw - s_mid) / period)
        return k * station + scale * (d - delta) ** 2

    def gradient(x: float, y: float) -> tuple[float, float]:
        rx, ry, d = center_offset(arc.center, x, y)
        n0, n1 = rx / d, ry / d
        g_t, g_n = k * delta / d, 2.0 * scale * (d - delta)
        # g_t along the clockwise tangent (n1, -n0), g_n along the normal
        return g_t * n1 + g_n * n0, g_t * -n0 + g_n * n1

    name = "angular-pressure" if amp == 0.0 else f"angular-pressure+{amp}r2"
    return ScalarFieldHandle(evaluator=evaluate, gradient=gradient, name=name)


def wall_incompatible_pressure(
    arc: ArcBoundary, params: LaminarParams, slope: float
) -> ScalarFieldHandle:
    """Angular pressure plus slope*(dist - delta): breaks the wall gradient."""
    base = angular_pressure(arc, params)
    delta = arc.delta

    def evaluate(x: float, y: float) -> float:
        d = center_offset(arc.center, x, y)[2]
        return base.evaluator(x, y) + slope * (d - delta)

    def gradient(x: float, y: float) -> tuple[float, float]:
        rx, ry, d = center_offset(arc.center, x, y)
        gx, gy = base.gradient(x, y)
        return gx + slope * rx / d, gy + slope * ry / d

    return ScalarFieldHandle(evaluator=evaluate, gradient=gradient, name="wall-incompatible")


def _gradient_handle(p_field: ScalarFieldHandle) -> FieldHandle:
    return FieldHandle(evaluator=p_field.gradient, name=p_field.name + "-grad")


@dataclass(frozen=True)
class ZetaSample:
    r: float
    eps: float
    s_hat: float
    r_hat: float
    s_hat2: float
    r_hat2: float
    traced_length: float
    lower_bound: float
    upper_bound: float
    pw_sums: dict


@dataclass(frozen=True)
class ZetaReport:
    samples: list
    fitted: BoundTolerances
    bounds_hold: bool
    ratio: ExtrapolationResult
    wall_gradient_rel_dev: float


def _zeta_sample(
    p_field: ScalarFieldHandle,
    gradp: FieldHandle,
    arc: ArcBoundary,
    sign_k: float,
    s: float,
    r: float,
    eps: float,
    cfg: TraceConfig,
) -> ZetaSample:
    delta = arc.delta
    wall_pt = arc_point(arc, s)

    # foot trace: level curve from phi(s) up to wall distance r
    g0 = gradp(wall_pt)
    perp = np.array([-g0[1], g0[0]])
    orient = 1.0 if float(np.dot(perp, arc_normal(arc, s))) >= 0 else -1.0
    dirfn_level = _unit_direction(gradp, cfg.stagnation_tol, sign=orient, perpendicular=True)
    level_cfg = replace(cfg, step=r / 100.0, max_length=4.0 * r)

    def height(x):
        return _center_distance(arc, x) - delta - r

    _, foot_hit = _march_pressure(dirfn_level, wall_pt, level_cfg,
                                  _crossing(dirfn_level, height, 1e-13 * delta))
    if foot_hit is None:
        raise NoIntersection(f"level curve from phi({s}) never reached wall distance {r}")
    foot, r_hat = foot_hit
    np_foot = from_cartesian(arc, foot)
    s_hat = np_foot.s

    # zeta trace: pressure line from the foot to the level of phi(s + eps)
    p_target = float(p_field(arc_point(arc, s + eps)))
    dirfn_press = _unit_direction(gradp, cfg.stagnation_tol, sign=sign_k)
    arc_span = float(arc_segment_length(arc, s, s + eps, r))
    press_cfg = replace(cfg, step=arc_span / 100.0, max_length=5.0 * arc_span)

    def level_gap(x):
        return float(p_field(x)) - p_target

    _, zeta_hit = _march_pressure(dirfn_press, foot, press_cfg,
                                  _crossing(dirfn_press, level_gap, 1e-14 * (abs(p_target) + 1.0)))
    if zeta_hit is None:
        raise NoIntersection(f"pressure line from the foot missed the level of phi({s + eps})")
    zeta_pt, traced = zeta_hit
    np_zeta = from_cartesian(arc, zeta_pt)

    pw = {}
    for n in (32, 64, 128, 256):
        pw[n] = _piecewise_linear_length(gradp, arc, s_hat, np_foot.r, np_zeta.s, n)

    return ZetaSample(
        r=r, eps=eps, s_hat=s_hat, r_hat=float(r_hat), s_hat2=np_zeta.s, r_hat2=np_zeta.r,
        traced_length=float(traced), lower_bound=float("nan"), upper_bound=float("nan"),
        pw_sums=pw,
    )


def _piecewise_linear_length(
    gradp: FieldHandle, arc: ArcBoundary, s0: float, r0: float, s1: float, n: int
) -> float:
    """Euler reconstruction of the pressure-line length in wall coordinates.

    March n equal wall-arc steps from (s0, r0); at each node tilt by the angle
    between the gradient and the wall tangent, summing segment lengths
    ((delta + r)/delta) * ds / cos(theta).  First-order in 1/n.
    """
    delta = arc.delta
    ds = (s1 - s0) / n
    s_k, r_k = s0, r0
    total = 0.0
    for _ in range(n):
        x, (n0, n1) = chart_pair(arc, s_k, r_k)
        g = gradp(x)
        gnorm = float(np.hypot(g[0], g[1]))
        if gnorm == 0.0:
            raise CriticalPoint(f"gradient vanished at {x}")
        # BLAS dot products, as with the array tangent and normal
        cos_t = abs(float(np.dot(g, (n1, -n0)))) / gnorm
        sin_t = float(np.dot(g, (n0, n1))) / gnorm
        seg = (delta + r_k) / delta * ds / cos_t
        total += seg
        r_k = r_k + seg * sin_t
        s_k = s_k + ds
    return total


def zeta_check(
    p_field: ScalarFieldHandle,
    arc: ArcBoundary,
    params: LaminarParams,
    s: float,
    r_list,
    eps_over_r: float,
    cfg: TraceConfig | None = None,
) -> ZetaReport:
    """Verify the level-set construction and its length bounds on a pressure field.

    For each r (with eps = eps_over_r * r) this traces the foot point, the zeta
    arc and its wall-coordinate endpoints, fits the smallest constants c and
    epsilon_hat satisfying |s_hat - s| <= c r^2, (1 -+ eps_hat) r bracketing
    r_hat2, and the sandwich

        (1-e)(r+d)/d (eps - 2c(1+e)^2 r^2) <= |zeta| <= (1+e)/(1-cr^2) (r+d)/d (eps + 2c(1+e)^2 r^2),

    and accumulates the ratio |zeta| * d / ((r+d) eps) for extrapolation to 1.
    """
    delta = arc.delta
    k = params.nu * (params.alpha1 / delta - params.alpha2)
    if k == 0:
        raise DomainError("zeta machinery needs a nonzero wall gradient nu*(a1/delta - a2)")
    if cfg is None:
        cfg = default_trace_config(arc, params)
    gradp = _gradient_handle(p_field)

    # wall-compatibility gate
    lo, hi = arc.s_range
    rel_dev = 0.0
    for si in np.linspace(lo, hi, 9):
        g = gradp(arc_point(arc, si))
        dev = float(np.linalg.norm(g - k * arc_tangent(arc, si))) / abs(k)
        rel_dev = max(rel_dev, dev)
    if rel_dev > 1e-6:
        raise WallGradientMismatch(
            f"wall gradient deviates from nu*(a1/delta - a2)*e1 by {rel_dev:.3e} relative"
        )

    r_list = list(r_list)
    if any(b >= a for a, b in zip(r_list, r_list[1:])):
        raise ValueError("r_list must be strictly decreasing")
    sign_k = 1.0 if k > 0 else -1.0
    raw = [_zeta_sample(p_field, gradp, arc, sign_k, s, r, eps_over_r * r, cfg) for r in r_list]

    # fit the constants
    tiny = 1e-12
    c_fit = max(max(abs(sm.s_hat - s) / sm.r**2 for sm in raw), tiny)
    c1_fit = max(max((s + sm.eps - sm.s_hat2) / sm.r_hat2**2 for sm in raw), tiny)
    c2_fit = max(max((sm.s_hat2 - (s + sm.eps)) / sm.r_hat2 for sm in raw), tiny)
    e_fit = max(max(abs(sm.r_hat2 / sm.r - 1.0) for sm in raw), tiny)

    def bounds(sm: ZetaSample, c: float, e: float) -> tuple[float, float]:
        scale = (sm.r + delta) / delta
        lo_b = (1.0 - e) * scale * (sm.eps - 2.0 * c * (1.0 + e) ** 2 * sm.r**2)
        hi_b = (1.0 + e) / (1.0 - c * sm.r**2) * scale * (sm.eps + 2.0 * c * (1.0 + e) ** 2 * sm.r**2)
        return lo_b, hi_b

    def needed_c(sm: ZetaSample, e: float) -> float:
        scale = (sm.r + delta) / delta
        c_lo = (sm.eps - sm.traced_length / ((1.0 - e) * scale)) / (2.0 * (1.0 + e) ** 2 * sm.r**2)
        gap = sm.traced_length * delta / ((1.0 + e) * (sm.r + delta)) - sm.eps
        c_hi = gap / (2.0 * (1.0 + e) ** 2 * sm.r**2 + sm.traced_length * sm.r**2 * delta
                      / ((1.0 + e) * (sm.r + delta)))
        return max(c_lo, c_hi, 0.0)

    c_final = max(c_fit, max(needed_c(sm, e_fit) for sm in raw)) * (1.0 + 1e-9) + tiny
    fitted = BoundTolerances(c=c_final, c1=max(c1_fit, tiny), c2=max(c2_fit, tiny),
                             epsilon_hat=min(e_fit, 0.49))

    samples = []
    holds = True
    for sm in raw:
        lo_b, hi_b = bounds(sm, fitted.c, fitted.epsilon_hat)
        holds = holds and lo_b <= sm.traced_length <= hi_b
        samples.append(replace(sm, lower_bound=lo_b, upper_bound=hi_b))

    ratio = _traced_limit([
        (sm.r, sm.traced_length * delta / ((sm.r + delta) * sm.eps)) for sm in samples
    ])
    return ZetaReport(samples=samples, fitted=fitted, bounds_hold=holds,
                      ratio=ratio, wall_gradient_rel_dev=rel_dev)
