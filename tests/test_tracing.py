import math

import numpy as np
import pytest

from lamsep.errors import (
    CriticalPoint,
    NoCrossing,
    StagnationEncountered,
)
from lamsep.field import (
    FieldHandle,
    LaminarParams,
    laminar_field,
    stationary_gradp_ansatz,
    stationary_gradp_field,
    write_csv,
)
from lamsep.geometry import ArcBoundary, from_cartesian, to_cartesian
from lamsep.tracing import (
    Polyline,
    TraceConfig,
    _gradient_handle,
    angular_pressure,
    classify_flow,
    default_trace_config,
    eta_ratio,
    eta_trace,
    fan_expected_crossing,
    fan_field,
    perturbed_angular_pressure,
    poincare_L,
    radial_growth_field,
    trace_pressure_line,
    trace_streamline,
    wall_incompatible_pressure,
)

ARC = ArcBoundary(delta=1.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 0.5))
PARAMS = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)
CFG = default_trace_config(ARC, PARAMS)

ROTATION = FieldHandle(evaluator=lambda x, y: (-y, x))


def test_polyline_invariants():
    line = Polyline.from_points([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert line.length == pytest.approx(2.0)
    line.validate()
    assert np.all(np.diff(line.cumulative_length) >= 0)


def test_polyline_rejects_duplicate_points():
    line = Polyline.from_points([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        line.validate()


def test_polyline_csv(tmp_path):
    line = Polyline.from_points([[0.0, 0.0], [1.0, 0.0]])
    path = tmp_path / "line.csv"
    write_csv(path, line.CSV_HEADER, line.rows())
    assert path.read_text().splitlines() == ["index,x,y,cumlen", "0,0,0,0", "1,1,0,1"]


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(step=0.0, max_length=1.0)
    with pytest.raises(ValueError):
        TraceConfig(step=0.1, max_length=0.05)


def test_rigid_rotation_half_circle():
    cfg = TraceConfig(step=1e-3, max_length=np.pi, stagnation_tol=1e-12)
    line = trace_streamline(ROTATION, [1.0, 0.0], cfg)
    assert np.allclose(line.points[-1], [-1.0, 0.0], atol=1e-6)


def test_streamline_stays_on_circle():
    field = laminar_field(ARC, PARAMS)
    start = to_cartesian(ARC, (0.05, 0.2))
    cfg = TraceConfig(step=1e-3, max_length=0.4, stagnation_tol=CFG.stagnation_tol)
    line = trace_streamline(field, start, cfg)
    dists = np.linalg.norm(line.points - ARC.center_array, axis=1)
    assert np.max(np.abs(dists - 1.2)) <= 1e-6


def test_streamline_endpoint_convergence_order():
    # halving the step moves the RK4 endpoint by O(step^4)
    field = laminar_field(ARC, PARAMS)
    start = to_cartesian(ARC, (0.05, 0.2))
    ends = []
    for step in (4e-3, 2e-3, 1e-3):
        cfg = TraceConfig(step=step, max_length=0.4 + step / 2, stagnation_tol=1e-14)
        n = int(0.4 / step)
        line = trace_streamline(field, start, cfg)
        ends.append(line.points[n])
    errs = [np.linalg.norm(ends[0] - ends[1]), np.linalg.norm(ends[1] - ends[2])]
    assert np.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.4)


def test_stagnation_at_wall():
    field = laminar_field(ARC, PARAMS)
    with pytest.raises(StagnationEncountered):
        trace_streamline(field, to_cartesian(ARC, (0.1, 0.0)), CFG)


def test_trace_from_a_singular_point_is_a_stagnation():
    # the fan field is undefined at its source: a one-line error, not a traceback
    with pytest.raises(StagnationEncountered):
        trace_streamline(fan_field([0.3, 0.4]), [0.3, 0.4], CFG)


def test_poincare_identity_on_laminar():
    field = laminar_field(ARC, PARAMS)
    for r in (0.05, 0.1, 0.2):
        L = poincare_L(field, ARC, 0.1, 0.25, r, CFG)
        assert L == pytest.approx(r, abs=1e-6 * r)


def test_poincare_counts_a_march_point_exactly_on_the_station():
    # a laminar draw whose r = 0.547 streamline has march point 180 exactly at s1
    arc = ArcBoundary(delta=2.7344054603316077, phase=0.0, center=(0.0, 0.0),
                      s_range=(0.0, 1.3672027301658038))
    params = LaminarParams(alpha1=3.0459975177293237, alpha2=0.6501557024114218,
                           nu=1.9669277506667733)
    cfg = default_trace_config(arc, params)
    field = laminar_field(arc, params)
    s, s1, r = 0.27344054603316076, 0.6836013650829019, 0.5468810920663215
    line = trace_streamline(field, to_cartesian(arc, (s, r)), cfg)
    assert from_cartesian(arc, line.points[180]).s == s1
    assert poincare_L(field, arc, s, s1, r, cfg) == pytest.approx(r, rel=1e-12)


def test_poincare_laminar_sweep():
    field = laminar_field(ARC, PARAMS)
    for r in np.linspace(0.01, 0.3, 8):
        L = poincare_L(field, ARC, 0.05, 0.3, r, CFG)
        assert abs(L / r - 1.0) <= 1e-6


def test_poincare_fan_matches_similar_triangles():
    source = to_cartesian(ARC, (-0.5, 0.0))
    field = fan_field(source)
    for r in (0.05, 0.1, 0.2):
        L = poincare_L(field, ARC, 0.1, 0.25, r, CFG)
        expected = fan_expected_crossing(ARC, source, 0.1, 0.25, r)
        assert L == pytest.approx(expected, rel=1e-7)
        assert L / r > 1.0


def test_poincare_target_behind_flow_raises():
    field = laminar_field(ARC, PARAMS)
    cfg = TraceConfig(step=1e-3, max_length=0.2, stagnation_tol=CFG.stagnation_tol)
    with pytest.raises(NoCrossing):
        poincare_L(field, ARC, 0.25, 0.1, 0.1, cfg)


def test_poincare_rejects_bad_arguments():
    field = laminar_field(ARC, PARAMS)
    with pytest.raises(ValueError):
        poincare_L(field, ARC, 0.1, 0.1, 0.1, CFG)
    with pytest.raises(ValueError):
        poincare_L(field, ARC, 0.1, 0.2, 0.0, CFG)


def test_classify_laminar_parallel():
    field = laminar_field(ARC, PARAMS)
    result = classify_flow(field, ARC, [0.2, 0.1, 0.05], 0.1, 0.25, 1.2, CFG)
    assert result.kind == "Parallel"
    assert all(abs(q - 1.0) <= 1e-4 for _, q in result.evidence)


def test_classify_fan_strong_diverging():
    source = to_cartesian(ARC, (-0.5, 0.0))
    result = classify_flow(fan_field(source), ARC, [0.2, 0.1, 0.05], 0.1, 0.25, 1.2, CFG)
    assert result.kind == "StrongDiverging"


def test_classify_weak_diverging():
    field = radial_growth_field(ARC, 1.0)
    result = classify_flow(field, ARC, [0.2, 0.1, 0.05, 0.025], 0.1, 0.25, 1.2, CFG)
    assert result.kind == "WeakDiverging"
    ratios = [q for _, q in result.evidence]
    assert all(q >= 1.0 - 1e-6 for q in ratios)
    assert ratios[-1] < ratios[0]


def test_classify_rejects_bad_inputs():
    field = laminar_field(ARC, PARAMS)
    with pytest.raises(ValueError):
        classify_flow(field, ARC, [0.1, 0.2], 0.1, 0.25, 1.2, CFG)  # not decreasing
    with pytest.raises(ValueError):
        classify_flow(field, ARC, [0.2, 0.1], 0.1, 0.25, 0.9, CFG)  # C <= 1
    with pytest.raises(ValueError):
        classify_flow(field, ARC, [0.2, 0.1], 0.1, 0.25, 1.2, CFG, tol_par=-1.0)


def test_pressure_line_constant_gradient():
    gradp = FieldHandle(evaluator=lambda x, y: (1.0, 0.0))
    cfg = TraceConfig(step=1e-3, max_length=0.5, stagnation_tol=1e-12)
    line = trace_pressure_line(gradp, [0.0, 0.0], cfg, "along")
    assert np.allclose(line.points[-1], [0.5, 0.0], atol=1e-9)


def test_pressure_line_critical_point():
    gradp = FieldHandle(evaluator=lambda x, y: (0.0, 0.0))
    cfg = TraceConfig(step=1e-3, max_length=0.5, stagnation_tol=1e-12)
    with pytest.raises(CriticalPoint):
        trace_pressure_line(gradp, [0.0, 0.0], cfg, "along")


def test_perpendicular_trace_of_radial_gradient_is_circle():
    gradp = FieldHandle(evaluator=lambda x, y: (x / math.hypot(x, y), y / math.hypot(x, y)))
    cfg = TraceConfig(step=1e-3, max_length=1.0, stagnation_tol=1e-12)
    line = trace_pressure_line(gradp, [1.3, 0.0], cfg, "perpendicular")
    radii = np.linalg.norm(line.points, axis=1)
    assert np.max(np.abs(radii - 1.3)) <= 1e-7


def test_ansatz_pressure_lines_stay_smooth():
    gradp = stationary_gradp_field(ARC, PARAMS)
    cfg = TraceConfig(step=1e-3, max_length=0.1, stagnation_tol=1e-12)
    for r in (0.1, 0.2, 0.4):
        line = trace_pressure_line(gradp, to_cartesian(ARC, (0.2, r)), cfg, "along")
        # no CriticalPoint: the full parameter length was traced (chords fall
        # short of the arc by O(step^2) only)
        assert line.length >= 0.1 * (1.0 - 1e-6)


def test_eta_ratio_purely_tangential_is_one():
    params = LaminarParams(2.0, 1.0, 1.0)  # K != 0 at the wall

    def tangential(x, y):
        d = math.hypot(x, y)  # ARC is centred at the origin
        return params.nu * y / d, -params.nu * x / d

    res = eta_ratio(FieldHandle(evaluator=tangential), ARC, 0.15, 0.1,
                    [4e-3, 2e-3, 1e-3], CFG)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_eta_ratio_purely_normal_is_zero():
    def radial(x, y):
        d = math.hypot(x, y)
        return x / d, y / d

    res = eta_ratio(FieldHandle(evaluator=radial), ARC, 0.15, 0.1, [4e-3, 2e-3, 1e-3], CFG)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_eta_ratio_matches_ansatz_closed_form():
    gradp = stationary_gradp_field(ARC, PARAMS)
    p_t, p_n = stationary_gradp_ansatz(PARAMS, ARC.delta, 0.1)
    expected = abs(p_t) / np.hypot(p_t, p_n)
    assert expected == pytest.approx(0.9491, abs=2e-4)  # printed-variant value
    res = eta_ratio(gradp, ARC, 0.15, 0.1, [4e-3, 2e-3, 1e-3], CFG)
    assert res.value == pytest.approx(expected, rel=1e-3)
    assert res.error_estimate <= 1e-3


def test_eta_error_estimate_shrinks_with_eps():
    gradp = stationary_gradp_field(ARC, PARAMS)
    wide = eta_ratio(gradp, ARC, 0.15, 0.1, [8e-3, 4e-3], CFG)
    tight = eta_ratio(gradp, ARC, 0.15, 0.1, [4e-3, 2e-3, 1e-3], CFG)
    assert tight.error_estimate < wide.error_estimate


def test_eta_right_angle_at_intersection():
    gradp = stationary_gradp_field(ARC, PARAMS)
    sample = eta_trace(gradp, ARC, 0.15, 0.1, 1e-3, CFG)
    assert abs(sample.corner_angle - np.pi / 2) < 1e-2


# ----------------------------------------------------------------------------
# the float march against the array arithmetic it replaced
# ----------------------------------------------------------------------------


def _array_direction(field, tol, sign=1.0, perpendicular=False):
    def fn(x):
        v = field(x)
        speed = float(np.hypot(v[0], v[1]))
        if speed < tol:
            raise StagnationEncountered(f"|field| = {speed} at {x}")
        v = v / speed
        if perpendicular:
            v = np.array([-v[1], v[0]])
        return sign * v

    return fn


def _array_rk4(fn, x, h):
    k1 = fn(x)
    k2 = fn(x + 0.5 * h * k1)
    k3 = fn(x + 0.5 * h * k2)
    k4 = fn(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _array_steps(cfg):
    n_full = int(math.floor(cfg.max_length / cfg.step + 1e-12))
    steps = [cfg.step] * n_full
    remainder = cfg.max_length - n_full * cfg.step
    if remainder > 1e-9 * cfg.step:
        steps.append(remainder)
    return steps


def _array_trace(fn, start, cfg):
    pts = [np.asarray(start, dtype=float)]
    for h in _array_steps(cfg):
        pts.append(_array_rk4(fn, pts[-1], h))
    return np.array(pts)


def _array_poincare_L(field, arc, s, s1, r, cfg):
    fn = _array_direction(field, cfg.stagnation_tol)

    def station(x):
        return from_cartesian(arc, x).s - s1

    x, cum = to_cartesian(arc, (s, r)), 0.0
    for h in _array_steps(cfg):
        x_new = _array_rk4(fn, x, h)
        f_lo, f_hi = station(x), station(x_new)
        if f_lo != 0.0 and (f_lo > 0) != (f_hi > 0):
            break
        x, cum = x_new, cum + h
    else:
        raise AssertionError("reference trace found no crossing")
    # bisection on the step fraction, then one secant polish
    lo, hi = 0.0, 1.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        x_mid = _array_rk4(fn, x, mid * h)
        f_mid = station(x_mid)
        if abs(f_mid) <= 1e-13 * arc.delta:
            break
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    else:
        lam = min(max(hi - f_hi * (hi - lo) / (f_hi - f_lo), 0.0), 1.0)
        x_mid = _array_rk4(fn, x, lam * h)
    return float(np.linalg.norm(x_mid - arc.center_array)) - arc.delta


def test_float_march_matches_array_reference():
    arc = ArcBoundary(delta=1.3, phase=0.2, center=(0.5, -0.7), s_range=(0.0, 0.6))
    params = LaminarParams(alpha1=2.7, alpha2=1.1, nu=0.8)
    cfg = TraceConfig(step=1e-3, max_length=0.5, stagnation_tol=1e-10)
    start = to_cartesian(arc, (0.1, 0.15))

    field = laminar_field(arc, params)
    line = trace_streamline(field, start, cfg)
    expected = _array_trace(_array_direction(field, cfg.stagnation_tol), start, cfg)
    assert np.array_equal(line.points, expected)

    gradp = stationary_gradp_field(arc, params)
    for direction, sign in (("along", 1.0), ("perpendicular", -1.0)):
        line = trace_pressure_line(gradp, start, cfg, direction, orientation=sign)
        fn = _array_direction(gradp, cfg.stagnation_tol, sign, direction == "perpendicular")
        assert np.array_equal(line.points, _array_trace(fn, start, cfg))

    cfg_L = TraceConfig(step=1e-3, max_length=1.0, stagnation_tol=1e-10)
    got = poincare_L(field, arc, 0.1, 0.35, 0.12, cfg_L)
    assert got == _array_poincare_L(field, arc, 0.1, 0.35, 0.12, cfg_L)


def test_array_call_equals_stacked_point_calls():
    arc = ArcBoundary(delta=1.3, phase=0.2, center=(0.5, -0.7), s_range=(0.0, 0.6))
    params = LaminarParams(alpha1=2.7, alpha2=1.1, nu=0.8)
    rng = np.random.default_rng(3)
    pts = to_cartesian(arc, (rng.uniform(-0.1, 0.7, (4, 3)), rng.uniform(0.01, 0.5, (4, 3))))
    angular = angular_pressure(arc, params)
    vector_fields = [
        laminar_field(arc, params),
        stationary_gradp_field(arc, params),
        stationary_gradp_field(arc, params, "corrected"),
        fan_field(to_cartesian(arc, (-2.0, 0.0))),
        radial_growth_field(arc, 1.5),
        _gradient_handle(angular),
        _gradient_handle(wall_incompatible_pressure(arc, params, 0.2)),
    ]
    for field in vector_fields:
        stacked = [[field((float(x), float(y))) for x, y in row] for row in pts]
        assert np.array_equal(field(pts), np.array(stacked)), field.name
        assert np.array_equal(field(pts[0, 0]), np.array(stacked[0][0])), field.name
    for p_field in (angular, perturbed_angular_pressure(arc, params, 0.3),
                    wall_incompatible_pressure(arc, params, 0.2)):
        stacked = [[p_field((float(x), float(y))) for x, y in row] for row in pts]
        assert np.array_equal(p_field(pts), np.array(stacked)), p_field.name
        assert p_field(pts[0, 0]).shape == ()
