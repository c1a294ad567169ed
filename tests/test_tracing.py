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
)
from lamsep.geometry import ArcBoundary, to_cartesian
from lamsep.tracing import (
    Polyline,
    TraceConfig,
    classify_flow,
    default_trace_config,
    eta_ratio,
    eta_trace,
    fan_expected_crossing,
    fan_field,
    poincare_L,
    radial_growth_field,
    trace_pressure_line,
    trace_streamline,
)

ARC = ArcBoundary(delta=1.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 0.5))
PARAMS = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)
CFG = default_trace_config(ARC, PARAMS)

ROTATION = FieldHandle(evaluator=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1))


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
    line.to_csv(path)
    assert path.read_text().splitlines()[0] == "index,x,y,cumlen"


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(step=0.0, max_length=1.0)
    with pytest.raises(ValueError):
        TraceConfig(step=0.1, max_length=0.05)
    with pytest.raises(ValueError):
        TraceConfig(step=0.1, max_length=1.0, integrator_order=3)


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
    # halving the step moves the endpoint by O(step^order)
    field = laminar_field(ARC, PARAMS)
    start = to_cartesian(ARC, (0.05, 0.2))
    for order, expected in ((2, 2.0), (4, 4.0)):
        ends = []
        for step in (4e-3, 2e-3, 1e-3):
            cfg = TraceConfig(step=step, max_length=0.4 + step / 2,
                              stagnation_tol=1e-14, integrator_order=order)
            n = int(0.4 / step)
            line = trace_streamline(field, start, cfg)
            ends.append(line.points[n])
        errs = [np.linalg.norm(ends[0] - ends[1]), np.linalg.norm(ends[1] - ends[2])]
        assert np.log2(errs[0] / errs[1]) == pytest.approx(expected, abs=0.4)


def test_stagnation_at_wall():
    field = laminar_field(ARC, PARAMS)
    with pytest.raises(StagnationEncountered):
        trace_streamline(field, to_cartesian(ARC, (0.1, 0.0)), CFG)


def test_poincare_identity_on_laminar():
    field = laminar_field(ARC, PARAMS)
    for r in (0.05, 0.1, 0.2):
        L = poincare_L(field, ARC, 0.1, 0.25, r, CFG)
        assert L == pytest.approx(r, abs=1e-6 * r)


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
    gradp = FieldHandle(evaluator=lambda x: np.broadcast_to([1.0, 0.0], x.shape).copy())
    cfg = TraceConfig(step=1e-3, max_length=0.5, stagnation_tol=1e-12)
    line = trace_pressure_line(gradp, [0.0, 0.0], cfg, "along")
    assert np.allclose(line.points[-1], [0.5, 0.0], atol=1e-9)


def test_pressure_line_critical_point():
    gradp = FieldHandle(evaluator=lambda x: np.zeros_like(x))
    cfg = TraceConfig(step=1e-3, max_length=0.5, stagnation_tol=1e-12)
    with pytest.raises(CriticalPoint):
        trace_pressure_line(gradp, [0.0, 0.0], cfg, "along")


def test_perpendicular_trace_of_radial_gradient_is_circle():
    gradp = FieldHandle(evaluator=lambda x: x / np.linalg.norm(x, axis=-1)[..., None])
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

    def tangential(x):
        rel = np.asarray(x, dtype=float) - ARC.center_array
        d = np.linalg.norm(rel, axis=-1)
        t_hat = np.stack([rel[..., 1], -rel[..., 0]], axis=-1) / d[..., None]
        return params.nu * t_hat

    res = eta_ratio(FieldHandle(evaluator=tangential), ARC, 0.15, 0.1,
                    [4e-3, 2e-3, 1e-3], CFG)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_eta_ratio_purely_normal_is_zero():
    def radial(x):
        rel = np.asarray(x, dtype=float) - ARC.center_array
        return rel / np.linalg.norm(rel, axis=-1)[..., None]

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


def test_trace_guard_left_domain():
    from lamsep.errors import LeftDomain

    cfg = TraceConfig(step=1e-2, max_length=1.0, stagnation_tol=1e-12)
    guard = lambda p: p[1] < 0.5  # noqa: E731
    with pytest.raises(LeftDomain):
        trace_streamline(ROTATION, [1.0, 0.0], cfg, guard=guard)
