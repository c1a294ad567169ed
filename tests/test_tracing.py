import math

import numpy as np
import pytest

from lamsep.errors import CriticalPoint, DomainError, NoCrossing
from lamsep import tracing
from lamsep.field import (
    FieldHandle,
    LaminarParams,
    ScalarFieldHandle,
    laminar_field,
    stationary_gradp_ansatz,
    stationary_gradp_field,
    write_csv,
)
from lamsep.geometry import ArcBoundary, from_cartesian, to_cartesian
from lamsep.tracing import (
    Polyline,
    angular_pressure,
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

ARC = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))
PARAMS = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)
CFG = default_trace_config(ARC)

ROTATION = FieldHandle(evaluator=lambda x, y: (-y, x))


def test_polyline_invariants():
    line = Polyline.from_points([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert line.length == pytest.approx(2.0)
    assert np.all(np.diff(line.cumulative_length) >= 0)


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
    # at most 10**6 steps; NaN and inf lengths or steps are refused with them
    for step, max_length in ((1e-6, 1e30), (1e-3, np.inf), (np.nan, 1.0), (1e-3, np.nan)):
        with pytest.raises(ValueError):
            TraceConfig(step=step, max_length=max_length)
    with pytest.raises(ValueError, match="steps"):
        CFG._replace(step=1e-300)
    TraceConfig(step=2.0**-20, max_length=10**6 * 2.0**-20)  # exactly 10**6 steps is allowed


def test_rigid_rotation_half_circle():
    cfg = TraceConfig(step=1e-3, max_length=np.pi)
    line = trace_streamline(ROTATION, [1.0, 0.0], cfg)
    assert np.allclose(line.points[-1], [-1.0, 0.0], atol=1e-6)


def test_streamline_stays_on_circle():
    field = laminar_field(ARC, PARAMS)
    start = to_cartesian(ARC, (0.05, 0.2))
    cfg = TraceConfig(step=1e-3, max_length=0.4)
    line = trace_streamline(field, start, cfg)
    dists = np.linalg.norm(line.points, axis=1)
    assert np.max(np.abs(dists - 1.2)) <= 1e-6


def test_streamline_endpoint_convergence_order():
    # halving the step moves the RK4 endpoint by O(step^4)
    field = laminar_field(ARC, PARAMS)
    start = to_cartesian(ARC, (0.05, 0.2))
    ends = []
    for step in (4e-3, 2e-3, 1e-3):
        cfg = TraceConfig(step=step, max_length=0.4 + step / 2)
        n = int(0.4 / step)
        line = trace_streamline(field, start, cfg)
        ends.append(np.asarray(line.points[n]))
    errs = [np.linalg.norm(ends[0] - ends[1]), np.linalg.norm(ends[1] - ends[2])]
    assert np.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.4)


def test_stagnation_at_wall():
    field = laminar_field(ARC, PARAMS)
    with pytest.raises(CriticalPoint):
        trace_streamline(field, to_cartesian(ARC, (0.1, 0.0)), CFG)


def test_trace_from_a_singular_point_is_a_stagnation():
    # the fan field is undefined at its source: a one-line error, not a traceback
    with pytest.raises(CriticalPoint):
        trace_streamline(fan_field([0.3, 0.4]), [0.3, 0.4], CFG)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_a_field_that_is_not_finite_is_a_critical_point(value):
    # a NaN direction used to march on and end in an unrelated error downstream
    with pytest.raises(CriticalPoint, match="not finite"):
        trace_streamline(FieldHandle(lambda x, y: (value, 0.0)), [0.3, 0.4], CFG)


# ----------------------------------------------------------------------------
# one stop rule: below 1e-10 of the field's size at the march's start
# ----------------------------------------------------------------------------


def _scaled(field, factor):
    return FieldHandle(lambda x, y: tuple(factor * c for c in field((x, y))))


@pytest.mark.parametrize("factor", [2.0**40, 2.0**-40])
def test_a_scaled_field_traces_the_same_points(factor):
    # a power of 2 scales exactly, so each unit direction is the same float pair;
    # an absolute tolerance of 1e-10*alpha1*delta stopped 2**-40 as a stagnation
    laminar, gradp = laminar_field(ARC, PARAMS), stationary_gradp_field(ARC, PARAMS)
    start = to_cartesian(ARC, (0.05, 0.1))
    assert trace_streamline(_scaled(laminar, factor), start, CFG) == \
        trace_streamline(laminar, start, CFG)
    assert trace_pressure_line(_scaled(gradp, factor), start, CFG, perpendicular=True) == \
        trace_pressure_line(gradp, start, CFG, perpendicular=True)
    assert poincare_L(_scaled(laminar, factor), ARC, 0.1, 0.25, 0.1, CFG) == \
        poincare_L(laminar, ARC, 0.1, 0.25, 0.1, CFG)


def _dropping(fraction):
    """The unit field along x, ``fraction`` of it from x = 0.25 on."""
    return FieldHandle(lambda x, y: (1.0 if x < 0.25 else fraction, 0.0))


def test_a_march_stops_below_1e_10_of_its_start():
    cfg = TraceConfig(step=1e-3, max_length=0.5)
    with pytest.raises(CriticalPoint, match="< 1e-10 at"):
        trace_streamline(_dropping(0.9e-10), (0.0, 0.0), cfg)
    line = trace_streamline(_dropping(1.1e-10), (0.0, 0.0), cfg)
    assert line == trace_streamline(_dropping(1.0), (0.0, 0.0), cfg)
    assert line.length == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("value, message", [
    (0.0, "below the normal float range"), (1e-320, "below the normal float range"),
    (math.inf, "not finite"), (math.nan, "not finite"),
])
def test_a_start_without_a_size_is_refused_untraced(value, message):
    # no threshold scales from a field of no size: the start's one evaluation refuses it
    points = []

    def evaluate(x, y):
        points.append((x, y))
        return value, 0.0

    with pytest.raises(CriticalPoint, match=message):
        trace_pressure_line(FieldHandle(evaluate), (0.3, 0.4), CFG)
    assert points == [(0.3, 0.4)]


def test_poincare_identity_on_laminar():
    field = laminar_field(ARC, PARAMS)
    for r in (0.05, 0.1, 0.2):
        L = poincare_L(field, ARC, 0.1, 0.25, r, CFG)
        assert L == pytest.approx(r, abs=1e-6 * r)


def test_poincare_counts_a_march_point_exactly_on_the_station():
    # a laminar draw whose r = 0.547 streamline has march point 180 exactly at s1
    arc = ArcBoundary(delta=2.7344054603316077, s_range=(0.0, 1.3672027301658038))
    params = LaminarParams(alpha1=3.0459975177293237, alpha2=0.6501557024114218,
                           nu=1.9669277506667733)
    cfg = default_trace_config(arc)
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


def test_fan_expected_crossing_refuses_a_ray_that_misses():
    # the normal ray at s1 = 0 is exactly (0, 1): a source straight
    # below Phi(s, r) sends a ray parallel to it
    a = to_cartesian(ARC, (0.1, 0.05))
    with pytest.raises(NoCrossing, match="parallel"):
        fan_expected_crossing(ARC, (a[0], a[1] - 1.0), 0.1, 0.0, 0.05)
    # from the centre the ray meets the normal ray at s1 only at the centre, below the wall
    with pytest.raises(NoCrossing, match="above the wall"):
        fan_expected_crossing(ARC, (0.0, 0.0), 0.1, 0.25, 0.05)


def test_polyline_crossing_skips_a_segment_parallel_to_the_step():
    # the first segment runs along the step, the second crosses it at x = 0.6
    segs, blocks = tracing._segment_blocks([(0.2, 0.1), (0.6, 0.1), (0.6, -0.1)])
    t = tracing._first_polyline_crossing((0.0, 0.0), (1.0, 0.0), segs, blocks)
    assert t == pytest.approx(0.6, rel=1e-15)


def test_poincare_target_behind_flow_raises():
    field = laminar_field(ARC, PARAMS)
    cfg = TraceConfig(step=1e-3, max_length=0.2)
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
    cfg = TraceConfig(step=1e-3, max_length=0.5)
    line = trace_pressure_line(gradp, [0.0, 0.0], cfg)
    assert np.allclose(line.points[-1], [0.5, 0.0], atol=1e-9)


def test_pressure_line_critical_point():
    gradp = FieldHandle(evaluator=lambda x, y: (0.0, 0.0))
    cfg = TraceConfig(step=1e-3, max_length=0.5)
    with pytest.raises(CriticalPoint):
        trace_pressure_line(gradp, [0.0, 0.0], cfg)


def test_perpendicular_trace_of_radial_gradient_is_circle():
    gradp = FieldHandle(evaluator=lambda x, y: (x / math.hypot(x, y), y / math.hypot(x, y)))
    cfg = TraceConfig(step=1e-3, max_length=1.0)
    line = trace_pressure_line(gradp, [1.3, 0.0], cfg, perpendicular=True)
    radii = np.linalg.norm(line.points, axis=1)
    assert np.max(np.abs(radii - 1.3)) <= 1e-7


def test_ansatz_pressure_lines_stay_smooth():
    gradp = stationary_gradp_field(ARC, PARAMS)
    cfg = TraceConfig(step=1e-3, max_length=0.1)
    for r in (0.1, 0.2, 0.4):
        line = trace_pressure_line(gradp, to_cartesian(ARC, (0.2, r)), cfg)
        # no CriticalPoint: the full parameter length was traced (chords fall
        # short of the arc by O(step^2) only)
        assert line.length >= 0.1 * (1.0 - 1e-6)


def test_trace_pressure_line_takes_its_direction_by_keyword():
    # a positional direction would otherwise read as a truthy "perpendicular"
    with pytest.raises(TypeError):
        trace_pressure_line(stationary_gradp_field(ARC, PARAMS), to_cartesian(ARC, (0.2, 0.1)),
                            CFG, "along")


def test_eta_ratio_refuses_an_increasing_eps_list():
    with pytest.raises(ValueError, match="strictly decreasing"):
        eta_ratio(stationary_gradp_field(ARC, PARAMS), ARC, 0.15, 0.1, [1e-3, 2e-3])


def test_eta_ratio_purely_tangential_is_one():
    params = LaminarParams(2.0, 1.0, 1.0)  # K != 0 at the wall

    def tangential(x, y):
        d = math.hypot(x, y)  # ARC is centred at the origin
        return params.nu * y / d, -params.nu * x / d

    res = eta_ratio(FieldHandle(evaluator=tangential), ARC, 0.15, 0.1, [4e-3, 2e-3, 1e-3])
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_eta_ratio_purely_normal_is_zero():
    def radial(x, y):
        d = math.hypot(x, y)
        return x / d, y / d

    res = eta_ratio(FieldHandle(evaluator=radial), ARC, 0.15, 0.1, [4e-3, 2e-3, 1e-3])
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_eta_ratio_matches_ansatz_closed_form():
    gradp = stationary_gradp_field(ARC, PARAMS)
    p_t, p_n = stationary_gradp_ansatz(PARAMS, ARC.delta, 0.1)
    expected = abs(p_t) / np.hypot(p_t, p_n)
    assert expected == pytest.approx(0.9491, abs=2e-4)  # printed-variant value
    res = eta_ratio(gradp, ARC, 0.15, 0.1, [4e-3, 2e-3, 1e-3])
    assert res.value == pytest.approx(expected, rel=1e-3)
    assert res.error_estimate <= 1e-3


def test_eta_error_estimate_shrinks_with_eps():
    gradp = stationary_gradp_field(ARC, PARAMS)
    wide = eta_ratio(gradp, ARC, 0.15, 0.1, [8e-3, 4e-3])
    tight = eta_ratio(gradp, ARC, 0.15, 0.1, [4e-3, 2e-3, 1e-3])
    assert tight.error_estimate < wide.error_estimate


# ----------------------------------------------------------------------------
# a vanishing field ends every march with the same error
# ----------------------------------------------------------------------------

ZETA_PARAMS = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)  # wall gradient k = 1
ZETA_S, ZETA_R, ZETA_EPS = 0.1, 0.05, 0.1


def _tangential(x, y):
    d = math.hypot(x, y)  # ARC is centred at the origin
    return y / d, -x / d


def _vanishing(evaluate, station=(-math.inf, math.inf), height=(-math.inf, math.inf)):
    """``evaluate`` as a field, zero wherever both the wall station and the wall
    distance lie inside the given open intervals."""
    def field(x, y):
        s, r = math.atan2(x, y) * ARC.delta, math.hypot(x, y) - ARC.delta
        if station[0] < s < station[1] and height[0] < r < height[1]:
            return 0.0, 0.0
        return evaluate(x, y)

    return FieldHandle(evaluator=field)


def _zeta_sample(gradp, p_field=None):
    p_field = p_field or angular_pressure(ARC, ZETA_PARAMS)
    return tracing._zeta_sample(p_field, gradp, ARC, 1.0, ZETA_S, ZETA_R, ZETA_EPS)


def _angular_gradp(**where):
    """The angular pressure's gradient, zero where ``where`` says (nowhere when empty)."""
    gradient = angular_pressure(ARC, ZETA_PARAMS).gradient
    return _vanishing(gradient, **where) if where else FieldHandle(evaluator=gradient)


def test_every_march_runs_where_nothing_vanishes():
    # the controls of the cases below: the same marches on the unbroken fields
    line_cfg = TraceConfig(step=1e-3, max_length=0.5)
    trace_pressure_line(FieldHandle(evaluator=_tangential), [0.0, 1.1], line_cfg)
    eta_trace(FieldHandle(evaluator=_tangential), ARC, 0.15, 0.1, 0.01)
    _zeta_sample(_angular_gradp())
    field = laminar_field(ARC, PARAMS)
    trace_streamline(field, to_cartesian(ARC, (0.1, 0.1)), CFG)
    poincare_L(field, ARC, 0.1, 0.25, 0.1, CFG)


@pytest.mark.parametrize("march", [
    # the pressure line and the level curve through a zero gradient
    lambda: trace_pressure_line(FieldHandle(evaluator=lambda x, y: (0.0, 0.0)), [0.0, 0.0],
                                CFG),
    lambda: trace_pressure_line(FieldHandle(evaluator=lambda x, y: (0.0, 0.0)), [0.0, 0.0],
                                CFG, perpendicular=True),
    # eta's pressure line from s = 0.15 to the level curve at s = 0.16 (a normal
    # ray, which the zero band leaves alone)
    lambda: eta_trace(_vanishing(_tangential, station=(0.152, 0.154)), ARC, 0.15, 0.1, 0.01),
    # zeta's foot trace up the normal at s, and its pressure line at height r
    lambda: _zeta_sample(_angular_gradp(height=(0.3 * ZETA_R, 0.4 * ZETA_R))),
    lambda: _zeta_sample(_angular_gradp(station=(ZETA_S + 0.4 * ZETA_EPS, ZETA_S + 0.6 * ZETA_EPS),
                                        height=(0.5 * ZETA_R, math.inf))),
    # a streamline and the return map's streamline through a zero velocity
    lambda: trace_streamline(_vanishing(laminar_field(ARC, PARAMS).evaluator,
                                        station=(0.15, 0.16)),
                             to_cartesian(ARC, (0.1, 0.1)), CFG),
    lambda: poincare_L(_vanishing(laminar_field(ARC, PARAMS).evaluator, station=(0.15, 0.16)),
                       ARC, 0.1, 0.25, 0.1, CFG),
], ids=["pressure-along", "pressure-perpendicular", "eta", "zeta-foot", "zeta-line",
        "streamline", "poincare"])
def test_a_vanishing_field_ends_each_march_with_its_error(march):
    with pytest.raises(CriticalPoint):
        march()


def test_a_vanishing_gradient_met_inside_a_crossing_refinement_is_a_critical_point():
    # zeta's pressure line at height r advances eps/100 in wall station per
    # step.  A radial term c*(d - delta) in the pressure, which the gradient
    # leaves out, moves the level of phi(s + eps) to 99.55 steps on, so the
    # march refines its step 99 -> 100.  The first bisection evaluates RK4
    # stages 99.25 steps on, where no full step looks: the gradient vanishes
    # only there.
    unit = ZETA_EPS / 100
    angular = angular_pressure(ARC, ZETA_PARAMS)
    c = 0.45 * unit / ZETA_R

    def evaluate(x, y):
        return angular.evaluator(x, y) + c * (math.hypot(x, y) - ARC.delta)

    p_field = ScalarFieldHandle(evaluator=evaluate, gradient=angular.gradient)
    sample = _zeta_sample(_angular_gradp(), p_field)
    assert sample.s_hat2 == pytest.approx(ZETA_S + 99.55 * unit, abs=1e-3 * unit)
    window = (ZETA_S + 99.2 * unit, ZETA_S + 99.3 * unit)
    with pytest.raises(CriticalPoint):
        _zeta_sample(_angular_gradp(station=window), p_field)
    # the window lies off every full step: moved to 99.45, where the bisection
    # never looks either, it is never met
    window = (ZETA_S + 99.4 * unit, ZETA_S + 99.45 * unit)
    moved = _zeta_sample(_angular_gradp(station=window), p_field)
    assert moved.traced_length == sample.traced_length and moved.s_hat2 == sample.s_hat2


# ----------------------------------------------------------------------------
# a curve that meets no target ends with NoCrossing
# ----------------------------------------------------------------------------


def _normal(x, y):
    d = math.hypot(x, y)  # ARC is centred at the origin
    return x / d, y / d


def _tilted(x, y):
    """The outward normal tilted by a tenth toward increasing s."""
    (n0, n1), (t0, t1) = _normal(x, y), _tangential(x, y)
    return n0 + 0.1 * t0, n1 + 0.1 * t1


def _switched(first, second, station=math.inf, height=math.inf):
    """``first`` as a field below both the wall station and the wall distance
    given, ``second`` elsewhere."""
    def field(x, y):
        s, r = math.atan2(x, y) * ARC.delta, math.hypot(x, y) - ARC.delta
        return first(x, y) if s < station and r < height else second(x, y)

    return FieldHandle(evaluator=field)


@pytest.mark.parametrize("march, message", [
    # eta's level curve through s = 0.16 is the normal ray there, but the
    # pressure line from s = 0.15 climbs away from it, 0.1 across per unit up
    (lambda: eta_trace(_switched(_tilted, _tangential, station=0.155), ARC, 0.15, 0.1, 0.01),
     r"pressure line from \(s=0.15, r=0.1\) missed the level curve for eps=0.01"),
    # zeta's foot trace turns along the wall at half of r
    (lambda: _zeta_sample(_switched(_tangential, _normal, height=0.5 * ZETA_R)),
     r"level curve from phi\(0.1\) never reached wall distance 0.05"),
    # zeta's pressure line turns away from the wall halfway to s + eps
    (lambda: _zeta_sample(_switched(_tangential, _normal, station=ZETA_S + 0.5 * ZETA_EPS)),
     r"pressure line from the foot missed the level of phi\(0.2\)"),
    # the laminar streamline runs away from the normal ray at s1 < s, out of the chart
    (lambda: poincare_L(laminar_field(ARC, PARAMS), ARC, 0.25, 0.1, 0.1, CFG),
     r"streamline left the chart before reaching s1=0.1"),
], ids=["eta", "zeta-foot", "zeta-line", "poincare-chart"])
def test_a_curve_that_misses_its_target_ends_with_no_crossing(march, message):
    with pytest.raises(NoCrossing, match=message):
        march()


@pytest.mark.parametrize("s, s1, name", [(5.0, 0.25, "s"), (0.1, -0.06, "s1")])
def test_poincare_L_refuses_a_station_off_the_padded_segment_untraced(monkeypatch, s, s1, name):
    def no_trace(*args):
        raise AssertionError("a streamline was traced")

    monkeypatch.setattr(tracing, "_first_crossing", no_trace)
    bad = s if name == "s" else s1
    with pytest.raises(DomainError, match=rf"^{name} = {bad:g} leaves the padded wall "
                                          r"segment \[-0\.05, 0\.55\]$"):
        poincare_L(laminar_field(ARC, PARAMS), ARC, s, s1, 0.1, CFG)


FAR_ARC = ArcBoundary(delta=1.0, s_range=(1e10, 1e10 + 0.5))


@pytest.mark.parametrize("arc, s, eps, message", [
    # below the floor a traced ratio is roundoff
    (ARC, 0.1, 1e-9, r"^the offset eps = 1e-09 is shorter than 1e-8\*delta = 1e-08, "),
    # a backward offset, and one that rounds onto s far along the wall
    (ARC, 0.1, -0.05, r"over eps = -0\.05 has length -0\.0[0-9]+, not a positive finite"),
    (FAR_ARC, 1e10 + 0.1, 1e-7, r"over eps = 1e-07 has length 0, not a positive finite"),
], ids=["floor", "backward", "rounded"])
def test_an_offset_too_short_to_trace_is_refused_untraced(arc, s, eps, message):
    gradp = stationary_gradp_field(arc, PARAMS)
    with pytest.raises(DomainError, match=message):
        eta_trace(gradp, arc, s, 0.05, eps)


def test_a_return_map_crossing_below_the_wall_is_no_crossing():
    # the streamline settles onto the circle 5e-13 of delta inside the wall: the
    # chart still takes its points (it allows 1e-12 of roundoff), and it meets
    # the normal ray at s1 there
    inside = ARC.delta * (1.0 - 5e-13)

    def sinking(x, y):
        (n0, n1), (t0, t1) = _normal(x, y), _tangential(x, y)
        k = 100.0 * (inside - math.hypot(x, y))
        return t0 + k * n0, t1 + k * n1

    cfg = TraceConfig(step=1e-4, max_length=0.5)
    with pytest.raises(NoCrossing, match=r"crossing found below the wall \(tau=-"):
        poincare_L(FieldHandle(evaluator=sinking), ARC, 0.05, 0.45, 0.01, cfg)


# ----------------------------------------------------------------------------
# the float march against the array arithmetic it replaced
# ----------------------------------------------------------------------------


def _array_direction(field, sign=1.0, perpendicular=False):
    def fn(x):
        v = np.array(field((float(x[0]), float(x[1]))))
        v = v / float(np.hypot(v[0], v[1]))
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
    fn = _array_direction(field)

    def station(x):
        return from_cartesian(arc, x).s - s1

    x, cum = np.array(to_cartesian(arc, (s, r))), 0.0
    for h in _array_steps(cfg):
        x_new = _array_rk4(fn, x, h)
        f_lo, f_hi = station(x), station(x_new)
        if f_lo != 0.0 and (f_lo > 0) != (f_hi > 0):
            break
        x, cum = x_new, cum + h
    else:
        raise AssertionError("reference trace found no crossing")
    # bisection on the step fraction
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
            lo = mid
    return float(np.linalg.norm(x_mid)) - arc.delta


# Largest relative deviations of the float march from the array reference,
# measured on the case below and on 40 random arcs and parameters: 0 for the
# traced points (abs(complex(u, v)) is libm's hypot, as np.hypot is) and
# 4.8e-15 for poincare_L, whose |x| the reference takes from a BLAS dot and
# the tracer as sqrt(x*x + y*y).
POINTS_RTOL = 0.0
HEIGHT_RTOL = 1e-13


def _rel_dev(got, ref) -> float:
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def test_float_march_matches_array_reference():
    arc = ArcBoundary(delta=1.3, s_range=(0.0, 0.6))
    params = LaminarParams(alpha1=2.7, alpha2=1.1, nu=0.8)
    cfg = TraceConfig(step=1e-3, max_length=0.5)
    start = to_cartesian(arc, (0.1, 0.15))

    field = laminar_field(arc, params)
    line = trace_streamline(field, start, cfg)
    expected = _array_trace(_array_direction(field), start, cfg)
    assert np.shape(line.points) == expected.shape
    assert _rel_dev(line.points, expected) <= POINTS_RTOL

    gradp = stationary_gradp_field(arc, params)
    for perpendicular, sign in ((False, 1.0), (True, -1.0)):
        line = trace_pressure_line(gradp, start, cfg, perpendicular=perpendicular,
                                   orientation=sign)
        fn = _array_direction(gradp, sign, perpendicular)
        expected = _array_trace(fn, start, cfg)
        assert np.shape(line.points) == expected.shape
        assert _rel_dev(line.points, expected) <= POINTS_RTOL

    cfg_L = TraceConfig(step=1e-3, max_length=1.0)
    got = poincare_L(field, arc, 0.1, 0.35, 0.12, cfg_L)
    assert _rel_dev(got, _array_poincare_L(field, arc, 0.1, 0.35, 0.12, cfg_L)) <= HEIGHT_RTOL
