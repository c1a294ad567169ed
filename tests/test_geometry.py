import numpy as np
import pytest

from lamsep.errors import OutOfChart, PointBelowWall
from lamsep.geometry import (
    ArcBoundary,
    NormalPoint,
    arc_normal,
    arc_point,
    arc_segment_length,
    arc_tangent,
    center_offset,
    chart_pair,
    from_cartesian,
    local_center_distance,
    local_frame,
    to_cartesian,
)

ARC = ArcBoundary(delta=2.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 1.0))


def tangent_angle(vec):
    return np.arctan2(vec[1], vec[0])


def test_crown_point_and_frame():
    assert np.allclose(arc_point(ARC, 0.0), [0.0, 2.0], atol=1e-15)
    assert np.allclose(arc_tangent(ARC, 0.0), [1.0, 0.0], atol=1e-15)
    assert np.allclose(arc_normal(ARC, 0.0), [0.0, 1.0], atol=1e-15)


def test_radius_invariant():
    arc = ArcBoundary(delta=1.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 1.0))
    assert np.linalg.norm(arc_point(arc, 0.0) - arc.center_array) == pytest.approx(1.0)
    for s in np.linspace(*arc.s_range, 17):
        assert np.linalg.norm(arc_point(arc, s) - arc.center_array) == pytest.approx(1.0, abs=1e-14)


def test_tangent_angle_decreasing():
    s_vals = np.linspace(ARC.s_range[0], ARC.s_range[1], 120)
    angles = np.unwrap([tangent_angle(arc_tangent(ARC, s)) for s in s_vals])
    assert np.all(np.diff(angles) < 0)
    assert tangent_angle(arc_tangent(ARC, 0.1)) < tangent_angle(arc_tangent(ARC, 0.0))


def test_unit_speed_fd():
    h = 1e-5
    for s in np.linspace(*ARC.s_range, 9):
        speed = np.linalg.norm(arc_point(ARC, s + h) - arc_point(ARC, s - h)) / (2 * h)
        assert abs(speed - 1.0) < 1e-10


def test_unit_speed_forward_difference_order2():
    s = 0.3
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        speed = np.linalg.norm(arc_point(ARC, s + h) - arc_point(ARC, s)) / h
        errs.append(abs(speed - 1.0))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1)


def test_curvature_fd():
    h = 1e-3
    for s in np.linspace(*ARC.s_range, 9):
        second = (arc_point(ARC, s + h) - 2 * arc_point(ARC, s) + arc_point(ARC, s - h)) / h**2
        assert np.linalg.norm(second) == pytest.approx(1.0 / ARC.delta, rel=1e-6)


def test_to_cartesian_crown():
    assert np.allclose(to_cartesian(ARC, (0.0, 0.5)), [0.0, 2.5], atol=1e-15)


def test_boundary_trace_is_arc_point():
    for s in np.linspace(*ARC.s_range, 7):
        assert np.allclose(to_cartesian(ARC, (s, 0.0)), arc_point(ARC, s), atol=1e-15)


def test_distance_invariant_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = rng.uniform(*ARC.s_range)
        r = rng.uniform(0.0, 1.5)
        x = to_cartesian(ARC, (s, r))
        assert np.linalg.norm(x - ARC.center_array) == pytest.approx(ARC.delta + r, rel=1e-14)


def test_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = rng.uniform(*ARC.s_range)
        r = rng.uniform(0.0, 2.0)
        p = from_cartesian(ARC, to_cartesian(ARC, (s, r)))
        assert p.s == pytest.approx(s, abs=1e-12 * max(1.0, abs(s)))
        assert p.r == pytest.approx(r, abs=1e-12 * max(1.0, r))


def test_from_cartesian_center_is_below_wall():
    with pytest.raises(PointBelowWall):
        from_cartesian(ARC, ARC.center)


def test_from_cartesian_on_arc_r0():
    p = from_cartesian(ARC, arc_point(ARC, 0.4))
    assert p.r == pytest.approx(0.0, abs=1e-12)


def test_from_cartesian_outside_padded_sector():
    far = to_cartesian(ARC, (ARC.s_range[1] + 0.5 * (ARC.s_range[1] - ARC.s_range[0]), 0.1))
    with pytest.raises(OutOfChart):
        from_cartesian(ARC, far)


def test_padding_tolerates_small_overshoot():
    s_over = ARC.s_range[1] + 0.05 * (ARC.s_range[1] - ARC.s_range[0])
    p = from_cartesian(ARC, to_cartesian(ARC, (s_over, 0.2)))
    assert p.s == pytest.approx(s_over, abs=1e-12)


def test_local_center_distance_closed_form():
    assert local_center_distance(1.0, 0.0, 0.5) == pytest.approx(1.5)
    assert local_center_distance(1.0, 1.0, 0.0) == pytest.approx(np.sqrt(2.0))


def test_local_center_distance_matches_global_frame():
    frame = local_frame(ARC, 0.35)
    rng = np.random.default_rng(11)
    for _ in range(25):
        s_loc = rng.uniform(-0.5, 0.5)
        r_loc = rng.uniform(0.0, 1.0)
        y = frame.to_world(s_loc, r_loc)
        dist = np.linalg.norm(y - ARC.center_array)
        assert dist == pytest.approx(local_center_distance(ARC.delta, s_loc, r_loc), rel=1e-12)


def test_arc_segment_length_values():
    arc = ArcBoundary(delta=1.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 1.0))
    assert arc_segment_length(arc, 0.1, 0.4, 1.0) == pytest.approx(0.6)
    assert arc_segment_length(arc, 0.1, 0.4, 0.0) == pytest.approx(0.3)


def test_arc_segment_ratio_identity():
    arc = ArcBoundary(delta=1.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 1.0))
    l1 = arc_segment_length(arc, 0.2, 0.5, 0.2)
    l2 = arc_segment_length(arc, 0.2, 0.5, 0.4)
    assert l1 / l2 == pytest.approx(1.2 / 1.4, rel=1e-14)


def test_arc_segment_length_matches_traced_curve():
    s1, s2, r = 0.1, 0.8, 0.6
    s_vals = np.linspace(s1, s2, 4001)
    pts = to_cartesian(ARC, (s_vals, np.full_like(s_vals, r)))
    chord_sum = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
    assert chord_sum == pytest.approx(arc_segment_length(ARC, s1, s2, r), rel=1e-8)


def test_frame_orthonormal_and_center_offset():
    frame = local_frame(ARC, 0.6)
    assert np.dot(frame.e1, frame.e2) == pytest.approx(0.0, abs=1e-15)
    assert np.linalg.norm(frame.e1) == pytest.approx(1.0)
    assert np.linalg.norm(frame.e2) == pytest.approx(1.0)
    assert np.allclose(frame.origin - ARC.center_array, ARC.delta * frame.e2, atol=1e-14)


def test_normal_point_validation():
    with pytest.raises(ValueError):
        NormalPoint(s=0.0, r=-0.1)


def test_arc_validation():
    with pytest.raises(ValueError):
        ArcBoundary(delta=-1.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        ArcBoundary(delta=1.0, phase=0.0, center=(0.0, 0.0), s_range=(1.0, 0.0))


def test_float_twins_match_array_maps_bit_for_bit():
    # the tracer's per-point loops call the float twins; traces stay identical
    # to the array maps only if every bit agrees
    rng = np.random.default_rng(7)
    arc = ArcBoundary(delta=1.7, phase=0.3, center=(0.4, -1.1), s_range=(-0.5, 2.0))
    s = rng.uniform(-3.0, 5.0, 2000)
    r = rng.uniform(0.0, 3.0, 2000) * 10.0 ** rng.uniform(-6, 0, 2000)
    points = to_cartesian(arc, (s, r))
    normals = arc_normal(arc, s)
    tangents = arc_tangent(arc, s)
    norms = np.linalg.norm(points - arc.center_array, axis=-1)
    for k in range(len(s)):
        (x, y), (n0, n1) = chart_pair(arc, float(s[k]), float(r[k]))
        assert (x, y) == tuple(points[k])
        assert (n0, n1) == tuple(normals[k])
        assert (n1, -n0) == tuple(tangents[k])
        rx, ry, d = center_offset(arc.center, x, y)
        assert (rx, ry) == tuple(points[k] - arc.center_array)
        assert d == norms[k]
    # from_cartesian reads a float pair as it reads a 2-vector
    for k in range(0, len(s), 50):
        if norms[k] >= arc.delta and arc.padded_s_range[0] <= s[k] <= arc.padded_s_range[1]:
            pair = tuple(float(v) for v in points[k])
            assert from_cartesian(arc, pair) == from_cartesian(arc, points[k])
