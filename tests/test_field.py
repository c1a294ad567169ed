import csv
import math

import numpy as np
import pytest

from lamsep.fdops import StencilSpec, fd_advection, fd_divergence, fd_gradient, fd_laplacian
from lamsep.field import (
    LaminarParams,
    advection,
    analytic_laplacian,
    laminar_field,
    profile_h,
    profile_h_prime,
    stationary_gradp_ansatz,
    stationary_gradp_field,
    write_csv,
)
from lamsep.geometry import ArcBoundary, arc_normal, arc_tangent, local_frame, to_cartesian

ARC = ArcBoundary(delta=1.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 0.5))
PARAMS = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)


def chart_points(n, seed=0, r_lo=0.02, r_hi=0.4):
    rng = np.random.default_rng(seed)
    s = rng.uniform(ARC.s_range[0], ARC.s_range[1], n)
    r = rng.uniform(r_lo, r_hi, n)
    return [to_cartesian(ARC, (si, ri)) for si, ri in zip(s, r)], r


def test_profile_values():
    assert profile_h(LaminarParams(1.0, 2.0, 1.0), 0.5) == pytest.approx(0.25)
    assert profile_h(PARAMS, 0.0) == 0.0


def test_profile_slope_at_wall_fd():
    h = 1e-6
    fd = (profile_h(PARAMS, h) - profile_h(PARAMS, 0.0)) / h
    assert fd == pytest.approx(PARAMS.alpha1, abs=1e-6)
    assert profile_h_prime(PARAMS, 0.0) == PARAMS.alpha1


def test_params_validation_and_bl():
    with pytest.raises(ValueError):
        LaminarParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LaminarParams(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        LaminarParams(1.0, 1.0, 0.0)
    assert LaminarParams(2.0, 4.0, 1.0).bl == pytest.approx(0.5)
    assert LaminarParams(1.0, 0.0, 1.0).bl == np.inf  # pure-shear test mode


def test_laminar_local_components_at_s0():
    field = laminar_field(ARC, PARAMS)
    for r in (0.05, 0.1, 0.3):
        frame = local_frame(ARC, 0.2)
        v1, v2 = frame.components(field(frame.to_world(0.0, r)))
        assert v1 == pytest.approx(profile_h(PARAMS, r), rel=1e-14)
        assert v2 == pytest.approx(0.0, abs=1e-14)


def test_laminar_pure_shear_spec_point():
    # delta=1, alpha1=1, alpha2=0, local (s=1, r=0): v = (1 - 1/sqrt(2)) * (1, -1)
    params = LaminarParams(1.0, 0.0, 1.0)
    field = laminar_field(ARC, params)
    frame = local_frame(ARC, 0.0)
    v1, v2 = frame.components(field(frame.to_world(1.0, 0.0)))
    expected = (np.sqrt(2.0) - 1.0) / np.sqrt(2.0)
    assert v1 == pytest.approx(expected, rel=1e-12)
    assert v2 == pytest.approx(-expected, rel=1e-12)


def test_no_slip_on_wall():
    field = laminar_field(ARC, PARAMS)
    for s in np.linspace(*ARC.s_range, 20):
        assert np.linalg.norm(field(to_cartesian(ARC, (s, 0.0)))) <= 1e-12


def test_speed_law():
    field = laminar_field(ARC, PARAMS)
    rng = np.random.default_rng(1)
    for _ in range(40):
        s = rng.uniform(*ARC.s_range)
        r = rng.uniform(0.0, 0.8)
        speed = np.linalg.norm(field(to_cartesian(ARC, (s, r))))
        assert abs(speed - abs(profile_h(PARAMS, r))) <= 1e-10


def test_tangency():
    field = laminar_field(ARC, PARAMS)
    pts, _ = chart_points(40, seed=2)
    for x in pts:
        u = field(x)
        radial = x - ARC.center_array
        assert abs(np.dot(u, radial)) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(radial)


def test_divergence_free_fd():
    field = laminar_field(ARC, PARAMS)
    spec = StencilSpec(h=1e-4, order=4)
    pts, _ = chart_points(100, seed=3)
    scale = PARAMS.alpha1
    for x in pts:
        assert abs(fd_divergence(field, x, spec)) <= 1e-8 * scale


def test_analytic_jacobian_matches_fd():
    field = laminar_field(ARC, PARAMS)
    spec = StencilSpec(h=1e-5, order=4)
    pts, _ = chart_points(20, seed=4)
    for x in pts:
        assert np.allclose(field.jacobian(x), fd_gradient(field, x, spec), atol=1e-9)


def test_analytic_laplacian_closed_forms():
    tang, norm = analytic_laplacian(PARAMS, 1.0, 0.0)
    assert tang == pytest.approx(PARAMS.alpha1 / 1.0 - PARAMS.alpha2)
    assert norm == 0.0
    tang, _ = analytic_laplacian(PARAMS, 1.0, 0.1)
    assert tang == pytest.approx(-0.2603305785123967, abs=1e-12)


def test_analytic_laplacian_matches_fd_with_order2():
    field = laminar_field(ARC, PARAMS)
    x = to_cartesian(ARC, (0.1, 0.1))
    t_hat = arc_tangent(ARC, 0.1)
    expected, _ = analytic_laplacian(PARAMS, ARC.delta, 0.1)
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        lap = fd_laplacian(field, x, StencilSpec(h=h, order=2))
        errs.append(abs(np.dot(lap, t_hat) - expected))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def test_laplacian_handle_matches_fd():
    field = laminar_field(ARC, PARAMS)
    spec = StencilSpec(h=1e-3, order=4)
    pts, _ = chart_points(20, seed=5)
    for x in pts:
        assert np.allclose(field.laplacian(x), fd_laplacian(field, x, spec), atol=1e-8)


def test_advection_variants_closed_forms():
    assert advection(PARAMS, 1.0, 0.0, "paper") == 0.0
    assert advection(PARAMS, 1.0, 0.0, "corrected") == 0.0
    assert advection(PARAMS, 1.0, 0.1, "paper") == pytest.approx(-0.0863636363636, abs=1e-10)
    assert advection(PARAMS, 1.0, 0.1, "corrected") == pytest.approx(-0.0082045454545, abs=1e-10)
    with pytest.raises(ValueError):
        advection(PARAMS, 1.0, 0.1, "bogus")


def test_fd_advection_adjudicates_corrected_variant():
    field = laminar_field(ARC, PARAMS)
    spec = StencilSpec(h=1e-4, order=4)
    scale = PARAMS.alpha1**2 * ARC.delta
    for r in (0.05, 0.1, 0.2):
        s = 0.2
        x = to_cartesian(ARC, (s, r))
        adv = fd_advection(field, x, spec)
        tang = np.dot(adv, arc_tangent(ARC, s))
        norm = np.dot(adv, arc_normal(ARC, s))
        assert abs(tang) <= 1e-8 * scale
        corrected = advection(PARAMS, ARC.delta, r, "corrected")
        paper = advection(PARAMS, ARC.delta, r, "paper")
        assert norm == pytest.approx(corrected, rel=1e-6)
        assert abs(norm - paper) > 1e3 * abs(norm - corrected)


def test_gradp_ansatz_values():
    p_t, p_n = stationary_gradp_ansatz(PARAMS, 1.0, 0.0)
    assert p_t == pytest.approx(PARAMS.nu * (PARAMS.alpha1 / 1.0 - PARAMS.alpha2))
    assert p_n == 0.0
    p_t, p_n = stationary_gradp_ansatz(PARAMS, 1.0, 0.1)
    assert p_t == pytest.approx(-0.2603305785123967, abs=1e-12)
    assert p_n == pytest.approx(0.095 / 1.1, rel=1e-14)
    _, p_n_corr = stationary_gradp_ansatz(PARAMS, 1.0, 0.1, "corrected")
    assert p_n_corr == pytest.approx(0.095**2 / 1.1, rel=1e-14)


def test_gradp_field_components():
    gradp = stationary_gradp_field(ARC, PARAMS)
    s, r = 0.15, 0.12
    x = to_cartesian(ARC, (s, r))
    g = gradp(x)
    p_t, p_n = stationary_gradp_ansatz(PARAMS, ARC.delta, r)
    assert np.dot(g, arc_tangent(ARC, s)) == pytest.approx(p_t, rel=1e-12)
    assert np.dot(g, arc_normal(ARC, s)) == pytest.approx(p_n, rel=1e-12)


def test_write_csv_round_trips_floats_and_passes_strings(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(0.1, "", 7), (1 / 3, "label", -2.5e-300), (np.float64(1e300), "x,y", math.nan)]
    write_csv(path, ["a", "b", "c"], rows)
    with open(path, newline="") as fh:
        header, *got = list(csv.reader(fh))
    assert header == ["a", "b", "c"]
    assert len(got) == len(rows)
    for want_row, got_row in zip(rows, got):
        for want, cell in zip(want_row, got_row):
            if isinstance(want, str):
                assert cell == want
            elif math.isnan(want):
                assert math.isnan(float(cell))
            else:
                assert float(cell) == want
