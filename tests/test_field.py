import csv
import math

import numpy as np
import pytest

from lamsep.fdops import StencilSpec, fd_advection, fd_divergence, fd_laplacian
from lamsep.field import (
    FieldHandle,
    LaminarParams,
    advection,
    analytic_laplacian,
    laminar_field,
    profile_h,
    profile_h_prime,
    stationary_gradp_ansatz,
    stationary_gradp_field,
    wall_gradient,
    write_csv,
)
from lamsep.geometry import ArcBoundary, arc_normal, arc_tangent, local_frame, to_cartesian
from lamsep.tracing import perturbed_angular_pressure, radial_growth_field

ARC = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))
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
    with pytest.raises(ValueError, match="alpha2 must be positive"):
        LaminarParams(1, 0, 1)
    with pytest.raises(ValueError):
        LaminarParams(1.0, 1.0, 0.0)
    assert LaminarParams(2.0, 4.0, 1.0).bl == pytest.approx(0.5)
    params = LaminarParams(2.0, 4.0, 1.0)
    assert params == LaminarParams(2.0, 4.0, 1.0) and hash(params) == hash((2.0, 4.0, 1.0))
    with pytest.raises(AttributeError):
        params.nu = 2.0
    with pytest.raises(ValueError):
        params._replace(nu=0.0)


def test_laminar_local_components_at_s0():
    field = laminar_field(ARC, PARAMS)
    for r in (0.05, 0.1, 0.3):
        frame = local_frame(ARC, 0.2)
        v1, v2 = frame.components(field(frame.to_world(0.0, r)))
        assert v1 == pytest.approx(profile_h(PARAMS, r), rel=1e-14)
        assert v2 == pytest.approx(0.0, abs=1e-14)


def test_laminar_pure_shear_spec_point():
    # delta=1, alpha1=alpha2=1, local (s=1, r=0): the wall distance is sqrt(2) - 1,
    # so v = h(sqrt(2) - 1)/sqrt(2) * (1, -1)
    field = laminar_field(ARC, PARAMS)
    frame = local_frame(ARC, 0.0)
    v1, v2 = frame.components(field(frame.to_world(1.0, 0.0)))
    r = np.sqrt(2.0) - 1.0
    expected = (r - 0.5 * r * r) / np.sqrt(2.0)
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
        radial = np.asarray(x)
        assert abs(np.dot(u, radial)) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(radial)


def test_divergence_free_fd():
    field = laminar_field(ARC, PARAMS)
    spec = StencilSpec(h=1e-4, order=4)
    pts, _ = chart_points(100, seed=3)
    scale = PARAMS.alpha1
    for x in pts:
        assert abs(fd_divergence(field, x, spec)) <= 1e-8 * scale


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
    p_n_corr = -advection(PARAMS, 1.0, 0.1, "corrected")
    assert p_n_corr == pytest.approx(0.095**2 / 1.1, rel=1e-14)


def test_gradp_field_components():
    gradp = stationary_gradp_field(ARC, PARAMS)
    s, r = 0.15, 0.12
    x = to_cartesian(ARC, (s, r))
    g = gradp(x)
    p_t, p_n = stationary_gradp_ansatz(PARAMS, ARC.delta, r)
    assert np.dot(g, arc_tangent(ARC, s)) == pytest.approx(p_t, rel=1e-12)
    assert np.dot(g, arc_normal(ARC, s)) == pytest.approx(p_n, rel=1e-12)


@pytest.mark.parametrize("name", ["laminar", "stationary", "weak", "angular"])
def test_wall_fields_read_back_their_parts_in_the_local_frame(name):
    # each wall field is composed from (tangential, normal) parts in wall_field;
    # the frame at its station reads them back, on the segment and off it, so
    # a flipped sign in the composition fails here
    arc, params, growth, amp = ArcBoundary(1.5, (0.0, 0.6)), LaminarParams(2.0, 1.0, 0.5), 0.7, 0.3
    delta, k = arc.delta, wall_gradient(params, arc.delta)
    field, parts = {
        "laminar": (laminar_field(arc, params), lambda r: (profile_h(params, r), 0.0)),
        "stationary": (stationary_gradp_field(arc, params),
                       lambda r: stationary_gradp_ansatz(params, delta, r)),
        "weak": (radial_growth_field(arc, growth),
                 lambda r: (1.0, growth * r * r * delta / (delta + r))),
        "angular": (FieldHandle(perturbed_angular_pressure(arc, params, amp).gradient),
                    lambda r: (k * delta / (delta + r), 2.0 * amp * k * r / delta)),
    }[name]
    for s in (-1.0, 0.0, 0.3, 0.6, 2.5):
        for r in (0.02, 0.3, 1.0, 3.0):
            t, n = local_frame(arc, s).components(field(to_cartesian(arc, (s, r))))
            want_t, want_n = parts(r)
            size = math.hypot(want_t, want_n)
            assert abs(t - want_t) <= 1e-13 * size and abs(n - want_n) <= 1e-13 * size, (s, r)


def test_write_csv_round_trips_floats(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(0.1, 7), (1 / 3, -2.5e-300), (np.float64(1e300), math.nan)]
    write_csv(path, ["a", "b"], rows)
    with open(path, newline="") as fh:
        header, *got = list(csv.reader(fh))
    assert header == ["a", "b"]
    assert len(got) == len(rows)
    for want_row, got_row in zip(rows, got):
        for want, cell in zip(want_row, got_row):
            if math.isnan(want):
                assert math.isnan(float(cell))
            else:
                assert float(cell) == want


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path):
    # the plain writer must match csv.writer cell for cell and in its CRLF line ends
    header = ["n", "x", "y"]
    rows = [(3, -0.0, 1e-300), (-7, math.nan, math.inf), (0, 0.12345678901234568, -math.inf),
            (np.int64(2), np.float64(2 / 3), 1e300)]
    write_csv(tmp_path / "plain.csv", header, rows)
    with open(tmp_path / "csv.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    want = (tmp_path / "csv.csv").read_bytes()
    assert b"\r\n" in want and b"nan" in want and b"-0," in want
    assert (tmp_path / "plain.csv").read_bytes() == want
