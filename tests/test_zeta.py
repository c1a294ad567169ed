import csv
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from lamsep import tracing
from lamsep.cli import main
from lamsep.errors import CriticalPoint, DomainError, NonMonotoneSequence
from lamsep.field import FieldHandle, LaminarParams, ScalarFieldHandle
from lamsep.geometry import ArcBoundary, arc_point, arc_tangent, norm, to_cartesian
from lamsep.tracing import (
    angular_pressure,
    perturbed_angular_pressure,
    piecewise_linear_length,
    zeta_check,
)

ARC = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))
PARAMS = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)  # wall gradient K = 1
R_LIST = [0.08, 0.04, 0.02]
# delta != 1 and a wall gradient k = nu*(a1/delta - a2) = 0.390... != 1
SKEW_ARC = ArcBoundary(delta=1.7, s_range=(0.0, 0.6))
SKEW_PARAMS = LaminarParams(alpha1=2.7, alpha2=1.1, nu=0.8)


def wall_incompatible_pressure(arc, params, slope):
    """Angular pressure plus slope*(dist - delta): breaks the wall gradient."""
    base = angular_pressure(arc, params)
    delta = arc.delta

    def evaluate(x, y):
        return base.evaluator(x, y) + slope * (norm(x, y) - delta)

    def gradient(x, y):
        d = norm(x, y)
        gx, gy = base.gradient((x, y))
        return gx + slope * x / d, gy + slope * y / d

    return ScalarFieldHandle(evaluate, FieldHandle(gradient))


def test_angular_pressure_wall_gradient():
    p = angular_pressure(ARC, PARAMS)
    k = PARAMS.nu * (PARAMS.alpha1 / ARC.delta - PARAMS.alpha2)
    for s in np.linspace(*ARC.s_range, 7):
        g = p.gradient(arc_point(ARC, s))
        assert np.allclose(g, np.multiply(k, arc_tangent(ARC, s)), atol=1e-13)


def test_zeta_angular_field_exact():
    report = zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS,
                        s=0.1, r_list=R_LIST, eps_over_r=2.0)
    assert report.ratio.value == pytest.approx(1.0, abs=1e-3)
    assert report.bounds_hold
    for sm in report.samples:
        # circular pressure lines: the foot sits exactly above phi(s)
        assert sm.s_hat == pytest.approx(0.1, abs=1e-9)
        assert sm.r_hat2 == pytest.approx(sm.r, rel=1e-9)
        expected = (sm.r + ARC.delta) / ARC.delta * sm.eps
        assert sm.traced_length == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("r_list, eps_over_r, key", [
    ([-0.01], 2.0, "r_list"), ([0.02, 0.04], 2.0, "r_list"), (R_LIST, 0.0, "eps_over_r"),
    (R_LIST, -1.0, "eps_over_r"), (R_LIST, float("nan"), "eps_over_r"),
])
def test_zeta_check_refuses_a_radius_or_eps_that_is_not_positive(r_list, eps_over_r, key):
    with pytest.raises(ValueError, match=key):
        zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS, s=0.1, r_list=r_list,
                   eps_over_r=eps_over_r)


def test_zeta_angular_pw_sums_match_traced():
    p = angular_pressure(ARC, PARAMS)
    report = zeta_check(p, ARC, PARAMS, s=0.1, r_list=[0.04], eps_over_r=2.0)
    sm = report.samples[0]
    for n in (32, 64, 128, 256):
        assert piecewise_linear_length(p, ARC, sm, n) == pytest.approx(sm.traced_length, rel=1e-9)


def test_piecewise_length_refuses_a_vanishing_gradient():
    sm = zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS, s=0.1, r_list=[0.04],
                    eps_over_r=2.0).samples[0]
    flat = ScalarFieldHandle(lambda x, y: 0.0, FieldHandle(lambda x, y: (0.0, 0.0)))
    with pytest.raises(CriticalPoint, match="gradient vanished"):
        piecewise_linear_length(flat, ARC, sm, 8)


def test_zeta_perturbed_bounds_hold_with_finite_constants():
    p = perturbed_angular_pressure(ARC, PARAMS, amp=0.3)
    report = zeta_check(p, ARC, PARAMS, s=0.1, r_list=R_LIST, eps_over_r=2.0)
    assert report.bounds_hold
    assert np.isfinite(report.fitted.c)
    assert 0 < report.fitted.epsilon_hat < 0.5
    for sm in report.samples:
        assert sm.lower_bound <= sm.traced_length <= sm.upper_bound
        assert abs(sm.s_hat - 0.1) <= report.fitted.c * sm.r**2 + 1e-12
        assert (1 - report.fitted.epsilon_hat) * sm.r <= sm.r_hat2
        assert sm.r_hat2 <= (1 + report.fitted.epsilon_hat) * sm.r


@pytest.mark.parametrize("amp, eps_over_r, factor", [
    pytest.param(0.3, 2.0, 0.1, id="0.1"), pytest.param(0.3, 2.0, 3.0, id="3.0"),
    # the angular pressure at a small offset, where the constants sit at their
    # floors: the sandwich is still narrow enough to catch a length 1e-9 off
    pytest.param(0.0, 1e-3, 1.0 - 1e-9, id="angular-1e-3-short"),
    pytest.param(0.0, 1e-3, 1.0 + 1e-9, id="angular-1e-3-long"),
])
def test_zeta_bounds_fail_for_a_traced_length_outside_the_sandwich(monkeypatch, amp, eps_over_r,
                                                                    factor):
    # the constants are fitted from the foot and the crossing alone, so a traced
    # length below or above the sandwich they give is reported, not fitted away
    p = perturbed_angular_pressure(ARC, PARAMS, amp=amp)
    exact = zeta_check(p, ARC, PARAMS, s=0.1, r_list=R_LIST, eps_over_r=eps_over_r)
    sample = tracing._zeta_sample

    def scaled(*args):
        sm = sample(*args)
        return sm._replace(traced_length=factor * sm.traced_length)

    monkeypatch.setattr(tracing, "_zeta_sample", scaled)
    report = zeta_check(p, ARC, PARAMS, s=0.1, r_list=R_LIST, eps_over_r=eps_over_r)
    assert exact.bounds_hold is True
    assert report.bounds_hold is False
    assert report.fitted == exact.fitted


@pytest.mark.parametrize("eps_over_r", [1e-3, 1e-2, 0.05])
def test_zeta_bounds_hold_at_small_offsets(eps_over_r):
    # the default config; these were false while the level crossing stopped at
    # 1e-14*(|p| + |k|*delta), about 5e-8 of a step at eps_over_r 1e-3
    report = zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS, s=0.1, r_list=R_LIST,
                        eps_over_r=eps_over_r)
    assert report.bounds_hold is True


def test_zeta_bounds_hold_at_a_small_offset_on_the_benchmark_draws(tmp_path, monkeypatch):
    # the zeta-check draws of cli-analysis seeds 1-10, at eps_over_r 1e-3: none held
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    for seed in range(1, 11):
        config, = [inv.config for inv in workloads.generate("cli-analysis", seed)
                   if inv.command == "zeta-check"]
        path, out = tmp_path / f"{seed}.json", tmp_path / f"o{seed}"
        path.write_text(json.dumps({**config, "eps_over_r": 1e-3}))
        assert main(["zeta-check", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["payload"]["bounds_hold"] is True


def _assert_pw_convergence_order(arc, params):
    p = perturbed_angular_pressure(arc, params, amp=0.3)
    report = zeta_check(p, arc, params, s=0.1, r_list=[0.08], eps_over_r=2.0)
    sm = report.samples[0]
    sums = {n: piecewise_linear_length(p, arc, sm, n) for n in (32, 64, 128, 256)}
    errs = {n: abs(v - sm.traced_length) for n, v in sums.items()}
    for n in (32, 64, 128):
        assert errs[2 * n] <= errs[n] / 1.8  # order >= 1
    # successive sums differ by <= C/N
    c_fit = max(abs(sums[n] - sums[2 * n]) * n for n in (32, 64, 128))
    for n in (32, 64, 128):
        assert abs(sums[n] - sums[2 * n]) <= c_fit / n + 1e-15


def test_zeta_perturbed_pw_convergence_order():
    _assert_pw_convergence_order(ARC, PARAMS)


def test_zeta_perturbed_pw_convergence_order_off_origin():
    # delta 1.7 and k = 0.39: the reconstruction's chart steps and tilt angles
    # must not assume the unit arc
    _assert_pw_convergence_order(SKEW_ARC, SKEW_PARAMS)


def test_zeta_ratio_limit_extrapolates_to_one_perturbed():
    p = perturbed_angular_pressure(ARC, PARAMS, amp=0.3)
    report = zeta_check(p, ARC, PARAMS, s=0.1, r_list=[0.04, 0.02, 0.01],
                        eps_over_r=2.0)
    assert report.ratio.value == pytest.approx(1.0, abs=5e-3)


def test_zeta_wall_violation_raises():
    bad = wall_incompatible_pressure(ARC, PARAMS, slope=0.1)
    with pytest.raises(DomainError):
        zeta_check(bad, ARC, PARAMS, s=0.1, r_list=[0.04], eps_over_r=2.0)


def test_zeta_requires_nonzero_wall_gradient():
    balanced = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)  # K = 0
    with pytest.raises(DomainError):
        zeta_check(angular_pressure(ARC, balanced), ARC, balanced,
                   s=0.1, r_list=[0.04], eps_over_r=2.0)


def test_zeta_foot_data_independent_of_s():
    # the stationary construction assumes s_hat - s and r_hat do not depend on s
    p = perturbed_angular_pressure(ARC, PARAMS, amp=0.3)
    shifts, heights = [], []
    for s in (0.08, 0.14, 0.2):
        report = zeta_check(p, ARC, PARAMS, s=s, r_list=[0.04], eps_over_r=2.0)
        shifts.append(report.samples[0].s_hat - s)
        heights.append(report.samples[0].r_hat)
    assert max(shifts) - min(shifts) <= 1e-6
    assert max(heights) - min(heights) <= 1e-6


@pytest.mark.parametrize("p_field", [
    angular_pressure(SKEW_ARC, SKEW_PARAMS),
    perturbed_angular_pressure(SKEW_ARC, SKEW_PARAMS, amp=0.3),
    perturbed_angular_pressure(SKEW_ARC, SKEW_PARAMS, amp=-0.3),
    wall_incompatible_pressure(SKEW_ARC, SKEW_PARAMS, slope=0.2),
], ids=["angular-pressure", "angular-pressure+0.3r2", "angular-pressure+-0.3r2",
        "wall-incompatible"])
def test_pressure_gradient_matches_central_differences(p_field):
    # zeta_check traces on the analytic gradient alone, so it must be the
    # gradient of the evaluator; here delta = 1.7 and k = 0.39, so a missing
    # factor k or 1/delta shows
    rng = np.random.default_rng(11)
    s = rng.uniform(0.05, 0.55, 20)
    r = rng.uniform(0.01, 0.8, 20)
    h = 1e-5
    for x, y in (to_cartesian(SKEW_ARC, (si, ri)) for si, ri in zip(s.tolist(), r.tolist())):
        fd = np.array([
            (p_field((x + h, y)) - p_field((x - h, y))) / (2 * h),
            (p_field((x, y + h)) - p_field((x, y - h))) / (2 * h),
        ])
        g = np.array(p_field.gradient((x, y)))
        assert np.linalg.norm(fd - g) <= 1e-7 * np.linalg.norm(g), (x, y)


def test_zeta_check_accepts_ratios_equal_to_tracer_accuracy(tmp_path):
    # seed 9 of the cli-analysis workload: the three ratios agree to 3e-11, far
    # inside tracer accuracy, but their roundoff differences grow, which an
    # absolute 1e-12 guard handed to Richardson's monotonicity check
    config = {"alpha1": 3.5645163940544538, "alpha2": 1.4929019846247842,
              "nu": 0.9175585393740624, "delta": 2.3339542099073345}
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps(config))
    assert main(["zeta-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())["payload"]
    assert payload["bounds_hold"] is True
    assert abs(payload["ratio_limit"] - 1.0) <= 2e-11


@pytest.mark.parametrize("seed, amp, config", [
    (9, 0.3, {"alpha1": 3.5645163940544538, "alpha2": 1.4929019846247842,
              "nu": 0.9175585393740624, "delta": 2.3339542099073345}),
    (19, 0.3, {"alpha1": 2.033721890904818, "alpha2": 0.9629433455566547,
               "nu": 0.5875866004275692, "delta": 1.1482172721699286}),
    (46, 0.3, {"alpha1": 4.824731962805635, "alpha2": 1.8717031871807674,
               "nu": 0.5652481930872675, "delta": 2.561940861738463}),
    (53, 0.3, {"alpha1": 3.2763428421453904, "alpha2": 1.5665190509488902,
               "nu": 1.0382583650830317, "delta": 2.0988956910406817}),
    (39, -0.5, {"alpha1": 3.0338365705452612, "alpha2": 1.1275199201523503,
                "nu": 0.8458156607586738, "delta": 2.8473661031973565}),
])
def test_zeta_check_perturbed_amp_is_relative_to_wall_gradient(tmp_path, seed, amp, config):
    # zeta-check draws of cli-analysis seeds with a1/delta close to a2: with
    # amp*(d - delta)**2 unscaled by the small wall gradient k, the level curves
    # tilted nearly flat and the check refused these valid inputs
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps({**config, "pressure": "perturbed", "amp": amp}))
    assert main(["zeta-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())["payload"]
    assert payload["bounds_hold"] is True


@pytest.mark.parametrize("amp, epsilon_hat, holds", [(1.1, 0.49415, True), (1.2, 0.54310, False)])
def test_zeta_check_reports_the_epsilon_hat_it_fitted(tmp_path, amp, epsilon_hat, holds):
    # the default config's perturbed pressure: at amp 1.2 the samples' largest
    # |r_hat2/r - 1| passes 1/2, the sandwich's premise, so the bounds cannot hold
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps({"pressure": "perturbed", "amp": amp}))
    assert main(["zeta-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())["payload"]
    with open(tmp_path / "out" / "data.csv", newline="") as fh:
        samples = list(csv.DictReader(fh))
    largest = max(abs(float(sm["r_hat2"]) / float(sm["r"]) - 1.0) for sm in samples)
    assert payload["fitted_epsilon_hat"] == largest
    assert payload["fitted_epsilon_hat"] == pytest.approx(epsilon_hat, abs=1e-5)
    assert payload["bounds_hold"] is holds


def test_zeta_check_still_refuses_non_monotone_ratios(monkeypatch):
    # ratios 1, 1 + 1e-6, 1 - 1e-6: differences that grow, far above tracer accuracy
    real_sample = tracing._zeta_sample
    factors = iter([1.0, 1.0 + 1e-6, 1.0 - 1e-6])

    def bumped(*args):
        sample = real_sample(*args)
        return sample._replace(traced_length=sample.traced_length * next(factors))

    monkeypatch.setattr(tracing, "_zeta_sample", bumped)
    with pytest.raises(NonMonotoneSequence):
        zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS,
                   s=0.1, r_list=R_LIST, eps_over_r=2.0)


def _zeta_numbers(report) -> list[float]:
    return [v for sm in report.samples for v in sm] + [*report.fitted, report.ratio.value]


@pytest.mark.parametrize("amp", [0.0, 0.2], ids=["angular", "perturbed"])
def test_zeta_check_does_not_depend_on_nu(amp):
    # the pressure is proportional to nu, and its level sets are not: every
    # sample, fitted constant and ratio agrees to roundoff from nu = 1e-12 to 1e6.
    # A crossing tolerance of 1e-14*(|p| + 1) and a stagnation tolerance of
    # 1e-10*alpha1*delta (a velocity) used to fit c 2200 times larger at
    # nu = 1e-3 and to refuse nu <= 1e-6
    def run(nu):
        params = PARAMS._replace(nu=nu)
        return zeta_check(perturbed_angular_pressure(ARC, params, amp), ARC, params, 0.1,
                          R_LIST, 2.0)

    reference = run(1.0)
    # c1 = (s + eps - s_hat2)/r_hat2**2 divides a difference far smaller than
    # s_hat2 (2000 times on the perturbed pressure), so one rounding of s_hat2
    # moves it by that condition number s_hat2/|s + eps - s_hat2|: its bound is
    # 1e-14 times the condition of the sample that sets it, unless it sits at its floor
    c1_at = len(reference.samples) * len(reference.samples[0]) + 1
    sm = max(reference.samples, key=lambda sm: (0.1 + sm.eps - sm.s_hat2) / sm.r_hat2**2)
    c1_rel = 1e-14
    if reference.fitted.c1 > 1e-12 / ARC.delta:
        c1_rel *= sm.s_hat2 / abs(0.1 + sm.eps - sm.s_hat2)
    want = _zeta_numbers(reference)
    for nu in (1e-12, 1e-6, 1e6):
        got = _zeta_numbers(run(nu))
        assert got[c1_at] == pytest.approx(want[c1_at], rel=c1_rel, abs=0.0)
        del got[c1_at]
        assert got == pytest.approx(want[:c1_at] + want[c1_at + 1:], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("amp", [0.0, 0.2], ids=["angular", "perturbed"])
@pytest.mark.parametrize("arc, params", [(ARC, PARAMS), (SKEW_ARC, SKEW_PARAMS)],
                         ids=["unit", "skew"])
def test_a_station_shift_leaves_the_zeta_numbers_unchanged(arc, params, amp):
    # the segment and s moved 0.37*delta along the wall: every zeta number, its
    # stations less the shift, is the unshifted run's to 1e-13, except where a
    # fitted constant divides a difference of stations: c = |s_hat - s|/r**2 and
    # c1 = (s + eps - s_hat2)/r_hat2**2 may move by 1e-13 times the condition
    # number of that difference (its station over it), unless at their floor
    shift = 0.37 * arc.delta
    moved = ArcBoundary(arc.delta, (arc.s_range[0] + shift, arc.s_range[1] + shift))
    here = zeta_check(perturbed_angular_pressure(arc, params, amp), arc, params, 0.1, R_LIST,
                      2.0)
    there = zeta_check(perturbed_angular_pressure(moved, params, amp), moved, params,
                       0.1 + shift, R_LIST, 2.0)
    s, floor = 0.1 + shift, 1e-12 / arc.delta
    for name, station, gap, size in (
            ("c", lambda sm: sm.s_hat, lambda sm: abs(sm.s_hat - s), lambda sm: sm.r),
            ("c1", lambda sm: sm.s_hat2, lambda sm: s + sm.eps - sm.s_hat2, lambda sm: sm.r_hat2)):
        sm = max(there.samples, key=lambda sm: gap(sm) / size(sm)**2)
        rel = 1e-13 if gap(sm) / size(sm)**2 <= floor else 1e-13 * station(sm) / abs(gap(sm))
        assert getattr(there.fitted, name) == pytest.approx(getattr(here.fitted, name), rel=rel,
                                                            abs=0.0), name
    back = [sm._replace(s_hat=sm.s_hat - shift, s_hat2=sm.s_hat2 - shift)
            for sm in there.samples]
    assert [v for sm in back for v in sm] == pytest.approx(
        [v for sm in here.samples for v in sm], rel=1e-13, abs=0.0)
    assert [there.fitted.c2, there.fitted.epsilon_hat, there.ratio.value] == pytest.approx(
        [here.fitted.c2, here.fitted.epsilon_hat, here.ratio.value], rel=1e-13, abs=0.0)
