import dataclasses
import json

import numpy as np
import pytest

from lamsep import tracing
from lamsep.cli import main
from lamsep.errors import DomainError, NonMonotoneSequence, WallGradientMismatch
from lamsep.field import LaminarParams
from lamsep.geometry import ArcBoundary, arc_point, arc_tangent, to_cartesian
from lamsep.tracing import (
    BoundTolerances,
    angular_pressure,
    default_trace_config,
    perturbed_angular_pressure,
    wall_incompatible_pressure,
    zeta_check,
)

ARC = ArcBoundary(delta=1.0, phase=0.0, center=(0.0, 0.0), s_range=(0.0, 0.5))
PARAMS = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)  # wall gradient K = 1
CFG = default_trace_config(ARC, PARAMS)
R_LIST = [0.08, 0.04, 0.02]
# delta != 1 and a wall gradient k = nu*(a1/delta - a2) = 0.390... != 1
SKEW_ARC = ArcBoundary(delta=1.7, phase=0.2, center=(0.5, -0.7), s_range=(0.0, 0.6))
SKEW_PARAMS = LaminarParams(alpha1=2.7, alpha2=1.1, nu=0.8)


def test_bound_tolerances_validation():
    with pytest.raises(ValueError):
        BoundTolerances(c=1.0, c1=1.0, c2=1.0, epsilon_hat=0.6)
    with pytest.raises(ValueError):
        BoundTolerances(c=-1.0, c1=1.0, c2=1.0, epsilon_hat=0.1)


def test_angular_pressure_wall_gradient():
    p = angular_pressure(ARC, PARAMS)
    k = PARAMS.nu * (PARAMS.alpha1 / ARC.delta - PARAMS.alpha2)
    for s in np.linspace(*ARC.s_range, 7):
        g = p.gradient(*arc_point(ARC, s))
        assert np.allclose(g, k * arc_tangent(ARC, s), atol=1e-13)


def test_zeta_angular_field_exact():
    report = zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS,
                        s=0.1, r_list=R_LIST, eps_over_r=2.0, cfg=CFG)
    assert report.ratio.value == pytest.approx(1.0, abs=1e-3)
    assert report.bounds_hold
    for sm in report.samples:
        # circular pressure lines: the foot sits exactly above phi(s)
        assert sm.s_hat == pytest.approx(0.1, abs=1e-9)
        assert sm.r_hat2 == pytest.approx(sm.r, rel=1e-9)
        expected = (sm.r + ARC.delta) / ARC.delta * sm.eps
        assert sm.traced_length == pytest.approx(expected, rel=1e-9)


def test_zeta_angular_pw_sums_match_traced():
    report = zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS,
                        s=0.1, r_list=[0.04], eps_over_r=2.0, cfg=CFG)
    sm = report.samples[0]
    for n, val in sm.pw_sums.items():
        assert val == pytest.approx(sm.traced_length, rel=1e-9)


def test_zeta_perturbed_bounds_hold_with_finite_constants():
    p = perturbed_angular_pressure(ARC, PARAMS, amp=0.3)
    report = zeta_check(p, ARC, PARAMS, s=0.1, r_list=R_LIST, eps_over_r=2.0, cfg=CFG)
    assert report.bounds_hold
    assert np.isfinite(report.fitted.c)
    assert 0 < report.fitted.epsilon_hat < 0.5
    for sm in report.samples:
        assert sm.lower_bound <= sm.traced_length <= sm.upper_bound
        assert abs(sm.s_hat - 0.1) <= report.fitted.c * sm.r**2 + 1e-12
        assert (1 - report.fitted.epsilon_hat) * sm.r <= sm.r_hat2
        assert sm.r_hat2 <= (1 + report.fitted.epsilon_hat) * sm.r


def test_zeta_perturbed_pw_convergence_order():
    p = perturbed_angular_pressure(ARC, PARAMS, amp=0.3)
    report = zeta_check(p, ARC, PARAMS, s=0.1, r_list=[0.08], eps_over_r=2.0, cfg=CFG)
    sm = report.samples[0]
    errs = {n: abs(v - sm.traced_length) for n, v in sm.pw_sums.items()}
    for n in (32, 64, 128):
        assert errs[2 * n] <= errs[n] / 1.8  # order >= 1
    # successive sums differ by <= C/N
    c_fit = max(abs(sm.pw_sums[n] - sm.pw_sums[2 * n]) * n for n in (32, 64, 128))
    for n in (32, 64, 128):
        assert abs(sm.pw_sums[n] - sm.pw_sums[2 * n]) <= c_fit / n + 1e-15


def test_zeta_ratio_limit_extrapolates_to_one_perturbed():
    p = perturbed_angular_pressure(ARC, PARAMS, amp=0.3)
    report = zeta_check(p, ARC, PARAMS, s=0.1, r_list=[0.04, 0.02, 0.01],
                        eps_over_r=2.0, cfg=CFG)
    assert report.ratio.value == pytest.approx(1.0, abs=5e-3)


def test_zeta_wall_violation_raises():
    bad = wall_incompatible_pressure(ARC, PARAMS, slope=0.1)
    with pytest.raises(WallGradientMismatch):
        zeta_check(bad, ARC, PARAMS, s=0.1, r_list=[0.04], eps_over_r=2.0, cfg=CFG)


def test_zeta_requires_nonzero_wall_gradient():
    balanced = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)  # K = 0
    with pytest.raises(DomainError):
        zeta_check(angular_pressure(ARC, balanced), ARC, balanced,
                   s=0.1, r_list=[0.04], eps_over_r=2.0, cfg=CFG)


def test_zeta_foot_data_independent_of_s():
    # the stationary construction assumes s_hat - s and r_hat do not depend on s
    p = perturbed_angular_pressure(ARC, PARAMS, amp=0.3)
    shifts, heights = [], []
    for s in (0.08, 0.14, 0.2):
        report = zeta_check(p, ARC, PARAMS, s=s, r_list=[0.04], eps_over_r=2.0, cfg=CFG)
        shifts.append(report.samples[0].s_hat - s)
        heights.append(report.samples[0].r_hat)
    assert max(shifts) - min(shifts) <= 1e-6
    assert max(heights) - min(heights) <= 1e-6


@pytest.mark.parametrize("p_field", [
    angular_pressure(SKEW_ARC, SKEW_PARAMS),
    perturbed_angular_pressure(SKEW_ARC, SKEW_PARAMS, amp=0.3),
    perturbed_angular_pressure(SKEW_ARC, SKEW_PARAMS, amp=-0.3),
    wall_incompatible_pressure(SKEW_ARC, SKEW_PARAMS, slope=0.2),
], ids=lambda p: p.name)
def test_pressure_gradient_matches_central_differences(p_field):
    # zeta_check traces on the analytic gradient alone, so it must be the
    # gradient of the evaluator; here delta = 1.7 and k = 0.39, so a missing
    # factor k or 1/delta shows
    rng = np.random.default_rng(11)
    s = rng.uniform(0.05, 0.55, 20)
    r = rng.uniform(0.01, 0.8, 20)
    h = 1e-5
    for x, y in to_cartesian(SKEW_ARC, (s, r)).tolist():
        fd = np.array([
            (p_field((x + h, y)) - p_field((x - h, y))) / (2 * h),
            (p_field((x, y + h)) - p_field((x, y - h))) / (2 * h),
        ])
        g = np.array(p_field.gradient(x, y))
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


def test_zeta_check_still_refuses_non_monotone_ratios(monkeypatch):
    # ratios 1, 1 + 1e-6, 1 - 1e-6: differences that grow, far above tracer accuracy
    real_sample = tracing._zeta_sample
    factors = iter([1.0, 1.0 + 1e-6, 1.0 - 1e-6])

    def bumped(*args):
        sample = real_sample(*args)
        return dataclasses.replace(sample, traced_length=sample.traced_length * next(factors))

    monkeypatch.setattr(tracing, "_zeta_sample", bumped)
    with pytest.raises(NonMonotoneSequence):
        zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS,
                   s=0.1, r_list=R_LIST, eps_over_r=2.0, cfg=CFG)
