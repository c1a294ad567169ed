import numpy as np
import pytest

from lamsep.errors import DomainError, NonMonotoneSequence
from lamsep.fdops import richardson
from lamsep.field import LaminarParams, stationary_gradp_ansatz
from lamsep.theorems import (
    default_r_grid,
    derived_limit,
    oracle_limit,
    paper_limit,
    theorem1_mismatch,
    theorem1_verify,
    theorem2_limit,
    theorem2_ratio,
)

UNIT = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)

# frozen by direct arithmetic: M(0.1) = 0.095/1.21 + 0.2/1.1 = 63/242
M_AT_0P1 = 63.0 / 242.0


def test_mismatch_frozen_value():
    lhs, rhs, m = theorem1_mismatch(UNIT, 1.0, 0.1)
    assert m == pytest.approx(M_AT_0P1, abs=1e-15)
    assert lhs == pytest.approx(0.0, abs=1e-15)  # a1/d = a2 here
    assert rhs == pytest.approx(M_AT_0P1, abs=1e-15)


def test_mismatch_relates_sides():
    # when a1/d > a2 the two sides differ by exactly M (rhs keeps the sign)
    params = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)
    for r in (0.05, 0.1, 0.2):
        lhs, rhs, m = theorem1_mismatch(params, 1.0, r)
        assert lhs - rhs == pytest.approx(m, rel=1e-12)


def test_mismatch_slope_at_zero():
    # M(r)/r -> a1/d^2 + 2*a2/d
    for params, delta in ((UNIT, 1.0), (LaminarParams(2.0, 3.0, 1.0), 0.7)):
        r = 1e-7
        _, _, m = theorem1_mismatch(params, delta, r)
        expected = params.alpha1 / delta**2 + 2 * params.alpha2 / delta
        assert m / r == pytest.approx(expected, rel=1e-6)


def test_mismatch_domain_errors():
    with pytest.raises(DomainError):
        theorem1_mismatch(UNIT, 1.0, 1.0)  # r >= bl
    with pytest.raises(DomainError):
        theorem1_mismatch(UNIT, 1.0, 0.0)
    with pytest.raises(DomainError):
        theorem1_mismatch(LaminarParams(1.0, 0.0, 1.0), 1.0, 0.1)  # test mode rejected


def test_mismatch_positive_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a1, a2, d = rng.uniform(0.1, 10.0, 3)
        params = LaminarParams(alpha1=a1, alpha2=a2, nu=1.0)
        grid = default_r_grid(params, d)
        grid = grid[grid < 0.5 * min(params.bl, d)]
        _, _, m = theorem1_mismatch(params, d, grid)
        assert np.all(m > 0)


def test_verify_report_positive_and_equal_case():
    report = theorem1_verify(UNIT, 1.0)
    assert report.min_mismatch > 0
    assert np.all(report.mismatch > 0)
    # the "even easier" case a1/d = a2: lhs = 0, rhs > 0 for r > 0
    assert np.all(report.lhs == 0)
    assert np.all(report.rhs > 0)
    assert len(report.r_grid) == 12


def test_verify_tracing_crosscheck():
    params = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)
    report = theorem1_verify(params, 1.0, use_tracing=True)
    (r, traced, ansatz, factor), = report.geometric_crosscheck
    assert r == report.r_grid[0] == 0.1
    lhs, rhs, _ = theorem1_mismatch(params, 1.0, r)
    # the level-set route and the ansatz magnitude disagree by exactly lhs/rhs
    assert factor == pytest.approx(lhs / rhs, rel=1e-3)
    assert abs(factor - 1.0) > 0.1


def test_ratio_frozen_values():
    # exact rationals: -(63/242)/0.095 and -(603/20402)/0.00995
    assert theorem2_ratio(UNIT, 1.0, 0.1) == pytest.approx(-(63.0 / 242.0) / 0.095, abs=1e-12)
    assert theorem2_ratio(UNIT, 1.0, 0.01) == pytest.approx(-(603.0 / 20402.0) / 0.00995, abs=1e-11)


def test_ratio_is_laplacian_minus_anchor_over_speed():
    params = LaminarParams(1.7, 0.9, 0.3)
    delta, r = 1.3, 0.08
    p_t, _ = stationary_gradp_ansatz(params, delta, r)
    anchor = params.nu * (params.alpha1 / delta - params.alpha2) * delta / (delta + r)
    h = params.alpha1 * r - 0.5 * params.alpha2 * r * r
    assert theorem2_ratio(params, delta, r) == pytest.approx((p_t - anchor) / h, rel=1e-14)


def test_ratio_negative_random_sweep():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        a1, a2, d = rng.uniform(0.1, 10.0, 3)
        params = LaminarParams(alpha1=a1, alpha2=a2, nu=1.0)
        grid = default_r_grid(params, d)
        grid = grid[grid < 0.5 * min(params.bl, d)]
        assert np.all(theorem2_ratio(params, d, grid) < 0)


def test_ratio_domain_error():
    with pytest.raises(DomainError):
        theorem2_ratio(UNIT, 1.0, 2.5)


def test_limit_unit_parameters():
    report = theorem2_limit(UNIT, 1.0)
    assert report.paper_value == pytest.approx(-2.0)
    assert report.oracle_value == pytest.approx(-3.0, rel=1e-8)
    assert report.derived_value == -3.0
    assert report.limit.value == pytest.approx(report.oracle_value, rel=1e-4)
    assert report.agrees_with == "oracle"
    assert np.all(report.ratio < 0)
    assert report.limit.value < 0


def test_limit_matches_derived_closed_form_random():
    rng = np.random.default_rng(44)
    for _ in range(10):
        a1, a2, d, nu = rng.uniform(0.2, 5.0, 4)
        params = LaminarParams(alpha1=a1, alpha2=a2, nu=nu)
        assert oracle_limit(params, d) == pytest.approx(derived_limit(params, d), rel=1e-7)


def test_limit_fits_the_shrinking_fine_tail():
    # on this draw the ratio's differences grow at index 8 of the default grid
    params = LaminarParams(alpha1=1.009152605113314, alpha2=0.9312154012848579,
                           nu=0.7538635012091175)
    d = 2.958967730362642
    grid = default_r_grid(params, d)
    with pytest.raises(NonMonotoneSequence):
        richardson(list(zip(grid, theorem2_ratio(params, d, grid))), order=1)
    report = theorem2_limit(params, d)
    assert report.limit.levels_used == 4
    assert report.to_dict()["limit_levels_used"] == 4
    assert report.agrees_with == "oracle"
    assert report.limit.value == pytest.approx(report.oracle_value, rel=1e-8)


def test_limit_without_shrinking_tail_raises():
    # steps that grow toward the wall: no tail of four or more levels shrinks
    with pytest.raises(NonMonotoneSequence):
        theorem2_limit(UNIT, 1.0, r_grid=[0.2, 0.19, 0.17, 0.14, 0.1, 0.05])


def test_limit_monotone_in_delta():
    l1 = theorem2_limit(UNIT, 1.0).limit.value
    l2 = theorem2_limit(UNIT, 2.0).limit.value
    assert abs(l2) < abs(l1)
    assert paper_limit(UNIT, 2.0) > paper_limit(UNIT, 1.0)


def test_limit_linear_in_nu():
    base = theorem2_limit(UNIT, 1.0).limit.value
    doubled = theorem2_limit(LaminarParams(1.0, 1.0, 2.0), 1.0).limit.value
    assert doubled == pytest.approx(2.0 * base, rel=1e-9)


def test_report_serializes():
    d = theorem2_limit(UNIT, 1.0).to_dict()
    assert d["agrees_with"] == "oracle"
    assert isinstance(d["r_grid"], list)
    d1 = theorem1_verify(UNIT, 1.0).to_dict()
    assert d1["min_mismatch"] > 0
