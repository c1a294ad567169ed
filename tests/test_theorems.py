from fractions import Fraction

import numpy as np
import pytest

from lamsep import theorems
from lamsep.errors import DomainError, NonMonotoneSequence
from lamsep.fdops import ExtrapolationResult, richardson
from lamsep.field import LaminarParams, profile_h, stationary_gradp_ansatz
from lamsep.geometry import ArcBoundary
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

from conftest import GAP_CONFIGS

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


def test_mismatch_positive_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a1, a2, d = rng.uniform(0.1, 10.0, 3)
        params = LaminarParams(alpha1=a1, alpha2=a2, nu=1.0)
        grid = np.asarray(default_r_grid(params, d))
        grid = grid[grid < 0.5 * min(params.bl, d)]
        m = np.asarray([theorem1_mismatch(params, d, r)[2] for r in grid])
        assert np.all(m > 0)


def test_verify_report_positive_and_equal_case():
    report = theorem1_verify(UNIT, 1.0)
    assert report.min_mismatch > 0
    assert np.all(np.asarray(report.mismatch) > 0)
    # the "even easier" case a1/d = a2: lhs = 0, rhs > 0 for r > 0
    assert np.all(np.asarray(report.lhs) == 0)
    assert np.all(np.asarray(report.rhs) > 0)
    assert len(report.r_grid) == 12


def test_verify_tracing_crosscheck():
    arc = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))
    # the eta ratio scales with nu (about 3.2*nu here); lhs/rhs does not depend on it
    for nu in (1.0, 1e-3, 1e-5):
        params = LaminarParams(alpha1=2.0, alpha2=1.0, nu=nu)
        report = theorem1_verify(params, 1.0, arc=arc)
        (r, traced, ansatz, factor), = report.geometric_crosscheck
        assert r == report.r_grid[0] == 0.1
        lhs, rhs, _ = theorem1_mismatch(params, 1.0, r)
        # the level-set route and the ansatz magnitude disagree by exactly lhs/rhs
        assert factor == pytest.approx(lhs / rhs, rel=1e-5), nu
        assert abs(factor - 1.0) > 0.1


def test_verify_tracing_crosscheck_keeps_a_fit_resolved_to_a_percent():
    # a cli-analysis draw: the eta fit's error estimate reads 1.28e-3 of its
    # value, and the factor still lands within 4.4e-4 of lhs/rhs
    params = LaminarParams(alpha1=2.854558791913073, alpha2=1.7887222817890667,
                           nu=1.7275606315925456)
    d = 1.2004314267338507
    arc = ArcBoundary(delta=d, s_range=(0.0, 0.5 * d))
    (r, _, _, factor), = theorem1_verify(params, d, arc=arc).geometric_crosscheck
    lhs, rhs, _ = theorem1_mismatch(params, d, r)
    assert factor == pytest.approx(lhs / rhs, rel=1e-3)


def test_verify_traces_its_crosscheck_on_the_wall_segment(monkeypatch):
    # the station lies 0.3 of the way along s_range = (1, 2), not at 0.3 * (1 + 2)
    from lamsep import tracing

    stations = []

    def eta_ratio(gradp, arc, s, r, eps_list):
        stations.append(s)
        return real_eta_ratio(gradp, arc, s, r, eps_list)

    real_eta_ratio = tracing.eta_ratio
    monkeypatch.setattr(tracing, "eta_ratio", eta_ratio)
    params = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)
    arc = ArcBoundary(delta=1.0, s_range=(1.0, 2.0))
    theorem1_verify(params, 1.0, arc=arc)
    assert stations == [pytest.approx(1.3, abs=1e-15)]


def test_verify_refuses_an_eta_ratio_too_small_to_extrapolate_naming_nu(monkeypatch):
    from lamsep import tracing

    def eta_ratio(gradp, arc, s, r, eps_list):
        raise NonMonotoneSequence("differences do not shrink")

    monkeypatch.setattr(tracing, "eta_ratio", eta_ratio)
    params = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1e-7)
    arc = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))
    with pytest.raises(DomainError, match=r"^nu = 1e-07, delta = 1: the traced eta ratio is not "
                                          r"resolved \(differences do not shrink\)$"):
        theorem1_verify(params, 1.0, arc=arc)


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
        grid = np.asarray(default_r_grid(params, d))
        grid = grid[grid < 0.5 * min(params.bl, d)]
        assert np.all(np.asarray([theorem2_ratio(params, d, r) for r in grid]) < 0)


@pytest.mark.parametrize("r_grid", [[0.1], [0.01, 0.02], [0.02, 0.01, 0.01]])
def test_limit_refuses_a_grid_it_cannot_extrapolate(r_grid):
    # verify-theorem1 takes any grid; theorem 2's limit needs two decreasing radii
    with pytest.raises(ValueError, match="r_grid"):
        theorem2_limit(UNIT, 1.0, r_grid=r_grid)
    theorem1_verify(UNIT, 1.0, r_grid=r_grid)


def test_ratio_domain_error():
    with pytest.raises(DomainError):
        theorem2_ratio(UNIT, 1.0, 2.5)


def test_limit_that_underflowed_to_zero_is_a_domain_error():
    # the derived limit -nu*(2*a2/(delta*a1) + 1/delta**2) is strictly negative,
    # but here every ratio and the extrapolated limit underflow to 0
    params = LaminarParams(alpha1=1.8399755638364526, alpha2=1.643420123686913e200,
                           nu=8.994958406858893e29)
    assert theorem2_ratio(params, 1.0, default_r_grid(params, 1.0)[0]) == 0.0
    with pytest.raises(DomainError, match="leaves the float range"):
        theorem2_limit(params, 1.0)


def test_limit_unit_parameters():
    report = theorem2_limit(UNIT, 1.0)
    assert report.paper_value == pytest.approx(-2.0)
    assert report.oracle_value == pytest.approx(-3.0, rel=1e-8)
    assert report.derived_value == -3.0
    assert report.limit.value == pytest.approx(report.oracle_value, rel=1e-4)
    assert report.agrees_with == "oracle"
    assert np.all(np.asarray(report.ratio) < 0)
    assert report.limit.value < 0


def test_limit_matches_derived_closed_form_random():
    rng = np.random.default_rng(44)
    for _ in range(10):
        a1, a2, d, nu = rng.uniform(0.2, 5.0, 4)
        params = LaminarParams(alpha1=a1, alpha2=a2, nu=nu)
        assert oracle_limit(params, d) == pytest.approx(derived_limit(params, d), rel=1e-7)


def test_oracle_is_the_exact_limit():
    # the correctly rounded closed form -2*nu*a2/(delta*a1) - nu/delta**2 of the
    # float inputs, computed in Fractions
    rng = np.random.default_rng(45)
    for _ in range(50):
        a1, a2, d, nu = (float(v) for v in rng.uniform(0.2, 5.0, 4))
        params = LaminarParams(alpha1=a1, alpha2=a2, nu=nu)
        a1_, a2_, d_, nu_ = (Fraction(v) for v in (a1, a2, d, nu))
        assert oracle_limit(params, d) == float(-2 * nu_ * a2_ / (d_ * a1_) - nu_ / d_**2)


# ----------------------------------------------------------------------------
# theorem 1's gap M(r) = h/(d + r)**2 + 2*a2*r/(d + r) is theorem 2's numerator:
# the two routes are kept apart in code, and their agreement is the check
# ----------------------------------------------------------------------------

def test_ratio_is_minus_nu_times_theorem1_gap_over_speed():
    # theorem2_ratio is (P - wall anchor)/h and theorem1_mismatch is M: the
    # ratio is -nu*M/h, so with h > 0 in the layer theorem 2's sign is theorem
    # 1's.  It fails if the Laplacian's a2 term or the wall anchor changes.
    # Measured: at most 5.0e-13 relative over these draws.
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(2000):
        a1, a2, d = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
        nu = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        params = LaminarParams(alpha1=float(a1), alpha2=float(a2), nu=nu)
        r = float(rng.uniform(1e-3, 0.999) * params.bl)
        gap = -params.nu * theorem1_mismatch(params, float(d), r)[2] / profile_h(params, r)
        worst = max(worst, abs(theorem2_ratio(params, float(d), r) / gap - 1.0))
    assert worst <= 1e-10


@pytest.mark.parametrize("a1, a2, nu, delta", GAP_CONFIGS)
def test_oracle_limit_is_minus_nu_times_the_gap_slope_over_alpha1(a1, a2, nu, delta):
    # the limit is -nu*M'(0)/h'(0) with M'(0) = a1/d**2 + 2*a2/d: the printed
    # limit keeps one of the two a2/d terms of M'(0)
    a1_, a2_, nu_, d_ = (Fraction(v) for v in (a1, a2, nu, delta))
    slope = a1_ / d_**2 + 2 * a2_ / d_
    assert oracle_limit(LaminarParams(a1, a2, nu), delta) == float(-nu_ * slope / a1_)


def test_limit_fits_the_shrinking_fine_tail():
    # on this draw the ratio's differences grow at index 8 of the default grid
    params = LaminarParams(alpha1=1.009152605113314, alpha2=0.9312154012848579,
                           nu=0.7538635012091175)
    d = 2.958967730362642
    grid = default_r_grid(params, d)
    assert richardson([(r, theorem2_ratio(params, d, r)) for r in grid], order=1).levels_used == 4
    report = theorem2_limit(params, d)
    assert report.limit.levels_used == 4
    assert report.agrees_with == "oracle"
    assert report.limit.value == pytest.approx(report.oracle_value, rel=1e-8)


def test_limit_that_lands_on_the_printed_value_agrees_with_the_paper(monkeypatch):
    # a ratio linear in r extrapolates exactly to its value at r = 0
    monkeypatch.setattr(theorems, "theorem2_ratio",
                        lambda params, delta, r: paper_limit(params, delta) + r)
    assert theorem2_limit(UNIT, 1.0).agrees_with == "paper"


def test_limit_off_both_candidates_agrees_with_neither(monkeypatch):
    # twice the printed value: -4 against the printed -2 and the oracle's -3
    monkeypatch.setattr(theorems, "theorem2_ratio",
                        lambda params, delta, r: 2.0 * paper_limit(params, delta) + r)
    assert theorem2_limit(UNIT, 1.0).agrees_with == "neither"


def test_limit_of_zero_is_refused(monkeypatch):
    # every ratio and the true limit are strictly negative: a fit that reads 0 lost them
    monkeypatch.setattr(theorems, "richardson",
                        lambda samples, order: ExtrapolationResult(0.0, 0.0, 1.0, 4))
    with pytest.raises(DomainError, match="float range"):
        theorem2_limit(UNIT, 1.0)


def test_limit_without_shrinking_tail_raises():
    # steps that grow toward the wall: no tail of four or more levels shrinks,
    # and the refusal names the caller's samples and radii where it grew
    with pytest.raises(NonMonotoneSequence, match=r"\|v\[3\]-v\[4\]\| = .* \(h = 0\.14 to 0\.1\) "
                                                  r"did not shrink from .* \(h = 0\.17 to 0\.14\)"):
        theorem2_limit(UNIT, 1.0, r_grid=[0.2, 0.19, 0.17, 0.14, 0.1, 0.05])


@pytest.mark.parametrize("nu", [1e-318, 1e-320])
def test_limit_refuses_subnormal_ratios(nu):
    # below the smallest normal float (about 2.2e-308) the ratios keep too few
    # bits to fit: a fit of them read -1.9478e-318 against the oracle's -2e-318
    with pytest.raises(DomainError, match="float range"):
        theorem2_limit(LaminarParams(2.0, 1.0, nu), 1.0)
    # the smallest normal viscosities still extrapolate to the oracle
    assert theorem2_limit(LaminarParams(2.0, 1.0, 1e-300), 1.0).agrees_with == "oracle"


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
    d = theorem2_limit(UNIT, 1.0)._asdict()
    assert d["agrees_with"] == "oracle"
    assert isinstance(d["r_grid"], list)
    d1 = theorem1_verify(UNIT, 1.0)._asdict()
    assert d1["min_mismatch"] > 0
