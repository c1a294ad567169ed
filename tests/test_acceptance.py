"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values tagged as derived are recomputed here by independent oracles
(exact rational arithmetic, finite differences, traced geometry) before being
asserted, never copied from the implementation under test.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from lamsep.cli import main as cli_main
from lamsep.field import (
    LaminarParams,
    advection,
    analytic_laplacian,
    laminar_field,
    stationary_gradp_ansatz,
    stationary_gradp_field,
)
from lamsep.fdops import StencilSpec, fd_advection, fd_laplacian, richardson
from lamsep.geometry import ArcBoundary, arc_normal, arc_tangent, to_cartesian
from lamsep.nssim import SimConfig, _tangential_rhs, init_sim, probe_diagnostics
from lamsep.theorems import (
    default_r_grid,
    oracle_limit,
    paper_limit,
    theorem1_mismatch,
    theorem2_limit,
    theorem2_ratio,
)
from lamsep.tracing import (
    angular_pressure,
    classify_flow,
    default_trace_config,
    eta_ratio,
    fan_expected_crossing,
    fan_field,
    perturbed_angular_pressure,
    piecewise_linear_length,
    poincare_L,
    radial_growth_field,
    zeta_check,
)

UNIT = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)
ARC = ArcBoundary(delta=1.0, s_range=(0.0, 0.5))


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def rational_ratio(r, a1, a2, nu, d):
    """Independent oracle: theorem-2 ratio in exact rational arithmetic."""
    r, a1, a2, nu, d = map(Fraction, (r, a1, a2, nu, d))
    h = a1 * r - a2 * r * r / 2
    p_t = nu * ((a1 - a2 * r) / (r + d) - h / (r + d) ** 2 - a2)
    anchor = nu * (a1 / d - a2) * d / (d + r)
    return (p_t - anchor) / h


def test_criterion_1_theorem1_contradiction():
    start = time.perf_counter()
    # oracle: exact rational arithmetic of the mismatch at r = 1/10
    r, a2, d = Fraction(1, 10), Fraction(1), Fraction(1)
    h = Fraction(1) * r - a2 * r * r / 2
    m_expected = float(h / (d + r) ** 2 + 2 * a2 * r / (r + d))
    _, _, m = theorem1_mismatch(UNIT, 1.0, 0.1)
    assert m == pytest.approx(m_expected, abs=1e-9)

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        a1, a2_, dd = rng.uniform(0.1, 10.0, 3)
        params = LaminarParams(alpha1=a1, alpha2=a2_, nu=1.0)
        grid = np.asarray(default_r_grid(params, dd))
        grid = grid[grid < 0.5 * min(params.bl, dd)]
        mm = np.asarray([theorem1_mismatch(params, dd, r)[2] for r in grid])
        assert np.all(mm > 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"M(0.1) = {m:.9f} (+-1e-9), M > 0 on 1000 random draws, {elapsed:.2f}s")


def test_criterion_2_theorem2_ratio_values():
    expect_01 = float(rational_ratio(Fraction(1, 10), 1, 1, 1, 1))
    expect_001 = float(rational_ratio(Fraction(1, 100), 1, 1, 1, 1))
    got_01 = float(theorem2_ratio(UNIT, 1.0, 0.1))
    got_001 = float(theorem2_ratio(UNIT, 1.0, 0.01))
    assert got_01 == pytest.approx(expect_01, abs=1e-6)
    assert got_001 == pytest.approx(expect_001, abs=1e-6)
    report(2, f"ratio(0.1) = {got_01:.7f}, ratio(0.01) = {got_001:.7f} (+-1e-6)")


def test_criterion_3_theorem2_adjudication():
    start = time.perf_counter()
    rep = theorem2_limit(UNIT, 1.0)
    assert rep.limit.value == pytest.approx(rep.oracle_value, rel=1e-4)
    assert rep.paper_value == pytest.approx(-2.0)
    assert rep.agrees_with == "oracle"
    # the factor-2 discrepancy in the alpha2 term is flagged, not hidden
    assert abs(rep.paper_value - rep.oracle_value) > 1e-4 * abs(rep.oracle_value)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"limit {rep.limit.value:.6f} agrees with oracle {rep.oracle_value:.6f}; "
              f"paper {rep.paper_value:.1f} flagged, {elapsed:.2f}s")


def test_criterion_4_operator_verification():
    field = laminar_field(ARC, UNIT)
    rng = np.random.default_rng(7)
    worst_rel, orders = 0.0, []
    for _ in range(50):
        s = rng.uniform(*ARC.s_range)
        r = rng.uniform(0.03, 0.45)
        x = to_cartesian(ARC, (s, r))
        t_hat = arc_tangent(ARC, s)
        expected, _ = analytic_laplacian(UNIT, ARC.delta, r)
        samples = []
        for h in (4e-3, 2e-3, 1e-3):
            lap = fd_laplacian(field, x, StencilSpec(h=h, order=2))
            samples.append((h, float(np.dot(lap, t_hat))))
        res = richardson(samples, order=2)
        worst_rel = max(worst_rel, abs(res.value - expected) / abs(expected))
        orders.append(res.observed_order)
    orders = np.array(orders)
    assert worst_rel <= 1e-6
    assert np.all(np.abs(orders - 2.0) <= 0.2)
    report(4, f"max rel error {worst_rel:.2e} after Richardson; "
              f"orders in [{orders.min():.2f}, {orders.max():.2f}]")


def test_criterion_5_advection_adjudication():
    field = laminar_field(ARC, UNIT)
    spec = StencilSpec(h=1e-4, order=4)
    scale = UNIT.alpha1**2 * ARC.delta
    matched = set()
    for r in (0.05, 0.1, 0.2):
        x = to_cartesian(ARC, (0.2, r))
        adv = fd_advection(field, x, spec)
        tang = float(np.dot(adv, arc_tangent(ARC, 0.2)))
        norm = float(np.dot(adv, arc_normal(ARC, 0.2)))
        assert abs(tang) <= 1e-8 * scale
        hits = [v for v in ("paper", "corrected")
                if abs(norm - advection(UNIT, ARC.delta, r, v)) <= 1e-6 * abs(norm)]
        assert hits == ["corrected"]  # exactly one variant
        matched.add(hits[0])
    assert matched == {"corrected"}
    report(5, "FD advection: tangential < 1e-8, normal matches the corrected "
              "variant only (erratum: printed form omits a factor h)")


def test_criterion_6_poincare_classification():
    field = laminar_field(ARC, UNIT)
    cfg = default_trace_config(ARC)
    worst = max(
        abs(poincare_L(field, ARC, 0.05, 0.3, r, cfg) / r - 1.0)
        for r in np.linspace(0.01, 0.3, 7)
    )
    assert worst <= 1e-6

    assert classify_flow(field, ARC, [0.2, 0.1, 0.05], 0.1, 0.25, 1.2, cfg).kind == "Parallel"

    source = to_cartesian(ARC, (-0.5, 0.0))
    fan = fan_field(source)
    ratios = [fan_expected_crossing(ARC, source, 0.1, 0.25, r) / r for r in (0.2, 0.1, 0.05)]
    assert min(ratios) > 1.2
    assert classify_flow(fan, ARC, [0.2, 0.1, 0.05], 0.1, 0.25, 1.2, cfg).kind == "StrongDiverging"

    weak = radial_growth_field(ARC, 1.0)
    kind = classify_flow(weak, ARC, [0.2, 0.1, 0.05, 0.025], 0.1, 0.25, 1.2, cfg).kind
    assert kind == "WeakDiverging"
    report(6, f"max |L(r)/r - 1| = {worst:.2e} on the parallel flow; "
              "fan -> StrongDiverging, quadratic-growth -> WeakDiverging")


def test_criterion_7_eta_geometric_ratio():
    gradp = stationary_gradp_field(ARC, UNIT)
    p_t, p_n = stationary_gradp_ansatz(UNIT, ARC.delta, 0.1)
    expected = abs(p_t) / float(np.hypot(p_t, p_n))
    res = eta_ratio(gradp, ARC, 0.15, 0.1, [4e-3, 2e-3, 1e-3])
    assert res.value == pytest.approx(expected, rel=1e-3)
    report(7, f"traced eta ratio {res.value:.6f} vs closed form {expected:.6f} (1e-3 rel)")


def test_criterion_8_zeta_machinery():
    params = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)

    rep = zeta_check(angular_pressure(ARC, params), ARC, params,
                     s=0.1, r_list=[0.04, 0.02, 0.01], eps_over_r=2.0)
    assert rep.ratio.value == pytest.approx(1.0, abs=1e-3)

    p_pert = perturbed_angular_pressure(ARC, params, amp=0.3)
    pert = zeta_check(p_pert, ARC, params, s=0.1, r_list=[0.08, 0.04, 0.02], eps_over_r=2.0)
    assert pert.bounds_hold
    assert np.isfinite(pert.fitted.c) and pert.fitted.c > 0
    assert 0 < pert.fitted.epsilon_hat < 0.5
    sm = pert.samples[0]
    errs = {n: abs(piecewise_linear_length(p_pert, ARC, sm, n) - sm.traced_length)
            for n in (32, 64, 128, 256)}
    for n in (32, 64, 128):
        assert errs[2 * n] <= errs[n] / 1.8  # order >= 1
    report(8, f"zeta ratio -> {rep.ratio.value:.6f}; bounds hold with fitted "
              f"c = {pert.fitted.c:.3f}, eps_hat = {pert.fitted.epsilon_hat:.3f}; "
              "piecewise-linear sums converge at order >= 1")


def test_criterion_9_simulation():
    start = time.perf_counter()
    # (a) discrete tangential viscous term vs P(r): the conservative stencil is
    # exact on the quadratic shear profile, so the error sits at solver
    # precision on every grid (stronger than the required order 2) ...
    for n in (16, 32, 64):
        cfg = SimConfig(arc=ARC, params=UNIT, n_s=n, n_r=n)
        state = init_sim(cfg)
        g = cfg.grid
        _, visc = _tangential_rhs(cfg, state.us, state.ur)
        expected, _ = analytic_laplacian(UNIT, ARC.delta, g.rho_c - ARC.delta)
        assert np.max(np.abs(UNIT.nu * visc[0, :] - UNIT.nu * expected)) <= 1e-9
    # ... and shows genuine second order on a non-polynomial profile
    errs = []
    for n in (16, 32, 64):
        cfg = SimConfig(arc=ARC, params=UNIT, n_s=n, n_r=n)
        g = cfg.grid
        k = np.pi / cfg.R_out
        us = np.tile(np.sin(k * (g.rho_c - ARC.delta)), (cfg.n_s, 1))
        ur = np.zeros((cfg.n_s, cfg.n_r + 1))
        _, visc = _tangential_rhs(cfg, us, ur)
        rho = g.rho_c
        u = np.sin(k * (rho - ARC.delta))
        exact = -k * k * u + k * np.cos(k * (rho - ARC.delta)) / rho - u / rho**2
        j = slice(2, cfg.n_r - 2)
        errs.append(np.max(np.abs(visc[0, j] - exact[j])))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.2)

    # (b) negative material-derivative ratio at probes r <= bl/4 on 128x64
    cfg = SimConfig(arc=ARC, params=UNIT, n_s=128, n_r=64)
    state = init_sim(cfg)
    probes = np.linspace(0.03, UNIT.bl / 4, 6)
    assert all(s.ratio < 0 for s in probe_diagnostics(state, cfg, probes))

    # (c) curvature monotonicity at matched r/delta
    mags = {}
    for delta in (0.5, 1.0):
        arc = ArcBoundary(delta, (0.0, 0.5 * delta))
        cfg_d = SimConfig(arc=arc, params=UNIT, n_s=64, n_r=64)
        st = init_sim(cfg_d)
        sample, = probe_diagnostics(st, cfg_d, [0.1 * delta])
        mags[delta] = abs(sample.ratio)
    assert mags[0.5] > mags[1.0]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(9, f"discrete visc matches P(r) at solver precision (operator order "
              f"{orders.mean():.2f} on a non-polynomial profile); ratios < 0 at "
              f"all near-wall probes; |ratio| {mags[0.5]:.2f} (d=0.5) > "
              f"{mags[1.0]:.2f} (d=1.0); {elapsed:.1f}s on 128x64")


def test_criterion_10_end_to_end_determinism(tmp_path):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"n_s": 16, "n_r": 16, "t_end": 0.002}))
    for command, args in (
        ("verify-theorem1", []),
        ("verify-theorem2", []),
        ("simulate", ["--config", str(sim_cfg)]),
    ):
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / command / name
            rc = cli_main([command, *args, "--out", str(out)])
            assert rc in (0, 2)
            payloads.append((out / "data.csv").read_bytes())
        assert payloads[0] == payloads[1]
    report(10, "byte-identical data.csv across repeated runs of "
               "verify-theorem1, verify-theorem2 and simulate")
