import csv
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse

from lamsep import nssim
from lamsep.errors import Diverged, ValidationError
from lamsep.field import LaminarParams, profile_h, wall_gradient, write_csv
from lamsep.geometry import ArcBoundary, to_cartesian
from lamsep.nssim import (
    SimConfig,
    _radial_rhs,
    _solve_neumann,
    _tangential_rhs,
    divergence,
    dump_field_csv,
    init_sim,
    kinetic_energy,
    probe_diagnostics,
    run_experiment,
    step,
    wall_noslip_residual,
)
from lamsep.theorems import derived_limit, paper_limit, theorem1_mismatch, theorem2_ratio

from conftest import GAP_CONFIGS

PARAMS = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)


def make_cfg(delta=1.0, n=24, angle=0.5, t_end=0.05, **kw):
    arc = ArcBoundary(delta, (0.0, angle * delta))
    return SimConfig(arc=arc, params=PARAMS, n_s=n, n_r=n, t_end=t_end, **kw)


def test_config_validation():
    with pytest.raises(ValidationError):
        make_cfg(n=8)
    with pytest.raises(ValidationError, match="s_range"):
        make_cfg(angle=7.0)  # more than 2*pi of wall
    with pytest.raises(ValidationError, match="dt = 1 exceeds half the radial_viscous step "
                                              "limit 0.00174"):
        make_cfg(dt=1.0)  # one step of t_end = 0.05, CFL 0.79
    for bad in ({"dt": 0.0}, {"dt": -1e-4}, {"dt": np.inf}, {"t_end": np.nan},
                {"t_end": 0.0}):
        with pytest.raises(ValidationError):
            make_cfg()._replace(**bad)
    # an angle beyond the float range, the profile speed across 2*bl beyond it,
    # and a bl that overflows to inf: each names the keys that set it
    for bad, key in (({"arc": ArcBoundary(1.0, (-1e308, 1e308))}, "s_range"),
                     ({"params": LaminarParams(1e300, 1.0, 1.0)}, "alpha1"),
                     ({"params": LaminarParams(1.0, 5e-324, 1.0)}, "alpha2")):
        with pytest.raises(ValidationError, match=key):
            make_cfg()._replace(**bad)
    # a cell height below the float spacing at delta, and a step limit that
    # underflows to 0 (0.25*drho**2/nu with drho about 1e-171): each names the
    # keys that set it
    for bad, key in (({"params": LaminarParams(1e-300, 1.0, 1.0)}, "alpha1"),
                     ({"arc": ArcBoundary(2e233, (0.0, 1e233))}, "delta"),
                     ({"arc": ArcBoundary(1e-200, (0.0, 5e-201)),
                       "params": LaminarParams(1e-170, 1.0, 1.0)}, "alpha1")):
        with pytest.raises(ValidationError, match=key):
            make_cfg()._replace(**bad)
    make_cfg()
    make_cfg(angle=2 * np.pi)


def test_a_refused_config_builds_no_projection_basis(monkeypatch):
    # the step count is refused from the grid spacing alone: the O(n_r**3)
    # radial basis of the projection waits for the first solve
    def no_basis(*args):
        raise AssertionError("a projection basis was built for a refused config")

    monkeypatch.setattr(nssim, "_neumann_factors", no_basis)
    with pytest.raises(ValidationError, match="t_end = 1e[+]06 needs more than 1000000 steps"):
        make_cfg(n=16)._replace(n_s=1, n_r=4096, t_end=1e6)


def test_init_divergence_and_noslip():
    cfg = make_cfg()
    state = init_sim(cfg)
    assert np.max(np.abs(divergence(cfg, state.us, state.ur))) <= 1e-8
    assert wall_noslip_residual(cfg, state) <= 1e-12
    assert np.all(state.ur == 0.0)
    assert np.all(state.p == 0.0)


def test_init_samples_profile():
    cfg = make_cfg()
    state = init_sim(cfg)
    g = cfg.grid
    expected = profile_h(PARAMS, g.rho_c - cfg.arc.delta)
    assert np.allclose(state.us, expected[None, :], atol=1e-14)


def _quadrature_head(params, delta, rho):
    """F(rho) = integral_delta^rho h(r'-delta)^2 / r' dr' at increasing ``rho``, by
    quadrature between neighbouring points."""
    edges = np.concatenate([[delta], rho])
    steps = [scipy.integrate.quad(lambda t: profile_h(params, t - delta) ** 2 / t, a, b,
                                  epsabs=0.0, epsrel=1e-13)[0]
             for a, b in zip(edges[:-1], edges[1:])]
    return np.cumsum(steps)


def test_initial_pressure_matches_sector_solution():
    # continuum solution of the periodic sector: p = F(rho), the centripetal
    # head, which the first step's projection sets
    errs = []
    for n in (16, 32, 64):
        cfg = make_cfg(delta=0.5, n=n)
        state = step(init_sim(cfg), cfg)
        g = cfg.grid
        p_star = _quadrature_head(PARAMS, 0.5, g.rho_c)[None, :]
        diff = state.p - p_star
        errs.append(np.max(np.abs(diff - diff.mean())))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.6)


def test_discrete_viscous_term_exact_on_profile():
    # the conservative stencil is exact on the quadratic shear profile, so the
    # t=0 tangential viscous term lands on P(r) at solver precision
    for n in (16, 32):
        cfg = make_cfg(n=n)
        state = init_sim(cfg)
        g = cfg.grid
        _, visc = _tangential_rhs(cfg, state.us, state.ur)
        r_nodes = g.rho_c - cfg.arc.delta
        from lamsep.field import analytic_laplacian

        expected, _ = analytic_laplacian(PARAMS, cfg.arc.delta, r_nodes)
        assert np.max(np.abs(PARAMS.nu * visc[0, :] - PARAMS.nu * expected)) <= 1e-11


def test_viscous_operator_order2_on_nonpolynomial_profile():
    # manufactured theta-uniform profile u(rho) = sin(pi*(rho-delta)/R_out);
    # interior nodes converge at second order to nu*(u'' + u'/rho - u/rho^2)
    errs = []
    for n in (16, 32, 64):
        cfg = make_cfg(n=n)
        g = cfg.grid
        k = np.pi / cfg.R_out
        us = np.tile(np.sin(k * (g.rho_c - cfg.arc.delta)), (cfg.n_s, 1))
        ur = np.zeros((cfg.n_s, cfg.n_r + 1))
        _, visc = _tangential_rhs(cfg, us, ur)
        rho = g.rho_c
        u = np.sin(k * (rho - cfg.arc.delta))
        up = k * np.cos(k * (rho - cfg.arc.delta))
        exact = -k * k * u + up / rho - u / rho**2
        # skip the first and last nodes: their ghosts assume the shear profile
        j = slice(2, cfg.n_r - 2)
        errs.append(np.max(np.abs(visc[0, j] - exact[j])))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.3)


def _manufactured_terms(cfg, theta, rho):
    """A smooth theta-periodic field that is zero at both radial walls,
    u_theta = A + B cos(k theta) and u_rho = C sin(k theta) with k = 2 pi/Theta,
    at (theta, rho): its two components, and the exact (advection, viscous)
    terms of each momentum equation.  The viscous terms leave out
    (1/rho**2) d2/dtheta2, which ``step`` takes implicitly."""
    q = np.pi / cfg.R_out
    x = q * (rho - cfg.arc.delta)
    k = 2.0 * np.pi / cfg.sector_angle
    a, a_r, a_rr = np.sin(x), q * np.cos(x), -q * q * np.sin(x)
    b, b_r, b_rr = 0.3 * np.sin(2 * x), 0.6 * q * np.cos(2 * x), -1.2 * q * q * np.sin(2 * x)
    c, c_r, c_rr = 0.2 * np.sin(x) ** 2, 0.2 * q * np.sin(2 * x), 0.4 * q * q * np.cos(2 * x)
    cos, sin = np.cos(k * theta), np.sin(k * theta)
    ut, ut_r, ut_rr, ut_th = a + b * cos, a_r + b_r * cos, a_rr + b_rr * cos, -k * b * sin
    ur, ur_r, ur_rr, ur_th = c * sin, c_r * sin, c_rr * sin, k * c * cos
    return ut, ur, {
        "tangential": (ur * ut_r + ut / rho * ut_th + ur * ut / rho,
                       ut_rr + ut_r / rho - ut / rho**2 + 2.0 / rho**2 * ur_th),
        "radial": (ur * ur_r + ut / rho * ur_th - ut**2 / rho,
                   ur_rr + ur_r / rho - ur / rho**2 - 2.0 / rho**2 * ut_th),
    }


@pytest.mark.parametrize("component, term", [("tangential", "advection"),
                                             ("radial", "advection"), ("radial", "viscous")])
def test_theta_dependent_terms_converge_on_a_manufactured_field(component, term):
    # each sign of the theta-coupled terms (the radial -(2/rho**2) d(u_theta)/dtheta,
    # the (u_theta/rho) d/dtheta advection) is read against its exact value
    errs = []
    for n in (16, 32, 64):
        cfg = make_cfg(n=n)
        g = cfg.grid
        # u_theta on the theta-faces i*dth at the cell centres, u_rho at the
        # cell centres' theta on every rho-face
        us, _, at_us = _manufactured_terms(cfg, g.dth * np.arange(n)[:, None],
                                           g.rho_c[None, :])
        _, ur, at_ur = _manufactured_terms(cfg, g.theta_c[:, None], g.rho_f[None, :])
        if component == "tangential":
            neg_adv, visc = _tangential_rhs(cfg, us, ur)
            exact = at_us["tangential"]
        else:
            neg_adv, visc = _radial_rhs(cfg, us, ur)
            exact = tuple(e[:, 1:-1] for e in at_ur["radial"])  # the interior rho-faces
        got, want = (-neg_adv, exact[0]) if term == "advection" else (visc, exact[1])
        # skip the nodes next to each wall, whose stencils read the ghost cells
        errs.append(np.max(np.abs(got - want)[:, 1:-1]))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.3), (errs, orders)


def _reference_tangential_viscous(cfg, us, ur, i, j):
    """nu times the tangential viscous operator at theta-face i and cell j, one
    term at a time: radial flux form, theta second difference, -u/rho**2 and the
    +2/rho**2 d(u_r)/dtheta coupling (interior j: no ghost cell is read); and nu
    times its theta second difference alone."""
    g = cfg.grid
    rho, drh, dth = g.rho_c[j], g.drh, g.dth
    radial = (g.rho_f[j + 1] * (us[i, j + 1] - us[i, j])
              - g.rho_f[j] * (us[i, j] - us[i, j - 1])) / (rho * drh**2)
    theta = (us[i + 1, j] - 2.0 * us[i, j] + us[i - 1, j]) / (rho * dth) ** 2
    ur_c = [0.5 * (ur[k, j] + ur[k, j + 1]) for k in (i - 1, i)]
    coupling = 2.0 / rho**2 * (ur_c[1] - ur_c[0]) / dth
    nu = cfg.params.nu
    return nu * (radial + theta - us[i, j] / rho**2 + coupling), nu * theta


def test_probe_viscous_term_includes_the_theta_second_difference():
    # a theta-varying state, u_s = h * (1 + 0.1 sin(4 theta)) and a u_r wave: the
    # t = 0 budget's viscous term is the full operator, theta second difference
    # included (on a theta-uniform field that difference is exactly 0)
    cfg = make_cfg(n=24)._replace(params=LaminarParams(1.0, 1.0, 0.7))
    g = cfg.grid
    theta_f = g.dth * np.arange(cfg.n_s)
    h = profile_h(cfg.params, g.rho_c - cfg.arc.delta)
    us = h[None, :] * (1.0 + 0.1 * np.sin(4.0 * theta_f))[:, None]
    ur = 0.05 * np.outer(np.cos(3.0 * g.theta_c), np.sin(np.pi * (g.rho_f - g.delta) / cfg.R_out))
    p = np.zeros((cfg.n_s, cfg.n_r))
    state = nssim.SimState(us=us, ur=ur, p=p, k=0)
    cells = (1, 5, 11, 22)
    i = cfg.n_s // 2
    for sample, j in zip(probe_diagnostics(state, cfg, [(j + 0.5) * g.drh for j in cells]), cells):
        expected, theta = _reference_tangential_viscous(cfg, us, ur, i, j)
        assert sample.visc_t == pytest.approx(expected, rel=1e-12)
        # the theta term is 1-25 % of the whole here: leaving it out fails the check
        assert abs(theta) > 1e-2 * abs(expected)


def test_t0_ratio_matches_theorem_across_deltas():
    for delta in (0.5, 1.0, 2.0):
        cfg = make_cfg(delta=delta, n=32)
        state = init_sim(cfg)
        samples = probe_diagnostics(state, cfg, [x * delta for x in (0.06, 0.12, 0.2)])
        for s in samples:
            assert s.ratio == pytest.approx(float(theorem2_ratio(PARAMS, delta, s.r)), rel=1e-4)
            assert s.ratio < 0


def test_t0_ratio_negative_near_wall():
    cfg = make_cfg(n=32)
    state = init_sim(cfg)
    probes = np.linspace(0.03, PARAMS.bl / 4, 6)
    for sample in probe_diagnostics(state, cfg, probes):
        assert sample.ratio < 0


def test_curvature_monotonicity_at_matched_relative_height():
    ratios = {}
    for delta in (0.5, 1.0):
        cfg = make_cfg(delta=delta, n=64)
        state = init_sim(cfg)
        sample, = probe_diagnostics(state, cfg, [0.1 * delta])
        ratios[delta] = sample.ratio
    assert abs(ratios[0.5]) > abs(ratios[1.0])


def test_probe_outside_grid():
    cfg = make_cfg()
    state = init_sim(cfg)
    with pytest.raises(ValidationError, match=r"probe r = 5.0 outside \(0, "):
        probe_diagnostics(state, cfg, [5.0])


def test_zero_field_is_fixed_point():
    # without viscosity and the anchor pressure, a step of the zero field is
    # its advection and its projection: both must be exactly zero
    cfg = make_cfg(n=16, dt=1e-4)
    us = np.zeros((cfg.n_s, cfg.n_r))
    ur = np.zeros((cfg.n_s, cfg.n_r + 1))
    neg_adv_t, _ = _tangential_rhs(cfg, us, ur)
    neg_adv_r, _ = _radial_rhs(cfg, us, ur)
    assert np.array_equal(neg_adv_t, np.zeros((cfg.n_s, cfg.n_r)))
    assert np.array_equal(neg_adv_r, np.zeros((cfg.n_s, cfg.n_r - 1)))
    zero = np.zeros((cfg.n_s, cfg.n_r))
    assert np.array_equal(_solve_neumann(cfg, zero), zero)


def _reference_assemble(cfg):
    """The flux-form Laplacian built one cell at a time, periodic in theta."""
    g = cfg.grid
    n_s, n_r = cfg.n_s, cfg.n_r
    rows, cols, vals = [], [], []
    diag = np.zeros(n_s * n_r)

    def couple(ka, kb, c):
        rows.append(ka)
        cols.append(kb)
        vals.append(-c)
        diag[ka] += c

    for i in range(n_s):
        for j in range(n_r):
            me = i * n_r + j
            if j + 1 < n_r:
                couple(me, me + 1, g.rho_f[j + 1] * g.dth / g.drh)
            if j > 0:
                couple(me, me - 1, g.rho_f[j] * g.dth / g.drh)
            c_th = g.drh / (g.rho_c[j] * g.dth)
            for k in ((i + 1) % n_s, (i - 1) % n_s):
                couple(me, k * n_r + j, c_th)
    rows.extend(range(n_s * n_r))
    cols.extend(range(n_s * n_r))
    vals.extend(diag)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n_s * n_r, n_s * n_r))


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_centripetal_head_matches_quadrature(delta):
    # bl = a1/a2 from 0.25 to 10: the first step's pressure, the radial head,
    # from wall distances below 1e-3 delta to 80 delta, converges at second
    # order to the quadrature of h^2/rho
    for a1, a2 in ((1.0, 1.0), (2.5, 1.0), (5.0, 0.5), (0.5, 2.0)):
        params = LaminarParams(alpha1=a1, alpha2=a2, nu=1.0)
        arc = ArcBoundary(delta, (0.0, 0.5 * delta))
        errs = []
        for n_r in (128, 256):
            cfg = SimConfig(arc=arc, params=params, n_s=16, n_r=n_r)
            head = step(init_sim(cfg), cfg).p[0]
            quad = _quadrature_head(params, delta, cfg.grid.rho_c)
            errs.append(np.max(np.abs((head - head[0]) - (quad - quad[0]))) / np.max(quad))
        assert errs[0] / errs[1] > 2**1.6
        assert errs[1] <= 1e-4


def test_assemble_matches_cell_loop():
    # the operator the projection's theta-mode solver inverts is the matrix
    # built one cell at a time: solving against its columns gives back the
    # identity on zero-mean fields, with and without the Nyquist mode of an
    # even n_s
    for n_s, n_r in ((16, 24), (17, 19)):
        cfg = SimConfig(arc=make_cfg().arc, params=PARAMS, n_s=n_s, n_r=n_r)
        n = n_s * n_r
        a_ref = _reference_assemble(cfg).toarray()
        assert a_ref.shape == (n, n)
        eye = np.eye(n)
        for k in range(n):
            x = _solve_neumann(cfg, -a_ref[:, k].reshape(n_s, n_r))
            assert np.max(np.abs(x.ravel() - (eye[k] - 1.0 / n))) <= 1e-12


# alpha1/delta != alpha2 at every delta below: the wall gradient k is never 0
CURVED = LaminarParams(alpha1=2.0, alpha2=0.8, nu=1.0)


def _discrete_head(cfg, us):
    """H: 0 in the first cell, rising by drho * u_f**2 / rho_f across each interior
    rho-face, with u_f the face average of the initial profile."""
    g = cfg.grid
    head = [0.0]
    for j in range(1, cfg.n_r):
        u_f = 0.5 * (us[0, j - 1] + us[0, j])
        head.append(head[-1] + g.drh * u_f**2 / g.rho_f[j])
    return np.array(head)


def _reference_initial_rhs(cfg, us):
    """The right-hand side of the t = 0 pressure problem, one cell at a time: the
    net centrifugal flux rho_f * (u_f**2 / rho_f) * dtheta out through each
    interior rho-face (negated).  Theta wraps around, so no theta-face adds
    data: the wall gradient's k*delta*theta is a body force, not a pressure."""
    g = cfg.grid
    b = np.zeros((cfg.n_s, cfg.n_r))
    for i in range(cfg.n_s):
        for j in range(cfg.n_r):
            for face, sign in ((j + 1, -1.0), (j, 1.0)):
                if 0 < face < cfg.n_r:
                    u_f = 0.5 * (us[i, face - 1] + us[i, face])
                    b[i, j] += sign * u_f**2 * g.dth
    return b


@pytest.mark.parametrize("sector_angle", [0.5, 2 * np.pi])
@pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("n_s, n_r", [(16, 24), (24, 16), (17, 19), (1, 16), (2, 16)])
def test_separable_solves_match_cell_loop(n_s, n_r, delta, sector_angle):
    # the projection's theta-mode solver inverts the matrix built one cell at a
    # time, and the first step's pressure is the head H less its mean, which
    # solves the periodic problem of the t = 0 state exactly
    arc = ArcBoundary(delta, (0.0, sector_angle * delta))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=n_s, n_r=n_r)
    assert cfg.sector_angle == sector_angle
    rng = np.random.default_rng(n_s * n_r)

    b = rng.standard_normal((n_s, n_r))
    b -= b.mean()
    phi = _solve_neumann(cfg, b)
    a_ref = _reference_assemble(cfg)
    assert np.linalg.norm(a_ref @ phi.ravel() + b.ravel()) <= 1e-12 * np.linalg.norm(b)
    assert abs(phi.mean()) <= 1e-14

    cfg = cfg._replace(params=CURVED)
    state = init_sim(cfg)
    head = np.tile(_discrete_head(cfg, state.us), (n_s, 1))
    p1 = step(state, cfg).p
    assert np.max(np.abs(p1 - (head - head.mean()))) <= 1e-12 * np.max(np.abs(head))
    b = _reference_initial_rhs(cfg, state.us)
    a_ref = _reference_assemble(cfg)
    assert np.linalg.norm(a_ref @ head.ravel() - b.ravel()) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("n_s, n_r", [(16, 24), (32, 32), (17, 19)])
def test_initial_state_is_a_discrete_equilibrium(n_s, n_r, delta):
    # the first step's pressure balances the t = 0 discrete momentum terms on
    # every face: radially the centrifugal term of the radial update;
    # tangentially there is no advection, and the total pressure gradient, the
    # periodic pressure's plus the wall drive, is the wall gradient k*delta/rho_c
    arc = ArcBoundary(delta, (0.0, 0.5 * delta))
    cfg = SimConfig(arc=arc, params=CURVED, n_s=n_s, n_r=n_r)
    state = init_sim(cfg)
    p = step(state, cfg).p
    g = cfg.grid
    neg_adv_r, visc_r = _radial_rhs(cfg, state.us, state.ur)
    assert np.array_equal(visc_r, np.zeros_like(visc_r))
    radial = (p[:, 1:] - p[:, :-1]) / g.drh
    assert np.max(np.abs(radial - neg_adv_r)) <= 1e-12 * np.max(np.abs(neg_adv_r))
    neg_adv_t, _ = _tangential_rhs(cfg, state.us, state.ur)
    assert np.array_equal(neg_adv_t, np.zeros_like(neg_adv_t))
    k = CURVED.nu * (CURVED.alpha1 / delta - CURVED.alpha2)
    anchor = np.broadcast_to(k * delta / g.rho_c, (n_s, n_r))
    periodic = np.diff(p, axis=0, prepend=p[-1:]) / (g.rho_c * g.dth)
    tangential = g.drive + periodic
    assert np.max(np.abs(tangential - anchor)) <= 1e-12 * np.max(np.abs(anchor))


def test_projection_solve_to_roundoff(monkeypatch):
    # the cached theta-mode solve of the gauged all-Neumann system satisfies
    # the full system and leaves a divergence-free field to roundoff
    cfg = make_cfg(n=24)
    solves = []

    def recording_solve(cfg_, b):
        phi = _solve_neumann(cfg_, b)
        solves.append((b.ravel().copy(), phi.ravel().copy()))
        return phi

    monkeypatch.setattr(nssim, "_solve_neumann", recording_solve)
    state = init_sim(cfg)
    for _ in range(3):
        state = step(state, cfg)
    assert len(solves) == 3
    a_full = _reference_assemble(cfg)
    for b, phi in solves:
        assert np.linalg.norm(a_full @ phi + b) <= 1e-12 * np.linalg.norm(b)
        assert abs(phi.mean()) <= 1e-14
    assert np.array_equal(state.p.ravel(), solves[-1][1])  # the state's pressure is phi
    assert np.max(np.abs(divergence(cfg, state.us, state.ur))) <= 1e-12


def test_step_preserves_noslip_and_divergence():
    cfg = make_cfg(n=16)
    state = init_sim(cfg)
    for _ in range(3):
        state = step(state, cfg)
    assert wall_noslip_residual(cfg, state) <= 1e-12
    assert np.max(np.abs(divergence(cfg, state.us, state.ur))) <= 1e-8


def test_noslip_holds_at_both_walls_and_the_residual_reads_both(monkeypatch):
    # each wall's face value is the ghost quadratic's (3g + 6u_1 - u_2)/8; for any
    # u_s it is 0 to roundoff, at the outer wall as at the inner one
    cfg = make_cfg(n=16)
    us = np.random.default_rng(7).standard_normal((cfg.n_s, cfg.n_r))
    usg = nssim._us_with_ghosts(cfg, us)
    for g, u1, u2 in ((0, 1, 2), (-1, -2, -3)):
        face = (3.0 * usg[:, g] + 6.0 * usg[:, u1] - usg[:, u2]) / 8.0
        assert np.max(np.abs(face)) <= 1e-15 * np.max(np.abs(us)), g
    # a ghost column off by 1 at either wall alone moves that face by 3/8, and
    # the residual reports it
    ghosts = nssim._us_with_ghosts
    state = init_sim(cfg)._replace(us=us)
    for col in (0, -1):
        def off(cfg, us, col=col):
            usg = ghosts(cfg, us)
            usg[:, col] += 1.0
            return usg
        monkeypatch.setattr(nssim, "_us_with_ghosts", off)
        assert wall_noslip_residual(cfg, state) == pytest.approx(0.375), col


def test_first_step_follows_material_derivative():
    # at every node of the mid-sector column, du/dt over the first step is the
    # t = 0 material derivative nu*visc - k*delta/rho of the probes' budget
    # (no advection at t = 0); its error is O(dt) plus roundoff over dt
    for delta in (0.5, 1.0, 4.0):
        arc = ArcBoundary(delta, (0.0, 0.5 * delta))
        cfg = SimConfig(arc=arc, params=LaminarParams(2.0, 1.0, 1.0), n_s=32, n_r=32,
                        dt=1e-5, t_end=1e-5)
        s0 = init_sim(cfg)
        g = cfg.grid
        samples = probe_diagnostics(s0, cfg, g.rho_c - delta)
        assert len(samples) == cfg.n_r
        material = np.array([s.visc_t - s.gradp_t for s in samples])
        s1 = step(s0, cfg)
        i_mid = cfg.n_s // 2
        du_dt = (s1.us[i_mid] - s0.us[i_mid]) / cfg.effective_dt
        assert np.max(np.abs(du_dt - material)) <= 1e-8 * np.max(np.abs(material))
        assert material[0] < 0


@pytest.mark.parametrize("n_s", [16, 17])
def test_theta_uniform_start_stays_theta_uniform(n_s):
    # the periodic sector has no ends: a theta-uniform flow stays theta-uniform
    # (and u_r zero) to roundoff while the wall drive decelerates it
    arc = ArcBoundary(0.5, (0.0, 0.25))
    cfg = SimConfig(arc=arc, params=LaminarParams(2.0, 1.0, 1.0), n_s=n_s, n_r=16, t_end=0.5)
    s0 = init_sim(cfg)
    state = s0
    for _ in range(cfg.steps):
        state = step(state, cfg)
    scale = cfg.top_speed
    assert np.max(np.abs(state.us - s0.us)) > 0.1 * scale
    assert np.max(np.abs(state.us - state.us.mean(axis=0))) <= 1e-13 * scale
    assert np.max(np.abs(state.ur)) <= 1e-13 * scale


def _theta_uniform_run(cfg, steps):
    """The t = 0 probes of the theta-uniform start on every cell, its state after
    ``steps`` steps, and the probes then."""
    g = cfg.grid
    state = init_sim(cfg)
    t0 = probe_diagnostics(state, cfg, g.rho_c - g.delta)
    for _ in range(steps):
        state = step(state, cfg)
    return t0, state, probe_diagnostics(state, cfg, g.rho_c - g.delta)


@pytest.mark.parametrize("n_s", [1, 2])
def test_one_or_two_theta_cells_give_the_wide_sector_column(n_s):
    # a theta-uniform flow has no theta derivative, so a sector one or two cells
    # wide probes and steps as the mid column of a 32-cell one; its theta
    # neighbours are the wrapped cell itself
    arc = ArcBoundary(0.5, (0.0, 0.25))
    wide = SimConfig(arc=arc, params=CURVED, n_s=32, n_r=16, dt=1.5e-3, t_end=1.5e-3)
    ref_t0, ref, ref_probes = _theta_uniform_run(wide, 100)
    t0, state, probes = _theta_uniform_run(wide._replace(n_s=n_s), 100)
    scale = wide.top_speed
    assert np.max(np.abs(ref.us - wide.grid.u0)) > 0.1 * scale
    for got, want in ((t0, ref_t0), (probes, ref_probes)):
        for a, b in zip(got, want):
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-13 * max(abs(y), scale)
    i, i_ref = n_s // 2, wide.n_s // 2
    for a, b in ((state.us, ref.us), (state.ur, ref.ur), (state.p, ref.p)):
        assert np.max(np.abs(a[i] - b[i_ref])) <= 1e-13 * max(np.max(np.abs(b)), scale)


@pytest.mark.parametrize("n_s", [16, 17])
def test_step_commutes_with_a_theta_shift(n_s):
    # the sector has no ends: shifting a theta-varying state by k cells shifts
    # its explicit right-hand sides bit for bit and its step to roundoff
    arc = ArcBoundary(0.5, (0.0, 0.25))
    cfg = SimConfig(arc=arc, params=CURVED, n_s=n_s, n_r=16, dt=1e-3, t_end=1e-3)
    s0 = init_sim(cfg)
    rng = np.random.default_rng(n_s)
    us = s0.us * (1.0 + 0.1 * rng.standard_normal(s0.us.shape))
    ur = np.zeros_like(s0.ur)
    ur[:, 1:-1] = 0.1 * cfg.top_speed * rng.standard_normal((n_s, cfg.n_r - 1))
    state = s0._replace(us=us, ur=ur)
    stepped = step(state, cfg)
    for k in (1, 5):
        shifted = state._replace(us=np.roll(us, k, axis=0), ur=np.roll(ur, k, axis=0))
        for rhs in (_tangential_rhs, _radial_rhs):
            for a, b in zip(rhs(cfg, shifted.us, shifted.ur), rhs(cfg, us, ur)):
                assert np.array_equal(a, np.roll(b, k, axis=0))
        moved = step(shifted, cfg)
        for a, b in ((moved.us, stepped.us), (moved.ur, stepped.ur), (moved.p, stepped.p)):
            assert np.max(np.abs(a - np.roll(b, k, axis=0))) <= 1e-12 * np.max(np.abs(b))


def test_first_reversal_grows_with_delta_on_an_adverse_sweep():
    # alpha1/delta > alpha2 at delta = 0.25 .. 1.5: the wall drive opposes the
    # flow, and the near-wall probe reverses, later at a smaller curvature; each
    # t_end is about twice that onset.  At delta = 4 (alpha1/delta < alpha2)
    # the drive is favourable and nothing reverses
    params = LaminarParams(2.0, 1.0, 1.0)

    def first_reversal(delta, t_end):
        arc = ArcBoundary(delta, (0.0, 0.5 * delta))
        return run_experiment(SimConfig(arc=arc, params=params, n_s=16, n_r=16,
                                        t_end=t_end)).first_reversal

    onsets = [first_reversal(delta, t_end)[0]
              for delta, t_end in ((0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (1.5, 3.0))]
    assert None not in onsets
    assert all(a < b for a, b in zip(onsets, onsets[1:])), onsets
    assert all(t is None for t in first_reversal(4.0, 2.0))


def _channel_cfg(delta, t_end):
    """The README's reversal run: alpha1 = 2, alpha2 = nu = 1 on 32 radial
    cells; one theta cell, since a theta-uniform flow steps as any column of
    the 32 x 32 sector."""
    arc = ArcBoundary(delta, (0.0, 0.5 * delta))
    return SimConfig(arc=arc, params=LaminarParams(2.0, 1.0, 1.0), n_s=1, n_r=32, t_end=t_end)


def _channel_run(delta, t_end):
    return run_experiment(_channel_cfg(delta, t_end))


def test_readme_reversal_times():
    # the nearest probe first reads u_t < 0 at the times the README states,
    # rounded half up to 3 decimals
    stated = {0.25: 313, 0.5: 677, 1.0: 1461, 1.5: 2609}
    for delta, t_ms in stated.items():
        t = _channel_run(delta, 2.0 * delta).first_reversal[0]
        assert math.floor(1000.0 * t + 0.5) == t_ms, (delta, t)


def test_last_recorded_time_is_t_end():
    # 640 steps of 1/640: their running sum ends at 1.00000000000001
    rep = _channel_run(0.5, 1.0)
    assert rep.times.size == 641
    assert rep.times[-1] == 1.0 and rep.final_state.k == 640


def test_stepping_by_hand_ends_where_run_experiment_does():
    # the state counts its steps, so a caller's own loop ends on the step
    # count, and in the state run_experiment reports
    cfg = _channel_cfg(0.5, 1.0)
    state = init_sim(cfg)
    while state.k < cfg.steps:
        state = step(state, cfg)
    assert state.k == cfg.steps == 640
    final = run_experiment(cfg).final_state
    assert final.k == state.k
    for name in ("us", "ur", "p"):
        assert np.array_equal(getattr(final, name), getattr(state, name)), name


def test_energy_dissipates_over_100_steps():
    cfg = make_cfg(n=24)
    state = init_sim(cfg)
    e0 = kinetic_energy(state, cfg)
    for _ in range(100):
        state = step(state, cfg)
    assert kinetic_energy(state, cfg) <= e0 * (1.0 + 1e-3)


@pytest.mark.parametrize("bad", ["fast", "nan"])
def test_step_raises_diverged_past_ten_times_the_top_speed(bad):
    cfg = make_cfg(n=16)
    state = init_sim(cfg)
    if bad == "fast":
        us = 11.0 * state.us
        assert np.max(np.abs(us)) == pytest.approx(11.0 * cfg.top_speed)
    else:  # a NaN fails every comparison, so the guard is written to fail on it
        us = state.us.copy()
        us[3, 5] = np.nan
    with pytest.raises(Diverged, match=r"exceeded 10x .* at t=0\.0 \(step 1 of "):
        step(state._replace(us=us), cfg)


def test_dt_halving_first_order():
    probes = [0.1]
    finals = []
    for dt in (2e-4, 1e-4, 5e-5):
        cfg = make_cfg(n=20, dt=dt, t_end=0.02)
        rep = run_experiment(cfg, probes)
        finals.append(rep.u_t[-1][0])
    ratio = (finals[0] - finals[1]) / (finals[1] - finals[2])
    assert ratio == pytest.approx(2.0, abs=0.3)


def test_zero_viscosity_limit_sanity():
    params = LaminarParams(1.0, 1.0, 1e-4)
    arc = ArcBoundary(5.0, (0.0, 2.5))
    cfg = SimConfig(arc=arc, params=params, n_s=16, n_r=16, t_end=0.05)
    rep = run_experiment(cfg)
    assert max(abs(s.ratio) for s in rep.t0_samples) < 1e-3
    assert np.max(np.abs(rep.u_t[-1] - rep.u_t[0])) < 1e-4


def test_experiment_report_and_csv(tmp_path):
    cfg = make_cfg(n=16, t_end=0.005)
    rep = run_experiment(cfg)
    assert rep.u_t.shape[1] == len(rep.probe_r)
    assert all(t is None or t >= 0 for t in rep.first_reversal)
    path = tmp_path / "series.csv"
    write_csv(path, rep.CSV_HEADER, rep.rows())
    assert path.read_text().splitlines()[0] == "t,probe_r,u_t,ratio"


def test_stable_dt_respects_cfl():
    cfg = make_cfg(n=24)
    assert cfg.dt is None
    # t_end over the default step limit is exactly 72 here (and 288 on the finer
    # grid), so the equal steps to t_end are that limit itself
    assert cfg.steps == math.ceil(cfg.t_end / cfg._dt_limit) == 72
    assert cfg.effective_dt == cfg._dt_limit
    assert cfg.cfl() <= 0.5
    # computed once per config; _replace starts a new config with an empty cache
    assert cfg.effective_dt is cfg.effective_dt and cfg.top_speed is cfg.top_speed
    assert cfg.grid is cfg.grid and cfg._replace().grid is not cfg.grid
    finer = cfg._replace(n_s=48, n_r=48)
    assert finer.effective_dt == finer._dt_limit < cfg.effective_dt


def test_experiment_csv_long_format(tmp_path):
    cfg = make_cfg(n=16, t_end=0.002)
    rep = run_experiment(cfg)
    path = tmp_path / "series.csv"
    write_csv(path, rep.CSV_HEADER, rep.rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "t,probe_r,u_t,ratio"
    assert len(lines) == 1 + len(rep.times) * len(rep.probe_r)


def test_field_csv_xy_is_the_chart_of_each_row(tmp_path):
    # dump_field_csv charts one theta row at a time over all radii; each (x, y)
    # must be the one-point chart of its row's (s, r), bit for bit
    arc = ArcBoundary(1.7, (0.3, 1.15))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=16, n_r=18)
    path = tmp_path / "field.csv"
    dump_field_csv(init_sim(cfg), cfg, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.n_s * cfg.n_r
    for row in rows:
        xy = to_cartesian(arc, (float(row["s"]), float(row["r"])))
        assert (float(row["x"]), float(row["y"])) == xy


# ----------------------------------------------------------------------------
# the implicit theta-viscosity and the step rule
# ----------------------------------------------------------------------------


def _explicit_wall_tangential_limit(cfg):
    """The explicit viscous limit on the wall-tangential cell width, 0.25*(delta*dtheta)**2/nu."""
    return 0.25 * (cfg.arc.delta * cfg.grid.dth) ** 2 / cfg.params.nu


def _theta_line_reference(cfg, component):
    """I - nu*dt*T_theta/(rho*dtheta)**2 on every theta-line, built one cell at a
    time with theta wrapping around: the dense matrix over the unknowns
    (row-major [i, j])."""
    g = cfg.grid
    nu_dt = cfg.params.nu * cfg.effective_dt
    rho = g.rho_c if component == "us" else g.rho_f[1:-1]
    n_i, n_j = cfg.n_s, rho.size
    a = np.zeros((n_i * n_j, n_i * n_j))
    for i in range(n_i):
        for j in range(n_j):
            me = i * n_j + j
            c = nu_dt / (rho[j] * g.dth) ** 2
            a[me, me] += 1.0 + 2.0 * c
            for k in ((i - 1) % n_i, (i + 1) % n_i):
                a[me, k * n_j + j] -= c
    return a


@pytest.mark.parametrize("n", [16, 17])
def test_real_fft_modes_diagonalise_the_periodic_second_difference(n):
    # the grid's eigenvalues, one per real FFT mode, scale each mode of a random
    # theta-line into its periodic second difference (2 on the diagonal, -1 on
    # the two wrapped off-diagonals); with and without a Nyquist mode
    arc = ArcBoundary(1.0, (0.0, 0.5))
    eig = SimConfig(arc=arc, params=PARAMS, n_s=n, n_r=16).grid.eig
    assert eig.shape == (n // 2 + 1,)
    assert eig[0] == 0.0 and np.all(eig[1:] > 0)
    x = np.random.default_rng(n).standard_normal((n, 5))
    second = 2.0 * x - np.roll(x, 1, axis=0) - np.roll(x, -1, axis=0)
    got = np.fft.irfft(eig[:, None] * np.fft.rfft(x, axis=0), n, axis=0)
    assert np.max(np.abs(got - second)) <= 1e-14 * np.max(np.abs(second))


@pytest.mark.parametrize("delta", [0.25, 4.0])
@pytest.mark.parametrize("n_s, n_r", [(16, 24), (24, 16), (17, 19)])
def test_theta_line_solves_match_cell_loop(n_s, n_r, delta):
    # the one theta-line solve inverts both components' periodic matrices built
    # one cell at a time, at a stiff nu*dt: 20x the old explicit limit, or the
    # largest valid step, half the radial-viscous limit, where that is smaller
    # (at delta = 4 the tangential cells are wider than the radial ones)
    arc = ArcBoundary(delta, (0.0, 0.5 * delta))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=n_s, n_r=n_r)
    dt = min(20.0 * _explicit_wall_tangential_limit(cfg), 0.5 * cfg._dt_limits["radial_viscous"])
    cfg = cfg._replace(dt=dt, t_end=1.0)
    rng = np.random.default_rng(n_s * n_r)

    # one stacked solve: the u_s lines in the first n_r columns, the u_r lines
    # in the n_r - 1 after them
    f_s = rng.standard_normal((n_s, n_r))
    f_r = rng.standard_normal((n_s, n_r - 1))
    x = nssim._scale_theta_modes(np.concatenate([f_s, f_r], axis=1), cfg._theta_damping)
    for component, f, x_c in (("us", f_s, x[:, :n_r]), ("ur", f_r, x[:, n_r:])):
        a = _theta_line_reference(cfg, component)
        assert np.linalg.norm(a @ x_c.ravel() - f.ravel()) <= 1e-12 * np.linalg.norm(f)


def test_steps_far_beyond_the_old_tangential_limit_stay_bounded():
    # 50 steps at 20x the explicit limit on the wall-tangential cell width: an
    # explicit theta second difference multiplies its highest mode by about
    # 1 - 20*4 each step and diverges; the implicit one damps it
    arc = ArcBoundary(1.0, (0.0, 0.5))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=48, n_r=16)
    dt = 20.0 * _explicit_wall_tangential_limit(cfg)
    cfg = cfg._replace(dt=dt, t_end=50 * dt)
    assert cfg.effective_dt == pytest.approx(dt, rel=1e-12)
    state = init_sim(cfg)
    for _ in range(50):
        state = step(state, cfg)
    assert np.max(np.abs(state.us)) <= 1.5 * cfg.top_speed
    assert np.max(np.abs(state.ur)) <= 0.5 * cfg.top_speed
    assert np.max(np.abs(divergence(cfg, state.us, state.ur))) <= 1e-8
    assert wall_noslip_residual(cfg, state) <= 1e-12


@pytest.mark.parametrize("kw", [{}, {"n": 16, "t_end": 0.002}, {"dt": 3e-4, "t_end": 0.002},
                                {"dt": 1e-4, "t_end": 0.05}, {"delta": 4.0, "t_end": 0.0123}])
def test_run_ends_at_t_end_in_equal_steps_within_the_limit(kw):
    cfg = make_cfg(**kw)
    limit = cfg._dt_limit
    assert cfg.effective_dt <= limit
    assert cfg.steps == max(1, math.ceil(cfg.t_end / limit))
    rep = run_experiment(cfg)
    assert len(rep.times) == cfg.steps + 1
    assert rep.times[-1] == pytest.approx(cfg.t_end, rel=1e-12, abs=0.0)
    assert np.allclose(np.diff(rep.times), cfg.effective_dt, rtol=1e-12, atol=0.0)


def test_step_count_rounds_up_where_the_quotient_rounds_down():
    # a dt just below t_end / k needs k + 1 steps; for some k the quotient
    # t_end / dt rounds down onto k itself, and the count must still be k + 1
    # (t_end / 1 is below half the radial-viscous limit, so every dt is valid)
    cfg, t_end = make_cfg(), 5e-4
    rounded_onto_k = 0
    for k in range(1, 400):
        dt = math.nextafter(t_end / k, 0.0)
        rounded_onto_k += t_end / dt == k
        c = cfg._replace(dt=dt, t_end=t_end)
        assert c.steps == k + 1
        assert c.effective_dt <= dt
    assert rounded_onto_k > 0


def test_dt_bound_names_the_binding_limit():
    assert make_cfg(dt=1e-4).dt_bound == "given"
    assert make_cfg(n=24).dt_bound == "radial_viscous"
    # at a thousandth of the viscosity, advection across the tangential cell binds
    slow = make_cfg(n=24)._replace(params=LaminarParams(1.0, 1.0, 1e-3))
    assert slow.dt_bound == "advective"
    assert slow._dt_limit == pytest.approx(0.4 * (1.0 * slow.grid.dth) / slow.top_speed)
    # one step, shorter than the limit: t_end sets it
    for short in (make_cfg(t_end=1e-5), make_cfg(dt=1e-4, t_end=1e-5)):
        assert short.steps == 1 and short.dt_bound == "t_end"


def _assert_default_step_is_advective_and_bounded(nu):
    """At a 24 x 24 config of viscosity ``nu``, where advection binds: the default
    step is 0.4 of the advective and radial limits alone, and 30 such steps stay
    bounded and divergence-free."""
    base = make_cfg(n=24)
    dth = base.grid.dth
    advective = dth / base.top_speed  # delta = 1: the tangential cell is the smallest
    cfg = base._replace(params=LaminarParams(1.0, 1.0, nu))
    radial = 0.25 * cfg.grid.drh ** 2 / nu
    assert cfg._dt_limit == pytest.approx(0.4 * min(advective, radial), rel=1e-12)
    assert cfg.dt_bound == "advective"
    cfg = cfg._replace(t_end=30 * cfg.effective_dt)
    state = init_sim(cfg)
    for _ in range(cfg.steps):
        state = step(state, cfg)
    assert np.max(np.abs(state.us)) <= 1.5 * cfg.top_speed
    assert np.max(np.abs(divergence(cfg, state.us, state.ur))) <= 1e-8


def _nu_with_gain(gain):
    """The viscosity at which leaving the wall-tangential limit out of the default
    step of a 24 x 24 config cuts the explicit step count ``gain`` times."""
    base = make_cfg(n=24)
    dth = base.grid.dth
    return gain * 0.25 * dth**2 * base.top_speed / dth


def test_default_step_where_advection_binds_stays_bounded():
    # at nu = 1e-3, and where dropping the wall-tangential limit cuts nothing
    for nu in (1e-3, _nu_with_gain(1.0)):
        _assert_default_step_is_advective_and_bounded(nu)


@pytest.mark.parametrize("side", [0.8, 1.25])
def test_theta_viscosity_is_implicit_where_it_cuts_the_step_count_enough(side):
    # each side of a 3x cut of the explicit step count (2.4x and 3.75x), the
    # theta-lines are implicit: the default step leaves the wall-tangential limit
    # out, so it is side * 3 times 0.4 of that limit
    gain = side * 3.0
    cfg = make_cfg(n=24)._replace(params=LaminarParams(1.0, 1.0, _nu_with_gain(gain)))
    assert cfg._dt_limit == pytest.approx(0.4 * gain * _explicit_wall_tangential_limit(cfg),
                                           rel=1e-12)
    _assert_default_step_is_advective_and_bounded(cfg.params.nu)


# the benchmark's sim-default configs of seed 1: 32 x 32, bl = alpha1/alpha2 = 2.5,
# and t_end = 150 steps of the explicit scheme, 150 / (10 * 64**2) * delta**2 / nu
SIM_DEFAULT_SEED_1 = LaminarParams(4.098607258776841, 4.098607258776841 / 2.5,
                                   1.749577941590583)


def _sim_default_configs():
    nu = SIM_DEFAULT_SEED_1.nu
    return [SimConfig(arc=ArcBoundary(delta, (0.0, 0.5 * delta)),
                      params=SIM_DEFAULT_SEED_1, n_s=32, n_r=32,
                      t_end=150 / (10.0 * 64**2) * delta * delta / nu)
            for delta in (1.0, 2.0, 4.0)]


def _final_u_t(cfg, dt=None):
    return run_experiment(cfg if dt is None else cfg._replace(dt=dt)).u_t[-1]


def test_default_dt_time_error_on_sim_default_configs():
    # the final probe u_t at the default dt is within 2e-3 relative of a dt/16 run,
    # and that error shrinks at least 3x from dt to dt/4 (first order: 5x)
    for cfg in _sim_default_configs():
        dt = cfg.effective_dt
        ref = _final_u_t(cfg, dt / 16)
        err = np.max(np.abs(_final_u_t(cfg) - ref) / np.abs(ref))
        err_quarter = np.max(np.abs(_final_u_t(cfg, dt / 4) - ref) / np.abs(ref))
        assert err <= 2e-3
        assert err >= 3.0 * err_quarter


def test_validate_refuses_a_huge_grid_before_allocating(monkeypatch):
    # 8388608 x 16 would need about 1e6 GiB: the config is refused before any
    # grid is built
    def no_grid(*args):
        raise AssertionError("a grid was built for a refused config")

    base = make_cfg()
    monkeypatch.setattr(nssim, "_Grid", no_grid)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="GiB"):
            base._replace(n_s=8388608, n_r=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the bound counts each step's arrays: those of 16 x 500000 alone need
    # about 3 GiB
    with pytest.raises(ValidationError, match="GiB"):
        base._replace(n_s=16, n_r=500000)
    # and the radial basis: 1 x 20000 has 7.7 MB of n_s x n_r arrays, but its
    # n_r x n_r basis and eigh need about 18 GiB
    with pytest.raises(ValidationError, match="GiB"):
        base._replace(n_s=1, n_r=20000)
    assert nssim._run_bytes(512, 512) <= nssim._MEMORY_LIMIT_BYTES


# ----------------------------------------------------------------------------
# the first step and the erratum; the outer wall's start (alpha1 = 2, alpha2 = nu = 1)
# ----------------------------------------------------------------------------

SHEAR_PARAMS = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)


def _shear_cfg(delta, n_s, n_r, **kw):
    arc = ArcBoundary(delta, (0.0, 0.5 * delta))
    return SimConfig(arc=arc, params=SHEAR_PARAMS, n_s=n_s, n_r=n_r, **kw)


def _wall_shear(cfg, us):
    """(9*u_1 - u_2)/(3*drho) at the inner wall, at the mid-sector column."""
    column = us[cfg.n_s // 2]
    return (9.0 * column[0] - column[1]) / (3.0 * cfg.grid.drh)


def _first_step_rate(cfg):
    """(tau(t_1) - tau(0))/dt of the inner wall shear tau after one step."""
    state = init_sim(cfg)
    return (_wall_shear(cfg, step(state, cfg).us) - _wall_shear(cfg, state.us)) / cfg.effective_dt


def _closed_form_tendency(delta, rho):
    """T(rho) = nu*(h'' + h'/rho - h/rho**2) - k*delta/rho, h at rho - delta: the
    closed-form t = 0 tendency of the tangential velocity."""
    p, r = SHEAR_PARAMS, rho - delta
    h, h1 = profile_h(p, r), p.alpha1 - p.alpha2 * r
    return p.nu * (-p.alpha2 + h1 / rho - h / rho**2) - wall_gradient(p, delta) * delta / rho


@pytest.mark.parametrize("n_s", [1, 32])
@pytest.mark.parametrize("delta", [0.5, 1.0, 4.0])
def test_first_step_wall_shear_rate_is_the_stencils_closed_form_tendency(delta, n_s):
    # the rate is the shear stencil applied to the closed-form tendency at the
    # first two cell centres: it checks the stencils, both ghost rows and the
    # drive (no new dynamics), and depends on neither dt nor n_s
    cfg = _shear_cfg(delta, n_s, 32)
    rho = cfg.grid.rho_c
    expected = (9.0 * _closed_form_tendency(delta, rho[0])
                - _closed_form_tendency(delta, rho[1])) / (3.0 * cfg.grid.drh)
    assert _first_step_rate(cfg) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("delta, n_r, printed_gap", [(1.0, 64, 0.20), (0.5, 128, 0.15)])
def test_first_step_rate_is_the_derived_limit_not_the_printed_one(delta, n_r, printed_gap):
    # alpha1 times each closed form of the r -> 0 limit; measured 0.57 % and
    # 0.63 % from the derived rate, 32.6 % and 19.2 % from the printed one
    rate = _first_step_rate(_shear_cfg(delta, 1, n_r))
    derived = SHEAR_PARAMS.alpha1 * derived_limit(SHEAR_PARAMS, delta)
    printed = SHEAR_PARAMS.alpha1 * paper_limit(SHEAR_PARAMS, delta)
    assert abs(rate / derived - 1.0) <= 0.01
    assert abs(rate / printed - 1.0) > printed_gap


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_first_step_rate_converges_to_the_derived_limit_at_second_order(delta):
    # measured orders 1.63 / 1.79 at delta = 0.5 and 1.80 / 1.89 at delta = 1
    derived = SHEAR_PARAMS.alpha1 * derived_limit(SHEAR_PARAMS, delta)
    err = [abs(_first_step_rate(_shear_cfg(delta, 1, n_r)) - derived) for n_r in (32, 64, 128)]
    for coarse, fine in zip(err, err[1:]):
        assert 1.5 <= math.log2(coarse / fine) <= 2.2


@pytest.mark.parametrize("n_s", [1, 32])
@pytest.mark.parametrize("a1, a2, nu, delta", GAP_CONFIGS)
def test_first_step_is_minus_nu_times_theorem1_gap(a1, a2, nu, delta, n_s):
    # the closed-form t = 0 tendency nu*(h'' + h'/rho - h/rho**2) - k*delta/rho
    # reduces to -nu*M(rho - delta), theorem 1's gap: the first step slows each
    # cell at the rate nu*M.  theorem1_mismatch refuses r >= bl, so only the
    # cells inside the layer are compared.  Measured: at most 9.6e-13.
    params = LaminarParams(a1, a2, nu)
    cfg = SimConfig(arc=ArcBoundary(delta, (0.0, 0.5 * delta)), params=params, n_s=n_s, n_r=64)
    s0 = init_sim(cfg)
    i_mid = cfg.n_s // 2
    du_dt = (step(s0, cfg).us[i_mid] - s0.us[i_mid]) / cfg.effective_dt
    r = cfg.grid.rho_c - delta
    inside = r < params.bl
    rate = np.array([nu * theorem1_mismatch(params, delta, float(ri))[2] for ri in r[inside]])
    assert np.max(np.abs(du_dt[inside] + rate)) <= 1e-11 * np.max(rate)


@pytest.mark.parametrize("n_r", [32, 64])
@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_outer_wall_shear_grows_as_stokes_first_problem(delta, n_r):
    # the drive balances the start at the inner wall only: at the outer wall,
    # radius R = delta + 2*bl, the shear moves by 8*alpha1/(R*sqrt(pi))*sqrt(nu*t).
    # Measured within 0.9 % after 16 steps; after 4 the start's layer is not
    # resolved (1.5-1.9 %)
    base = _shear_cfg(delta, 1, n_r)
    cfg = base._replace(t_end=16 * base._dt_limit)
    assert cfg.steps == 16

    def outer_shear(us):
        return -(9.0 * us[0, -1] - us[0, -2]) / (3.0 * cfg.grid.drh)

    state = init_sim(cfg)
    tau0 = outer_shear(state.us)
    for _ in range(cfg.steps):
        state = step(state, cfg)
    p = SHEAR_PARAMS
    law = 8.0 * p.alpha1 * math.sqrt(p.nu) / ((delta + 2.0 * p.bl) * math.sqrt(math.pi))
    assert (outer_shear(state.us) - tau0) / math.sqrt(cfg.t_end) == pytest.approx(law, rel=0.02)
