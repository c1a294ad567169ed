import dataclasses

import numpy as np
import pytest
import scipy.sparse

from lamsep import nssim
from lamsep.errors import ConfigError, ProbeOutsideGrid
from lamsep.field import LaminarParams, profile_h, write_csv
from lamsep.geometry import ArcBoundary
from lamsep.nssim import (
    SimConfig,
    _centripetal_head,
    _grid,
    _radial_rhs,
    _solve_neumann,
    _tangential_rhs,
    divergence,
    init_sim,
    kinetic_energy,
    measure_ratio,
    probe_diagnostics,
    run_experiment,
    stable_dt,
    step,
    wall_noslip_residual,
)
from lamsep.theorems import theorem2_ratio

PARAMS = LaminarParams(alpha1=1.0, alpha2=1.0, nu=1.0)


def make_cfg(delta=1.0, n=24, **kw):
    arc = ArcBoundary(delta, 0.0, (0.0, 0.0), (0.0, 0.5 * delta))
    return SimConfig(arc=arc, params=PARAMS, n_s=n, n_r=n, sector_angle=0.5, **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        make_cfg(n=8).validate()
    with pytest.raises(ConfigError):
        make_cfg(r_out=0.5).validate()  # below 2*bl
    with pytest.raises(ConfigError):
        make_cfg(dt=1.0).validate()  # CFL blown
    for bad in ({"dt": 0.0}, {"dt": -1e-4}, {"dt": np.inf}, {"t_end": np.nan},
                {"t_end": 0.0}, {"sector_angle": np.nan}, {"sector_angle": 1e300}):
        with pytest.raises(ConfigError):
            dataclasses.replace(make_cfg(), **bad).validate()
    make_cfg().validate()


def test_init_divergence_and_noslip():
    cfg = make_cfg()
    state = init_sim(cfg)
    assert np.max(np.abs(divergence(cfg, state.us, state.ur))) <= 1e-8
    assert wall_noslip_residual(cfg, state) <= 1e-12
    assert np.all(state.ur == 0.0)


def test_init_samples_profile():
    cfg = make_cfg()
    state = init_sim(cfg)
    g = _grid(cfg)
    expected = profile_h(PARAMS, g.rho_c - cfg.arc.delta)
    assert np.allclose(state.us, expected[None, :], atol=1e-14)


def test_initial_pressure_matches_sector_solution():
    # continuum solution with the wall-anchored data: p = F(rho) + K*delta*theta
    errs = []
    for n in (16, 32, 64):
        cfg = make_cfg(delta=0.5, n=n)
        state = init_sim(cfg)
        g = _grid(cfg)
        k = PARAMS.nu * (PARAMS.alpha1 / 0.5 - PARAMS.alpha2)
        p_star = _centripetal_head(cfg, g.rho_c)[None, :] + k * 0.5 * g.theta_c[:, None]
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
        g = _grid(cfg)
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
        g = _grid(cfg)
        k = np.pi / cfg.R_out
        us = np.tile(np.sin(k * (g.rho_c - cfg.arc.delta)), (cfg.n_s + 1, 1))
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


def test_measure_ratio_matches_theorem_across_deltas():
    for delta in (0.5, 1.0, 2.0):
        cfg = make_cfg(delta=delta, n=32)
        state = init_sim(cfg)
        samples = probe_diagnostics(state, cfg, [x * delta for x in (0.06, 0.12, 0.2)])
        for s in samples:
            assert s.ratio == pytest.approx(float(theorem2_ratio(PARAMS, delta, s.r)), rel=1e-4)
            assert s.ratio < 0


def test_measure_ratio_negative_near_wall():
    cfg = make_cfg(n=32)
    state = init_sim(cfg)
    probes = np.linspace(0.03, PARAMS.bl / 4, 6)
    for r, ratio in measure_ratio(state, cfg, probes):
        assert ratio < 0


def test_curvature_monotonicity_at_matched_relative_height():
    ratios = {}
    for delta in (0.5, 1.0):
        cfg = make_cfg(delta=delta, n=64)
        state = init_sim(cfg)
        (_, ratio), = measure_ratio(state, cfg, [0.1 * delta])
        ratios[delta] = ratio
    assert abs(ratios[0.5]) > abs(ratios[1.0])


def test_probe_outside_grid():
    cfg = make_cfg()
    state = init_sim(cfg)
    with pytest.raises(ProbeOutsideGrid):
        probe_diagnostics(state, cfg, [5.0])


def test_zero_field_is_fixed_point():
    # without viscosity and the anchor pressure, a step of the zero field is
    # its advection and its projection: both must be exactly zero
    cfg = make_cfg(n=16, dt=1e-4)
    us = np.zeros((cfg.n_s + 1, cfg.n_r))
    ur = np.zeros((cfg.n_s, cfg.n_r + 1))
    neg_adv_t, _ = _tangential_rhs(cfg, us, ur)
    neg_adv_r, _ = _radial_rhs(cfg, us, ur)
    assert np.array_equal(neg_adv_t, np.zeros((cfg.n_s - 1, cfg.n_r)))
    assert np.array_equal(neg_adv_r, np.zeros((cfg.n_s, cfg.n_r - 1)))
    zero = np.zeros((cfg.n_s, cfg.n_r))
    assert np.array_equal(_solve_neumann(cfg, zero), zero)


def _reference_assemble(cfg, dirichlet_theta):
    """The flux-form Laplacian built one cell at a time."""
    g = _grid(cfg)
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
            if i + 1 < n_s:
                couple(me, me + n_r, c_th)
            elif dirichlet_theta:
                diag[me] += 2.0 * c_th
            if i > 0:
                couple(me, me - n_r, c_th)
            elif dirichlet_theta:
                diag[me] += 2.0 * c_th
    rows.extend(range(n_s * n_r))
    cols.extend(range(n_s * n_r))
    vals.extend(diag)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n_s * n_r, n_s * n_r))


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_centripetal_head_matches_quadrature(delta):
    import scipy.integrate

    # bl = a1/a2 from 0.25 to 10: the head spans u = (rho - delta)/delta from
    # below 1e-3 to 80, on both sides of the closed form's series switch at 1/2
    for a1, a2 in ((1.0, 1.0), (2.5, 1.0), (5.0, 0.5), (0.5, 2.0)):
        params = LaminarParams(alpha1=a1, alpha2=a2, nu=1.0)
        arc = ArcBoundary(delta, 0.0, (0.0, 0.0), (0.0, 0.5 * delta))
        cfg = SimConfig(arc=arc, params=params, n_s=16, n_r=256)
        rho = _grid(cfg).rho_c
        quad = np.array([
            scipy.integrate.quad(lambda t: profile_h(params, t - delta) ** 2 / t, delta, r,
                                 epsabs=0.0, epsrel=1e-13)[0]
            for r in rho
        ])
        head = _centripetal_head(cfg, rho)
        assert np.max(np.abs(head - quad)) <= 1e-12 * np.max(np.abs(quad))


@pytest.mark.parametrize("dirichlet_theta", [False, True])
def test_assemble_matches_cell_loop(dirichlet_theta):
    # the operator each theta-mode solver inverts is the matrix built one cell
    # at a time: solving against its columns gives back the identity (for the
    # all-Neumann matrix, the identity on zero-mean fields)
    cfg = SimConfig(arc=make_cfg().arc, params=PARAMS, n_s=16, n_r=24, sector_angle=0.5)
    n = cfg.n_s * cfg.n_r
    a_ref = _reference_assemble(cfg, dirichlet_theta).toarray()
    assert a_ref.shape == (n, n)
    eye = np.eye(n)
    for k in range(n):
        column = a_ref[:, k].reshape(cfg.n_s, cfg.n_r)
        if dirichlet_theta:
            x = _grid(cfg).dirichlet_theta.solve(column)
            expected = eye[k]
        else:
            x = _solve_neumann(cfg, -column)
            expected = eye[k] - 1.0 / n
        assert np.max(np.abs(x.ravel() - expected)) <= 1e-12


@pytest.mark.parametrize("sector_angle", [0.5, 2 * np.pi])
@pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("n_s, n_r", [(16, 24), (24, 16), (17, 19)])
def test_separable_solves_match_cell_loop(n_s, n_r, delta, sector_angle):
    # both theta-mode solvers invert the matrix built one cell at a time
    arc = ArcBoundary(delta, 0.0, (0.0, 0.0), (0.0, 0.5 * delta))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=n_s, n_r=n_r, sector_angle=sector_angle)
    rng = np.random.default_rng(n_s * n_r)

    b = rng.standard_normal((n_s, n_r))
    b -= b.mean()
    phi = _solve_neumann(cfg, b)
    a_neumann = _reference_assemble(cfg, dirichlet_theta=False)
    assert np.linalg.norm(a_neumann @ phi.ravel() + b.ravel()) <= 1e-12 * np.linalg.norm(b)
    assert abs(phi.mean()) <= 1e-14

    b = rng.standard_normal((n_s, n_r))
    x = _grid(cfg).dirichlet_theta.solve(b)
    a_dirichlet = _reference_assemble(cfg, dirichlet_theta=True)
    assert np.linalg.norm(a_dirichlet @ x.ravel() - b.ravel()) <= 1e-12 * np.linalg.norm(b)


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
    a_full = _reference_assemble(cfg, dirichlet_theta=False)
    for b, phi in solves:
        assert np.linalg.norm(a_full @ phi + b) <= 1e-12 * np.linalg.norm(b)
        assert abs(phi.mean()) <= 1e-14
    assert np.max(np.abs(divergence(cfg, state.us, state.ur))) <= 1e-12


def test_step_preserves_noslip_and_divergence():
    cfg = make_cfg(n=16)
    state = init_sim(cfg)
    for _ in range(3):
        state = step(state, cfg)
    assert wall_noslip_residual(cfg, state) <= 1e-12
    assert np.max(np.abs(divergence(cfg, state.us, state.ur))) <= 1e-8


def test_first_step_follows_material_derivative():
    # du/dt + advection at the first step equals the measured t=0 ratio times
    # the speed, up to the projection's flux correction
    cfg = make_cfg(n=24, dt=1e-4)
    s0 = init_sim(cfg)
    d0 = probe_diagnostics(s0, cfg, [0.12])[0]
    s1 = step(s0, cfg)
    g = _grid(cfg)
    i_mid = cfg.n_s // 2
    j = int(round(d0.r / g.drh - 0.5))
    du_dt = (s1.us[i_mid, j] - s0.us[i_mid, j]) / cfg.dt
    material = d0.ratio * d0.u_t
    # the projection enforces the pinned inflow flux, shifting du/dt by a
    # column-mean; the shift is bounded by the column-mean driving term
    assert abs(du_dt - material) < 1.0
    assert material < 0


def test_energy_dissipates_over_100_steps():
    cfg = make_cfg(n=24)
    state = init_sim(cfg)
    e0 = kinetic_energy(state, cfg)
    for _ in range(100):
        state = step(state, cfg)
    assert kinetic_energy(state, cfg) <= e0 * (1.0 + 1e-3)


def test_dt_halving_first_order():
    probes = [0.1]
    finals = []
    for dt in (2e-4, 1e-4, 5e-5):
        cfg = make_cfg(n=20, dt=dt, t_end=0.02)
        rep = run_experiment(cfg, probes)
        finals.append(rep.u_t[-1][0])
    ratio = (finals[0] - finals[1]) / (finals[1] - finals[2])
    assert ratio == pytest.approx(2.0, abs=0.3)


def test_dt_sweep_shares_one_grid_and_factorization():
    # the grid and both factored solvers live in one object per mesh
    before = nssim._mesh_grid.cache_info()
    grids = set()
    for dt in (2e-4, 1e-4, 5e-5):
        cfg = dataclasses.replace(make_cfg(n=20, dt=dt, t_end=0.02), sector_angle=0.55)
        step(init_sim(cfg), cfg)
        grids.add(id(_grid(cfg)))
    assert nssim._mesh_grid.cache_info().misses - before.misses == 1
    assert len(grids) == 1


def test_zero_viscosity_limit_sanity():
    params = LaminarParams(1.0, 1.0, 1e-4)
    arc = ArcBoundary(5.0, 0.0, (0.0, 0.0), (0.0, 2.5))
    cfg = SimConfig(arc=arc, params=params, n_s=16, n_r=16, sector_angle=0.5, t_end=0.05)
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
    assert cfg.effective_dt == stable_dt(cfg)
    assert cfg.cfl() <= 0.5


def test_experiment_csv_long_format(tmp_path):
    cfg = make_cfg(n=16, t_end=0.002)
    rep = run_experiment(cfg)
    path = tmp_path / "series.csv"
    write_csv(path, rep.CSV_HEADER, rep.rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "t,probe_r,u_t,ratio"
    assert len(lines) == 1 + len(rep.times) * len(rep.probe_r)
