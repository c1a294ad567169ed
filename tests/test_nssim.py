import csv
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from lamsep import nssim
from lamsep.errors import ConfigError, ProbeOutsideGrid
from lamsep.field import LaminarParams, profile_h, write_csv
from lamsep.geometry import ArcBoundary, to_cartesian
from lamsep.nssim import (
    SimConfig,
    _centripetal_head,
    _grid,
    _radial_rhs,
    _solve_neumann,
    _tangential_rhs,
    divergence,
    dump_field_csv,
    init_sim,
    kinetic_energy,
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
            make_cfg()._replace(**bad).validate()
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
        cfg = make_cfg(n=20, dt=dt, t_end=0.02)._replace(sector_angle=0.55)
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
    # t_end / stable_dt is exactly 72 here (and 288 on the finer grid), so the
    # equal steps to t_end are stable_dt itself
    assert cfg.steps == math.ceil(cfg.t_end / stable_dt(cfg)) == 72
    assert cfg.effective_dt == stable_dt(cfg)
    assert cfg.cfl() <= 0.5
    # computed once per config; _replace starts a new config with an empty cache
    assert cfg.effective_dt is cfg.effective_dt and cfg.top_speed is cfg.top_speed
    finer = cfg._replace(n_s=48, n_r=48)
    assert finer.effective_dt == stable_dt(finer) < cfg.effective_dt


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
    arc = ArcBoundary(1.7, 0.3, (0.4, -1.1), (0.0, 0.85))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=16, n_r=18, sector_angle=0.5)
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
    return 0.25 * (cfg.arc.delta * _grid(cfg).dth) ** 2 / cfg.params.nu


def _theta_line_reference(cfg, component):
    """I - nu*dt*T_theta/(rho*dtheta)**2 on every theta-line, built one cell at a time.

    Returns the dense matrix over the unknowns (row-major [i, j]) and, for u_s,
    the weights of the inflow and outflow faces, whose values are Dirichlet
    data moved to the right-hand side.
    """
    g = _grid(cfg)
    nu_dt = cfg.params.nu * cfg.effective_dt
    if component == "us":  # interior faces i = 1..n_s-1 at the cell-centre radii
        n_i, rho = cfg.n_s - 1, g.rho_c
    else:                  # all theta-centres at the interior rho-faces
        n_i, rho = cfg.n_s, g.rho_f[1:-1]
    n_j = rho.size
    a = np.zeros((n_i * n_j, n_i * n_j))
    ends = np.zeros((2, n_i, n_j))
    for i in range(n_i):
        for j in range(n_j):
            me = i * n_j + j
            c = nu_dt / (rho[j] * g.dth) ** 2
            a[me, me] += 1.0 + 2.0 * c
            for side, k in ((0, i - 1), (1, i + 1)):
                if 0 <= k < n_i:
                    a[me, k * n_j + j] -= c
                elif component == "us":
                    ends[side, i, j] += c       # the end face's value times c
                elif side == 0:                 # inflow ghost -2 u_0 + u_1 / 3
                    a[me, j] += 2.0 * c
                    a[me, n_j + j] -= c / 3.0
                else:                           # zero-gradient outflow ghost u_(n-1)
                    a[me, me] -= c
    return a, ends


@pytest.mark.parametrize("delta", [0.25, 4.0])
@pytest.mark.parametrize("n_s, n_r", [(16, 24), (24, 16), (17, 19)])
def test_theta_line_solves_match_cell_loop(n_s, n_r, delta):
    # the one theta-line solve inverts both components' matrices built one cell
    # at a time, at a stiff nu*dt (20x the old explicit limit)
    arc = ArcBoundary(delta, 0.0, (0.0, 0.0), (0.0, 0.5 * delta))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=n_s, n_r=n_r, sector_angle=0.5)
    cfg = cfg._replace(dt=20.0 * _explicit_wall_tangential_limit(cfg), t_end=1.0)
    lines = cfg._theta_lines
    rng = np.random.default_rng(n_s * n_r)

    # one stacked solve: the u_s lines in the first n_r columns (last row an
    # identity pad, which must neither change nor be changed by the lines),
    # the u_r lines in the n_r - 1 after them
    f_s = rng.standard_normal((n_s - 1, n_r))
    inflow, outflow, pad = rng.standard_normal((3, n_r))
    f_r = rng.standard_normal((n_s, n_r - 1))
    rhs = np.empty((n_s, 2 * n_r - 1))
    rhs[:-1, :n_r] = f_s
    rhs[-1, :n_r] = pad
    rhs[0, :n_r] += lines.us_end * inflow
    rhs[-2, :n_r] += lines.us_end * outflow
    rhs[:, n_r:] = f_r
    x = lines.factors.solve(rhs)

    a, ends = _theta_line_reference(cfg, "us")
    b = f_s + ends[0] * inflow + ends[1] * outflow
    assert np.linalg.norm(a @ x[:-1, :n_r].ravel() - b.ravel()) <= 1e-12 * np.linalg.norm(b)
    assert np.array_equal(x[-1, :n_r], pad)

    a, _ = _theta_line_reference(cfg, "ur")
    assert np.linalg.norm(a @ x[:, n_r:].ravel() - f_r.ravel()) <= 1e-12 * np.linalg.norm(f_r)


def test_steps_far_beyond_the_old_tangential_limit_stay_bounded():
    # 50 steps at 20x the explicit limit on the wall-tangential cell width: an
    # explicit theta second difference multiplies its highest mode by about
    # 1 - 20*4 each step and diverges; the implicit one damps it
    arc = ArcBoundary(1.0, 0.0, (0.0, 0.0), (0.0, 0.5))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=48, n_r=16, sector_angle=0.5)
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
    limit = stable_dt(cfg) if cfg.dt is None else cfg.dt
    assert cfg.effective_dt <= limit
    assert cfg.steps == max(1, math.ceil(cfg.t_end / limit))
    rep = run_experiment(cfg)
    assert len(rep.times) == cfg.steps + 1
    assert rep.times[-1] == pytest.approx(cfg.t_end, rel=1e-12, abs=0.0)
    assert np.allclose(np.diff(rep.times), cfg.effective_dt, rtol=1e-12, atol=0.0)


def test_step_count_rounds_up_where_the_quotient_rounds_down():
    # a dt just below t_end / k needs k + 1 steps; for some k the quotient
    # t_end / dt rounds down onto k itself, and the count must still be k + 1
    cfg, t_end = make_cfg(), 0.05
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
    assert stable_dt(slow) == pytest.approx(0.4 * (1.0 * _grid(slow).dth) / slow.top_speed)
    # one step, shorter than the limit: t_end sets it
    for short in (make_cfg(t_end=1e-5), make_cfg(dt=1e-4, t_end=1e-5)):
        assert short.steps == 1 and short.dt_bound == "t_end"


def _assert_default_step_is_advective_and_bounded(nu):
    """At a 24 x 24 config of viscosity ``nu``, where advection binds: the default
    step is 0.4 of the advective and radial limits alone, and 30 such steps stay
    bounded and divergence-free."""
    base = make_cfg(n=24)
    dth = _grid(base).dth
    advective = dth / base.top_speed  # delta = 1: the tangential cell is the smallest
    cfg = base._replace(params=LaminarParams(1.0, 1.0, nu))
    radial = 0.25 * _grid(cfg).drh ** 2 / nu
    assert stable_dt(cfg) == pytest.approx(0.4 * min(advective, radial), rel=1e-12)
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
    dth = _grid(base).dth
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
    assert stable_dt(cfg) == pytest.approx(0.4 * gain * _explicit_wall_tangential_limit(cfg),
                                           rel=1e-12)
    _assert_default_step_is_advective_and_bounded(cfg.params.nu)


# the benchmark's sim-default configs of seed 1: 32 x 32, bl = alpha1/alpha2 = 2.5,
# and t_end = 150 steps of the explicit scheme, 150 / (10 * 64**2) * delta**2 / nu
SIM_DEFAULT_SEED_1 = LaminarParams(4.098607258776841, 4.098607258776841 / 2.5,
                                   1.749577941590583)


def _sim_default_configs():
    nu = SIM_DEFAULT_SEED_1.nu
    return [SimConfig(arc=ArcBoundary(delta, 0.0, (0.0, 0.0), (0.0, 0.5 * delta)),
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

    monkeypatch.setattr(nssim, "_mesh_grid", no_grid)
    cfg = make_cfg()._replace(n_s=8388608, n_r=16)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="GiB"):
            init_sim(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the bound counts each step's arrays, not only the cached ones: 16 x 500000
    # caches about 0.7 GiB of factors but needs about 3 GiB at its peak
    with pytest.raises(ConfigError, match="GiB"):
        make_cfg()._replace(n_s=16, n_r=500000).validate()
    assert nssim._run_bytes(512, 512) <= nssim._MEMORY_LIMIT_BYTES
