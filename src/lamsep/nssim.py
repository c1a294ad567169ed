"""Unsteady incompressible Navier-Stokes on an annular sector.

Staggered (MAC) grid in polar coordinates (theta, rho): tangential velocity on
theta-faces, radial velocity on rho-faces, pressure at cell centers.  The
solver advances with explicit advection-diffusion followed by a pressure
projection (first order in time, second order in space, quadratic ghost cells
at the radial walls).  Internally the flow runs in the +theta direction; the
wall-arc coordinate is s = delta * theta, so +theta is the wall-tangent
direction e1 of the arc geometry.

Boundary conditions: no-slip at the inner wall, the initial profile pinned at
the outer radius, the shear profile at the inflow plane, convective outflow.
The t = 0 diagnostic pressure anchors the theta-boundary values to two exact
properties of the initial field: the wall pressure gradient
nu*(a1/delta - a2) along the wall, and the centripetal radial balance
dp/drho = h(rho-delta)**2/rho.  The measured interior tangential gradient is
reported next to the wall-anchored formula, never asserted equal to it.

Both pressure solves are direct.  The two flux-form Laplacians depend only on
the mesh (wall arc, sector angle, outer radius, grid size), not on dt, t_end or
the flow parameters, and they separate in theta: a cosine (Neumann planes) or
sine (Dirichlet planes) transform in theta leaves one tridiagonal system in rho
per theta-mode (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).  One
cached object per mesh (``_grid``) holds the grid arrays and both solvers'
transforms and Thomas factors, so configs that differ only in dt, t_end or the
flow parameters share it; every step then costs two (n_s x n_s) matrix
products and one batched pair of tridiagonal sweeps.  The all-Neumann
projection matrix is singular up to a constant, so its theta-mode 0 pins cell
j = 0 to zero and the solution is shifted to zero mean afterwards.  The
dropped equation holds automatically because the projection right-hand side
is made mean-free first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, Diverged, ProbeOutsideGrid
from .field import LaminarParams, profile_h, write_csv
from .geometry import ArcBoundary


@dataclass(frozen=True)
class SimConfig:
    arc: ArcBoundary
    params: LaminarParams
    sector_angle: float = 0.5
    r_out: float | None = None       # default 2 * boundary-layer thickness
    n_s: int = 32
    n_r: int = 32
    dt: float | None = None          # default 0.4 of the stability limit
    t_end: float = 0.05

    @property
    def R_out(self) -> float:
        return 2.0 * self.params.bl if self.r_out is None else self.r_out

    @property
    def effective_dt(self) -> float:
        return stable_dt(self) if self.dt is None else self.dt

    def validate(self) -> None:
        problems = []
        if self.n_s < 16 or self.n_r < 16:
            problems.append(f"grid must be at least 16x16, got {self.n_s}x{self.n_r}")
        if not np.isfinite(self.R_out) or self.R_out <= 0:
            problems.append(f"R_out must be finite and positive, got {self.R_out}")
        elif np.isfinite(self.params.bl) and self.R_out < 2.0 * self.params.bl:
            problems.append(f"R_out = {self.R_out} < 2*bl = {2 * self.params.bl}")
        if not (0 < self.sector_angle <= 2 * math.pi):
            problems.append(f"sector_angle must be in (0, 2*pi], got {self.sector_angle}")
        if self.dt is not None and not (0 < self.dt < math.inf):
            problems.append(f"dt must be finite and positive, got {self.dt}")
        if not (0 < self.t_end < math.inf):
            problems.append(f"t_end must be finite and positive, got {self.t_end}")
        if not problems:
            cfl = self.cfl()
            if cfl > 0.5:
                problems.append(f"CFL = {cfl:.3f} exceeds 0.5")
        if problems:
            raise ConfigError("; ".join(problems))

    def cfl(self) -> float:
        g = _grid(self)
        umax = float(np.max(np.abs(profile_h(self.params, g.rho_c - self.arc.delta))))
        return umax * self.effective_dt / min(self.arc.delta * g.dth, g.drh)


def stable_dt(cfg: SimConfig) -> float:
    """0.4 of the explicit advective/viscous stability limit."""
    g = _grid(cfg)
    umax = float(np.max(np.abs(profile_h(cfg.params, g.rho_c - cfg.arc.delta))))
    h_min = min(cfg.arc.delta * g.dth, g.drh)
    dt_adv = h_min / umax if umax > 0 else math.inf
    dt_visc = 0.25 * h_min**2 / cfg.params.nu
    return 0.4 * min(dt_adv, dt_visc)


@dataclass(frozen=True)
class SimState:
    us: np.ndarray   # (n_s + 1, n_r) tangential velocity at theta-faces
    ur: np.ndarray   # (n_s, n_r + 1) radial velocity at rho-faces
    p: np.ndarray    # (n_s, n_r) pressure at cell centers
    t: float
    # fixed wall-anchored background pressure driving the momentum update;
    # the projection potential only corrects divergence on top of it
    p_anchor: np.ndarray


class _Grid:
    """One mesh's arrays and both factored pressure solvers; see ``_grid``."""

    def __init__(self, arc: ArcBoundary, sector_angle: float, R_out: float, n_s: int, n_r: int):
        self.delta = arc.delta
        self.dth = sector_angle / n_s
        self.drh = R_out / n_r
        self.rho_f = self.delta + self.drh * np.arange(n_r + 1)
        self.rho_c = self.delta + self.drh * (np.arange(n_r) + 0.5)
        self.theta_c = self.dth * (np.arange(n_s) + 0.5)
        self.neumann = _separable(self, dirichlet_theta=False)
        self.dirichlet_theta = _separable(self, dirichlet_theta=True)


def _grid(cfg: SimConfig) -> _Grid:
    """The grid of the config's mesh (arc, sector angle, R_out, n_s, n_r).

    Configs that differ only in dt, t_end or the flow parameters share one
    cached grid, and so one pair of factored Laplacians.
    """
    return _mesh_grid(cfg.arc, cfg.sector_angle, cfg.R_out, cfg.n_s, cfg.n_r)


@lru_cache(maxsize=16)
def _mesh_grid(arc: ArcBoundary, sector_angle: float, R_out: float, n_s: int, n_r: int) -> _Grid:
    return _Grid(arc, sector_angle, R_out, n_s, n_r)


# ----------------------------------------------------------------------------
# ghost cells (quadratic through the boundary value: second-order walls)
# ----------------------------------------------------------------------------


def _us_with_radial_ghosts(cfg: SimConfig, us: np.ndarray) -> np.ndarray:
    """Append ghost columns below the wall (value 0) and above the outer radius."""
    outer = profile_h(cfg.params, cfg.R_out)
    ghost_wall = -2.0 * us[:, 0] + us[:, 1] / 3.0
    ghost_out = (8.0 / 3.0) * outer - 2.0 * us[:, -1] + us[:, -2] / 3.0
    return np.concatenate([ghost_wall[:, None], us, ghost_out[:, None]], axis=1)


def _ur_with_theta_ghosts(ur: np.ndarray) -> np.ndarray:
    """Prepend the inflow ghost (u_r = 0 on the plane), append outflow zero-gradient."""
    ghost_in = -2.0 * ur[0, :] + ur[1, :] / 3.0
    ghost_out = ur[-1, :]
    return np.concatenate([ghost_in[None, :], ur, ghost_out[None, :]], axis=0)


def wall_noslip_residual(cfg: SimConfig, state: SimState) -> float:
    """Tangential wall velocity implied by the ghost construction (0 to roundoff)."""
    usg = _us_with_radial_ghosts(cfg, state.us)
    wall = (3.0 * usg[:, 0] + 6.0 * usg[:, 1] - usg[:, 2]) / 8.0
    return float(np.max(np.abs(wall)))


# ----------------------------------------------------------------------------
# discrete operators
# ----------------------------------------------------------------------------


def _tangential_rhs(cfg: SimConfig, us: np.ndarray, ur: np.ndarray):
    """(-advection, viscous) tangential terms at interior theta-faces i=1..n_s-1."""
    g = _grid(cfg)
    usg = _us_with_radial_ghosts(cfg, us)           # (n_s+1, n_r+2)
    rc = g.rho_c[None, :]
    us_i = us[1:-1, :]                               # interior faces

    dus_dr = (usg[1:-1, 2:] - usg[1:-1, :-2]) / (2 * g.drh)
    dus_dth = (us[2:, :] - us[:-2, :]) / (2 * g.dth)
    # radial velocity averaged to the us nodes
    ur_c = 0.5 * (ur[:, :-1] + ur[:, 1:])            # (n_s, n_r) at theta-centers
    ur_at_us = 0.5 * (ur_c[:-1, :] + ur_c[1:, :])    # (n_s-1, n_r) at interior faces
    adv = ur_at_us * dus_dr + us_i / rc * dus_dth + ur_at_us * us_i / rc

    lap_r = (
        g.rho_f[None, 1:] * (usg[1:-1, 2:] - usg[1:-1, 1:-1])
        - g.rho_f[None, :-1] * (usg[1:-1, 1:-1] - usg[1:-1, :-2])
    ) / (rc * g.drh**2)
    lap_th = (us[2:, :] - 2 * us_i + us[:-2, :]) / (rc**2 * g.dth**2)
    dur_dth = (ur_c[1:, :] - ur_c[:-1, :]) / g.dth
    visc = lap_r + lap_th - us_i / rc**2 + 2.0 / rc**2 * dur_dth
    return -adv, visc


def _radial_rhs(cfg: SimConfig, us: np.ndarray, ur: np.ndarray):
    """(-advection, viscous) radial terms at interior rho-faces j=1..n_r-1."""
    g = _grid(cfg)
    urg = _ur_with_theta_ghosts(ur)                  # (n_s+2, n_r+1)
    rf = g.rho_f[None, 1:-1]
    ur_i = ur[:, 1:-1]

    dur_dr = (ur[:, 2:] - ur[:, :-2]) / (2 * g.drh)
    dur_dth = (urg[2:, 1:-1] - urg[:-2, 1:-1]) / (2 * g.dth)
    # tangential velocity averaged to the ur nodes
    us_f = 0.5 * (us[:, :-1] + us[:, 1:])            # (n_s+1, n_r-1) at rho-faces
    us_at_ur = 0.5 * (us_f[:-1, :] + us_f[1:, :])    # (n_s, n_r-1)
    adv = ur_i * dur_dr + us_at_ur / rf * dur_dth - us_at_ur**2 / rf

    lap_r = (
        g.rho_c[None, 1:] * (ur[:, 2:] - ur_i)
        - g.rho_c[None, :-1] * (ur_i - ur[:, :-2])
    ) / (rf * g.drh**2)
    lap_th = (urg[2:, 1:-1] - 2 * ur_i + urg[:-2, 1:-1]) / (rf**2 * g.dth**2)
    dus_dth = (us_f[1:, :] - us_f[:-1, :]) / g.dth
    visc = lap_r + lap_th - ur_i / rf**2 - 2.0 / rf**2 * dus_dth
    return -adv, visc


def divergence(cfg: SimConfig, us: np.ndarray, ur: np.ndarray) -> np.ndarray:
    g = _grid(cfg)
    rad = (g.rho_f[None, 1:] * ur[:, 1:] - g.rho_f[None, :-1] * ur[:, :-1]) / (
        g.rho_c[None, :] * g.drh
    )
    tan = (us[1:, :] - us[:-1, :]) / (g.rho_c[None, :] * g.dth)
    return rad + tan


# ----------------------------------------------------------------------------
# pressure solves
# ----------------------------------------------------------------------------


class _SeparablePoisson(NamedTuple):
    """A flux-form Laplacian diagonalised in theta, tridiagonal in rho.

    Column m of ``basis`` is theta-mode m; in that mode the operator is the
    symmetric tridiagonal R + lambda_m * diag(c_th) in rho, with off-diagonal
    -c_r[j] between rows j and j + 1.  Its Thomas factors are kept with rows j
    and columns m, so each sweep step is one row operation over all modes.
    With reciprocal pivots d_j, the solve scales the right-hand side by d
    first; the forward sweep then subtracts ``lower[j] = -c_r[j-1] d_j`` times
    the row before (row 0 unused) and the back sweep ``upper[j] = -c_r[j] d_j``
    times the row after (last row unused).
    """

    basis: np.ndarray        # (n_s, n_s), orthonormal columns
    inv_pivot: np.ndarray    # (n_r, n_s)
    lower: np.ndarray        # (n_r, n_s)
    upper: np.ndarray        # (n_r, n_s)

    def solve(self, f: np.ndarray) -> np.ndarray:
        """x with A x = f, both (n_s, n_r) arrays indexed [i, j]."""
        y = f.T @ self.basis
        y *= self.inv_pivot
        rows, term = list(y), np.empty(y.shape[1])
        for prev, row, low in zip(rows, rows[1:], self.lower[1:]):
            np.multiply(low, prev, out=term)
            row -= term
        for after, row, up in zip(rows[:0:-1], rows[-2::-1], self.upper[-2::-1]):
            np.multiply(up, after, out=term)
            row -= term
        return self.basis @ y.T


def _separable(g: _Grid, dirichlet_theta: bool) -> _SeparablePoisson:
    """Factor the flux-form (negative) Laplacian A = I_theta (x) R + T_theta (x) diag(c_th).

    Neither the theta-face coefficient c_th nor the rho-face one c_r depends on
    i, so A splits into the radial operator R (Neumann at both walls) and the
    theta second difference T_theta, whose end entries are 1 for Neumann planes
    and 3 for Dirichlet ones (the boundary value sits on the face, half a cell
    from the center).  T_theta's eigenvectors are the DCT-II (Neumann) or
    DST-II (Dirichlet) vectors with eigenvalues 4 sin^2(pi m / (2 n_s)); the
    closed forms make the Neumann mode 0 exactly 0.

    The all-Neumann matrix is singular (constants span its null space), and so
    is its theta-mode 0.  That mode's row and column j = 0 become the identity
    with a zero right-hand side (a zero reciprocal pivot): the gauge
    phi[mode 0, j = 0] = 0, which leaves a nonsingular system.  The dropped row
    is implied by the others whenever the right-hand side has zero mean, which
    ``_solve_neumann`` requires.
    """
    n_s, n_r = g.theta_c.size, g.rho_c.size
    c_r = g.rho_f[1:-1] * g.dth / g.drh
    c_th = g.drh / (g.rho_c * g.dth)

    modes = np.arange(1, n_s + 1) if dirichlet_theta else np.arange(n_s)
    angle = np.pi / n_s * np.outer(np.arange(n_s) + 0.5, modes)
    basis = np.sin(angle) if dirichlet_theta else np.cos(angle)
    basis /= np.linalg.norm(basis, axis=0)
    eig = 4.0 * np.sin(0.5 * np.pi * modes / n_s) ** 2

    diag = np.zeros(n_r)
    diag[:-1] += c_r
    diag[1:] += c_r
    diag = diag[:, None] + c_th[:, None] * eig[None, :]
    inv_pivot = np.empty((n_r, n_s))
    inv_pivot[0] = 1.0 / diag[0]
    if not dirichlet_theta:
        inv_pivot[0, 0] = 0.0  # the gauge: mode 0, cell j = 0 decoupled and zero
    for j in range(1, n_r):
        inv_pivot[j] = 1.0 / (diag[j] - c_r[j - 1] * (c_r[j - 1] * inv_pivot[j - 1]))
    lower = np.zeros((n_r, n_s))
    lower[1:] = -c_r[:, None] * inv_pivot[1:]
    upper = np.zeros((n_r, n_s))
    upper[:-1] = -c_r[:, None] * inv_pivot[:-1]
    return _SeparablePoisson(basis, inv_pivot, lower, upper)


def _solve_neumann(cfg: SimConfig, b: np.ndarray) -> np.ndarray:
    """Zero-mean phi with A phi = -b for the all-Neumann A; b must have zero mean."""
    phi = _grid(cfg).neumann.solve(-b)
    phi -= phi.mean()
    return phi


def _log_moments(u: np.ndarray):
    """I_n(u) = integral_0^u s^n / (1 + s) ds for n = 2, 3, 4, to roundoff relative to I_n.

    From u = 1/2 up, the closed form I_0 = log1p(u), I_n = u^n/n - I_(n-1) loses
    at most a few digits.  Below 1/2 that recurrence cancels (I_n ~ u^(n+1) is
    left from terms ~ u), so I_4 is summed from its series
    u^5 sum_k (-u)^k/(k + 5), whose 48 terms reach roundoff at u = 1/2, and the
    recurrence runs downwards, where it adds a small I_n to a larger u^n/n.
    """
    i2, i3, i4 = (np.empty_like(u) for _ in range(3))
    up = u >= 0.5
    x = u[up]
    i1 = x - np.log1p(x)
    i2[up] = x**2 / 2 - i1
    i3[up] = x**3 / 3 - i2[up]
    i4[up] = x**4 / 4 - i3[up]
    x = u[~up]
    series = np.zeros_like(x)
    for k in range(47, -1, -1):
        series = 1.0 / (k + 5) - x * series
    i4[~up] = x**5 * series
    i3[~up] = x**4 / 4 - i4[~up]
    i2[~up] = x**3 / 3 - i3[~up]
    return i2, i3, i4


def _centripetal_head(cfg: SimConfig, rho) -> np.ndarray:
    """F(rho) = integral_delta^rho h(r'-delta)^2 / r' dr': the radial pressure head.

    In closed form: with u = (rho - delta)/delta,
    h(delta*u)^2 = delta^2 (a1^2 u^2 - a1 a2 delta u^3 + (a2 delta/2)^2 u^4), so
    F = delta^2 (a1^2 I_2 - a1 a2 delta I_3 + (a2 delta/2)^2 I_4) with the
    moments I_n of ``_log_moments``.
    """
    delta = cfg.arc.delta
    a1, a2 = cfg.params.alpha1, cfg.params.alpha2
    u = (np.atleast_1d(np.asarray(rho, dtype=float)) - delta) / delta
    i2, i3, i4 = _log_moments(u)
    return delta**2 * (a1 * a1 * i2 - a1 * a2 * delta * i3 + 0.25 * (a2 * delta) ** 2 * i4)


def initial_pressure(cfg: SimConfig, us: np.ndarray) -> np.ndarray:
    """Diagnostic t = 0 pressure on the sector.

    Radial walls carry the momentum-consistent Neumann data (centripetal at
    t = 0); the theta-planes carry Dirichlet values built from the exact wall
    gradient nu*(a1/delta - a2) and the exact radial balance of the circular
    initial field.
    """
    g = _grid(cfg)
    n_s, n_r = cfg.n_s, cfg.n_r
    kwall = cfg.params.nu * (cfg.params.alpha1 / g.delta - cfg.params.alpha2)

    # radial momentum data of the circular initial state (u_r = 0, theta-uniform,
    # so only the centripetal term survives on the radial faces)
    us_at_rf = np.zeros(n_r + 1)
    us_at_rf[1:-1] = 0.5 * (us[0, :-1] + us[0, 1:])
    us_at_rf[0] = 0.0
    us_at_rf[-1] = profile_h(cfg.params, cfg.R_out)
    # R = nu*lap(u) - (u.grad)u: the radial part is the centrifugal u_theta^2/rho
    r_rho = us_at_rf**2 / g.rho_f

    # net R-flux through the interior radial faces; the prescribed wall/outer
    # Neumann data equals the boundary R-flux, so those faces drop out, and the
    # theta-face contributions of a theta-uniform column cancel.
    flux_out = np.zeros(n_r)
    flux_out[:-1] += g.rho_f[1:-1] * r_rho[1:-1] * g.dth
    flux_out[1:] -= g.rho_f[1:-1] * r_rho[1:-1] * g.dth
    b = np.tile(-flux_out, (n_s, 1))

    # Dirichlet data on the theta-planes
    head = _centripetal_head(cfg, g.rho_c)
    p_in = head
    p_out = head + kwall * g.delta * cfg.sector_angle
    c_th = g.drh / (g.rho_c * g.dth)
    b[0, :] += 2.0 * c_th * p_in
    b[-1, :] += 2.0 * c_th * p_out

    return g.dirichlet_theta.solve(b)


def init_sim(cfg: SimConfig) -> SimState:
    """Sample the shear profile on the grid and run the t = 0 pressure solve."""
    cfg.validate()
    g = _grid(cfg)
    us = np.tile(profile_h(cfg.params, g.rho_c - g.delta), (cfg.n_s + 1, 1))
    ur = np.zeros((cfg.n_s, cfg.n_r + 1))
    p = initial_pressure(cfg, us)
    return SimState(us=us, ur=ur, p=p, t=0.0, p_anchor=p)


def step(state: SimState, cfg: SimConfig) -> SimState:
    """Advance one time step: explicit advection-diffusion against the anchored
    background pressure, then a projection for incompressibility."""
    g = _grid(cfg)
    dt = cfg.effective_dt
    nu = cfg.params.nu
    us, ur, pa = state.us, state.ur, state.p_anchor

    neg_adv_t, visc_t = _tangential_rhs(cfg, us, ur)
    neg_adv_r, visc_r = _radial_rhs(cfg, us, ur)

    us_star = us.copy()
    us_star[1:-1, :] += dt * (neg_adv_t + nu * visc_t)
    us_star[1:-1, :] -= dt * (pa[1:, :] - pa[:-1, :]) / (g.rho_c[None, :] * g.dth)
    # the inflow face (us[0]) is never updated: it keeps its initial profile;
    # the outflow face is advected out
    c_out = np.maximum(us[-1, :], 0.0)
    us_star[-1, :] = us[-1, :] - dt * c_out / (g.rho_c * g.dth) * (us[-1, :] - us[-2, :])

    ur_star = ur.copy()
    ur_star[:, 1:-1] += dt * (neg_adv_r + nu * visc_r)
    ur_star[:, 1:-1] -= dt * (pa[:, 1:] - pa[:, :-1]) / g.drh
    ur_star[:, 0] = 0.0
    ur_star[:, -1] = 0.0

    # global mass balance before the all-Neumann projection
    flux_in = float(np.sum(us_star[0, :])) * g.drh
    flux_out = float(np.sum(us_star[-1, :])) * g.drh
    us_star[-1, :] += (flux_in - flux_out) / (cfg.n_r * g.drh)

    div = divergence(cfg, us_star, ur_star)
    vol = (g.rho_c * g.dth * g.drh)[None, :]
    b = div * vol / dt
    b -= b.mean()
    phi = _solve_neumann(cfg, b)

    us_new = us_star.copy()
    us_new[1:-1, :] -= dt * (phi[1:, :] - phi[:-1, :]) / (g.rho_c[None, :] * g.dth)
    ur_new = ur_star.copy()
    ur_new[:, 1:-1] -= dt * (phi[:, 1:] - phi[:, :-1]) / g.drh

    umax0 = float(np.max(np.abs(profile_h(cfg.params, g.rho_c - g.delta))))
    if float(np.max(np.abs(us_new))) > 10.0 * max(umax0, 1e-30):
        raise Diverged(f"max tangential velocity exceeded 10x the initial maximum at t={state.t}")
    return SimState(us=us_new, ur=ur_new, p=pa + phi, t=state.t + dt, p_anchor=pa)


# ----------------------------------------------------------------------------
# probes and the experiment driver
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeSample:
    r: float
    u_t: float
    visc_t: float
    gradp_t: float
    wall_anchor_gradp_t: float
    ratio: float


def _probe_index(cfg: SimConfig, r: float) -> int:
    g = _grid(cfg)
    if not 0.0 < r < cfg.R_out:
        raise ProbeOutsideGrid(f"probe r = {r} outside (0, {cfg.R_out})")
    return int(np.clip(round(r / g.drh - 0.5), 0, cfg.n_r - 1))


def probe_diagnostics(state: SimState, cfg: SimConfig, r_probe_list) -> list[ProbeSample]:
    """Discrete tangential budget at mid-sector: viscous term, pressure gradient,
    and their material-derivative ratio against the local speed."""
    g = _grid(cfg)
    nu = cfg.params.nu
    i_mid = cfg.n_s // 2
    _, visc_t = _tangential_rhs(cfg, state.us, state.ur)
    kwall = nu * (cfg.params.alpha1 / g.delta - cfg.params.alpha2)
    out = []
    for r in r_probe_list:
        j = _probe_index(cfg, r)
        r_node = float(g.rho_c[j] - g.delta)
        visc = nu * float(visc_t[i_mid - 1, j])
        gradp = float(state.p[i_mid, j] - state.p[i_mid - 1, j]) / (g.rho_c[j] * g.dth)
        u0 = float(state.us[i_mid, j])
        out.append(ProbeSample(
            r=r_node, u_t=u0, visc_t=visc, gradp_t=gradp,
            wall_anchor_gradp_t=kwall * g.delta / (g.delta + r_node),
            ratio=(visc - gradp) / u0,
        ))
    return out


def measure_ratio(state: SimState, cfg: SimConfig, r_probe_list) -> list[tuple[float, float]]:
    """Discrete <nu*lap(u) - grad p, t_hat> / <u0, t_hat> at each probe radius."""
    return [(p.r, p.ratio) for p in probe_diagnostics(state, cfg, r_probe_list)]


def kinetic_energy(state: SimState, cfg: SimConfig) -> float:
    g = _grid(cfg)
    us_c = 0.5 * (state.us[:-1, :] + state.us[1:, :])
    ur_c = 0.5 * (state.ur[:, :-1] + state.ur[:, 1:])
    vol = (g.rho_c * g.dth * g.drh)[None, :]
    return float(0.5 * np.sum((us_c**2 + ur_c**2) * vol))


@dataclass(frozen=True)
class ExperimentReport:
    probe_r: list
    t0_samples: list
    times: np.ndarray
    u_t: np.ndarray                  # (n_times, n_probes)
    kinetic_energy: np.ndarray
    first_reversal: list             # per probe: time or None
    final_state: SimState

    CSV_HEADER = ("t", "probe_r", "u_t", "ratio")

    def rows(self):
        """Long-format rows (t, probe_r, u_t, ratio); ratio is the t=0 value."""
        t0_ratio = {s.r: s.ratio for s in self.t0_samples}
        for k, t in enumerate(self.times):
            for col, r in enumerate(self.probe_r):
                yield t, r, self.u_t[k, col], t0_ratio.get(r, float("nan"))


def run_experiment(cfg: SimConfig, r_probe_list=None) -> ExperimentReport:
    """Step the sector flow to t_end, recording near-wall tangential velocity."""
    if r_probe_list is None:
        scale = min(cfg.params.bl, cfg.arc.delta)
        r_probe_list = [0.05 * scale, 0.1 * scale, 0.2 * scale]
    state = init_sim(cfg)
    # probes snap to grid nodes; drop duplicates a coarse grid may produce
    probe_idx = list(dict.fromkeys(_probe_index(cfg, r) for r in r_probe_list))
    g = _grid(cfg)
    probe_r = [float(g.rho_c[j] - g.delta) for j in probe_idx]
    t0_samples = probe_diagnostics(state, cfg, probe_r)
    i_mid = cfg.n_s // 2

    times = [0.0]
    series = [[float(state.us[i_mid, j]) for j in probe_idx]]
    energy = [kinetic_energy(state, cfg)]
    n_steps = max(1, int(round(cfg.t_end / cfg.effective_dt)))
    for _ in range(n_steps):
        state = step(state, cfg)
        times.append(state.t)
        series.append([float(state.us[i_mid, j]) for j in probe_idx])
        energy.append(kinetic_energy(state, cfg))

    u_t = np.array(series)
    first_rev = []
    for col in range(u_t.shape[1]):
        hits = np.nonzero(u_t[:, col] < 0.0)[0]
        first_rev.append(float(times[hits[0]]) if hits.size else None)
    return ExperimentReport(
        probe_r=probe_r,
        t0_samples=t0_samples,
        times=np.array(times),
        u_t=u_t,
        kinetic_energy=np.array(energy),
        first_reversal=first_rev,
        final_state=state,
    )


def dump_field_csv(state: SimState, cfg: SimConfig, path) -> None:
    """Cell-centered field dump: s, r, x, y, u_t, u_r, p."""
    from .geometry import to_cartesian

    g = _grid(cfg)
    us_c = 0.5 * (state.us[:-1, :] + state.us[1:, :])
    ur_c = 0.5 * (state.ur[:, :-1] + state.ur[:, 1:])
    s = cfg.arc.s_range[0] + g.delta * g.theta_c
    r = g.rho_c - g.delta
    xy = to_cartesian(cfg.arc, (s[:, None], r[None, :]))
    shape = (cfg.n_s, cfg.n_r)
    columns = [np.broadcast_to(s[:, None], shape), np.broadcast_to(r[None, :], shape),
               xy[..., 0], xy[..., 1], us_c, ur_c, state.p]
    write_csv(path, ["s", "r", "x", "y", "u_t", "u_r", "p"],
              zip(*(c.ravel().tolist() for c in columns)))
