"""Unsteady incompressible Navier-Stokes on an annular sector.

Staggered (MAC) grid in polar coordinates (theta, rho): tangential velocity on
theta-faces, radial velocity on rho-faces, pressure at cell centers.  Each step
is IMEX Euler (Kim & Moin, J. Comput. Phys. 59, 1985) followed by a pressure
projection: first order in time, second order in space, quadratic ghost cells
at the radial walls.  The theta second difference of both viscous terms, the
stiff part on the narrow wall-tangential cells, is taken at the new time level;
the radial Laplacian, the -u/rho**2 term, the +-2/rho**2 d/dtheta couplings,
the advection and the anchored pressure stay explicit.  That leaves one
tridiagonal system along theta on each radial line of each velocity component,
all solved in one batched sweep, so the default step is bounded by advection
and by diffusion across one wall-normal cell only.  The sweep makes a step cost
about 1.1-1.2 times an explicit one: where advection sets the step, that is
what the one scheme costs; where diffusion across the wall-tangential cell
would set an explicit step, the step count falls by the factor that limit is
dropped by.  Internally the flow runs in the +theta direction; the wall-arc
coordinate is s = delta * theta, so +theta is the wall-tangent direction e1 of
the arc geometry.

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
products and one batched pair of tridiagonal sweeps for the projection, and
one batched theta-line sweep for the viscosity, whose Thomas factors depend on
nu*dt and are kept per config.  The all-Neumann projection matrix is
singular up to a constant, so its theta-mode 0 pins cell j = 0 to zero and the
solution is shifted to zero mean afterwards.  The dropped equation holds
automatically because the projection right-hand side is made mean-free first.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, Diverged, ProbeOutsideGrid
from .field import LaminarParams, profile_h, write_csv
from .geometry import ArcBoundary


# a run takes at most this many steps (the test and benchmark runs take at most
# a few hundred): a config that needs more is refused before it starts
_MAX_STEPS = 10**6

# a simulate run's arrays must fit this many bytes; a run's peak memory grows by
# about 40 arrays of n_s * n_r entries (peak RSS of 16 x 4096..32768 runs,
# field.csv included), and _RUN_ARRAYS keeps a margin over that
_MEMORY_LIMIT_BYTES = 2**30
_RUN_ARRAYS = 48


class _SimFields(NamedTuple):
    arc: ArcBoundary
    params: LaminarParams
    sector_angle: float = 0.5
    r_out: float | None = None       # default 2 * boundary-layer thickness
    n_s: int = 32
    n_r: int = 32
    dt: float | None = None          # largest step; default 0.4 of the stability limit
    t_end: float = 0.05


class SimConfig(_SimFields):
    # no __slots__: cached_property keeps its values in the instance __dict__,
    # and _replace builds a new config with an empty cache

    @property
    def R_out(self) -> float:
        return 2.0 * self.params.bl if self.r_out is None else self.r_out

    @cached_property
    def steps(self) -> int:
        """The fewest equal steps to t_end that stay within dt (default: stable_dt)."""
        limit = stable_dt(self) if self.dt is None else self.dt
        count = max(1, math.ceil(self.t_end / limit))
        if self.t_end / count > limit:  # the quotient rounded down onto an integer
            count += 1
        return count

    @cached_property
    def effective_dt(self) -> float:
        """The step taken: t_end / steps, so that the last step ends at t_end."""
        return self.t_end / self.steps

    @property
    def dt_bound(self) -> str:
        """What sets the step: "t_end" (one step, shorter than the limit), "given"
        (the config's dt), or the binding limit of ``_dt_limits``."""
        limit = stable_dt(self) if self.dt is None else self.dt
        if self.t_end < limit:
            return "t_end"
        if self.dt is not None:
            return "given"
        limits = _dt_limits(self)
        return min(limits, key=limits.get)

    @cached_property
    def top_speed(self) -> float:
        """max |h(rho_c - delta)| over the cell centres: the initial profile's top speed."""
        return float(np.max(np.abs(profile_h(self.params, _grid(self).rho_c - self.arc.delta))))

    @cached_property
    def _theta_lines(self) -> _ThetaLines:
        return _theta_line_factors(self)

    def validate(self) -> None:
        problems = []
        if self.n_s < 16 or self.n_r < 16:
            problems.append(f"grid must be at least 16x16, got {self.n_s}x{self.n_r}")
        elif _run_bytes(self.n_s, self.n_r) > _MEMORY_LIMIT_BYTES:
            problems.append(f"grid {self.n_s}x{self.n_r} needs about "
                            f"{_run_bytes(self.n_s, self.n_r) / 2**30:.3g} GiB of solver "
                            f"arrays, more than {_MEMORY_LIMIT_BYTES / 2**30:g} GiB")
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
        if not problems:  # the grid is built only for a config that passed the checks above
            limit = stable_dt(self) if self.dt is None else self.dt
            if not self.t_end <= _MAX_STEPS * limit:  # before cfl(), which counts the steps
                problems.append(f"t_end = {self.t_end:g} needs more than {_MAX_STEPS} "
                                f"steps of at most {limit:.3g}")
            elif (cfl := self.cfl()) > 0.5:
                problems.append(f"CFL = {cfl:.3f} exceeds 0.5")
        if problems:
            raise ConfigError("; ".join(problems))

    def cfl(self) -> float:
        g = _grid(self)
        return self.top_speed * self.effective_dt / min(self.arc.delta * g.dth, g.drh)


def _dt_limits(cfg: SimConfig) -> dict[str, float]:
    """The limits on the default step: advection across the smallest cell and
    diffusion across one wall-normal cell (the theta second difference is
    implicit)."""
    g = _grid(cfg)
    umax = cfg.top_speed
    h_min = min(cfg.arc.delta * g.dth, g.drh)
    return {"advective": h_min / umax if umax > 0 else math.inf,
            "radial_viscous": 0.25 * g.drh**2 / cfg.params.nu}


def stable_dt(cfg: SimConfig) -> float:
    """0.4 of the smallest limit of ``_dt_limits``."""
    return 0.4 * min(_dt_limits(cfg).values())


def _run_bytes(n_s: int, n_r: int) -> int:
    """About the peak bytes of a simulate run's arrays: the two (n_s x n_s)
    theta-bases and ``_RUN_ARRAYS`` arrays of n_s * n_r entries (the Thomas
    factors, the state, each step's temporaries and the field.csv table)."""
    return 8 * (2 * n_s * n_s + _RUN_ARRAYS * n_s * n_r)


class SimState(NamedTuple):
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


def _tangential_rhs(cfg: SimConfig, us: np.ndarray, ur: np.ndarray, theta_implicit=False):
    """(-advection, viscous) tangential terms at interior theta-faces i=1..n_s-1.

    With ``theta_implicit`` the viscous term leaves out the theta second
    difference, which ``step`` takes at the new time level.
    """
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

    lap = (  # radial part
        g.rho_f[None, 1:] * (usg[1:-1, 2:] - usg[1:-1, 1:-1])
        - g.rho_f[None, :-1] * (usg[1:-1, 1:-1] - usg[1:-1, :-2])
    ) / (rc * g.drh**2)
    if not theta_implicit:
        lap = lap + (us[2:, :] - 2 * us_i + us[:-2, :]) / (rc**2 * g.dth**2)
    dur_dth = (ur_c[1:, :] - ur_c[:-1, :]) / g.dth
    visc = lap - us_i / rc**2 + 2.0 / rc**2 * dur_dth
    return -adv, visc


def _radial_rhs(cfg: SimConfig, us: np.ndarray, ur: np.ndarray, theta_implicit=False):
    """(-advection, viscous) radial terms at interior rho-faces j=1..n_r-1.

    With ``theta_implicit`` the viscous term leaves out the theta second
    difference, which ``step`` takes at the new time level.
    """
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

    lap = (  # radial part
        g.rho_c[None, 1:] * (ur[:, 2:] - ur_i)
        - g.rho_c[None, :-1] * (ur_i - ur[:, :-2])
    ) / (rf * g.drh**2)
    if not theta_implicit:
        lap = lap + (urg[2:, 1:-1] - 2 * ur_i + urg[:-2, 1:-1]) / (rf**2 * g.dth**2)
    dus_dth = (us_f[1:, :] - us_f[:-1, :]) / g.dth
    visc = lap - ur_i / rf**2 - 2.0 / rf**2 * dus_dth
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


class _Thomas(NamedTuple):
    """Thomas factors of a batch of tridiagonal systems, one per column.

    Row k of each system couples its unknowns k - 1, k and k + 1; the arrays are
    kept with rows k and columns the systems, so each sweep step is one row
    operation over all systems.  With reciprocal pivots d_k, the solve scales
    the right-hand side by d first; the forward sweep then subtracts
    ``sub[k] d_k`` times the row before (k = 1, 2, ...) and the back sweep
    ``sup[k] d_k`` times the row after (k = rows - 2, ..., 0).  Those rows are
    kept in the order the sweeps read them, so a solve makes no row views of
    the factors.
    """

    inv_pivot: np.ndarray    # (rows, systems)
    lower: list              # sub[k] d_k for k = 1 .. rows - 1, each (systems,)
    upper: list              # sup[k] d_k for k = rows - 2 .. 0, each (systems,)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Overwrite the (rows, systems) right-hand sides ``y`` with the solutions."""
        y *= self.inv_pivot
        rows, term = list(y), np.empty(y.shape[1])
        for prev, row, low in zip(rows, rows[1:], self.lower):
            np.multiply(low, prev, term)
            np.subtract(row, term, row)
        for after, row, up in zip(rows[:0:-1], rows[-2::-1], self.upper):
            np.multiply(up, after, term)
            np.subtract(row, term, row)
        return y


def _thomas(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> _Thomas:
    """Factor the systems with sub-, main and super-diagonals ``sub``, ``diag``, ``sup``.

    Each is a (rows, systems) array, or a (rows, 1) one shared by all systems;
    ``sub[0]`` and ``sup[-1]`` are never read.  No pivoting: every system here
    is diagonally dominant, the singular Neumann mode 0 of the projection
    after its gauge.  An infinite diagonal entry gives a zero reciprocal pivot,
    which decouples that row with the value 0.
    """
    inv_pivot = np.empty(diag.shape)
    inv_pivot[0] = 1.0 / diag[0]
    for k in range(1, diag.shape[0]):
        inv_pivot[k] = 1.0 / (diag[k] - sub[k] * (sup[k - 1] * inv_pivot[k - 1]))
    return _Thomas(inv_pivot, list((sub * inv_pivot)[1:]), list((sup * inv_pivot)[-2::-1]))


class _SeparablePoisson(NamedTuple):
    """A flux-form Laplacian diagonalised in theta, tridiagonal in rho.

    Column m of ``basis`` is theta-mode m; in that mode the operator is the
    symmetric tridiagonal R + lambda_m * diag(c_th) in rho, with off-diagonal
    -c_r[j] between rows j and j + 1.  ``radial`` holds the Thomas factors of
    all modes, with rows j and columns m.
    """

    basis: np.ndarray        # (n_s, n_s), orthonormal columns
    radial: _Thomas          # (n_r, n_s) factors

    def solve(self, f: np.ndarray) -> np.ndarray:
        """x with A x = f, both (n_s, n_r) arrays indexed [i, j]."""
        return self.basis @ self.radial.solve(f.T @ self.basis).T


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
    n_s = g.theta_c.size
    c_r = g.rho_f[1:-1] * g.dth / g.drh
    c_th = g.drh / (g.rho_c * g.dth)

    modes = np.arange(1, n_s + 1) if dirichlet_theta else np.arange(n_s)
    angle = np.pi / n_s * np.outer(np.arange(n_s) + 0.5, modes)
    basis = np.sin(angle) if dirichlet_theta else np.cos(angle)
    basis /= np.linalg.norm(basis, axis=0)
    eig = 4.0 * np.sin(0.5 * np.pi * modes / n_s) ** 2

    diag = np.zeros(g.rho_c.size)
    diag[:-1] += c_r
    diag[1:] += c_r
    diag = diag[:, None] + c_th[:, None] * eig[None, :]
    if not dirichlet_theta:
        diag[0, 0] = np.inf  # the gauge: mode 0, cell j = 0 decoupled and zero
    off = -c_r[:, None]
    zero = np.zeros((1, 1))
    radial = _thomas(np.concatenate([zero, off]), diag, np.concatenate([off, zero]))
    return _SeparablePoisson(basis, radial)


class _ThetaLines(NamedTuple):
    """The implicit theta-viscosity of one config: I - nu*dt*T_theta/(rho*dtheta)**2
    on each radial line, with T_theta the theta second difference of each component.

    Both components' lines are the columns of one batch of n_s rows: columns
    0..n_r-1 are the u_s lines over the interior faces i = 1..n_s-1, padded
    with one identity row at the bottom, and the n_r - 1 columns after them are
    the u_r lines at the interior rho-faces.
    """

    factors: _Thomas         # (n_s, 2 n_r - 1)
    us_end: np.ndarray       # (n_r,) nu*dt/(rho_c*dtheta)**2, the weight of each Dirichlet end


def _theta_line_factors(cfg: SimConfig) -> _ThetaLines:
    """Factor both components' theta-lines at the config's nu * dt.

    u_s: the inflow face (the fixed profile) and the outflow face (advected
    before the solve) are Dirichlet ends, so each interior line is the plain
    second difference with 1 + 2c on the diagonal and -c off it; its pad row
    is decoupled (zero off-diagonals).  u_r: the inflow ghost -2 u_0 + u_1/3
    makes the first row of T_theta (-4, 4/3), and zero-gradient outflow makes
    the last row (1, -1).
    """
    g = _grid(cfg)
    nu_dt = cfg.params.nu * cfg.effective_dt
    c_s = nu_dt / (g.rho_c * g.dth) ** 2
    c_r = nu_dt / (g.rho_f[1:-1] * g.dth) ** 2
    c = np.concatenate([c_s, c_r])
    us, ur = slice(0, cfg.n_r), slice(cfg.n_r, None)

    diag = np.tile(1.0 + 2.0 * c, (cfg.n_s, 1))
    sub = np.tile(-c, (cfg.n_s, 1))
    sup = sub.copy()
    diag[-1, us] = 1.0
    sub[-1, us] = 0.0
    sup[-2, us] = 0.0
    diag[0, ur] = 1.0 + 4.0 * c_r
    diag[-1, ur] = 1.0 + c_r
    sup[0, ur] = -(4.0 / 3.0) * c_r
    return _ThetaLines(_thomas(sub, diag, sup), c_s)


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
    """Advance one time step: Euler against the anchored background pressure,
    with the theta second difference of the viscosity implicit (IMEX), then a
    projection for incompressibility."""
    g = _grid(cfg)
    dt = cfg.effective_dt
    nu = cfg.params.nu
    n_r = cfg.n_r
    lines = cfg._theta_lines
    us, ur, pa = state.us, state.ur, state.p_anchor

    neg_adv_t, visc_t = _tangential_rhs(cfg, us, ur, theta_implicit=True)
    neg_adv_r, visc_r = _radial_rhs(cfg, us, ur, theta_implicit=True)

    us_star = us.copy()
    # the inflow face (us[0]) is never updated: it keeps its initial profile;
    # the outflow face is advected out
    c_out = np.maximum(us[-1, :], 0.0)
    us_star[-1, :] = us[-1, :] - dt * c_out / (g.rho_c * g.dth) * (us[-1, :] - us[-2, :])

    # one right-hand side for both components' theta-lines, laid out as
    # ``_ThetaLines``; the u_s pad row stays zero
    rhs = np.zeros((cfg.n_s, 2 * n_r - 1))
    rhs_s, rhs_r = rhs[:-1, :n_r], rhs[:, n_r:]
    np.add(us[1:-1, :], dt * (neg_adv_t + nu * visc_t), out=rhs_s)
    rhs_s -= dt * (pa[1:, :] - pa[:-1, :]) / (g.rho_c[None, :] * g.dth)
    # both end faces are Dirichlet values of the interior u_s lines
    rhs_s[0] += lines.us_end * us_star[0]
    rhs_s[-1] += lines.us_end * us_star[-1]
    np.add(ur[:, 1:-1], dt * (neg_adv_r + nu * visc_r), out=rhs_r)
    rhs_r -= dt * (pa[:, 1:] - pa[:, :-1]) / g.drh
    lines.factors.solve(rhs)
    us_star[1:-1, :] = rhs_s
    ur_star = np.zeros_like(ur)
    ur_star[:, 1:-1] = rhs_r

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

    if float(np.max(np.abs(us_new))) > 10.0 * max(cfg.top_speed, 1e-30):
        raise Diverged(f"max tangential velocity exceeded 10x the initial maximum at t={state.t}")
    return SimState(us=us_new, ur=ur_new, p=pa + phi, t=state.t + dt, p_anchor=pa)


# ----------------------------------------------------------------------------
# probes and the experiment driver
# ----------------------------------------------------------------------------


class ProbeSample(NamedTuple):
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


def kinetic_energy(state: SimState, cfg: SimConfig) -> float:
    g = _grid(cfg)
    us_c = 0.5 * (state.us[:-1, :] + state.us[1:, :])
    ur_c = 0.5 * (state.ur[:, :-1] + state.ur[:, 1:])
    vol = (g.rho_c * g.dth * g.drh)[None, :]
    return float(0.5 * np.sum((us_c**2 + ur_c**2) * vol))


class ExperimentReport(NamedTuple):
    probe_r: list
    t0_samples: list
    times: np.ndarray
    u_t: np.ndarray                  # (n_times, n_probes)
    first_reversal: list             # per probe: time or None
    final_state: SimState

    CSV_HEADER = ("t", "probe_r", "u_t", "ratio")

    def rows(self):
        """Long-format rows (t, probe_r, u_t, ratio); ratio is the t=0 value."""
        for k, t in enumerate(self.times):
            for col, (r, t0) in enumerate(zip(self.probe_r, self.t0_samples)):
                yield t, r, self.u_t[k, col], t0.ratio


def run_experiment(cfg: SimConfig, r_probe_list=None) -> ExperimentReport:
    """Step the sector flow to t_end in ``cfg.steps`` equal steps, recording
    near-wall tangential velocity."""
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
    for _ in range(cfg.steps):
        state = step(state, cfg)
        times.append(state.t)
        series.append([float(state.us[i_mid, j]) for j in probe_idx])

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
    xy = np.array([to_cartesian(cfg.arc, (si, r)) for si in s.tolist()])  # (n_s, 2, n_r)
    shape = (cfg.n_s, cfg.n_r)
    columns = [np.broadcast_to(s[:, None], shape), np.broadcast_to(r[None, :], shape),
               xy[:, 0], xy[:, 1], us_c, ur_c, state.p]
    # one theta row at a time: the file never exists as Python floats at once
    table = np.stack(columns, axis=-1)               # (n_s, n_r, 7)
    write_csv(path, ["s", "r", "x", "y", "u_t", "u_r", "p"],
              (row for block in table for row in block.tolist()))
