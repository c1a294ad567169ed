"""Unsteady incompressible Navier-Stokes on an annular sector, periodic in theta.

Staggered (MAC) grid in polar coordinates (theta, rho): tangential velocity on
theta-faces, radial velocity on rho-faces, pressure at cell centers.  Each step
is IMEX Euler (Kim & Moin, J. Comput. Phys. 59, 1985) followed by a pressure
projection: first order in time, second order in space, quadratic ghost cells
at the radial walls.  The theta second difference of both viscous terms, the
stiff part on the narrow wall-tangential cells, is taken at the new time level;
the radial Laplacian, the -u/rho**2 term, the +-2/rho**2 d/dtheta couplings,
the advection and the driving pressure stay explicit, so the default step is
bounded by advection and by diffusion across one wall-normal cell only.
Internally the flow runs in the +theta direction; the wall-arc coordinate is
s = delta * theta, so +theta is the wall-tangent direction e1 of the arc
geometry.

The sector is the wall segment ``arc.s_range`` and the layer 0 < r < 2*bl above
it, where the initial profile returns to zero: its angle Theta is the segment's
length over delta (``SimConfig.sector_angle``) and its outer radius is delta +
2*bl (``SimConfig.R_out`` is the depth 2*bl).  The flow is periodic in theta
with period Theta.  Radially: no-slip at both walls, a periodic curved channel.
The wall pressure gradient k = nu*(a1/delta - a2) that no-slip fixes is not
periodic: its drop over one period drives the flow as the body force
-k*delta/rho, as in a curved channel (Dean, Proc. R. Soc. A 121, 1928).  A
state's pressure is the periodic one its step's projection set, with mean 0 (0
at t = 0): the first step's is the discrete centripetal head H(rho) less its
mean, so at every node that step's tangential change is the t = 0 material
derivative nu*lap(u) - k*delta/rho, to O(dt).  ``field.csv`` reports the total
pressure, the periodic one plus k*delta*theta.

Every theta operator is the periodic second difference, which the discrete
Fourier transform diagonalises: numpy's real FFT takes each theta-line to its
n_s//2 + 1 modes, mode m with eigenvalue 4 sin^2(pi m / n_s).  What a run keeps
fixed is cached on its config, built when it is made: ``SimConfig.grid`` (the
grid arrays, those eigenvalues, the t = 0 profile, the wall drive and, at the
first solve, the projection's factors), the step count and step, the top speed
and, at the first step, the implicit theta-viscosity's diagonal.  A state holds
only what evolves and its step count.  The projection's flux-form Laplacian separates
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970): one symmetric
eigendecomposition per grid diagonalises it in rho, so its solve, like the
implicit theta-viscosity's, is a real FFT pair along theta around a scaling,
here between products with the n_r x n_r radial basis.  Its singular entry, the constants, is dropped; the
right-hand side is made mean-free first and the solution shifted to zero mean.

This module loads numpy with one OpenBLAS thread unless numpy is already
loaded or ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, and it
leaves ``os.environ`` as it found it.
"""

from __future__ import annotations

import math
import os
import sys
from functools import cached_property
from typing import NamedTuple

# OpenBLAS reads its thread count once, when numpy loads it.  On two CPUs its
# thread pool adds about 70 ms to numpy's import and saves at most about 10 %
# of a step up to 512 x 512, so numpy loads with one thread unless the user
# chose a count.
if "numpy" in sys.modules or {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import CheckedRecord, Diverged, ValidationError
from .field import (LaminarParams, anchored_gradient, near_wall_scale, profile_h, wall_gradient,
                    write_csv)
from .geometry import ArcBoundary, to_cartesian


# a run takes at most this many steps (the longest test run, the README's reversal
# at delta = 1.5, takes 1920): a config that needs more is refused before it starts
_MAX_STEPS = 10**6

# a simulate run's arrays must fit this many bytes.  Its peak RSS grows by about
# 24 arrays of n_s * n_r entries (one-step 4096..32768 x 16 runs, field.csv
# included) and 5 of n_r * n_r (1 x 1024 and 2048: the radial basis and its
# eigh's input copy, workspace and eigenvectors); the counts keep a margin
_MEMORY_LIMIT_BYTES = 2**30
_RUN_ARRAYS = 48
_BASIS_ARRAYS = 6


class _SimFields(NamedTuple):
    arc: ArcBoundary
    params: LaminarParams
    n_s: int = 32
    n_r: int = 32
    dt: float | None = None          # largest step; default 0.4 of the stability limit
    t_end: float = 0.02


class SimConfig(CheckedRecord, _SimFields):
    """A run's wall, flow, grid, step and end time; checked when made, by ``_replace`` too."""

    # no __slots__: cached_property keeps its values in the instance __dict__,
    # and _replace builds a new config with an empty cache

    @cached_property
    def grid(self) -> _Grid:
        """What a run of this config keeps fixed; see ``_Grid``."""
        return _Grid(self)

    @property
    def sector_angle(self) -> float:
        """The angle of the wall segment ``arc.s_range``: its length over delta."""
        s0, s1 = self.arc.s_range
        return (s1 - s0) / self.arc.delta

    @property
    def R_out(self) -> float:
        """The depth of the layer, 2*bl: where the initial profile returns to zero."""
        return 2.0 * self.params.bl

    @cached_property
    def _dt_limits(self) -> dict[str, float]:
        """The limits on the default step: advection across the smallest cell and
        diffusion across one wall-normal cell (the theta second difference is
        implicit)."""
        g = self.grid
        umax = self.top_speed
        return {"advective": g.h_min / umax if umax > 0 else math.inf,
                "radial_viscous": 0.25 * g.drh * g.drh / self.params.nu}

    @cached_property
    def _dt_limit(self) -> float:
        """The longest step allowed: dt, or by default 0.4 of the smallest of ``_dt_limits``."""
        return 0.4 * min(self._dt_limits.values()) if self.dt is None else self.dt

    @cached_property
    def steps(self) -> int:
        """The fewest equal steps to t_end that stay within ``_dt_limit``."""
        count = max(1, math.ceil(self.t_end / self._dt_limit))
        if self.t_end / count > self._dt_limit:  # the quotient rounded down onto an integer
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
        if self.t_end < self._dt_limit:
            return "t_end"
        if self.dt is not None:
            return "given"
        return min(self._dt_limits, key=self._dt_limits.get)

    @cached_property
    def top_speed(self) -> float:
        """max |h(rho_c - delta)| over the cell centres: the initial profile's top speed."""
        return float(np.max(np.abs(self.grid.u0)))

    @cached_property
    def _theta_damping(self) -> np.ndarray:
        """1/(1 + c*lambda_m), c = nu*dt/(rho*dtheta)**2: the implicit theta-viscosity
        I + c*T_theta inverted on the real FFT's theta-mode m = 0 .. n_s//2
        (rows) of each radial line (columns: the n_r u_s lines at the cell
        centres, then the n_r - 1 u_r lines at the interior rho-faces); a
        (n_s//2 + 1, 2*n_r - 1) real array, applied to each mode's real and
        imaginary part alike."""
        g = self.grid
        rho = np.concatenate([g.rho_c, g.rho_f[1:-1]])
        c = self.params.nu * self.effective_dt / (rho * g.dth) ** 2
        return 1.0 / (1.0 + g.eig[:, None] * c[None, :])

    def _check(self) -> None:
        problems = []
        a1, a2 = self.params.alpha1, self.params.alpha2
        if self.n_s < 1 or self.n_r < 16:
            problems.append(f"grid needs n_s >= 1 and n_r >= 16, got {self.n_s}x{self.n_r}")
        elif _run_bytes(self.n_s, self.n_r) > _MEMORY_LIMIT_BYTES:
            problems.append(f"grid {self.n_s}x{self.n_r} needs about "
                            f"{_run_bytes(self.n_s, self.n_r) / 2**30:.3g} GiB of solver "
                            f"arrays, more than {_MEMORY_LIMIT_BYTES / 2**30:g} GiB")
        elif not self.R_out / self.n_r > math.ulp(self.arc.delta):
            # below the spacing, cell centres round onto the wall radius delta
            problems.append(f"alpha1 = {a1:g}, alpha2 = {a2:g}, delta = {self.arc.delta:g}: "
                            f"the cell height 2*bl/n_r = {self.R_out / self.n_r:g} is not "
                            f"above the float spacing {math.ulp(self.arc.delta):g} at delta")
        if not 0 < self.sector_angle <= 2 * math.pi:
            problems.append(f"s_range {list(self.arc.s_range)} must span an angle in "
                            f"(0, 2*pi] of the wall, got {self.sector_angle:g}")
        if not math.isfinite(profile_h(self.params, self.R_out)):
            # each term of h is largest at 2*bl, so every cell's speed is then finite
            # too; a bl that overflows to inf gives NaN here
            problems.append(f"alpha1 = {a1:g}, alpha2 = {a2:g}: "
                            "the initial profile speed across the layer 2*bl = "
                            f"{self.R_out:g} leaves the float range")
        if self.dt is not None and not (0 < self.dt < math.inf):
            problems.append(f"dt must be finite and positive, got {self.dt}")
        if not (0 < self.t_end < math.inf):
            problems.append(f"t_end must be finite and positive, got {self.t_end}")
        if not problems:  # the grid is built only for a config that passed the checks above
            if not self._dt_limit > 0:
                problems.append(f"alpha1 = {a1:g}, alpha2 = {a2:g}, nu = {self.params.nu:g}: "
                                f"the step limit underflows to 0 on the layer 2*bl = "
                                f"{self.R_out:g}")
            elif not self.t_end <= _MAX_STEPS * self._dt_limit:  # before steps counts them
                problems.append(f"t_end = {self.t_end:g} needs more than {_MAX_STEPS} "
                                f"steps of at most {self._dt_limit:.3g}")
            # a given step over half of any limit; the default, 0.4 of the smallest, passes
            elif self.effective_dt > 0.5 * min(self._dt_limits.values()):
                name = min(self._dt_limits, key=self._dt_limits.get)
                problems.append(f"dt = {self.dt:g} exceeds half the {name} step "
                                f"limit {self._dt_limits[name]:.3g}")
        if problems:
            raise ValidationError("; ".join(problems))

    def cfl(self) -> float:
        return self.top_speed * self.effective_dt / self.grid.h_min


def _run_bytes(n_s: int, n_r: int) -> int:
    """About the peak bytes of a simulate run's arrays: ``_RUN_ARRAYS`` arrays
    of n_s * n_r entries (the state, each step's temporaries and theta-modes,
    and the field.csv table) and ``_BASIS_ARRAYS`` of n_r * n_r (the
    projection's radial basis and its build)."""
    return 8 * (_RUN_ARRAYS * n_s * n_r + _BASIS_ARRAYS * n_r * n_r)


class SimState(NamedTuple):
    us: np.ndarray   # (n_s, n_r) tangential velocity at theta-faces i = 0..n_s-1
    ur: np.ndarray   # (n_s, n_r + 1) radial velocity at rho-faces
    p: np.ndarray    # (n_s, n_r) periodic pressure at cell centers: the zero-mean
                     # one the step's projection set, 0 at t = 0
    k: int           # steps taken: the time is entry k of linspace(0, t_end, steps + 1)


class _Grid:
    """What a run of one config keeps fixed: the grid arrays, the theta-mode
    eigenvalues, the theta-uniform fields that drive the flow and, built at the
    first solve, the projection's radial basis and reciprocal eigenvalues
    (``neumann``).  The config's check builds it once the size, memory and
    spacing checks pass, and builds no O(n_r**3) basis."""

    def __init__(self, cfg: SimConfig):
        n_s, n_r = cfg.n_s, cfg.n_r
        self.delta = cfg.arc.delta
        self.dth = cfg.sector_angle / n_s
        self.drh = cfg.R_out / n_r
        self.rho_f = self.delta + self.drh * np.arange(n_r + 1)
        self.rho_c = self.delta + self.drh * (np.arange(n_r) + 0.5)
        self.theta_c = self.dth * (np.arange(n_s) + 0.5)
        self.area = self.rho_c * self.dth * self.drh  # of each cell
        self.h_min = min(self.delta * self.dth, self.drh)  # the smallest cell side
        # row k of a[wrap] is row k - 1 of a periodic (n_s, ...) array a, for
        # k = 0 .. n_s + 1: each row between its two theta neighbours
        self.wrap = np.arange(-1, n_s + 1) % n_s
        # the periodic second difference's eigenvalue on each real FFT mode
        self.eig = 4.0 * np.sin(np.pi * np.arange(n_s // 2 + 1) / n_s) ** 2
        self.u0 = profile_h(cfg.params, self.rho_c - self.delta)
        # the wall gradient k, and k*delta/rho_c: the tangential gradient of the
        # wall-anchored pressure k*delta*theta, which ``step`` applies as a body force
        self.k = wall_gradient(cfg.params, self.delta)
        self.drive = anchored_gradient(cfg.params, self.delta, self.rho_c)

    @cached_property
    def neumann(self) -> tuple[np.ndarray, np.ndarray]:
        """``_neumann_factors`` of this grid."""
        return _neumann_factors(self)


# ----------------------------------------------------------------------------
# ghost cells (quadratic through the boundary value: second-order walls)
# ----------------------------------------------------------------------------


def _us_with_ghosts(cfg: SimConfig, us: np.ndarray) -> np.ndarray:
    """u_s between its periodic theta neighbours (rows 0 and -1), with ghost
    columns below the inner wall and above the outer one (value 0 at each)."""
    g = cfg.grid
    usg = np.empty((cfg.n_s + 2, cfg.n_r + 2))
    usg[:, 1:-1] = us[g.wrap]
    usg[:, 0] = -2.0 * usg[:, 1] + usg[:, 2] / 3.0
    usg[:, -1] = -2.0 * usg[:, -2] + usg[:, -3] / 3.0
    return usg


def wall_noslip_residual(cfg: SimConfig, state: SimState) -> float:
    """The largest tangential velocity at either wall, read off the ghost
    construction's quadratic (0 to roundoff)."""
    usg = _us_with_ghosts(cfg, state.us)
    walls = (3.0 * usg[:, [0, -1]] + 6.0 * usg[:, [1, -2]] - usg[:, [2, -3]]) / 8.0
    return float(np.max(np.abs(walls)))


# ----------------------------------------------------------------------------
# discrete operators
# ----------------------------------------------------------------------------


def _tangential_rhs(cfg: SimConfig, us: np.ndarray, ur: np.ndarray):
    """(-advection, explicit viscous) tangential terms at the theta-faces
    i = 0..n_s-1; face i lies between cells i - 1 and i.  The viscous term
    leaves out the theta second difference, which ``step`` takes at the new
    time level."""
    g = cfg.grid
    usg = _us_with_ghosts(cfg, us)                   # (n_s+2, n_r+2)
    rc = g.rho_c[None, :]
    us_i = usg[1:-1, 1:-1]

    dus_dr = (usg[1:-1, 2:] - usg[1:-1, :-2]) / (2 * g.drh)
    dus_dth = (usg[2:, 1:-1] - usg[:-2, 1:-1]) / (2 * g.dth)
    # radial velocity averaged to the theta-centres, cells i - 1 .. n_s - 1
    urw = ur[g.wrap[:-1]]
    ur_c = 0.5 * (urw[:, :-1] + urw[:, 1:])          # (n_s+1, n_r)
    ur_at_us = 0.5 * (ur_c[:-1, :] + ur_c[1:, :])    # (n_s, n_r) at the faces
    adv = ur_at_us * dus_dr + us_i / rc * dus_dth + ur_at_us * us_i / rc

    lap = (  # radial part
        g.rho_f[None, 1:] * (usg[1:-1, 2:] - us_i)
        - g.rho_f[None, :-1] * (us_i - usg[1:-1, :-2])
    ) / (rc * g.drh**2)
    dur_dth = (ur_c[1:, :] - ur_c[:-1, :]) / g.dth
    visc = lap - us_i / rc**2 + 2.0 / rc**2 * dur_dth
    return -adv, visc


def _radial_rhs(cfg: SimConfig, us: np.ndarray, ur: np.ndarray):
    """(-advection, explicit viscous) radial terms at the interior rho-faces
    j = 1..n_r-1 of every cell i.  The viscous term leaves out the theta second
    difference, which ``step`` takes at the new time level."""
    g = cfg.grid
    urw = ur[g.wrap]                                 # (n_s+2, n_r+1)
    rf = g.rho_f[None, 1:-1]
    ur_i = urw[1:-1, 1:-1]

    dur_dr = (urw[1:-1, 2:] - urw[1:-1, :-2]) / (2 * g.drh)
    dur_dth = (urw[2:, 1:-1] - urw[:-2, 1:-1]) / (2 * g.dth)
    # tangential velocity averaged to the rho-faces, faces i = 0 .. n_s
    usw = us[g.wrap[1:]]
    us_f = 0.5 * (usw[:, :-1] + usw[:, 1:])          # (n_s+1, n_r-1)
    us_at_ur = 0.5 * (us_f[:-1, :] + us_f[1:, :])    # (n_s, n_r-1)
    adv = ur_i * dur_dr + us_at_ur / rf * dur_dth - us_at_ur**2 / rf

    lap = (  # radial part
        g.rho_c[None, 1:] * (urw[1:-1, 2:] - ur_i)
        - g.rho_c[None, :-1] * (ur_i - urw[1:-1, :-2])
    ) / (rf * g.drh**2)
    dus_dth = (us_f[1:, :] - us_f[:-1, :]) / g.dth
    visc = lap - ur_i / rf**2 - 2.0 / rf**2 * dus_dth
    return -adv, visc


def divergence(cfg: SimConfig, us: np.ndarray, ur: np.ndarray) -> np.ndarray:
    g = cfg.grid
    rad = (g.rho_f[None, 1:] * ur[:, 1:] - g.rho_f[None, :-1] * ur[:, :-1]) / (
        g.rho_c[None, :] * g.drh
    )
    tan = np.diff(us, axis=0, append=us[:1]) / (g.rho_c[None, :] * g.dth)
    return rad + tan


# ----------------------------------------------------------------------------
# the projection solve and the implicit theta-viscosity
# ----------------------------------------------------------------------------


def _neumann_factors(g: _Grid) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise the projection's flux-form (negative) Laplacian
    A = I_theta (x) R + T_theta (x) C, periodic in theta and Neumann in rho.

    R is the symmetric tridiagonal radial operator (off-diagonal -c_r, diagonal
    the row sums) and C = diag(c_th); T_theta has eigenvalue lambda_m on theta-mode
    m.  With W = C**-1/2 and W R W = Q diag(mu) Q^T, V = W Q has V^T C V = I and
    V^T R V = diag(mu), so mode m of A inverts to V diag(1/(lambda_m + mu)) V^T.
    Returns V and inv = 1/(lambda_m + mu), shape (n_s//2 + 1, n_r), with the null
    space, the constants (m = 0, mu_0 = 0), dropped by inv[0, 0] = 0: solvable
    for the zero-mean right-hand side that ``_solve_neumann`` requires.
    """
    c_r = g.rho_f[1:-1] * g.dth / g.drh
    w = np.sqrt(g.rho_c * g.dth / g.drh)  # c_th = drh/(rho_c*dth)
    diag = np.zeros(g.rho_c.size)
    diag[:-1] += c_r
    diag[1:] += c_r
    wrw = np.diag(diag * w * w)
    j = np.arange(c_r.size)
    wrw[j, j + 1] = wrw[j + 1, j] = -c_r * w[:-1] * w[1:]
    mu, v = np.linalg.eigh(wrw)
    v *= w[:, None]
    denom = g.eig[:, None] + mu[None, :]
    denom[0, 0] = 1.0  # the constants, zeroed below
    inv = 1.0 / denom
    inv[0, 0] = 0.0
    return v, inv


def _scale_theta_modes(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """x with each real FFT theta-mode m (row m of its transform along axis 0)
    times row m of ``scale``: one real FFT, one scaling, one inverse.  With
    ``SimConfig._theta_damping`` it solves (I + c*T_theta) y = x on every
    radial line."""
    modes = np.fft.rfft(x, axis=0)
    modes *= scale
    return np.fft.irfft(modes, x.shape[0], axis=0)


def _solve_neumann(cfg: SimConfig, b: np.ndarray) -> np.ndarray:
    """Zero-mean phi with A phi = -b for the projection's A; b must have zero mean."""
    v, inv = cfg.grid.neumann
    phi = _scale_theta_modes(-b @ v, inv) @ v.T
    phi -= phi.mean()
    return phi


def init_sim(cfg: SimConfig) -> SimState:
    """Sample the shear profile on the grid, with pressure 0 and no steps taken."""
    n_s, n_r = cfg.n_s, cfg.n_r
    return SimState(us=np.tile(cfg.grid.u0, (n_s, 1)), ur=np.zeros((n_s, n_r + 1)),
                    p=np.zeros((n_s, n_r)), k=0)


def step(state: SimState, cfg: SimConfig) -> SimState:
    """Advance one time step: Euler against the wall drive, with the theta
    second difference of the viscosity implicit (IMEX), then a projection for
    incompressibility, whose zero-mean phi is the new state's pressure.  The new
    state has taken one step more; ``Diverged`` names the step and its time."""
    g = cfg.grid
    dt = cfg.effective_dt
    nu = cfg.params.nu
    n_r = cfg.n_r
    us, ur = state.us, state.ur

    neg_adv_t, visc_t = _tangential_rhs(cfg, us, ur)
    neg_adv_r, visc_r = _radial_rhs(cfg, us, ur)

    # both components' theta-lines side by side, as ``SimConfig._theta_damping``
    # lays them out; the projection supplies the whole periodic pressure
    rhs = np.empty((cfg.n_s, 2 * n_r - 1))
    rhs_s, rhs_r = rhs[:, :n_r], rhs[:, n_r:]
    np.add(us, dt * (neg_adv_t + nu * visc_t), out=rhs_s)
    rhs_s -= dt * g.drive
    np.add(ur[:, 1:-1], dt * (neg_adv_r + nu * visc_r), out=rhs_r)
    star = _scale_theta_modes(rhs, cfg._theta_damping)
    us_star = star[:, :n_r]
    ur_star = np.zeros_like(ur)
    ur_star[:, 1:-1] = star[:, n_r:]

    b = divergence(cfg, us_star, ur_star) * g.area / dt
    b -= b.mean()
    phi = _solve_neumann(cfg, b)

    # face i lies between cells i - 1 and i
    us_new = us_star - dt * np.diff(phi, axis=0, prepend=phi[-1:]) / (g.rho_c[None, :] * g.dth)
    ur_new = ur_star
    ur_new[:, 1:-1] -= dt * (phi[:, 1:] - phi[:, :-1]) / g.drh

    if not float(np.max(np.abs(us_new))) <= 10.0 * max(cfg.top_speed, 1e-30):  # or NaN
        raise Diverged(f"max tangential velocity exceeded 10x the initial maximum "
                       f"at t={state.k * dt} (step {state.k + 1} of {cfg.steps})")
    return SimState(us=us_new, ur=ur_new, p=phi, k=state.k + 1)


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
    if not 0.0 < r < cfg.R_out:
        raise ValidationError(f"probe r = {r} outside (0, {cfg.R_out})")
    return int(np.clip(round(r / cfg.grid.drh - 0.5), 0, cfg.n_r - 1))


def probe_diagnostics(state: SimState, cfg: SimConfig, r_probe_list) -> list[ProbeSample]:
    """Discrete tangential budget at mid-sector: viscous term, total pressure
    gradient (the wall drive plus the periodic pressure's), and their
    material-derivative ratio against the local speed."""
    g = cfg.grid
    nu = cfg.params.nu
    i_mid = cfg.n_s // 2
    us = state.us
    _, visc_t = _tangential_rhs(cfg, us, state.ur)
    # the theta second difference at face i_mid, which the explicit terms leave
    # out, between its periodic neighbours (one face may be its own neighbour)
    prev, mid, nxt = us[g.wrap[i_mid:i_mid + 3]]
    visc_theta = (nxt - 2 * mid + prev) / (g.rho_c**2 * g.dth**2)
    gradp_t = g.drive + (state.p[i_mid] - state.p[i_mid - 1]) / (g.rho_c * g.dth)
    out = []
    for r in r_probe_list:
        j = _probe_index(cfg, r)
        r_node = float(g.rho_c[j] - g.delta)
        visc = nu * float(visc_t[i_mid, j] + visc_theta[j])
        gradp = float(gradp_t[j])
        u0 = float(us[i_mid, j])
        out.append(ProbeSample(
            r=r_node, u_t=u0, visc_t=visc, gradp_t=gradp,
            wall_anchor_gradp_t=anchored_gradient(cfg.params, g.delta, g.delta + r_node),
            ratio=(visc - gradp) / u0,
        ))
    return out


def _cell_velocities(state: SimState) -> tuple[np.ndarray, np.ndarray]:
    """u_s and u_r at the cell centres: the mean of each cell's two faces, the
    theta-faces periodic."""
    return (0.5 * (state.us + np.roll(state.us, -1, axis=0)),
            0.5 * (state.ur[:, :-1] + state.ur[:, 1:]))


def kinetic_energy(state: SimState, cfg: SimConfig) -> float:
    us_c, ur_c = _cell_velocities(state)
    return float(0.5 * np.sum((us_c**2 + ur_c**2) * cfg.grid.area))


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
    near-wall tangential velocity at each time of linspace(0, t_end, steps + 1).

    A value that leaves the float range (an overflow, or an inf or NaN made from
    finite ones) raises FloatingPointError rather than reaching the report.
    """
    if r_probe_list is None:
        scale = near_wall_scale(cfg.params, cfg.arc.delta)
        r_probe_list = [0.05 * scale, 0.1 * scale, 0.2 * scale]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        state = init_sim(cfg)
        # probes snap to grid nodes; drop duplicates a coarse grid may produce
        probe_idx = list(dict.fromkeys(_probe_index(cfg, r) for r in r_probe_list))
        g = cfg.grid
        probe_r = [float(g.rho_c[j] - g.delta) for j in probe_idx]
        t0_samples = probe_diagnostics(state, cfg, probe_r)
        i_mid = cfg.n_s // 2

        times = np.linspace(0.0, cfg.t_end, cfg.steps + 1)
        series = [[float(state.us[i_mid, j]) for j in probe_idx]]
        for _ in range(cfg.steps):
            state = step(state, cfg)
            series.append([float(state.us[i_mid, j]) for j in probe_idx])

    u_t = np.array(series)
    first_rev = []
    for col in range(u_t.shape[1]):
        hits = np.nonzero(u_t[:, col] < 0.0)[0]
        first_rev.append(float(times[hits[0]]) if hits.size else None)
    return ExperimentReport(
        probe_r=probe_r,
        t0_samples=t0_samples,
        times=times,
        u_t=u_t,
        first_reversal=first_rev,
        final_state=state,
    )


def dump_field_csv(state: SimState, cfg: SimConfig, path) -> None:
    """Cell-centered field dump: s, r, x, y, u_t, u_r, p; p is the total
    pressure, the periodic one plus the wall-anchored k*delta*theta."""
    g = cfg.grid
    us_c, ur_c = _cell_velocities(state)
    p = state.p + g.k * g.delta * g.theta_c[:, None]
    s = cfg.arc.s_range[0] + g.delta * g.theta_c
    r = g.rho_c - g.delta
    xy = np.array([to_cartesian(cfg.arc, (si, r)) for si in s.tolist()])  # (n_s, 2, n_r)
    shape = (cfg.n_s, cfg.n_r)
    columns = [np.broadcast_to(s[:, None], shape), np.broadcast_to(r[None, :], shape),
               xy[:, 0], xy[:, 1], us_c, ur_c, p]
    # one theta row at a time: the file never exists as Python floats at once
    table = np.stack(columns, axis=-1)               # (n_s, n_r, 7)
    write_csv(path, ["s", "r", "x", "y", "u_t", "u_r", "p"],
              (row for block in table for row in block.tolist()))
