"""The θ-uniform curved channel, solved exactly, and the sector solver against it.

An unseeded ``simulate`` run is the curved channel u(ρ, t) on δ < ρ < R = δ + 2·bl:

    ∂u/∂t = ν(u'' + u'/ρ − u/ρ²) − kδ/ρ,   u = 0 at both walls,
    u(ρ, 0) = h(ρ − δ),   k = ν(α₁/δ − α₂).

The problem is linear, so its solution is the Dean steady state (Dean, Proc. R.
Soc. A 121, 1928), in closed form, plus a transient that decays in the
eigenmodes of the Dirichlet operator.  ``Channel`` takes those modes from
Chebyshev collocation in ρ (Trefethen, Spectral Methods in MATLAB, 2000): at
N = 64 the onset times below are converged to about 1e-12, and the slowest
decay rate matches the Bessel expansion's.  x = bl/δ is the wall curvature
in units of the layer thickness.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from lamsep.field import LaminarParams
from lamsep.geometry import ArcBoundary
from lamsep.nssim import SimConfig, init_sim, step

PARAMS = LaminarParams(alpha1=2.0, alpha2=1.0, nu=1.0)


def dean_profile(params, delta, r):
    """The steady state u∞ at wall distance r: (c/2)ρ ln(ρ/δ) + A(ρ − δ²/ρ),
    c = α₁ − α₂δ, with A set by u∞ = 0 at ρ = R; ρ − δ²/ρ is written
    r(2δ + r)/ρ and ln(ρ/δ) as log1p(r/δ), which keep it accurate at large δ."""
    c, a = _dean_constants(params, delta)
    return 0.5 * c * (delta + r) * np.log1p(r / delta) + a * r * (2 * delta + r) / (delta + r)


def dean_wall_shear(params, delta):
    """∂u∞/∂ρ at the inner wall: c/2 + 2A."""
    c, a = _dean_constants(params, delta)
    return 0.5 * c + 2.0 * a


def _dean_constants(params, delta):
    c = params.alpha1 - params.alpha2 * delta
    depth = 2.0 * params.bl
    big_r = delta + depth
    return c, -0.5 * c * big_r**2 * math.log1p(depth / delta) / (depth * (big_r + delta))


def _cheb(n):
    """Chebyshev points x_j = cos(πj/n) and the differentiation matrix on them."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[[0, -1]] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    return x, d - np.diag(d.sum(axis=1))


def _clenshaw_curtis(n):
    """The Clenshaw–Curtis weights on the points of ``_cheb(n)``, for ∫ over [−1, 1]; n even."""
    theta = np.pi * np.arange(1, n) / n
    v = np.ones(n - 1) - np.cos(n * theta) / (n * n - 1)
    for k in range(1, n // 2):
        v -= 2.0 * np.cos(2 * k * theta) / (4 * k * k - 1)
    return np.concatenate([[1.0 / (n * n - 1)], 2.0 * v / n, [1.0 / (n * n - 1)]])


class Channel:
    """The exact channel at wall radius δ, collocated on n + 1 Chebyshev points.

    u(t) = u∞ + Σ_j v_j c_j e^{λ_j t}, (λ_j, v_j) the eigenpairs of the
    collocated operator on the interior points and c = V⁻¹(h − u∞).  Each
    linear reading q of u (a wall shear, the net flux) is then
    q(h) + Σ_j q(v_j) c_j expm1(λ_j t): exact at t = 0, and accurate at short t.
    """

    def __init__(self, delta, n=64, params=PARAMS):
        bl = params.bl
        x, dx = _cheb(n)
        r = bl * (1.0 - x)                     # wall distance: 0 at the inner wall
        rho = delta + r
        ddr = -dx / bl
        op = params.nu * (ddr @ ddr + ddr / rho[:, None] - np.diag(rho**-2.0))
        self.rates, vec = np.linalg.eig(op[1:-1, 1:-1])
        h = params.alpha1 * r - 0.5 * params.alpha2 * r * r
        coef = np.linalg.solve(vec, (h - dean_profile(params, delta, r))[1:-1])
        # the inner and outer wall shear and the net flux ∫u dρ, as rows
        readings = np.vstack([ddr[[0, -1]], bl * _clenshaw_curtis(n)])
        self._start = readings @ h
        self._modes = (readings[:, 1:-1] @ vec) * coef

    def _read(self, row, t):
        grow = np.expm1(np.multiply.outer(np.asarray(t, dtype=float), self.rates))
        return self._start[row] + (grow @ self._modes[row]).real

    def inner_shear(self, t):
        return self._read(0, t)

    def outer_shear(self, t):
        return self._read(1, t)

    def flux(self, t):
        return self._read(2, t)

    @property
    def slowest_rate(self):
        return -float(np.max(self.rates.real))


@lru_cache(maxsize=None)
def fine_channel(delta):
    """``Channel(delta, n=128)``, built once: short-time laws need the nodes next to the wall."""
    return Channel(delta, n=128)


def first_negative(reading, t_max=20.0, scan=0.01):
    """The first t in (0, t_max] at which ``reading`` turns negative, by a scan
    at spacing ``scan`` and bisection; None if it stays non-negative."""
    times = np.arange(0.0, t_max + scan, scan)
    below = np.nonzero(reading(times) < 0.0)[0]
    if not below.size:
        return None
    lo, hi = times[below[0] - 1], times[below[0]]
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return float(hi)
        if reading(mid) < 0.0:
            hi = mid
        else:
            lo = mid


# δ: (wall-shear onset, net-flux onset, steady wall shear) at α₁ = 2, α₂ = ν = 1
EXACT = {
    0.25: (0.2714930056, 1.0936708168, -4.1003390582),
    0.5: (0.6366831504, 1.3527912485, -2.5870348268),
    1.0: (1.4280794293, 2.0075627059, -1.1764978255),
    1.5: (2.5787265662, 3.0908862363, -0.4518448262),
}


@pytest.mark.parametrize("delta", sorted(EXACT))
def test_onsets_and_steady_wall_shear_are_pinned(delta):
    shear_onset, flux_onset, steady = EXACT[delta]
    channel = Channel(delta)
    assert first_negative(channel.inner_shear) == pytest.approx(shear_onset, abs=2e-10)
    assert first_negative(channel.flux) == pytest.approx(flux_onset, abs=2e-10)
    closed_form = dean_wall_shear(PARAMS, delta)
    assert closed_form == pytest.approx(steady, abs=2e-10)
    # the transient decays onto the closed form
    assert channel.inner_shear(60.0) == pytest.approx(closed_form, rel=1e-11)


def test_nothing_reverses_where_the_drive_vanishes():
    # δ = 2: α₁/δ = α₂, so k = 0 and the steady wall shear is 0
    assert dean_wall_shear(PARAMS, 2.0) == 0.0
    channel = Channel(2.0)
    assert first_negative(channel.inner_shear) is None
    assert first_negative(channel.flux) is None


@pytest.mark.parametrize("delta", [0.25, 1.5])
def test_collocation_is_converged_at_n_64(delta):
    coarse, fine = Channel(delta, n=64), Channel(delta, n=96)
    for reading in ("inner_shear", "flux"):
        t_coarse = first_negative(getattr(coarse, reading))
        t_fine = first_negative(getattr(fine, reading))
        assert abs(t_coarse - t_fine) <= 1e-10 * t_fine


@pytest.mark.parametrize("delta, rate", [(0.5, 0.7764329474), (1.0, 0.7176624598)])
def test_slowest_decay_is_the_first_bessel_mode(delta, rate):
    # the Dirichlet modes of u'' + u'/ρ − u/ρ² = −λ²u are
    # J₁(λρ)Y₁(λδ) − J₁(λδ)Y₁(λρ); the slowest decays at νλ₁²
    big_r = delta + 2.0 * PARAMS.bl
    j1, y1 = scipy.special.j1, scipy.special.y1

    def cross(lam):
        return j1(lam * delta) * y1(lam * big_r) - j1(lam * big_r) * y1(lam * delta)

    grid = np.linspace(1e-3, 2.0, 2000)
    first = np.nonzero(np.diff(np.sign(cross(grid))))[0][0]
    lam1 = scipy.optimize.brentq(cross, grid[first], grid[first + 1], xtol=1e-15, rtol=1e-15)
    bessel = PARAMS.nu * lam1**2
    assert Channel(delta).slowest_rate == pytest.approx(bessel, rel=1e-10)
    assert bessel == pytest.approx(rate, abs=1e-10)


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_outer_wall_shear_follows_the_sqrt_t_law(delta):
    # the start fails the compatibility condition at the outer wall, so its shear
    # moves as in Stokes's first problem: by 8α₁√(νt)/(R√π).  N = 64 is 3 % off
    # at this t: the layer spans too few nodes
    big_r = delta + 2.0 * PARAMS.bl
    channel, t = fine_channel(delta), 1e-5
    law = 8.0 * PARAMS.alpha1 * math.sqrt(PARAMS.nu) / (big_r * math.sqrt(math.pi))
    measured = (channel.outer_shear(t) - channel.outer_shear(0.0)) / math.sqrt(t)
    assert measured == pytest.approx(law, rel=1e-3)  # measured 3.4e-4 / 3.9e-4


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_inner_wall_shear_has_a_t_to_the_three_halves_term(delta):
    # the start fails the second compatibility condition at the inner wall, so
    # τ = α₁ + rate₀·t + C·t^{3/2} + …, rate₀ = −(α₁ν/bl²)(2x + x²) and
    # C = (4/√π)ν^{3/2}(α₁ + α₂δ)/δ³, with a gap to C that shrinks like √t.
    # Measured at δ = 1: 6.63 / 6.50 / 6.25 against C = 6.77
    p, x = PARAMS, PARAMS.bl / delta
    rate0 = -p.alpha1 * p.nu / p.bl**2 * (2.0 * x + x * x)
    big_c = 4.0 / math.sqrt(math.pi) * p.nu**1.5 * (p.alpha1 + p.alpha2 * delta) / delta**3
    channel = fine_channel(delta)
    gaps = [big_c - (channel.inner_shear(t) - p.alpha1 - rate0 * t) / t**1.5
            for t in (1e-4, 4e-4, 1.6e-3)]
    assert 0.0 < gaps[0] < 0.05 * big_c
    for gap, wider in zip(gaps, gaps[1:]):
        assert 0.45 <= gap / wider <= 0.6  # measured 0.51-0.55


def test_dean_first_order_coefficients_in_the_curvature():
    # x = bl/δ: τ∞ = α₁(1 − (4/3)x + O(x²)), max|u∞ − h| / max h = (32/(9√3))x + O(x²)
    x = 1.0 / 4096
    delta = PARAMS.bl / x
    assert abs((1.0 - dean_wall_shear(PARAMS, delta) / PARAMS.alpha1) / x - 4.0 / 3.0) <= 5e-4
    r = np.linspace(0.0, 2.0 * PARAMS.bl, 4001)
    h = PARAMS.alpha1 * r - 0.5 * PARAMS.alpha2 * r * r
    gap = np.max(np.abs(dean_profile(PARAMS, delta, r) - h)) / np.max(h) / x
    assert gap == pytest.approx(32.0 / (9.0 * math.sqrt(3.0)), rel=5e-4)
    # τ∞ changes sign at x = 1
    assert dean_wall_shear(PARAMS, PARAMS.bl / 0.98) > 0.0
    assert dean_wall_shear(PARAMS, PARAMS.bl / 1.02) < 0.0


def _solver_onset_error(delta, n_r):
    """The sector solver's wall-shear onset less the exact one, at n_s = 1 and
    the default step: τ = (9u₁ − u₂)/(3Δρ), its first negative value located
    by linear interpolation between steps."""
    exact = EXACT[delta][0]
    arc = ArcBoundary(delta, (0.0, 0.5 * delta))
    cfg = SimConfig(arc=arc, params=PARAMS, n_s=1, n_r=n_r, t_end=1.1 * exact)
    dt = cfg.effective_dt

    def shear(us):
        return (9.0 * us[0, 0] - us[0, 1]) / (3.0 * cfg.grid.drh)

    state = init_sim(cfg)
    before = shear(state.us)
    for _ in range(cfg.steps):
        state = step(state, cfg)
        after = shear(state.us)
        if after < 0.0:
            return (state.k - 1 + before / (before - after)) * dt - exact
        before = after
    raise AssertionError(f"no wall-shear reversal by t = {cfg.t_end}")


def test_solver_wall_shear_onset_converges_to_the_exact_one():
    # measured −1.121e−3 / −3.469e−4 at δ = 1 (order 1.69), −1.002e−3 at δ = 0.5;
    # the order is pre-asymptotic, and lower at δ = 0.5, so that one is bounded by size
    coarse, fine = _solver_onset_error(1.0, 32), _solver_onset_error(1.0, 64)
    assert coarse < 0.0 and fine < 0.0
    assert math.log2(coarse / fine) >= 1.6
    assert -1.2e-3 <= _solver_onset_error(0.5, 32) <= -0.8e-3


def _slowest_rate_at_unit_curvature():
    """Λ: the slowest decay rate at x = 1, in units of ν/bl².  In units of bl the
    walls are ρ = 1 and R = 3, so Λ = λ₁² for the first root λ₁ of the Bessel
    cross-product J₁(λ)Y₁(3λ) − J₁(3λ)Y₁(λ)."""
    j1, y1 = scipy.special.j1, scipy.special.y1

    def cross(lam):
        return j1(lam) * y1(3.0 * lam) - j1(3.0 * lam) * y1(lam)

    grid = np.linspace(1e-3, 4.0, 4000)
    first = np.nonzero(np.diff(np.sign(cross(grid))))[0][0]
    return scipy.optimize.brentq(cross, grid[first], grid[first + 1], xtol=1e-15, rtol=1e-15)**2


def _onsets_near_unit_curvature(gap):
    """(ν·t_w/bl², ν·t_f/bl²) at x = 1 + gap, δ = bl/x: the wall-shear and the
    net-flux onsets, which come past the default scan's t = 20 as gap → 0."""
    channel = Channel(PARAMS.bl / (1.0 + gap))
    unit = PARAMS.nu / PARAMS.bl**2
    return (unit * first_negative(channel.inner_shear, t_max=30.0),
            unit * first_negative(channel.flux, t_max=30.0))


def test_slowest_rate_at_unit_curvature_is_the_bessel_mode():
    rate = _slowest_rate_at_unit_curvature()
    assert rate == pytest.approx(2.675240, abs=1e-6)
    unit = PARAMS.nu / PARAMS.bl**2
    assert Channel(PARAMS.bl).slowest_rate / unit == pytest.approx(rate, rel=1e-10)


@pytest.mark.parametrize("gap", [1e-4, 1e-5, 1e-6])
def test_wall_shear_onset_near_unit_curvature_is_logarithmic(gap):
    # near x = 1 the steady wall shear is proportional to x − 1 (Dean), and the
    # transient decays like e^{−Λνt/bl²}: the onset is where the two cancel, so
    # ν·t_w/bl² = ln(1/(x − 1))/Λ + const + O(x − 1).
    # Measured 0.1536319 / 0.1536279 / 0.1536282; N = 96 moves them by under 1e−8
    shear_onset, _ = _onsets_near_unit_curvature(gap)
    offset = shear_onset - math.log(1.0 / gap) / _slowest_rate_at_unit_curvature()
    assert offset == pytest.approx(0.153628, abs=1e-5)


@pytest.mark.parametrize("gap", [1e-5, 1e-6])
def test_reversal_window_near_unit_curvature_tends_to_a_constant(gap):
    # the wall shear and the flux both follow the slowest mode, and both steady
    # values are proportional to x − 1, so the two onsets differ by a constant.
    # Measured 0.1191077 / 0.1191075 (in units of bl²/ν)
    shear_onset, flux_onset = _onsets_near_unit_curvature(gap)
    assert flux_onset - shear_onset == pytest.approx(0.119107, abs=1e-5)


def test_wall_shear_onset_tends_to_a_multiple_of_delta_squared_over_nu():
    # as x grows the wall radius, not bl, sets the onset: nu*t_w/delta**2 rises
    # toward about 14 by ever smaller steps.  Collocation needs N = 128 past x = 8
    # and N = 192 past x = 64 to resolve the layer at the inner wall
    onsets = []
    for x in (8, 16, 32, 64, 128, 256):
        delta = PARAMS.bl / x
        unit = delta**2 / PARAMS.nu
        channel = Channel(delta, n=64 if x <= 8 else 128 if x <= 64 else 192)
        onsets.append(first_negative(channel.inner_shear, t_max=20.0 * unit,
                                     scan=0.01 * unit) / unit)
    assert onsets == pytest.approx([4.34389, 6.63916, 9.01074, 10.98732, 12.35597, 13.18372],
                                   abs=1e-5)
    assert all(a < b for a, b in zip(onsets, onsets[1:])) and onsets[-1] < 15.0
    rises = [b - a for a, b in zip(onsets, onsets[1:])]
    assert all(b < a for a, b in zip(rises[2:], rises[3:]))  # from x = 32 on
