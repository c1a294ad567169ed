"""The near-wall shear field carried around a circular wall, and its calculus.

The velocity profile over wall distance r is the shear-with-curvature law

    h(r) = alpha1 * r - (alpha2 / 2) * r**2,

transported along circles concentric with the wall: at distance d from the
center the speed is h(d - delta) and the direction is the clockwise tangent.
The closed forms below (Laplacian, advection, the stationary
pressure-gradient ansatz) are all verified against finite differences in
:mod:`lamsep.fdops`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import ArcBoundary, center_offset

VARIANTS = ("paper", "corrected")


@dataclass(frozen=True)
class LaminarParams:
    """Wall shear rate alpha1, profile curvature alpha2, kinematic viscosity nu.

    alpha2 == 0 is permitted as an internal pure-shear test mode; the theorem
    operations reject it.
    """

    alpha1: float
    alpha2: float
    nu: float

    def __post_init__(self):
        if self.alpha1 <= 0:
            raise ValueError(f"alpha1 must be positive, got {self.alpha1}")
        if self.alpha2 < 0:
            raise ValueError(f"alpha2 must be >= 0, got {self.alpha2}")
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")

    @property
    def bl(self) -> float:
        """Boundary-layer thickness alpha1/alpha2 (inf in pure-shear test mode)."""
        return self.alpha1 / self.alpha2 if self.alpha2 > 0 else float("inf")


def _map_points(point, x, width: int) -> np.ndarray:
    """Apply a point function to every point of an (..., 2) array.

    ``width`` is 2 for a vector field and 0 for a scalar one; the result has
    the points' leading shape plus that trailing axis.
    """
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1:] != (2,):
        raise ValueError(f"points must have shape (..., 2), got {pts.shape}")
    values = [point(a, b) for a, b in pts.reshape(-1, 2).tolist()]
    return np.array(values, dtype=float).reshape(pts.shape[:-1] + ((width,) if width else ()))


@dataclass(frozen=True)
class FieldHandle:
    """An evaluable planar vector field, optionally with analytic derivatives.

    ``evaluator`` is the field's one formula, in point form: it maps the
    coordinates of one point, as Python floats, to the two components of the
    vector, ``(x, y) -> (u, v)``.  Calling the handle is how the package
    evaluates a field, in one of two ways:

    - ``field((x, y))``, with a tuple, is one point: it returns the tuple
      ``(u, v)``.  The tracer marches on these.
    - ``field(points)``, with any other array-like of shape (..., 2), maps the
      evaluator over the points and returns an array of the same shape.

    ``jacobian`` and ``laplacian``, when given, take and return arrays and
    must match the finite-difference oracles of :mod:`lamsep.fdops`.
    """

    evaluator: Callable[[float, float], tuple[float, float]]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    laplacian: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __call__(self, x):
        if type(x) is tuple:
            return self.evaluator(*x)
        return _map_points(self.evaluator, x, 2)


@dataclass(frozen=True)
class ScalarFieldHandle:
    """An evaluable planar scalar field (pressure) with its analytic gradient.

    Point form as for :class:`FieldHandle`: ``evaluator`` maps ``(x, y)`` to
    one float, and ``gradient`` maps ``(x, y)`` to the pair
    ``(dp/dx, dp/dy)``.  ``field((x, y))`` returns a float, ``field(points)``
    an array of the points' leading shape.
    """

    evaluator: Callable[[float, float], float]
    gradient: Callable[[float, float], tuple[float, float]]
    name: str = ""

    def __call__(self, x):
        if type(x) is tuple:
            return self.evaluator(*x)
        return _map_points(self.evaluator, x, 0)


def profile_h(params: LaminarParams, r):
    """Speed at wall distance r (a float or an array): alpha1*r - (alpha2/2)*r**2."""
    return params.alpha1 * r - 0.5 * params.alpha2 * r * r


def profile_h_prime(params: LaminarParams, r):
    """d h / d r = alpha1 - alpha2 * r."""
    return params.alpha1 - params.alpha2 * r


def _clockwise_tangent(rel: np.ndarray) -> np.ndarray:
    # rotate the outward radial direction by -90 degrees: (x, y) -> (y, -x)
    return np.stack([rel[..., 1], -rel[..., 0]], axis=-1)


def laminar_field(arc: ArcBoundary, params: LaminarParams) -> FieldHandle:
    """Velocity field with speed h(dist - delta) along clockwise circles.

    In the local frame at any wall point the components are
    v1 = h(rho - delta) * (delta + r) / rho and v2 = -h(rho - delta) * s / rho
    with rho = sqrt((delta + r)**2 + s**2); on the wall the field vanishes and
    |u(Phi(s, r))| = h(r).
    """
    center = arc.center_array
    delta = arc.delta

    def evaluate(x: float, y: float) -> tuple[float, float]:
        rx, ry, d = center_offset(arc.center, x, y)
        g = profile_h(params, d - delta) / d
        return g * ry, g * -rx

    def jacobian(x: np.ndarray) -> np.ndarray:
        rel = np.asarray(x, dtype=float) - center
        d = np.linalg.norm(rel, axis=-1)
        h = profile_h(params, d - delta)
        hp = profile_h_prime(params, d - delta)
        g = h / d
        gp = (hp * d - h) / (d * d)
        tang = _clockwise_tangent(rel)
        jac = gp[..., None, None] * tang[..., :, None] * (rel / d[..., None])[..., None, :]
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return jac + g[..., None, None] * rot

    def laplacian(x: np.ndarray) -> np.ndarray:
        rel = np.asarray(x, dtype=float) - center
        d = np.linalg.norm(rel, axis=-1)
        r = d - delta
        mag = -params.alpha2 + profile_h_prime(params, r) / d - profile_h(params, r) / d**2
        return mag[..., None] * _clockwise_tangent(rel) / d[..., None]

    return FieldHandle(
        evaluator=evaluate,
        jacobian=jacobian,
        laplacian=laplacian,
        name="laminar",
    )


def _laplacian_tangential(params: LaminarParams, delta: float, r):
    return (
        -params.alpha2
        + (params.alpha1 - params.alpha2 * r) / (r + delta)
        - profile_h(params, r) / (r + delta) ** 2
    )


def analytic_laplacian(params: LaminarParams, delta: float, r):
    """Vector Laplacian of the laminar field at wall distance r, in (tangent, normal) parts.

    tangential = -alpha2 + (alpha1 - alpha2*r)/(r + delta) - h(r)/(r + delta)**2,
    normal = 0.  nu * tangential equals the ansatz component P(r).  Here and in
    the helpers below r is a float or an array.
    """
    tangential = _laplacian_tangential(params, delta, r)
    return tangential, np.zeros_like(tangential)


def advection(params: LaminarParams, delta: float, r, variant: str = "paper"):
    """Normal component of (u . grad) u at wall distance r; the tangential part is 0.

    variant "paper" returns -h(r)/(r + delta) as printed; variant "corrected"
    returns the centripetal value -h(r)**2/(r + delta).  Both are exposed so the
    finite-difference oracle can adjudicate which one the flow obeys.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    h = profile_h(params, r)
    if variant == "paper":
        return -h / (r + delta)
    return -h * h / (r + delta)


def stationary_gradp_ansatz(params: LaminarParams, delta: float, r, variant: str = "paper"):
    """Pressure-gradient components (P, Pperp) a stationary flow would require.

    P(r) = nu * (alpha1/(r+d) - alpha2*r/(r+d) - h(r)/(r+d)**2 - alpha2) and
    Pperp(r) = h(r)/(r+d) under the printed variant; the "corrected" variant
    carries the extra factor h(r) (see ``advection``).
    """
    pperp = -advection(params, delta, r, variant)
    return params.nu * _laplacian_tangential(params, delta, r), pperp


def stationary_gradp_field(
    arc: ArcBoundary, params: LaminarParams, variant: str = "paper"
) -> FieldHandle:
    """The ansatz gradient as a planar field: P(r) along circles, Pperp(r) outward."""
    delta = arc.delta

    def evaluate(x: float, y: float) -> tuple[float, float]:
        rx, ry, d = center_offset(arc.center, x, y)
        p_t, p_n = stationary_gradp_ansatz(params, delta, d - delta, variant)
        n0, n1 = rx / d, ry / d
        # p_t along the clockwise tangent (n1, -n0), p_n along the normal
        return p_t * n1 + p_n * n0, p_t * -n0 + p_n * n1

    return FieldHandle(evaluator=evaluate, name=f"gradp-ansatz-{variant}")


def write_csv(path, header, rows) -> None:
    """The one CSV writer: a header row, then ``rows``.  String cells pass
    through; every other cell gets 17 significant digits, so floats round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else f"{v:.17g}" for v in row] for row in rows)
