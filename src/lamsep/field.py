"""The near-wall shear field carried around a circular wall, and its calculus.

The velocity profile over wall distance r is the shear-with-curvature law

    h(r) = alpha1 * r - (alpha2 / 2) * r**2,

transported along circles concentric with the wall: at wall distance r, that
is at distance delta + r from the origin, the wall's center, the speed is h(r)
and the direction is the clockwise tangent.  Every field on the wall is its
tangential and normal parts, functions of r, composed in :func:`wall_field`.
The closed forms below (Laplacian, advection, the stationary pressure-gradient
ansatz) are all verified against finite differences in :mod:`lamsep.fdops`.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .errors import CheckedRecord, DomainError, ValidationError
from .geometry import ArcBoundary, norm, to_cartesian

VARIANTS = ("paper", "corrected")


class _ParamFields(NamedTuple):
    alpha1: float
    alpha2: float
    nu: float


class LaminarParams(CheckedRecord, _ParamFields):
    """Wall shear rate alpha1, profile curvature alpha2, kinematic viscosity nu,
    all positive: both theorems hold on the layer 0 < r < bl = alpha1/alpha2."""

    __slots__ = ()

    def _check(self):
        for name, value in self._asdict().items():
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")

    @property
    def bl(self) -> float:
        """Boundary-layer thickness alpha1/alpha2."""
        return self.alpha1 / self.alpha2


class FieldHandle(NamedTuple):
    """An evaluable planar vector field.

    ``evaluator`` is the field's one formula, in point form: it maps the
    coordinates of one point, as Python floats, to the two components of the
    vector, ``(x, y) -> (u, v)``.  Calling the handle is how the package
    evaluates a field: ``field((x, y))`` evaluates one point and returns the
    pair ``(u, v)``.

    A field composed by :func:`wall_field` also has ``chart``, its form in the
    wall chart: ``(s, r) -> (tangential, normal)`` parts (None for a field
    given in the plane alone).

    Derivatives of a field come from the finite-difference oracles of
    :mod:`lamsep.fdops`; the laminar field's closed forms are functions of the
    wall distance (``analytic_laplacian``, ``advection``).
    """

    evaluator: Callable[[float, float], tuple[float, float]]
    chart: Callable[[float, float], tuple[float, float]] | None = None

    def __call__(self, x):
        return self.evaluator(*x)


class ScalarFieldHandle(NamedTuple):
    """An evaluable planar scalar field (pressure) with its analytic gradient.

    Point form as for :class:`FieldHandle`: ``evaluator`` maps ``(x, y)`` to
    one float, and ``gradient`` is the :class:`FieldHandle` of the pair
    ``(dp/dx, dp/dy)``.  ``field((x, y))`` returns the float p(x, y).  A
    pressure built on the wall also has ``chart``, ``(s, r) -> p``.
    """

    evaluator: Callable[[float, float], float]
    gradient: FieldHandle
    chart: Callable[[float, float], float] | None = None

    def __call__(self, x):
        return self.evaluator(*x)


def profile_h(params: LaminarParams, r):
    """Speed at wall distance r (a float or an array): alpha1*r - (alpha2/2)*r**2."""
    return params.alpha1 * r - 0.5 * params.alpha2 * r * r


def profile_h_prime(params: LaminarParams, r):
    """d h / d r = alpha1 - alpha2 * r."""
    return params.alpha1 - params.alpha2 * r


def wall_field(arc: ArcBoundary, components) -> FieldHandle:
    """The planar field whose parts along the clockwise tangent and the outward
    normal, at wall distance r, are ``components(r) -> (tangential, normal)``:
    the one place a wall field is composed from its wall frame.  The plane
    evaluator passes r = norm(x, y) - delta, the chart form reads (s, r), and
    both refuse a point whose norm leaves the float range, naming delta."""
    delta = arc.delta

    def evaluate(x: float, y: float) -> tuple[float, float]:
        d = norm(x, y)
        if d == math.inf:
            raise DomainError(f"delta = {delta:g}: the distance of ({x:g}, {y:g}) from the "
                              f"wall's center leaves the float range")
        t, n = components(d - delta)
        n0, n1 = x / d, y / d
        # t along the clockwise tangent (n1, -n0), n along the normal (n0, n1)
        return t * n1 + n * n0, n * n1 - t * n0

    def chart(s: float, r: float) -> tuple[float, float]:
        if (delta + r) * (delta + r) == math.inf:  # the plane form refuses its point
            evaluate(*to_cartesian(arc, (s, r)))
        return components(r)

    return FieldHandle(evaluate, chart)


def laminar_field(arc: ArcBoundary, params: LaminarParams) -> FieldHandle:
    """Velocity field with speed h(r) along clockwise circles: its parts are
    (h(r), 0), so it vanishes on the wall and |u(Phi(s, r))| = h(r)."""
    return wall_field(arc, lambda r: (profile_h(params, r), 0.0))


def wall_gradient(params: LaminarParams, delta: float) -> float:
    """k = nu*(alpha1/delta - alpha2): the tangential pressure gradient that no-slip
    fixes on a wall of radius delta."""
    return params.nu * (params.alpha1 / delta - params.alpha2)


def anchored_gradient(params: LaminarParams, delta: float, d):
    """k*delta/d: the tangential gradient, at distance d (a float or an array)
    from the center, of the wall-anchored pressure k*s."""
    return wall_gradient(params, delta) * delta / d


def near_wall_scale(params: LaminarParams, delta: float) -> float:
    """min(bl, delta): the unit of wall distance near a wall of radius delta."""
    scale = min(params.bl, delta)
    if scale < sys.float_info.min:  # every default radius is a multiple of it
        raise DomainError(f"alpha1 = {params.alpha1:g}, alpha2 = {params.alpha2:g}, delta = "
                          f"{delta:g}: the near-wall scale min(alpha1/alpha2, delta) = "
                          f"{scale:g} is below the smallest normal float")
    return scale


def analytic_laplacian(params: LaminarParams, delta: float, r):
    """Vector Laplacian of the laminar field at wall distance r, in (tangent, normal) parts.

    tangential = -alpha2 + (alpha1 - alpha2*r)/(r + delta) - h(r)/(r + delta)**2,
    normal = 0.  nu * tangential equals the ansatz component P(r).  Here and in
    the helpers below r is a float or an array.
    """
    s = r + delta
    return -params.alpha2 + profile_h_prime(params, r) / s - profile_h(params, r) / (s * s), 0.0


def advection(params: LaminarParams, delta: float, r, variant: str = "paper"):
    """Normal component of (u . grad) u at wall distance r; the tangential part is 0.

    variant "paper" returns -h(r)/(r + delta) as printed; variant "corrected"
    returns the centripetal value -h(r)**2/(r + delta).  Both are exposed so the
    finite-difference oracle can adjudicate which one the flow obeys.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    h = profile_h(params, r)
    if variant == "paper":
        return -h / (r + delta)
    return -h * h / (r + delta)


def stationary_gradp_ansatz(params: LaminarParams, delta: float, r):
    """Pressure-gradient components (P, Pperp) a stationary flow would require, as printed.

    P(r) = nu * (alpha1/(r+d) - alpha2*r/(r+d) - h(r)/(r+d)**2 - alpha2) and
    Pperp(r) = h(r)/(r+d), the negated printed advection (see ``advection``,
    whose "corrected" variant carries the extra factor h(r)).
    """
    return params.nu * analytic_laplacian(params, delta, r)[0], -advection(params, delta, r)


def stationary_gradp_field(arc: ArcBoundary, params: LaminarParams) -> FieldHandle:
    """The printed ansatz gradient as a planar field: P(r) along circles, Pperp(r) outward."""
    delta = arc.delta
    return wall_field(arc, lambda r: stationary_gradp_ansatz(params, delta, r))


def write_csv(path, header, rows) -> None:
    """The one CSV writer: a header row, then ``rows`` of numbers, each cell
    with 17 significant digits so that floats round-trip; lines end in CRLF."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join([f"{v:.17g}" for v in row]) + "\r\n" for row in rows)
