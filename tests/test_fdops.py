import math
from fractions import Fraction

import numpy as np
import pytest

from lamsep.errors import NonMonotoneSequence
from lamsep.fdops import (
    StencilSpec,
    fd_advection,
    fd_gradient,
    fd_laplacian,
    richardson,
)
from lamsep.field import FieldHandle, LaminarParams, laminar_field, profile_h_prime
from lamsep.geometry import ArcBoundary, local_frame


CONST = FieldHandle(evaluator=lambda x, y: (1.5, -2.0))
LINEAR = FieldHandle(evaluator=lambda x, y: (y, -x))
HARMONIC = FieldHandle(evaluator=lambda x, y: (x * x - y * y, -2 * x * y))
QUADRATIC = FieldHandle(evaluator=lambda x, y: (y * y, 0.0))
ROTATION = FieldHandle(evaluator=lambda x, y: (-y, x))


def test_stencil_validation():
    with pytest.raises(ValueError):
        StencilSpec(h=0.0)
    with pytest.raises(ValueError):
        StencilSpec(h=0.1, order=3)


def test_gradient_constant_field():
    assert np.allclose(fd_gradient(CONST, [0.3, 0.7], StencilSpec(h=1e-3)), 0.0, atol=1e-12)


def test_gradient_linear_exact():
    jac = fd_gradient(LINEAR, [0.2, -0.4], StencilSpec(h=1e-3))
    assert np.allclose(jac, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_gradient_order4_exact_on_quartics():
    quartic = FieldHandle(evaluator=lambda x, y: (x**4, y**4))
    jac = fd_gradient(quartic, [0.5, 0.5], StencilSpec(h=1e-2, order=4))
    assert jac[0, 0] == pytest.approx(4 * 0.5**3, abs=1e-11)
    assert jac[1, 1] == pytest.approx(4 * 0.5**3, abs=1e-11)


def test_gradient_matches_wall_shear():
    arc = ArcBoundary(1.0, 0.0, (0.0, 0.0), (0.0, 0.5))
    params = LaminarParams(1.0, 1.0, 1.0)
    field = laminar_field(arc, params)
    frame = local_frame(arc, 0.0)
    x = frame.to_world(0.0, 0.2)
    jac = fd_gradient(field, x, StencilSpec(h=1e-4, order=2))
    # dv1/dr at s=0 is the profile slope
    dv1_dr = frame.e1 @ jac @ frame.e2
    assert dv1_dr == pytest.approx(profile_h_prime(params, 0.2), abs=1e-6)


def test_laplacian_harmonic_field():
    lap = fd_laplacian(HARMONIC, [0.4, -0.3], StencilSpec(h=1e-3))
    assert np.linalg.norm(lap) <= 1e-10


def test_laplacian_quadratic_exact():
    lap = fd_laplacian(QUADRATIC, [0.7, 0.2], StencilSpec(h=1e-3))
    assert np.allclose(lap, [2.0, 0.0], atol=1e-9)


def test_laplacian_order_convergence():
    smooth = FieldHandle(evaluator=lambda x, y: (math.sin(x) * math.cos(y), math.cos(x)))
    x = np.array([0.3, 0.6])
    exact = np.array([-2 * np.sin(0.3) * np.cos(0.6), -np.cos(0.3)])
    for order in (2, 4):
        errs = [
            np.linalg.norm(fd_laplacian(smooth, x, StencilSpec(h=h, order=order)) - exact)
            for h in (0.1, 0.05, 0.025)
        ]
        observed = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(observed - order) < 0.3)


def test_advection_rigid_rotation():
    adv = fd_advection(ROTATION, [1.0, 0.0], StencilSpec(h=1e-4))
    assert np.allclose(adv, [-1.0, 0.0], atol=1e-8)


# float samples extrapolate to roundoff; Fraction samples stay exact
NUMBER_TYPES = pytest.mark.parametrize("num", [float, Fraction])


def _assert_limit(value, num, want: str):
    if num is Fraction:
        assert value == Fraction(want)
    else:
        assert value == pytest.approx(float(want), abs=1e-12)


@NUMBER_TYPES
def test_richardson_exact_order2(num):
    samples = [(h, num("3.7") + 2 * h**2) for h in map(num, ("0.1", "0.05", "0.025"))]
    res = richardson(samples, order=2)
    _assert_limit(res.value, num, "3.7")
    assert res.observed_order == pytest.approx(2.0, abs=1e-6)


@NUMBER_TYPES
def test_richardson_order1(num):
    samples = [(h, num("-1") + num("0.5") * h) for h in map(num, ("0.2", "0.1", "0.05"))]
    res = richardson(samples, order=1)
    _assert_limit(res.value, num, "-1")
    assert res.observed_order == pytest.approx(1.0, abs=1e-6)


def test_richardson_theorem2_samples():
    from lamsep.theorems import theorem2_ratio

    params = LaminarParams(1.0, 1.0, 1.0)
    samples = [(r, float(theorem2_ratio(params, 1.0, r))) for r in (0.04, 0.02, 0.01)]
    res = richardson(samples, order=1)
    assert res.value == pytest.approx(-3.0, abs=2e-3)
    assert abs(res.observed_order - 1.0) < 0.2


@NUMBER_TYPES
def test_richardson_nonmonotone_raises(num):
    samples = [(num(h), num(v)) for h, v in (("0.1", "1.0"), ("0.05", "1.5"), ("0.025", "3.0"))]
    with pytest.raises(NonMonotoneSequence):
        richardson(samples, order=1)


def test_richardson_needs_two_samples():
    with pytest.raises(ValueError):
        richardson([(0.1, 1.0)], order=2)
    with pytest.raises(ValueError):
        richardson([(0.1, 1.0), (0.2, 1.1)], order=2)


def test_richardson_error_estimate_shrinks():
    samples = [(h, 1.0 + h + 0.3 * h**2) for h in (0.2, 0.1, 0.05, 0.025)]
    res = richardson(samples, order=1)
    assert res.error_estimate < 0.3 * 0.2**2
    assert res.levels_used == 4


def test_fd_never_touches_analytic_paths():
    def booby_trap(_x):
        raise AssertionError("analytic derivative path must not be called")

    field = FieldHandle(
        evaluator=lambda x, y: (y * y, x * x),
        jacobian=booby_trap,
        laplacian=booby_trap,
    )
    fd_gradient(field, [0.3, 0.4], StencilSpec(h=1e-3))
    fd_laplacian(field, [0.3, 0.4], StencilSpec(h=1e-3))
    fd_advection(field, [0.3, 0.4], StencilSpec(h=1e-3))

