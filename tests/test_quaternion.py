import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meridian4.quaternion import (
    Quaternion, angles, from_lift, mul, unit_axis,
)
from meridian4.errors import OnAxis, ZeroQuaternion

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def q_close(p, q, tol=1e-12):
    return (p - q).norm() <= tol


# ---------------------------------------------------------------------------
# Hamilton table and arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b,expected", [
    (I, J, K),
    (J, K, I),
    (K, I, J),
    (J, I, -K),
    (I, I, -ONE),
    (J, J, -ONE),
    (K, K, -ONE),
])
def test_hamilton_table(a, b, expected):
    assert a * b == expected


def test_known_product():
    p = Quaternion(1, 2, 3, 4)
    q = Quaternion(5, 6, 7, 8)
    assert p * q == Quaternion(-60, 12, 30, 24)
    # noncommutative: q*p differs in the imaginary part
    assert q * p == Quaternion(-60, 20, 14, 32)


def test_scalar_and_linear_ops():
    p = Quaternion(1, -2, 0.5, 3)
    assert 2 * p == Quaternion(2, -4, 1, 6)
    assert p * 2 == 2 * p
    assert p + (-p) == Quaternion()
    assert p - p == Quaternion()


def test_inverse():
    p = Quaternion(1, 2, 3, 4)
    assert q_close(p * p.inverse(), ONE)
    assert q_close(p.inverse() * p, ONE)
    assert I.inverse() == -I
    with pytest.raises(ZeroQuaternion):
        Quaternion().inverse()


def test_conj_and_norm():
    p = Quaternion(1, 2, 3, 4)
    assert p.conj() == Quaternion(1, -2, -3, -4)
    assert p.norm_sq() == 30
    # q * conj(q) is real and equals |q|^2
    assert p * p.conj() == Quaternion(30, 0, 0, 0)


# ---------------------------------------------------------------------------
# axial decomposition
# ---------------------------------------------------------------------------

def test_axial_split_345():
    x = Quaternion(3, 0, 4, 0)
    assert x.rho() == 4.0
    assert unit_axis(x) == J
    assert x.norm() == 5.0
    assert from_lift(complex(3.0, 4.0), x) == x


def test_axial_split_on_axis():
    assert unit_axis(Quaternion(2.5, 0, 0, 0)) is None


def test_axis_squares_to_minus_one():
    axis = unit_axis(Quaternion(1, 2, -2, 1))
    assert q_close(axis * axis, -ONE)


# ---------------------------------------------------------------------------
# angular chart
# ---------------------------------------------------------------------------

def test_angles_basic():
    c = angles(Quaternion(1, 0, 0, 1))
    assert math.isclose(c.r, math.sqrt(2), rel_tol=1e-15)
    assert math.isclose(c.varphi, math.pi / 4, rel_tol=1e-15)
    assert math.isclose(c.theta, math.pi / 2, rel_tol=1e-15)
    assert math.isclose(c.psi, math.pi / 2, rel_tol=1e-15)


def test_angles_psi_quarter():
    c = angles(Quaternion(0, 0, 1, 1))
    assert math.isclose(c.varphi, math.pi / 2, rel_tol=1e-15)
    assert math.isclose(c.theta, math.pi / 2, rel_tol=1e-15)
    assert math.isclose(c.psi, math.pi / 4, rel_tol=1e-15)


def test_angles_on_x1_axis():
    c = angles(Quaternion(0, 1, 0, 0))
    assert c.theta == 0.0
    assert c.psi is None
    # x3 < 0 is the other missing half space
    assert angles(Quaternion(0, 1, 1, -1)).psi is None


def test_angles_on_real_axis_raises():
    with pytest.raises(OnAxis):
        angles(Quaternion(1, 0, 0, 0))


def test_angles_theta_range():
    assert math.isclose(angles(Quaternion(0, -1, 0, 1e-9)).theta, math.pi,
                        rel_tol=1e-6)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-100, max_value=100,
                   allow_nan=False, allow_infinity=False)


def quats(nonzero=False):
    def build(x0, x1, x2, x3):
        return Quaternion(x0, x1, x2, x3)
    base = st.builds(build, finite, finite, finite, finite)
    if nonzero:
        return base.filter(lambda q: q.norm_sq() > 1e-6)
    return base


@given(quats(), quats(), quats())
@settings(max_examples=200)
def test_associativity(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    scale = max(1.0, p.norm() * q.norm() * r.norm())
    assert (lhs - rhs).norm() <= 1e-9 * scale


@given(quats(), quats())
@settings(max_examples=200)
def test_conj_antiautomorphism(p, q):
    lhs = (p * q).conj()
    rhs = q.conj() * p.conj()
    assert (lhs - rhs).norm() <= 1e-9 * max(1.0, p.norm() * q.norm())


@given(quats(), quats())
@settings(max_examples=200)
def test_norm_multiplicative(p, q):
    assert math.isclose((p * q).norm(), p.norm() * q.norm(),
                        rel_tol=1e-10, abs_tol=1e-10)


@given(quats(nonzero=True))
@settings(max_examples=200)
def test_axial_round_trip(x):
    back = from_lift(complex(x.x0, x.rho()), x)
    assert (back - x).norm() <= 1e-12 * max(1.0, x.norm())


@pytest.mark.parametrize("x", [
    Quaternion(1.0, 3.5675638243663433e-159, 0.0, 0.0),
    Quaternion(1.0, 0.0, 0.0, 1.3341594301911255e-157),
    Quaternion(0.0, 1e-310, 1e-310, 3e-311),
    Quaternion(0.0, 5e-324, 5e-324, 0.0),
])
def test_axial_split_tiny_components(x):
    # squaring such components underflows; the axis must still be unit
    assert abs(unit_axis(x).norm() - 1.0) <= 1e-15
    assert math.isclose(x.rho(), math.hypot(x.x1, x.x2, x.x3))
    back = from_lift(complex(x.x0, x.rho()), x)
    assert (back - x).norm() <= 1e-12


any_float = st.floats(allow_nan=False, allow_infinity=False)


@given(st.builds(Quaternion, any_float, any_float, any_float, any_float))
@example(Quaternion(0.3, 0.8, -0.4, 0.6))  # a three-argument math.hypot rounds it otherwise
@example(Quaternion(1.0, 3.5675638243663433e-159, 0.0, 0.0))
@example(Quaternion(0.0, 1e-160, -2e-160, 3e-160))
@example(Quaternion(0.0, 1e-310, 1e-310, 3e-311))
@example(Quaternion(0.0, 5e-324, 5e-324, 0.0))
@example(Quaternion(0.0, 0.0, 1.3e308, 1.3e308))
@settings(max_examples=200)
def test_rho_of_a_point_alone_has_its_bits_in_an_array(x):
    # a point passed as floats and the same point among others in arrays
    # take one rounding, so a verifier steps alike in both; components
    # below 1e-154, whose squares underflow, included
    cloud = Quaternion(*(np.array([c, 0.5, -2.0]) for c in x.components()))
    alone = x.rho()
    with np.errstate(over="ignore"):  # an array past 1.8e308 warns; a float gives inf
        in_cloud = float(cloud.rho()[0])
    assert type(alone) is float
    assert alone.hex() == in_cloud.hex()
    assert alone > 0.0 or x.x1 == x.x2 == x.x3 == 0.0


@given(quats().filter(lambda q: q.rho() > 1e-3))
@example(Quaternion(48.113361462113815, 0.0, 0.0, 0.015625))  # small varphi
@settings(max_examples=200)
def test_angles_round_trip(x):
    c = angles(x)
    rho = x.rho()
    assert math.isclose(rho, c.r * math.sin(c.varphi),
                        rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(x.x0, c.r * math.cos(c.varphi),
                        rel_tol=1e-9, abs_tol=1e-9 * c.r)
    assert math.isclose(x.x1, rho * math.cos(c.theta),
                        rel_tol=1e-9, abs_tol=1e-9 * rho)
    if c.psi is not None:
        assert math.isclose(x.x2, rho * math.sin(c.theta) * math.cos(c.psi),
                            rel_tol=1e-9, abs_tol=1e-9 * rho)
        assert math.isclose(x.x3, rho * math.sin(c.theta) * math.sin(c.psi),
                            rel_tol=1e-9, abs_tol=1e-9 * rho)


def test_from_lift_embeds_along_the_axis():
    got = from_lift(complex(1.5, -2.0), Quaternion(0.3, 0.0, 0.6, 0.8))
    assert got == Quaternion(1.5, 0.0, -2.0 * 0.6, -2.0 * 0.8)
    # on the real axis only a real value has a direction-free embedding
    assert from_lift(complex(2.0, 1e-13), Quaternion(-1.0, 0, 0, 0)) == Quaternion(2.0, 0, 0, 0)
    with pytest.raises(OnAxis):
        from_lift(complex(2.0, 1e-11), Quaternion(-1.0, 0, 0, 0))
