import cmath
import math
import random

import pytest

from meridian4.quaternion import Quaternion
from meridian4.holomorphic import (
    MoebiusRealCoeffs,
    RadialFunction,
    antiholomorphy_residual,
    conjugate,
    default_fd_step,
    elementary,
    eval_lift,
    moebius,
    moebius_potential,
    qcos,
    qexp,
    qln,
    qpow,
    qsin,
    radial_derivative,
)
from meridian4.errors import BranchCut, DomainError, OnAxis, Pole, StepTooLarge, Unsupported

# frozen 50-digit references for the lift at z = 0.3 + 0.7i
Z_PROBE = complex(0.3, 0.7)
LIFT_AT_PROBE = {
    "qexp": complex(1.0324289629116616, 0.8696029191140401),
    "qcos": complex(1.199108751098743, -0.2241768123375429),
    "qsin": complex(0.37092780393896435, 0.7247026904232854),
    "qln": complex(-0.2723635877208361, 1.1659045405098132),
}


# ---------------------------------------------------------------------------
# evaluation examples
# ---------------------------------------------------------------------------

def test_square_matches_hamilton_square():
    x = Quaternion(1, 2, 2, 0)
    got = eval_lift(qpow(2), x)
    assert (got - x * x).norm() < 1e-14
    assert (got - Quaternion(-7, 4, 4, 0)).norm() < 1e-14


def test_exp_of_i_pi_is_minus_one():
    got = eval_lift(qexp(), Quaternion(0, math.pi, 0, 0))
    assert abs(got.x0 + 1.0) < 1e-15
    assert got.rho() < 1e-15


def test_ln_of_unit_i():
    got = eval_lift(qln(), Quaternion(0, 1, 0, 0))
    assert abs(got.x0) < 1e-15
    assert abs(got.x1 - math.pi / 2) < 1e-15


@pytest.mark.parametrize("name", ["qexp", "qcos", "qsin", "qln"])
def test_lift_values_against_reference(name):
    w = LIFT_AT_PROBE[name]
    got = eval_lift(elementary(name), Quaternion(0.3, 0, 0.7, 0))
    assert abs(got.x0 - w.real) < 1e-15
    assert abs(got.x2 - w.imag) < 1e-15
    assert got.x1 == got.x3 == 0.0


def test_inverse_power_on_unit_i():
    # -x^{-1} at x = i is i itself
    got = eval_lift(-1.0 * qpow(-1), Quaternion(0, 1, 0, 0))
    assert (got - Quaternion(0, 1, 0, 0)).norm() < 1e-15


def test_real_axis_evaluation():
    got = eval_lift(qexp(), Quaternion(1.5, 0, 0, 0))
    assert got == Quaternion(math.exp(1.5), 0, 0, 0)


def test_on_axis_ambiguity_raises():
    spinner = RadialFunction("iz", lift=lambda z: 1j * z)
    with pytest.raises(OnAxis):
        eval_lift(spinner, Quaternion(2, 0, 0, 0))


# ---------------------------------------------------------------------------
# derivative table
# ---------------------------------------------------------------------------

def test_cube_derivative_at_one_plus_i():
    d = radial_derivative(qpow(3), 1.0, 1.0)
    # 3(1+i)^2 = 6i
    assert abs(d.real) < 1e-12
    assert abs(d.imag - 6.0) < 1e-12


def _fd5(lift, z, h):
    """Five-point central difference of an analytic lift along the real axis."""
    return (-lift(z + 2 * h) + 8 * lift(z + h)
            - 8 * lift(z - h) + lift(z - 2 * h)) / (12 * h)


FUNCS = [qexp(), qcos(), qsin(), qln(), qpow(2), qpow(3), qpow(-1), qpow(0.5)]


@pytest.mark.parametrize("f", FUNCS, ids=lambda f: f.name)
def test_derivative_table_against_fd(f):
    rng = random.Random(7)
    fd = f.derivative()
    for _ in range(25):
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5))
        approx = _fd5(f.lift, z, 1e-3)
        exact = fd.lift(z)
        assert abs(approx - exact) <= 1e-8 * max(1.0, abs(exact))


def test_trig_four_cycle():
    f = qcos()
    for _ in range(4):
        f = f.derivative()
    z = complex(0.4, 0.9)
    assert abs(f.lift(z) - qcos().lift(z)) < 1e-15


def test_exp_fixed_point_of_derivative():
    z = complex(-0.2, 1.1)
    assert qexp().derivative().lift(z) == qexp().lift(z)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", FUNCS, ids=lambda f: f.name)
def test_primitive_inverts_derivative(f):
    prim = f.primitive()
    z = complex(0.8, 0.6)
    assert abs(prim.derivative().lift(z) - f.lift(z)) < 1e-12


def test_primitive_of_inverse_is_log():
    prim = qpow(-1).primitive()
    z = complex(0.8, 0.6)
    assert abs(prim.lift(z) - cmath.log(z)) < 1e-15


def test_primitive_of_log():
    prim = qln().primitive()
    z = complex(1.3, 0.4)
    assert abs(prim.lift(z) - (z * cmath.log(z) - z)) < 1e-15
    assert abs(prim.derivative().lift(z) - cmath.log(z)) < 1e-15


def test_linear_combination_closes():
    f = 2.0 * qexp() - qcos()
    expect = 2 * LIFT_AT_PROBE["qexp"] - LIFT_AT_PROBE["qcos"]
    expect_d = 2 * LIFT_AT_PROBE["qexp"] + LIFT_AT_PROBE["qsin"]
    for g, sign in ((f, 1), (-f, -1)):
        assert abs(g.lift(Z_PROBE) - sign * expect) < 1e-15
        # derivative distributes over the combination
        assert abs(g.derivative().lift(Z_PROBE) - sign * expect_d) < 1e-15


# ---------------------------------------------------------------------------
# Moebius transformations
# ---------------------------------------------------------------------------

def test_moebius_determinant_validation():
    with pytest.raises(DomainError):
        MoebiusRealCoeffs(1, 1, 1, 1)  # ad - bc = 0
    MoebiusRealCoeffs(2, 1, 1, 1)      # ad - bc = 1 is fine


def test_moebius_value():
    m = moebius(MoebiusRealCoeffs(2, 1, 1, 1))
    got = eval_lift(m, Quaternion(0, 1, 0, 0))
    # (2i+1)(i+1)^{-1} = (3+i)/2
    assert (got - Quaternion(1.5, 0.5, 0, 0)).norm() < 1e-15


def test_moebius_pole():
    m = moebius(MoebiusRealCoeffs(1, -3, 1, -2))  # det = -2+3 = 1, pole at x=2
    with pytest.raises(Pole):
        eval_lift(m, Quaternion(2, 0, 0, 0))


def test_moebius_affine_branch():
    m = moebius(MoebiusRealCoeffs(2, 3, 0, 0.5))
    got = m.lift(complex(1, 1))
    assert abs(got - (4 * complex(1, 1) + 6)) < 1e-15


def test_moebius_derivative_chain():
    m = moebius(MoebiusRealCoeffs(2, 1, 1, 1))
    z = complex(0.3, 0.8)
    # (az+b)/(cz+d) with ad-bc=1 has derivative 1/(cz+d)^2
    assert abs(m.derivative().lift(z) - 1 / (z + 1) ** 2) < 1e-14
    # and F'' = -2c/(cz+d)^3, from the power table as well
    assert abs(m.derivative().derivative().lift(z) + 2 / (z + 1) ** 3) < 1e-14


@pytest.mark.parametrize("near", ["zero", "pole", "plane"])
def test_moebius_value_against_mpmath(near):
    """The lift (a z + b)/(c z + d) against mpmath at 40 digits, within a
    bound derived from the quotient's operations (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.6), u = eps/2 and
    gamma_n = n u/(1 - n u).

    A real times a complex number rounds each part once, and adding a real
    rounds the real part once more, so the computed numerator N is within
    gamma_2 (|a z| + |b|) of a z + b and the computed denominator D within
    gamma_2 (|c z| + |d|) of c z + d.  Smith's division (CPython's) rounds
    each part of the quotient within gamma_7, so |delta| <= sqrt(2) gamma_7.
    With kappa = (|c z| + |d|)/|c z + d|, the error is at most
        [gamma_2 (1 + kappa) + sqrt(2) gamma_7 (1 + gamma_2)] / (1 - gamma_2 kappa)
    units of eps (|a z| + |b|)/|c z + d|.  The unit holds the numerator's
    cancellation near the zero -b/a; kappa grows near the pole -d/c."""
    mpmath = pytest.importorskip("mpmath")
    eps = 2.0 ** -52
    g2, g7 = (n * eps / 2 / (1 - n * eps / 2) for n in (2, 7))
    rng = random.Random(20)
    with mpmath.workdps(40):
        for _ in range(200):
            a, b, c = (rng.choice((-1, 1)) * rng.uniform(0.1, 3.0) for _ in range(3))
            d = (1.0 + b * c) / a
            f = moebius(MoebiusRealCoeffs(a, b, c, d))
            centre = {"zero": -b / a, "pole": -d / c, "plane": 0.0}[near]
            for _ in range(50):
                if near == "plane":
                    z = complex(rng.uniform(-3.0, 3.0), rng.uniform(1e-3, 3.0))
                else:  # within 1e-2 of the centre, Im z in [1e-3, 1e-2]
                    y = rng.uniform(1e-3, 1e-2)
                    z = complex(centre + rng.uniform(-1.0, 1.0) * math.sqrt(1e-4 - y * y), y)
                kappa = (abs(c * z) + abs(d)) / abs(c * z + d)
                unit = eps * (abs(a * z) + abs(b)) / abs(c * z + d)
                bound = ((g2 * (1 + kappa) + math.sqrt(2) * g7 * (1 + g2))
                         / (eps * (1 - g2 * kappa)))
                exact = (a * mpmath.mpc(z) + b) / (c * mpmath.mpc(z) + d)
                assert float(abs(f.lift(z) - exact)) <= bound * unit, (a, b, c, d, z)


def test_moebius_potential_reference():
    pot = moebius_potential(0.25, 1.5)
    z = complex(0.4, 1.1)
    assert abs(pot.lift(z) -
               complex(-0.6863869640312544, -0.24979577165010733)) < 1e-15
    assert abs(pot.derivative().lift(z) -
               complex(-0.1441908713692946, 0.22821576763485477)) < 1e-15


# ---------------------------------------------------------------------------
# antiholomorphy residual
# ---------------------------------------------------------------------------

def test_holomorphic_residual_small():
    assert antiholomorphy_residual(qexp(), 0.5, 0.7) < 1e-6


def test_conjugate_residual_large():
    # d/dconj of conj(e^z) has modulus e^{x0}
    res = antiholomorphy_residual(conjugate(qexp()), 1.0, 1.0)
    assert abs(res - math.e) < 1e-3


def test_residual_guards():
    with pytest.raises(OnAxis):
        antiholomorphy_residual(qexp(), 0.5, 0.0)
    with pytest.raises(StepTooLarge):
        antiholomorphy_residual(qexp(), 0.5, 1e-5)


def test_residual_quadratic_in_step():
    # the residual of a non-holomorphic lift converges to the analytic value
    f = RadialFunction("mix", lift=lambda z: z * z + 0.1 * (z.conjugate()) ** 3)
    base = antiholomorphy_residual(f, 0.9, 1.1)
    # analytic |dbar f| = 0.3|conj(z)|^2; FD converges to it
    exact = 0.3 * abs(complex(0.9, 1.1)) ** 2
    assert abs(base - exact) / exact < 1e-5


# ---------------------------------------------------------------------------
# guards and errors
# ---------------------------------------------------------------------------

def test_branch_cuts():
    with pytest.raises(BranchCut):
        eval_lift(qln(), Quaternion(-1, 0, 0, 0))
    with pytest.raises(BranchCut):
        eval_lift(qpow(0.5), Quaternion(-2, 0, 0, 0))
    # integer powers are entire: fine on the negative axis
    assert eval_lift(qpow(2), Quaternion(-2, 0, 0, 0)).x0 == 4.0


def test_non_integer_power_at_its_branch_point():
    with pytest.raises(BranchCut, match="non-integer power at its branch point"):
        qpow(0.5).lift(0j)


def test_pole_at_origin():
    with pytest.raises(Pole):
        eval_lift(qpow(-1), Quaternion(0, 0, 0, 0))


def test_unsupported_paths():
    with pytest.raises(Unsupported):
        conjugate(qexp()).derivative()
    with pytest.raises(Unsupported):
        elementary("qfoo")
    with pytest.raises(Unsupported):
        elementary("qpow")  # missing exponent
    with pytest.raises(Unsupported):
        radial_derivative(conjugate(qexp()), 0.5, 0.5)


def test_primitive_outside_the_table_is_unsupported():
    with pytest.raises(Unsupported, match="no registered primitive for "):
        qln().primitive().primitive()


def test_default_fd_step():
    assert default_fd_step(0.5, 0.7) == 1e-4
    assert math.isclose(default_fd_step(-3.0, 0.7), 3e-4, rel_tol=1e-15)
    assert math.isclose(default_fd_step(0.0, 12.0), 12e-4, rel_tol=1e-15)
