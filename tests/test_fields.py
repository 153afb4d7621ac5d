import math
import random

import pytest

from meridian4.quaternion import Quaternion
from meridian4.holomorphic import (
    RadialFunction,
    conjugate,
    fd_derivative,
    moebius_potential,
    qexp,
    qpow,
)
from meridian4.fields import (
    RHO_MIN,
    MeridionalProfile,
    SeparableParams,
    axial_symmetry_check,
    criterion_check,
    from_holomorphic_potential,
    from_separable,
    lift_to_r4,
    verify_axial_hyperbolic,
    verify_epd,
    verify_general_system,
    verify_stokes_beltrami,
    verify_stream,
    verify_weinstein,
)
from meridian4.errors import (
    DomainError,
    IntegerOrderUnsupported,
    NoStream,
    NotHolomorphic,
    StepTooLarge,
)


def _half_square():
    return from_holomorphic_potential(0.5 * qpow(2))


def _cubic_profile(alpha: float) -> MeridionalProfile:
    """g = rho^3 with analytic partials; solves the meridian equation only
    when alpha = 4 (rho * 6rho = (alpha-2) * 3rho^2)."""
    return MeridionalProfile(
        alpha=alpha,
        g=lambda x0, rho: rho ** 3,
        dg_dx0=lambda x0, rho: 0.0,
        dg_drho=lambda x0, rho: 3 * rho ** 2,
        d2g_dx0x0=lambda x0, rho: 0.0,
        d2g_dx0rho=lambda x0, rho: 0.0,
        d2g_drhorho=lambda x0, rho: 6 * rho,
        stream=None,
        label="rho3",
    )


# ---------------------------------------------------------------------------
# holomorphic constructor
# ---------------------------------------------------------------------------

def test_half_square_field():
    f = _half_square()
    assert f.alpha == 2.0
    for x0, rho in ((0.7, 1.2), (-1.4, 0.3), (0.0, 2.0)):
        assert abs(f.V0(x0, rho) - x0) < 1e-14
        assert abs(f.Vrho(x0, rho) - (-rho)) < 1e-14
        assert abs(f.g(x0, rho) - 0.5 * (x0 * x0 - rho * rho)) < 1e-14
        assert abs(f.stream_value(x0, rho) - x0 * rho) < 1e-14
    assert abs(f.dV0_dx0(0.7, 1.2) - 1.0) < 1e-14
    assert abs(f.dVrho_drho(0.7, 1.2) - (-1.0)) < 1e-14
    assert abs(f.dVrho_dx0(0.7, 1.2)) < 1e-14


def test_moebius_potential_field_values():
    # G(z) = -ln(z + 1.5) + 0.25 z at z = 0.4 + 1.1i (50-digit references)
    f = from_holomorphic_potential(moebius_potential(0.25, 1.5))
    assert abs(f.g(0.4, 1.1) - (-0.6863869640312544)) < 1e-14
    assert abs(f.V0(0.4, 1.1) - (-0.1441908713692946)) < 1e-14
    assert abs(f.Vrho(0.4, 1.1) - (-0.22821576763485477)) < 1e-14


def test_moebius_potential_closed_partials():
    # V0 = a - (x0+d)/D, Vrho = -rho/D with D = (x0+d)^2 + rho^2
    a, d = 0.25, 1.5
    f = from_holomorphic_potential(moebius_potential(a, d))
    for x0, rho in ((0.4, 1.1), (-0.9, 0.6), (1.7, 2.3)):
        D = (x0 + d) ** 2 + rho ** 2
        assert abs(f.V0(x0, rho) - (a - (x0 + d) / D)) < 1e-13
        assert abs(f.Vrho(x0, rho) - (-rho / D)) < 1e-13


def test_constructor_rejects_antiholomorphic():
    with pytest.raises(NotHolomorphic):
        from_holomorphic_potential(conjugate(qexp()))


def test_constructor_rejects_nan_lift():
    bad = RadialFunction(name="nanny", lift=lambda z: complex("nan"))
    with pytest.raises(NotHolomorphic):
        from_holomorphic_potential(bad)


def test_constructor_rejects_unprobeable():
    def nowhere(z: complex) -> complex:
        raise DomainError("defined nowhere")

    with pytest.raises(NotHolomorphic):
        from_holomorphic_potential(RadialFunction(name="void", lift=nowhere))


# ---------------------------------------------------------------------------
# separable constructor
# ---------------------------------------------------------------------------

def test_separable_frozen_values():
    p = SeparableParams(alpha=2.0, beta=1.0, a1=1.0, a2=0.0, b1=1.0, b2=1.0)
    f = from_separable(p)
    assert abs(f.g(0.4, 1.2) - 1.1094097530816285) < 1e-13
    assert abs(f.Vrho(0.4, 1.2) - 0.43131584605596207) < 1e-13


def test_separable_params_validation():
    with pytest.raises(DomainError):
        SeparableParams(alpha=2.0, beta=0.0)
    with pytest.raises(DomainError):
        SeparableParams(alpha=2.0, beta=-1.0)
    with pytest.raises(DomainError):
        SeparableParams(alpha=2.0, beta=1.0, a1=0.0, a2=0.0)
    # (alpha-1)/2 integer and a Y part requested
    with pytest.raises(IntegerOrderUnsupported):
        SeparableParams(alpha=-1.0, beta=1.0, a1=1.0, a2=0.5)
    with pytest.raises(IntegerOrderUnsupported):
        SeparableParams(alpha=3.0, beta=1.0, a1=0.0, a2=1.0)
    # non-integer order with Y is fine
    SeparableParams(alpha=-2.0, beta=1.0, a1=1.0, a2=0.5)


@pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 2.6])
def test_separable_solves_meridian_equation(alpha):
    f = from_separable(SeparableParams(alpha=alpha, beta=1.3, b1=0.7, b2=0.4))
    rng = random.Random(11)
    for _ in range(25):
        x0 = rng.uniform(-1.5, 1.5)
        rho = rng.uniform(0.2, 2.5)
        assert verify_epd(f, x0, rho) < 1e-12


def test_separable_with_y_component_solves():
    f = from_separable(SeparableParams(alpha=2.0, beta=0.9, a1=0.6, a2=0.4))
    for x0, rho in ((0.3, 0.8), (-1.1, 1.7)):
        assert verify_epd(f, x0, rho) < 1e-12


SEPARABLE_QUANTITIES = ("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho",
                        "stream_value")


@pytest.mark.parametrize("params", [
    SeparableParams(alpha=3.0, beta=1.1, b1=0.7, b2=0.2),
    SeparableParams(alpha=2.5, beta=1.05, a1=0.9, a2=0.4, b1=0.8, b2=-0.1),
], ids=("a2=0", "a2!=0"))
def test_separable_radial_memo_never_stale(params):
    # one field, quantities interleaved at alternating rho (with repeats),
    # against a fresh field with an empty memo for every query
    f = from_separable(params)
    n = len(SEPARABLE_QUANTITIES)
    for k in range(4 * n):
        x0 = (-0.3, 0.4, 0.4)[k % 3]
        rho = (0.7, 1.9, 1.9, 0.7)[k % 4]
        name = SEPARABLE_QUANTITIES[(3 * k) % n]
        got = getattr(f, name)(x0, rho)
        want = getattr(from_separable(params), name)(x0, rho)
        assert got.hex() == want.hex(), (name, x0, rho)
        x = Quaternion(x0, 0.6 * rho, 0.0, 0.8 * rho)
        assert lift_to_r4(f, x) == lift_to_r4(from_separable(params), x)


# ---------------------------------------------------------------------------
# the meridian equation verifier
# ---------------------------------------------------------------------------

def test_epd_holomorphic_alpha2_exact():
    f = from_holomorphic_potential(qexp())
    # for alpha = 2 the residual is rho * |Re F' - Re F'| = 0 identically
    assert verify_epd(f, 0.8, 1.1) == 0.0


def test_epd_nonsolution_analytic_value():
    prof = _cubic_profile(alpha=1.0)
    # rho*(0 + 6 rho) - (1-2)*3 rho^2 = 9 rho^2
    assert abs(verify_epd(prof, 0.0, 1.1) - 9 * 1.1 ** 2) < 1e-12
    assert verify_epd(_cubic_profile(alpha=4.0), 0.0, 1.1) == 0.0


def test_epd_domain_floor():
    f = _half_square()
    with pytest.raises(DomainError):
        verify_epd(f, 0.0, 1e-7)
    with pytest.raises(DomainError):
        f.V0(0.0, 0.5 * RHO_MIN)
    with pytest.raises(DomainError):
        f.g(0.0, -1.0)


# ---------------------------------------------------------------------------
# stream / Stokes-Beltrami verifiers
# ---------------------------------------------------------------------------

def test_stream_equation_residuals():
    holo = from_holomorphic_potential(qexp())
    sep = from_separable(SeparableParams(alpha=3.0, beta=1.1, b1=1.0, b2=0.3))
    for x0, rho in ((0.4, 0.9), (-0.7, 1.6)):
        assert verify_stream(holo, x0, rho) < 1e-6
        assert verify_stream(sep, x0, rho) < 1e-6


def test_stokes_beltrami_residuals():
    holo = from_holomorphic_potential(moebius_potential(0.0, 5.0))
    for x0, rho in ((0.4, 0.9), (-0.7, 1.6), (1.8, 0.5)):
        r1, r2 = verify_stokes_beltrami(holo, x0, rho)
        assert r1 < 1e-7 and r2 < 1e-7
    sep = from_separable(SeparableParams(alpha=0.0, beta=1.0, b1=0.5, b2=0.5))
    for x0, rho in ((0.4, 0.9), (-0.7, 1.6)):
        r1, r2 = verify_stokes_beltrami(sep, x0, rho)
        assert r1 < 1e-6 and r2 < 1e-6


def test_stokes_beltrami_detects_wrong_pairing():
    # swap the stream sign: residual r2 jumps to ~2|w g_rho|
    good = from_separable(SeparableParams(alpha=2.0, beta=1.0, b1=1.0, b2=1.0))
    bad = MeridionalProfile(
        alpha=good.alpha, g=good.profile.g, dg_dx0=good.profile.dg_dx0,
        dg_drho=good.profile.dg_drho, d2g_dx0x0=good.profile.d2g_dx0x0,
        d2g_dx0rho=good.profile.d2g_dx0rho, d2g_drhorho=good.profile.d2g_drhorho,
        stream=lambda x0, rho: -good.profile.stream(x0, rho), label="flipped")
    r1, r2 = verify_stokes_beltrami(bad, 0.4, 1.2)
    assert max(r1, r2) > 0.1


def test_stream_guards():
    prof = _cubic_profile(alpha=5.0)
    with pytest.raises(NoStream):
        verify_stream(prof, 0.3, 1.0)
    with pytest.raises(NoStream):
        verify_stokes_beltrami(prof, 0.3, 1.0)
    f = _half_square()
    with pytest.raises(StepTooLarge):
        verify_stream(f, 0.3, 0.2, fd_step=0.25)
    with pytest.raises(StepTooLarge):
        verify_stokes_beltrami(f, 0.3, 0.2, fd_step=0.25)


def test_no_stream_on_field_view():
    from meridian4.fields import MeridionalField
    f = MeridionalField(_cubic_profile(alpha=5.0))
    assert not f.has_stream()
    with pytest.raises(NoStream):
        f.stream_value(0.3, 1.0)


# ---------------------------------------------------------------------------
# Weinstein / axial verifiers (scalar fields on R^4)
# ---------------------------------------------------------------------------

def test_weinstein_power_solution():
    alpha = 1.5
    h_fn = lambda q: q.x3 ** (1.0 + alpha)
    for x in (Quaternion(0.3, 0.1, -0.4, 0.8), Quaternion(-1.0, 0.5, 0.2, 1.4)):
        assert verify_weinstein(h_fn, alpha, x) < 2e-6


def test_weinstein_rejects_wrong_power():
    # x3^3 against alpha = 1: residual 3 x3^2 exactly
    h_fn = lambda q: q.x3 ** 3
    x = Quaternion(0.2, 0.1, 0.3, 1.0)
    res = verify_weinstein(h_fn, 1.0, x)
    assert abs(res - 3.0) < 1e-7


def test_weinstein_fd_order():
    # the difference rule behind every verifier is fourth order: halving
    # the step divides the truncation error by about sixteen, for first
    # and for second derivatives of exp and x^2.5
    cases = [(math.exp, math.exp, math.exp, 0.3),
             (lambda t: t ** 2.5, lambda t: 2.5 * t ** 1.5, lambda t: 3.75 * t ** 0.5, 0.9)]
    for fn, d1, d2, x in cases:
        for order, exact, h in ((1, d1(x), 0.1), (2, d2(x), 0.02)):
            e_coarse = abs(fd_derivative(lambda t: fn(x + t), order, h) - exact)
            e_fine = abs(fd_derivative(lambda t: fn(x + t), order, 0.5 * h) - exact)
            assert 15.0 < e_coarse / e_fine < 17.0, (order, x, e_coarse, e_fine)


def test_axial_hyperbolic_quadratic_solution():
    # h = x1^2+x2^2+x3^2 solves the axial equation exactly when alpha = 3
    h_fn = lambda q: q.x1 ** 2 + q.x2 ** 2 + q.x3 ** 2
    x = Quaternion(0.5, 0.8, -0.3, 0.6)
    assert verify_axial_hyperbolic(h_fn, 3.0, x, fd_step=1e-3) < 1e-8
    # against alpha = 2 the residual is rho^2 * 6 - 2 * (2 rho^2) = 2 rho^2
    rho2 = 0.8 ** 2 + 0.3 ** 2 + 0.6 ** 2
    res = verify_axial_hyperbolic(h_fn, 2.0, x, fd_step=1e-3)
    assert abs(res - 2 * rho2) < 1e-7


# ---------------------------------------------------------------------------
# general system / criterion / axial symmetry
# ---------------------------------------------------------------------------

def test_general_system_linear_example():
    u = lambda q: (0.0, q.x2, 0.0, 0.0)
    phi = lambda q: 1.0
    res = verify_general_system(u, phi, Quaternion(0.3, 0.5, 0.7, 0.2))
    cont, s1, s2, s3, c12, c13, c23 = res
    assert max(cont, s1, s2, s3) < 1e-12
    assert abs(c12 - 1.0) < 1e-12
    assert max(c13, c23) < 1e-12


def test_general_system_meridional_solution():
    # the meridional field enters with flipped imaginary part and the
    # rho^{-alpha} weight; all seven residuals then vanish
    f = from_holomorphic_potential(qexp())

    def u(q: Quaternion):
        v = lift_to_r4(f, q)
        return (v.x0, -v.x1, -v.x2, -v.x3)

    def phi(q: Quaternion) -> float:
        return q.rho() ** (-f.alpha)

    for x in (Quaternion(0.5, 0.8, 0.4, 0.3), Quaternion(-0.6, 0.3, -0.9, 0.5)):
        assert max(verify_general_system(u, phi, x)) < 1e-6


def test_criterion_passes_axisymmetric():
    h_fn = lambda q: q.x0 ** 2 - (q.x1 ** 2 + q.x2 ** 2 + q.x3 ** 2) / 3.0
    cart, ang = criterion_check(h_fn, Quaternion(0.7, 0.5, 0.6, 0.4))
    assert max(cart) < 1e-9
    assert max(ang) < 1e-9


def test_criterion_fails_non_axisymmetric():
    h_fn = lambda q: q.x0 ** 2 - q.x3 ** 2
    cart, ang = criterion_check(h_fn, Quaternion(1, 1, 1, 1))
    # analytic residuals: (0, 2, 2) and (sqrt(2), 2)
    assert abs(cart[0]) < 1e-10
    assert abs(cart[1] - 2.0) < 1e-9
    assert abs(cart[2] - 2.0) < 1e-9
    assert abs(ang[0] - math.sqrt(2.0)) < 1e-9
    assert abs(ang[1] - 2.0) < 1e-9


def test_criterion_chart_guards():
    h_fn = lambda q: q.x0
    with pytest.raises(DomainError):
        criterion_check(h_fn, Quaternion(1, 0, 0, 0))  # rho = 0
    with pytest.raises(DomainError):
        criterion_check(h_fn, Quaternion(1, 1, 0, 0))  # x2 = x3 = 0


def test_axial_symmetry_check():
    f = _half_square()
    u = lambda q: tuple(lift_to_r4(f, q).components())
    x = Quaternion(0.5, 0.2, 0.7, 0.3)
    assert max(axial_symmetry_check(u, x)) < 1e-15
    skew = lambda q: (0.0, 1.0, 0.0, 0.0)
    r12, r13, r23 = axial_symmetry_check(skew, x)
    assert abs(r12 - 0.7) < 1e-15
    assert abs(r13 - 0.3) < 1e-15
    assert r23 == 0.0


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_to_r4_values():
    f = _half_square()
    x = Quaternion(1.2, 0.3, -0.4, 0.5)
    v = lift_to_r4(f, x)
    assert abs(v.x0 - 1.2) < 1e-14
    assert abs(v.x1 - (-0.3)) < 1e-14
    assert abs(v.x2 - 0.4) < 1e-14
    assert abs(v.x3 - (-0.5)) < 1e-14


def test_lift_domain_floor():
    f = _half_square()
    with pytest.raises(DomainError):
        lift_to_r4(f, Quaternion(1, 0, 0, 0))
    with pytest.raises(DomainError):
        lift_to_r4(f, Quaternion(1, 1e-7, 0, 0))
