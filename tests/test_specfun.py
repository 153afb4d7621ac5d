import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from meridian4.quaternion import Quaternion
from meridian4.specfun import (
    MAX_ABS_Z,
    bessel_j,
    bessel_j_array,
    bessel_j_quat,
    bessel_j_series,
    bessel_y,
    factorial,
    gamma,
    power_to_bessel_partial,
)
from meridian4.specfun import _BLOCK_PAIRS, _jv_ascending, _jv_terms
from meridian4.errors import DomainError, IntegerOrderUnsupported

# 50-digit references rounded to float64 (mpmath, dps=50)
J_REFS = {
    (0, 1.0): 0.7651976865579666,
    (0, 2.0): 0.22389077914123567,
    (1, 1.0): 0.4400505857449335,
    (2, 3.7): 0.42832965620657587,
    (0.5, 1.0): 0.6713967071418031,
    (-0.5, 2.0): -0.23478571040624846,
    (1.5, 2.5): 0.5250802646640031,
    (-2, 1.3): 0.18302669876873764,
    (-3, 2.2): -0.1623254728332875,
    (7, 11.0): 0.018376032647858614,
    (-1.75, 0.4): -3.628269521611327,
    (2, 0.05): 0.00031243490091938445,
}

# inside the |z| <= 30 window but large enough that the alternating series
# sheds digits to cancellation; the reported tail bound tracks the loss
J_REFS_LARGE = {
    (3.25, 17.5): 0.15174321741069066,
    (0, 25.0): 0.09626678327595811,
    (0, 30.0): -0.08636798358104021,
}

Y_REFS = {
    (0.5, math.pi): 0.45015815807855303,   # = sqrt(2)/pi
    (-0.5, 2.0): 0.5130161365618278,
    (1.5, 2.5): -0.14029358516674292,
    (2.5, 0.7): -6.369265486037367,
    (-3.5, 6.0): -0.2671388559385992,
    (0.25, 1.0): -0.19442175367716438,
}

GAMMA_REFS = {
    0.5: 1.772453850905516,
    1.0: 1.0,
    3.7: 4.170651783796604,
    12.0: 39916800.0,
    0.1: 9.51350769866873,
    29.5: 1.6348125198274267e+30,
    1.4616321449683622: 0.8856031944108887,  # the minimum on (0, inf)
    -0.5: -3.544907701811032,
    -2.5: -0.9453087204829419,
}


# ---------------------------------------------------------------------------
# J values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu,z", sorted(J_REFS), ids=str)
def test_j_reference_values(nu, z):
    assert abs(bessel_j(nu, z) - J_REFS[(nu, z)]) <= 5e-14


@pytest.mark.parametrize("nu,z", sorted(J_REFS_LARGE), ids=str)
def test_j_large_argument_within_reported_bound(nu, z):
    val, tail = bessel_j_series(nu, z)
    assert abs(val - J_REFS_LARGE[(nu, z)]) <= 10 * tail.tail_bound + 1e-13


def test_j_small_argument():
    # J_4(1e-8) = (z/2)^4/4! to machine precision, no under/overflow
    val = bessel_j(4, 1e-8)
    assert math.isclose(val, 2.6041666666666666e-35, rel_tol=1e-12)


def test_j_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert bessel_j(-3, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0


def test_first_zero_of_j0():
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-12


def test_half_order_closed_forms():
    for z in (0.7, 1.9, 3.3, 6.0):
        assert math.isclose(bessel_j(0.5, z),
                            math.sqrt(2 / (math.pi * z)) * math.sin(z),
                            rel_tol=1e-12, abs_tol=1e-14)
        assert math.isclose(bessel_j(-0.5, z),
                            math.sqrt(2 / (math.pi * z)) * math.cos(z),
                            rel_tol=1e-12, abs_tol=1e-14)
    assert abs(bessel_j(0.5, math.pi / 2) - 2 / math.pi) < 1e-15


def test_negative_integer_reflection():
    assert bessel_j(-2, 1.3) == bessel_j(2, 1.3)
    assert bessel_j(-3, 2.2) == -bessel_j(3, 2.2)


def test_series_tail_metadata():
    val, tail = bessel_j_series(0, 9.0)
    assert tail.terms_used < 100
    assert tail.tail_bound >= 0.0
    # truncation bound honest against a finer reference: J_0(9)
    ref = -0.09033361118287613
    assert abs(val - ref) <= 10 * tail.tail_bound + 1e-13


# ---------------------------------------------------------------------------
# one series rule: float arguments against complex ones, and pinned bits
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """(value bits, terms, tail bound) of a series call, or the error it raises."""
    try:
        val, terms, bound = fn(*args)
    except Exception as exc:  # float and complex arguments must fail alike
        return type(exc).__name__, str(exc)
    return (val.real if isinstance(val, complex) else val).hex(), terms, bound


def _series_sums(nu, z):
    """|c0| times sum_k |b_k||w|^k and sum_k k |b_k||w|^k over the n + 1
    terms bessel_j sums at real z > 0, and times twice the next term, which
    bounds the terms left out (each at most half the last: the degree rule
    of specfun._order)."""
    c0, w, _, n, _ = _jv_terms(nu, z)
    terms, order = [1.0], abs(nu) if nu.is_integer() else nu
    for k in range(1, n + 2):  # |b_k w^k| by the ratio of b_k to b_(k-1)
        terms.append(terms[-1] * abs(w) / abs(k * (order + k)))
    return (abs(c0) * math.fsum(terms[:-1]),
            abs(c0) * math.fsum(k * t for k, t in enumerate(terms[:-1])),
            abs(c0) * 2.0 * terms[-1])


def complex_gap_eps(n):
    """k with |J_n(x) - J_n(x + 0j)| <= k eps |c0| sum |b_k||w|^k, |n| >= 3.

    The float and complex routes take the same steps (complex ones with a
    zero imaginary part, whose real parts round as the float ones do)
    except c0's power: libm's pow (eps) for float x, CPython's binary
    powering for complex x, within (|n| - 1) u (Higham, §3.1).  The division
    by n! adds u to each: 1.5 eps and |n| u.  Each route then rounds c0 q
    and c0 + c0 q, each within u |c0| sum |b_k||w|^k: 2 eps more.
    """
    return 1.5 + 0.5 * abs(n) + 2.0


REAL_LOOP_ORDERS = ([float(n) for n in range(9)] + [-1.0, -2.0, -5.0, -8.0]
                    + [-7.5, -1.25, -0.25, 0.25, 0.5, 1.5, 2.75, 12.6])
REAL_LOOP_ARGS = [5e-324, 1e-310, 1e-200, 1e-40, 1e-12, 1e-6, 1e-3, 0.5, 1.0,
                  2.404825557695773, 9.9, 17.5, 29.999999999999996, 30.0]


@pytest.mark.parametrize("nu", REAL_LOOP_ORDERS)
def test_real_loop_matches_complex_loop_bit_for_bit(nu):
    # float and complex arguments fail alike.  Their powers agree at a
    # non-integer order (CPython's complex power of a positive real base is
    # libm's pow times cos 0) and at |n| <= 2 (1, the base, its square), so
    # the bits do; at |n| >= 3, the complex route's binary powering may
    # differ from pow in the last bits, within complex_gap_eps
    rng = random.Random(f"real-loop/{nu}")
    xs = REAL_LOOP_ARGS + [rng.uniform(0.0, 30.0) for _ in range(300)]
    same_bits = not nu.is_integer() or abs(nu) <= 2
    for x in xs:
        got = _outcome(_jv_ascending, nu, x)
        want = _outcome(_jv_ascending, nu, complex(x))
        if same_bits or len(got) == 2:  # the same bits, or the same error
            assert got == want, (nu, x)
        else:
            assert len(want) == 3 and got[1] == want[1], (nu, x, got, want)
            gap = complex_gap_eps(nu) * sys.float_info.epsilon * _series_sums(nu, x)[0]
            assert abs(float.fromhex(got[0]) - float.fromhex(want[0])) <= gap, (nu, x)


def test_integer_orders_against_mpmath():
    # J_n at 300 points of [0.05, 29.9], n = 3 .. 80, within a first-order
    # bound of the steps (u = eps/2), term k of Q taken by magnitude:
    #   c0 = (z/2)^n / n!: pow within 1 ulp (eps), the division u, and the
    #   table's n! its own relative error d (0 up to 22!, where it is exact);
    #   b_k: k divisions by the exact k (n + k), k u; w = -(z/2)^2, u, so
    #   w^k k u; Horner's k - 1 steps and the last product by w, (2k - 1) u;
    #   c0 q and c0 + c0 q, u each.
    # Term k is then within (2.5 + 2k) eps + d: the bound below, plus the
    # terms left out.  Binary powering of (z/2)^n, within (n - 1) u, would
    # not fit it.
    mpmath = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    zs = np.linspace(0.05, 29.9, 300).tolist()
    with mpmath.workdps(40):
        for n in range(3, 81):
            exact = math.factorial(n)
            d = float(abs(Fraction(factorial(n)) - exact) / exact)
            for z in zs:
                mass, moment, tail = _series_sums(float(n), z)
                bound = (2.5 * eps + d) * mass + 2.0 * eps * moment + tail
                err = abs(mpmath.mpf(bessel_j(n, z)) - mpmath.besselj(n, z))
                assert err <= bound, (n, z, float(err / (eps * mass)))


def test_bessel_j_series_keeps_real_arguments_in_float_arithmetic():
    # a single complex step anywhere in the recurrence would make the sum complex
    for nu in REAL_LOOP_ORDERS:
        for x in (1e-6, 2.5, 17.5, 30.0):
            val, _ = bessel_j_series(nu, x)
            assert type(val) is float, (nu, x)
    assert type(bessel_j(0, 0.0)) is float and type(bessel_j(2, 0.0)) is float
    assert type(_jv_ascending(0.0, 0j)[0]) is complex
    assert type(bessel_y(0.5, math.pi)) is float


# float.hex() of values returned by the Horner rule; any change to the
# summation order shows up here (each checked against mpmath at 30 digits,
# within its reported bound)
J_BITS = {
    (0, 1.0): '0x1.87c7fdbd7b8f0p-1',
    (1, 3.7): '0x1.b9020e18f5f00p-5',
    (2, 0.05): '0x1.479c9ae7be13fp-12',
    (-3, 2.2): '-0x1.4c714c29037eap-3',
    (7, 11.0): '0x1.2d12aad02c000p-6',
    (0.5, 29.0): '-0x1.92ba7c7e57b00p-4',
    (-1.75, 0.4): '-0x1.d06b22bc3275bp+1',
    (3.25, 17.5): '0x1.36c525e14dc00p-3',
    (12.6, 0.9): '0x1.56b4db1b48917p-46',
}

Y_BITS = {
    (0.5, 3.0): '0x1.d2fe764ac4ee3p-2',
    (-0.5, 2.0): '0x1.06aa0d11b4e66p-1',
    (2.5, 0.7): '-0x1.97a20bb4849c4p+2',
    (-3.5, 6.0): '-0x1.118cd926fd12ap-2',
    (1.25, 19.0): '-0x1.99c7ec1ca74eap-4',
}

JQ_BITS = {
    (0, (1.0, 0.6, 0.0, 0.8)):
        ('0x1.e00e37e0ab258p-1', '-0x1.3111686f84922p-2',
         '-0x0.0p+0', '-0x1.96c1e094b0c2ep-2'),
    (2, (0.3, -1.2, 0.4, 0.0)):
        ('-0x1.a771546e47186p-3', '-0x1.d398537416e60p-4',
         '0x1.37bae24d64996p-5', '0x0.0p+0'),
    (-3, (2.5, 0.0, 1.5, -2.0)):
        ('0x1.c72808c244ec0p-7', '-0x0.0p+0',
         '-0x1.2bf5d816669e1p-1', '0x1.8ff27573337d7p-1'),
    (5, (-4.0, 0.1, 0.2, 0.3)):
        ('-0x1.07e8d28063dd4p-3', '0x1.7f63ea48ce6dfp-7',
         '0x1.7f63ea48ce6dfp-6', '0x1.1f8aefb69ad27p-5'),
    (1.5, (6.0, 3.0, 0.0, 0.0)):
        ('-0x1.74cdac57398d0p+1', '0x1.1143001d735b8p-2',
         '0x0.0p+0', '0x0.0p+0'),
}


def test_bessel_values_keep_their_bits():
    for (nu, z), bits in J_BITS.items():
        assert bessel_j(nu, z).hex() == bits, (nu, z)
    for (nu, z), bits in Y_BITS.items():
        assert bessel_y(nu, z).hex() == bits, (nu, z)
    for (n, x), bits in JQ_BITS.items():
        q = bessel_j_quat(n, Quaternion(*x))
        assert tuple(c.hex() for c in (q.x0, q.x1, q.x2, q.x3)) == bits, (n, x)


@pytest.mark.parametrize("nu,z", [(-1.25, 5e-324), (-170.5, 0.5), (172.5, 1.0)])
def test_leading_term_overflow_is_a_domain_error(nu, z):
    # (z/2)^nu overflows, z/2 underflows to 0 under a negative order, or
    # Gamma(nu + 1) overflows: DomainError, not ZeroDivisionError/OverflowError
    with pytest.raises(DomainError, match="leading term"):
        bessel_j(nu, z)
    with pytest.raises(DomainError, match="leading term"):
        _jv_ascending(nu, complex(z, z))


@pytest.mark.parametrize("nu", [171.0, -171.0, 171.5, 1e300], ids=str)
@pytest.mark.parametrize("z", [1e-3, 1.0, 29.0], ids=str)
def test_gamma_overflow_names_the_order(nu, z):
    # Gamma(nu + 1) overflows past 170! at an integer order as it does at
    # 171.5: the leading term's error, naming the order, whether (z/2)^nu
    # overflows, underflows to 0 or neither; an array gives NaN
    match = re.escape(f"(z/2)^nu / Gamma(nu+1) overflows at nu = {abs(nu)!r},")
    with pytest.raises(DomainError, match=match):
        bessel_j(nu, z)
    with pytest.raises(DomainError, match=match):
        _jv_ascending(nu, complex(0.6 * z, 0.8 * z))
    assert np.isnan(bessel_j_array(nu, np.array([z]))).all()


def test_nan_argument_is_outside_the_series_domain():
    with pytest.raises(DomainError, match="restricted"):
        bessel_j(0.5, math.nan)
    with pytest.raises(DomainError, match="restricted"):
        bessel_j_quat(1, Quaternion(math.nan, 0.1, 0.0, 0.0))


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("call", [
    lambda nu: bessel_j(nu, 1.0),
    lambda nu: bessel_j_series(nu, 0.0),
    lambda nu: bessel_y(nu, 1.0),
    lambda nu: bessel_j_quat(nu, Quaternion(1, 0.5, 0, 0)),
], ids=["bessel_j", "bessel_j_series_at_0", "bessel_y", "bessel_j_quat"])
def test_non_finite_order_is_a_domain_error(call, nu):
    # int(nan) raises ValueError and int(inf) OverflowError inside the
    # integer-order test; both must surface as the library's DomainError
    with pytest.raises(DomainError, match="must be finite"):
        call(nu)


# the orders a separable field of alpha = 2.5, 3, 3.5 sums: nu = (alpha-1)/2,
# nu - 1, nu - 2 and their negatives (J at -order for the Y reflection)
SEPARABLE_ORDERS = sorted({s * (0.5 * (alpha - 1.0) - d) for alpha in (2.5, 3.0, 3.5)
                           for d in (0.0, 1.0, 2.0) for s in (1.0, -1.0)})


def _scalar_j(nu, z):
    """bessel_j, or NaN where it raises DomainError."""
    try:
        return bessel_j(nu, z)
    except DomainError:
        return math.nan


def _same_bits(a, b):
    return a.hex() == b.hex() if a == a else b != b


def _agrees(a, nu, z, j_gap):
    """An array value at (nu, z) against bessel_j's: NaN where bessel_j
    raises DomainError, else within j_gap."""
    want = _scalar_j(nu, z)
    return a != a if want != want else abs(a - want) <= j_gap(nu, z)


@pytest.mark.parametrize("size", [3, 20, 400], ids=["few", "one-block", "blocks"])
def test_bessel_j_array_has_the_bits_of_bessel_j(j_gap, size):
    # one order on its own, and all orders at once, in one block of
    # (order, point) pairs or in several: each value has the bits of the
    # same pair alone (a one-element array), and is within the leading
    # power's gap of bessel_j (conftest.LEAD_GAP_EPS)
    rng = np.random.default_rng(size)
    z = np.concatenate([rng.uniform(0.0, MAX_ABS_Z, size), [0.0, 1e-300, MAX_ABS_Z]])
    table = bessel_j_array(SEPARABLE_ORDERS, z)
    assert table.shape == (len(SEPARABLE_ORDERS), z.size)
    assert (table.size > _BLOCK_PAIRS) == (size == 400)
    for nu, row in zip(SEPARABLE_ORDERS, table):
        single = bessel_j_array(nu, z)
        for zi, a, b in zip(z.tolist(), row.tolist(), single.tolist()):
            alone = bessel_j_array(nu, np.array([zi]))[0]
            assert _same_bits(a, alone) and _same_bits(b, alone), (nu, zi, a, b, alone)
            assert _agrees(a, nu, zi, j_gap), (nu, zi, a)


def test_order_two_squares_in_every_route():
    # at nu = +-2 the leading power is (z/2)^2 rounded once, as numpy's
    # array power takes it: libm's pow(z/2, 2) is not always the rounded
    # square (on glibc it misses about 1 z in 1300)
    z = np.random.default_rng(2).uniform(0.0, MAX_ABS_Z, 20000)
    for nu in (2.0, -2.0):
        want = [v.hex() for v in bessel_j_array(nu, z).tolist()]
        assert [bessel_j(nu, v).hex() for v in z.tolist()] == want, nu


def test_bessel_j_array_has_the_bits_of_bessel_j_at_bucket_edges(j_gap):
    # the degree of Q follows ceil(z): on either side of each integer z the
    # array form must pick the degree of the point alone, and of bessel_j
    z = np.array([np.nextafter(float(b), side) for b in range(1, 31) for side in (-np.inf, np.inf)])
    for nu in (-9.5, 40.0):
        for zi, a in zip(z.tolist(), bessel_j_array(nu, z).tolist()):
            assert _same_bits(a, bessel_j_array(nu, np.array([zi]))[0]), (nu, zi)
            assert _agrees(a, nu, zi, j_gap), (nu, zi, a)


def test_bessel_j_array_marks_what_bessel_j_refuses(j_gap):
    # past the series' cap, and where the leading term overflows, bessel_j
    # raises DomainError; the array form gives NaN there and values elsewhere
    z = np.array([1.0, MAX_ABS_Z, np.nextafter(MAX_ABS_Z, 40.0), 31.0, np.nan])
    got = bessel_j_array(0.75, z)
    assert _agrees(got[0], 0.75, 1.0, j_gap) and _agrees(got[1], 0.75, MAX_ABS_Z, j_gap)
    assert np.isnan(got[2:]).all()
    for v in z[2:].tolist():
        with pytest.raises(DomainError):
            bessel_j(0.75, v)
    # the leading-term cases of test_leading_term_overflow_is_a_domain_error
    z = np.array([5e-324, 0.5, 1.0])
    for nu, row in zip((-1.25, -170.5, 172.5), bessel_j_array([-1.25, -170.5, 172.5], z)):
        for a, v in zip(row.tolist(), z.tolist()):
            assert _agrees(a, nu, v, j_gap), (nu, v)
    assert np.isnan(bessel_j_array([-1.25, -170.5, 172.5], z)).sum() == 7
    with pytest.raises(DomainError):
        bessel_j_array(0.5, np.array([1.0, -1.0]))


def test_tail_bound_covers_rounding_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for nu in (-1.25, -0.25, 0.0, 0.5, 1.0, 1.5, 2.0, 2.75, 3.0):
            for k in range(59):
                z = 0.5 + 0.5 * k
                val, tail = bessel_j_series(nu, z)
                err = abs(mpmath.mpf(val) - mpmath.besselj(nu, z))
                assert err <= tail.tail_bound, (nu, z, float(err), tail.tail_bound)
        # J_0(25) is off by 8.7e-8, more than its truncation tail of 1.7e-8
        val, tail = bessel_j_series(0.0, 25.0)
        assert abs(mpmath.mpf(val) - mpmath.besselj(0, 25)) > 1.7e-8


def test_reported_bound_covers_the_error_on_a_dense_grid():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for nu in REAL_LOOP_ORDERS:
            for k in range(1, 121):
                z = 0.25 * k
                val, tail = bessel_j_series(nu, z)
                err = abs(mpmath.mpf(val) - mpmath.besselj(nu, z))
                assert err <= tail.tail_bound, (nu, z, float(err), tail.tail_bound)


def test_quaternion_bessel_error_against_mpmath():
    # J_n at complex z, |z| <= 30, within 4 eps sum_k (k + 1)|term_k|: the
    # rounding of w = -z^2/4 moves term k by k times its relative error, and
    # near the imaginary axis, where the terms do not cancel, that reaches
    # |z|/2 eps sum_k |term_k|
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5)
    with mpmath.workdps(30):
        for n in range(-8, 13):
            for _ in range(12):
                r, angle = 30.0 * math.sqrt(rng.random()), rng.uniform(0.0, math.pi)
                a, b = r * math.cos(angle), r * math.sin(angle)
                got = bessel_j_quat(n, Quaternion(a, b, 0.0, 0.0))
                h, mass = abs(mpmath.mpc(a, b)) / 2, 0
                for k in range(80):
                    mass += (k + 1) * h ** (abs(n) + 2 * k) / (mpmath.factorial(k)
                                                               * mpmath.factorial(abs(n) + k))
                err = abs(mpmath.mpc(got.x0, got.x1) - mpmath.besselj(n, mpmath.mpc(a, b)))
                assert err <= 4 * sys.float_info.epsilon * mass, (n, a, b, float(err / mass))


def test_recurrence_frozen_instance():
    nu, z = 2.3, 5.1
    lhs = bessel_j(nu - 1, z) + bessel_j(nu + 1, z)
    rhs = 2 * nu / z * bessel_j(nu, z)
    assert abs(lhs - 0.12342880434920997) < 1e-12
    assert abs(lhs - rhs) < 1e-13


def test_recurrence_sweep():
    rng = random.Random(3)
    for _ in range(150):
        nu = rng.uniform(-2.0, 5.0)
        z = rng.uniform(0.1, 12.0)
        lhs = bessel_j(nu - 1, z) + bessel_j(nu + 1, z)
        rhs = 2 * nu / z * bessel_j(nu, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_j_domain_guards():
    with pytest.raises(DomainError):
        bessel_j(0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(0, MAX_ABS_Z + 0.5)


# ---------------------------------------------------------------------------
# Y values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu,z", sorted(Y_REFS), ids=str)
def test_y_reference_values(nu, z):
    assert abs(bessel_y(nu, z) - Y_REFS[(nu, z)]) <= 1e-13


def test_y_half_equals_sqrt2_over_pi_at_pi():
    assert abs(bessel_y(0.5, math.pi) - math.sqrt(2) / math.pi) < 1e-13


def test_y_minus_half_equals_j_half():
    assert abs(bessel_y(-0.5, 2.0) - bessel_j(0.5, 2.0)) < 1e-15


def test_y_integer_order_unsupported():
    with pytest.raises(IntegerOrderUnsupported):
        bessel_y(1, 1.0)
    with pytest.raises(IntegerOrderUnsupported):
        bessel_y(3 + 1e-9, 1.0)
    # clearly non-integer is fine
    bessel_y(3.1, 1.0)


def test_y_needs_positive_argument():
    with pytest.raises(DomainError):
        bessel_y(0.5, 0.0)


# ---------------------------------------------------------------------------
# gamma / factorial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", sorted(GAMMA_REFS), ids=str)
def test_gamma_reference_values(x):
    assert math.isclose(gamma(x), GAMMA_REFS[x], rel_tol=1e-13)


def test_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            gamma(x)


def test_factorial():
    assert factorial(0) == 1.0
    assert factorial(5) == 120.0
    assert factorial(12) == 479001600.0
    assert math.isfinite(factorial(170))
    with pytest.raises(DomainError):
        factorial(171)
    with pytest.raises(DomainError):
        factorial(-1)


def test_factorial_consistent_with_gamma():
    for n in (1, 4, 9, 20):
        assert math.isclose(factorial(n), gamma(n + 1.0), rel_tol=1e-13)


# ---------------------------------------------------------------------------
# quaternionic Bessel
# ---------------------------------------------------------------------------

def test_quat_matches_real_axis():
    for n, z in ((0, 1.0), (1, 2.5), (3, 7.0), (0.5, 1.2)):
        got = bessel_j_quat(n, Quaternion(z, 0, 0, 0))
        assert abs(got.x0 - bessel_j(n, z)) <= 1e-13
        assert got.rho() <= 1e-15


def test_quat_reference_value():
    # axial part 1 + i; J_0(1+i) from the 50-digit reference
    got = bessel_j_quat(0, Quaternion(1, 0.6, 0, 0.8))
    re, im = 0.9376084768060293, -0.4965299476091221
    assert abs(got.x0 - re) < 1e-13
    assert abs(got.x1 - 0.6 * im) < 1e-13
    assert got.x2 == 0.0
    assert abs(got.x3 - 0.8 * im) < 1e-13


def test_quat_modified_bessel_on_imaginary_axis():
    # J_0 at the pure quaternion i has the modified-Bessel value I_0(1)
    got = bessel_j_quat(0, Quaternion(0, 1, 0, 0))
    assert abs(got.x0 - 1.2660658777520084) < 1e-13
    assert got.rho() < 1e-13


def test_quat_domain_guards():
    with pytest.raises(DomainError):
        bessel_j_quat(0, Quaternion(22, 22, 0, 0))  # |z| > 30
    with pytest.raises(DomainError):
        bessel_j_quat(0.5, Quaternion(-1, 0, 0, 0))  # branch point path


# ---------------------------------------------------------------------------
# power-to-Bessel partial sums
# ---------------------------------------------------------------------------

def _qpow_half(x: Quaternion, m: int) -> Quaternion:
    out = Quaternion(1, 0, 0, 0)
    half = 0.5 * x
    for _ in range(m):
        out = out * half
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_to_bessel_converges(m):
    x = Quaternion(0.3, 0.4, 0, 0)
    target = _qpow_half(x, m)
    approx = power_to_bessel_partial(m, 15, x)
    assert (approx - target).norm() <= 1e-10


def test_power_to_bessel_error_decreases():
    x = Quaternion(0.8, 0.5, 0.3, 0.1)
    target = _qpow_half(x, 2)
    errs = [(power_to_bessel_partial(2, n, x) - target).norm()
            for n in (0, 2, 5, 10)]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_power_to_bessel_guards():
    x = Quaternion(0.3, 0.4, 0, 0)
    with pytest.raises(DomainError):
        power_to_bessel_partial(0, 5, x)
    with pytest.raises(DomainError):
        power_to_bessel_partial(1, 31, x)
    with pytest.raises(DomainError):
        power_to_bessel_partial(1, -1, x)
