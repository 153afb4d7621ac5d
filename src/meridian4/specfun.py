"""Special functions: factorials, Gamma, and Bessel functions of the first
and second kind, including the quaternionic Bessel functions obtained by
evaluating the ascending series on the complex lift.

The Bessel route is deliberately a single one: the ascending series

    J_nu(z) = sum_m (-1)^m / (m! Gamma(nu+m+1)) (z/2)^(nu+2m)

summed by one loop with a geometric tail bound, valid for |z| <= 30.  A
float z (bessel_j_series, bessel_j, bessel_y) is summed in float arithmetic,
a complex z (bessel_j_quat, power_to_bessel_partial) in complex arithmetic.
A real z gives the same bits either way: integer-order leading powers come
from _powu, which does the multiplications of CPython's complex ** int for
both types (float ** int rounds differently).  A leading term that
overflows is a DomainError.  The reported bound is the truncation tail plus
the rounding term (terms + 1) * eps * sum |term_i|.  Y_nu is derived from J
by the reflection formula and therefore refuses integer orders.
Closed-form half-integer checks live in the tests, not here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import ConvergenceFailure, DomainError, IntegerOrderUnsupported
from .quaternion import Quaternion, axial_split, from_lift

__all__ = [
    "factorial",
    "gamma",
    "SeriesTail",
    "bessel_j",
    "bessel_j_series",
    "bessel_y",
    "bessel_j_quat",
    "power_to_bessel_partial",
]

MAX_ABS_Z = 30.0
_MAX_TERMS = 300
_EPS = sys.float_info.epsilon
_MAX_FACTORIAL = 170
_Num = Union[float, complex]

_FACT = [1.0]
for _k in range(1, _MAX_FACTORIAL + 1):
    _FACT.append(_FACT[-1] * _k)


def factorial(n: int) -> float:
    """n! as a float, table-backed; n must be in [0, 170] (float overflow above)."""
    if not 0 <= n <= _MAX_FACTORIAL:
        raise DomainError(f"factorial table covers 0..{_MAX_FACTORIAL}, got {n}")
    return _FACT[n]


def gamma(x: float) -> float:
    """Gamma function for real argument; poles at non-positive integers."""
    try:
        return math.gamma(x)
    except ValueError:
        raise DomainError(f"Gamma pole/overflow at x = {x!r}") from None


@dataclass(frozen=True)
class SeriesTail:
    """Accounting for a truncated ascending series."""
    terms_used: int
    tail_bound: float


def _is_int(nu: float) -> bool:
    try:
        return nu == int(nu)
    except (ValueError, OverflowError):  # int(nan), int(inf)
        raise DomainError(f"order nu = {nu!r} must be finite") from None


def _powu(x: _Num, n: int) -> _Num:
    """x**n for 0 <= n <= 100 by CPython's complex binary powering (c_powu),
    so a complex x gets the bits of x ** n and a float x the same steps."""
    r, mask = x ** 0, 1  # 1.0 or (1+0j), as c_powu starts
    while n >= mask:
        if n & mask:
            r *= x
        mask <<= 1
        x *= x
    return r


def _jv_ascending(nu: float, z: _Num) -> Tuple[_Num, SeriesTail]:
    """Ascending series for J_nu(z), float or complex z, |z| <= 30.

    Caller must have reduced negative integer orders already.  The tail
    bound is geometric: once the term ratio falls below 1/2 the remainder is
    at most twice the first neglected term; the rounding term
    (terms + 1) * eps * sum |term_i| is added to it.
    """
    if not abs(z) <= MAX_ABS_Z:
        raise DomainError(f"ascending series restricted to |z| <= {MAX_ABS_Z:g}")
    if z == 0:
        if nu < 0:
            raise DomainError("J_nu(0) diverges for negative order")
        val = 1.0 if nu == 0 else 0.0
        return (complex(val) if isinstance(z, complex) else val), SeriesTail(1, 0.0)

    # leading coefficient (z/2)^nu / Gamma(nu+1)
    half = 0.5 * z
    try:
        if _is_int(nu):
            n = int(nu)
            c0 = (_powu(half, n) if n <= 100 else half ** nu) / factorial(n)
        else:
            c0 = half ** nu / gamma(nu + 1.0)
        scale = abs(c0)
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not scale < math.inf:
        raise DomainError(f"leading term (z/2)^nu / Gamma(nu+1) overflows at "
                          f"nu = {nu!r}, |z| = {abs(z)!r}")

    # k is the term index as a float; lim caches the stop rule's scale test
    term = total = c0
    mass = scale
    lim = 1e-16 * max(scale, 1e-300)
    zz = half * half
    nzz, azz = -zz, abs(zz)
    k = 0.0
    while k < _MAX_TERMS:
        nxt = term * (nzz / ((k + 1.0) * (nu + k + 1.0)))
        a = abs(nxt)
        if a <= lim:
            # rigorous stop: the next ratio must already be in the geometric regime
            denom_next = (k + 2.0) * (nu + k + 2.0)
            if denom_next > 0 and azz / denom_next <= 0.5:
                return total, SeriesTail(int(k) + 1, 2.0 * a + (k + 2.0) * _EPS * mass)
        term = nxt
        total += nxt
        t = abs(total)
        if t > scale:
            scale = t
            lim = 1e-16 * max(scale, 1e-300)
        mass += a
        k += 1.0
    raise ConvergenceFailure(f"J series did not settle in {_MAX_TERMS} terms")


def _jv_reduced(nu: float, z: _Num) -> Tuple[_Num, SeriesTail]:
    """Handle the negative-integer reflection J_{-n} = (-1)^n J_n, then sum."""
    if _is_int(nu) and nu < 0:
        n = int(-nu)
        val, tail = _jv_ascending(float(n), z)
        sign = -1.0 if n % 2 else 1.0
        return sign * val, tail
    return _jv_ascending(nu, z)


def bessel_j_series(nu: float, z: float) -> Tuple[float, SeriesTail]:
    """J_nu(z) for real z >= 0 with the truncation record."""
    if z < 0.0:
        raise DomainError("real-branch J_nu needs z >= 0")
    if z == 0.0 and nu < 0 and _is_int(nu):
        # J_{-n}(0) = (-1)^n J_n(0) = 0 for n >= 1
        return 0.0, SeriesTail(1, 0.0)
    return _jv_reduced(nu, z)


def bessel_j(nu: float, z: float) -> float:
    return bessel_j_series(nu, z)[0]


def bessel_y(nu: float, z: float) -> float:
    """Y_nu by reflection; only non-integer orders are supported."""
    if _is_int(nu) or abs(nu - round(nu)) <= 1e-8:
        raise IntegerOrderUnsupported(
            f"Y_nu at (near-)integer order {nu!r} is not in the reflection route")
    if z <= 0.0:
        raise DomainError("Y_nu needs z > 0")
    jp = bessel_j(nu, z)
    jm = bessel_j(-nu, z)
    return (jp * math.cos(nu * math.pi) - jm) / math.sin(nu * math.pi)


def bessel_j_quat(n: Union[int, float], x: Quaternion) -> Quaternion:
    """J_n at a quaternion argument through the complex lift (entire function)."""
    split = axial_split(x)
    z = complex(split.a, split.b)
    nu = float(n)
    if not _is_int(nu) and split.b == 0.0 and split.a < 0.0:
        raise DomainError("non-integer order on the negative real axis")
    val, _ = _jv_reduced(nu, z)
    return from_lift(val, x)


def power_to_bessel_partial(m: int, big_n: int, x: Quaternion) -> Quaternion:
    """Partial sum of (x/2)^m = sum_n (m+2n)(m+n-1)!/n! J_{m+2n}(x), n = 0..N."""
    if m < 1:
        raise DomainError("power-to-Bessel expansion needs m >= 1")
    if not 0 <= big_n <= 30:
        raise DomainError("partial-sum length N must be in [0, 30]")
    split = axial_split(x)
    z = complex(split.a, split.b)
    total = 0j
    for n in range(big_n + 1):
        coeff = (m + 2 * n) * factorial(m + n - 1) / factorial(n)
        jv, _ = _jv_ascending(float(m + 2 * n), z)
        total += coeff * jv
    return from_lift(total, x)
