"""Special functions: factorials, Gamma, and Bessel functions of the first
and second kind, including the quaternionic Bessel functions obtained by
evaluating the ascending series on the complex lift.

The Bessel route is deliberately a single one: the ascending series

    J_nu(z) = sum_m (-1)^m / (m! Gamma(nu+m+1)) (z/2)^(nu+2m)

summed with a rigorous geometric tail bound, valid for |z| <= 30.  Y_nu is
derived from J by the reflection formula and therefore refuses integer
orders.  Closed-form half-integer checks live in the tests, not here.
"""

from __future__ import annotations

import cmath
import math
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
_MAX_FACTORIAL = 170

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
    return nu == int(nu)


def _jv_ascending(nu: float, z: complex) -> Tuple[complex, SeriesTail]:
    """Ascending series for J_nu(z), complex z, |z| <= 30.

    Caller must have reduced negative integer orders already.  The tail
    bound is geometric: once the term ratio falls below 1/2 the remainder
    is at most twice the first neglected term.
    """
    if abs(z) > MAX_ABS_Z:
        raise DomainError(f"ascending series restricted to |z| <= {MAX_ABS_Z:g}")
    half = 0.5 * z
    if z == 0:
        if nu == 0:
            return 1.0 + 0j, SeriesTail(1, 0.0)
        if nu > 0:
            return 0j, SeriesTail(1, 0.0)
        raise DomainError("J_nu(0) diverges for negative order")

    # leading coefficient (z/2)^nu / Gamma(nu+1)
    if _is_int(nu):
        c0 = half ** int(nu) / factorial(int(nu))
    else:
        c0 = half ** nu / gamma(nu + 1.0)

    term = c0
    total = c0
    scale = abs(c0)
    zz = half * half
    m = 0
    while m < _MAX_TERMS:
        ratio = -zz / ((m + 1.0) * (nu + m + 1.0))
        nxt = term * ratio
        # rigorous stop: next index ratio must already be in the geometric regime
        denom_next = (m + 2.0) * (nu + m + 2.0)
        if denom_next > 0:
            r_next = abs(zz) / denom_next
            if r_next <= 0.5 and abs(nxt) <= 1e-16 * max(scale, 1e-300):
                return total, SeriesTail(m + 1, 2.0 * abs(nxt))
        term = nxt
        total += term
        scale = max(scale, abs(total))
        m += 1
    raise ConvergenceFailure(f"J series did not settle in {_MAX_TERMS} terms")


def _jv_reduced(nu: float, z: complex) -> Tuple[complex, SeriesTail]:
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
    val, tail = _jv_reduced(nu, complex(z))
    return val.real, tail


def bessel_j(nu: float, z: float) -> float:
    return bessel_j_series(nu, z)[0]


def bessel_y(nu: float, z: float) -> float:
    """Y_nu by reflection; only non-integer orders are supported."""
    if abs(nu - round(nu)) <= 1e-8:
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
    if abs(z) > MAX_ABS_Z:
        raise DomainError(f"|x| = {abs(z):g} outside the series domain (<= {MAX_ABS_Z:g})")
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
    if abs(z) > MAX_ABS_Z:
        raise DomainError(f"|x| = {abs(z):g} outside the series domain")
    total = 0j
    for n in range(big_n + 1):
        coeff = (m + 2 * n) * factorial(m + n - 1) / factorial(n)
        jv, _ = _jv_ascending(float(m + 2 * n), z)
        total += coeff * jv
    return from_lift(total, x)
