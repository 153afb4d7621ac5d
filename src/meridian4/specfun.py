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

import numpy as np

from .errors import ConvergenceFailure, DomainError, IntegerOrderUnsupported
from .quaternion import Quaternion, axial_split, from_lift

__all__ = [
    "factorial",
    "gamma",
    "SeriesTail",
    "bessel_j",
    "bessel_j_series",
    "bessel_j_array",
    "bessel_y",
    "y_by_reflection",
    "elementwise",
    "bessel_j_quat",
    "power_to_bessel_partial",
]

MAX_ABS_Z = 30.0
_MAX_TERMS = 300
_BLOCK_PAIRS = 256
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
            r = r * x
        mask <<= 1
        x = x * x  # not *=: an ndarray argument must stay as it is
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


def _check_y_order(nu: float) -> None:
    if _is_int(nu) or abs(nu - round(nu)) <= 1e-8:
        raise IntegerOrderUnsupported(
            f"Y_nu at (near-)integer order {nu!r} is not in the reflection route")


def y_by_reflection(nu: float, jp, jm):
    """Y_nu from J_nu and J_{-nu} (floats or arrays) at a non-integer order nu."""
    return (jp * math.cos(nu * math.pi) - jm) / math.sin(nu * math.pi)


def bessel_y(nu: float, z: float) -> float:
    """Y_nu by reflection; only non-integer orders are supported."""
    _check_y_order(nu)
    if z <= 0.0:
        raise DomainError("Y_nu needs z > 0")
    return y_by_reflection(nu, bessel_j(nu, z), bessel_j(-nu, z))


def elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn, a float routine (math.cosh, a bound float.__rpow__), at each
    element of x, one call per element: the values are libm's, whose last
    bit numpy's own power, cosh and sinh do not always share.  An element
    at which fn raises ArithmeticError (it overflows, or raises 0 to a
    negative power) is NaN."""
    vals = x.ravel().tolist()
    try:
        out = np.fromiter(map(fn, vals), float, len(vals))
    except ArithmeticError:
        out = np.empty(len(vals))
        for i, v in enumerate(vals):
            try:
                out[i] = fn(v)
            except ArithmeticError:
                out[i] = math.nan
    return out.reshape(x.shape)


def _leading(nu: float, half: np.ndarray) -> np.ndarray:
    """(z/2)^nu / Gamma(nu+1) at each element of half = z/2, as _jv_ascending
    computes it (nu not a negative integer); inf or NaN where it overflows."""
    if _is_int(nu):
        n = int(nu)
        return (_powu(half, n) if n <= 100 else elementwise(nu.__rpow__, half)) / factorial(n)
    try:
        return elementwise(nu.__rpow__, half) / gamma(nu + 1.0)
    except OverflowError:  # Gamma(nu + 1) overflows
        return np.full(half.shape, math.inf)


def _ascending_sums(nu: np.ndarray, half: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """The partial sums at which _jv_ascending stops, for orders nu (a
    column), points half = z/2 (a row) and finite leading terms c0 (orders
    x points); every pair sees the loop's operations in the loop's order.

    The terms are np.multiply.accumulate of c0 and the term ratios along a
    term axis, and the partial sums np.add.accumulate of the terms (both
    sequential), up to a guessed term count; pairs the guess leaves open
    are summed again to the loop's cap.  Blocks of at most _BLOCK_PAIRS
    pairs bound the (terms x pairs) arrays.
    """
    vals = np.empty(c0.shape)
    step = max(1, _BLOCK_PAIRS // len(nu))
    for lo in range(0, half.size, step):
        h, c = half[lo:lo + step], c0[:, lo:lo + step]
        zz = h * h
        v, done = _accumulated_sums(nu, zz, c, 20 + 2 * int(h.max(initial=0.0)))
        redo = ~done.all(axis=0)
        if redo.any():
            v[:, redo], done[:, redo] = _accumulated_sums(nu, zz[redo], c[:, redo], _MAX_TERMS)
        if not done.all():
            raise ConvergenceFailure(f"J series did not settle in {_MAX_TERMS} terms")
        vals[:, lo:lo + step] = v
    return vals


def _accumulated_sums(nu: np.ndarray, zz: np.ndarray, c0: np.ndarray, terms: int):
    """_ascending_sums by accumulation along a term axis, for at most
    `terms` terms; and the mask of pairs whose stop rule fired."""
    k = np.arange(terms, dtype=float)[:, None, None]
    term = np.empty((terms + 1,) + c0.shape)  # the term ratios, then the terms
    term[0] = c0
    np.divide(-zz, (k + 1.0) * (nu + k + 1.0), out=term[1:])
    np.multiply.accumulate(term, axis=0, out=term)
    total = np.add.accumulate(term, axis=0)
    lim = np.abs(total[:-1])  # then its running maximum, then the stop rule's bound
    np.maximum.accumulate(lim, axis=0, out=lim)
    np.maximum(lim, 1e-300, out=lim)
    lim *= 1e-16
    denom_next = (k + 2.0) * (nu + k + 2.0)
    stop = np.abs(term[1:], out=term[1:]) <= lim
    stop &= (denom_next > 0) & (zz / denom_next <= 0.5)
    first, pair = stop.reshape(terms, -1).argmax(axis=0), np.arange(c0.size)
    return (total[:-1].reshape(terms, -1)[first, pair].reshape(c0.shape),
            stop.reshape(terms, -1)[first, pair].reshape(c0.shape))


def bessel_j_array(nu, z) -> np.ndarray:
    """J_nu at each element of a float array z >= 0, with the bits bessel_j
    gives there.  nu is one order, or a sequence of orders: then the result
    has a leading axis over the orders, and all of them are summed at once.

    The loop of _jv_ascending runs for every (order, point) pair together
    (_ascending_sums).  The leading power is libm's per element
    (non-integer order) or _powu's.  An element with z > MAX_ABS_Z, or
    whose leading term overflows, is NaN where bessel_j raises DomainError.
    Scalar calls are cheaper through bessel_j.
    """
    orders = np.atleast_1d(np.asarray(nu, dtype=float)).tolist()
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise DomainError("real-branch J_nu needs z >= 0")
    out = np.full((len(orders),) + z.shape, math.nan)
    live = (z > 0.0) & (z <= MAX_ABS_Z)
    half = 0.5 * z[live]
    at0 = z == 0.0
    reduced, signs, lead = [], [], []
    with np.errstate(all="ignore"):
        for row, order in zip(out, orders):
            sign = 1.0
            if _is_int(order) or order > 0:
                row[at0] = 1.0 if order == 0 else 0.0
            if _is_int(order) and order < 0:  # J_{-n} = (-1)^n J_n
                order, sign = -order, (-1.0 if int(order) % 2 else 1.0)
            reduced.append([order])
            signs.append([sign])
            lead.append(_leading(order, half))
        c0 = np.array(lead)
        bad = ~(np.abs(c0) < math.inf)  # the leading term overflows
        vals = _ascending_sums(np.array(reduced), half, np.where(bad, 0.0, c0))
    vals[bad] = math.nan
    out[:, live] = np.array(signs) * vals
    return out if np.ndim(nu) else out[0]


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
