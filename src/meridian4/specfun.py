"""Special functions: Bessel functions of the first and second kind,
including the quaternionic Bessel functions obtained by evaluating the
ascending series on the complex lift.

Every Bessel value comes from one rule, the ascending series summed by
Horner's rule for |z| <= 30: J_nu(z) = c0 Q(w), c0 = (z/2)^nu/Gamma(nu+1),
w = -z^2/4, Q(w) = sum_k b_k w^k with b_0 = 1, b_k = b_{k-1}/(k (nu+k)).
What the rule needs of an order (the b_k, Q's degree for each ceil(|z|),
Gamma(nu+1) and the reflection J_{-n} = (-1)^n J_n) is built at the
order's first call (_order), not at import.  Float z (bessel_j_series,
bessel_j, bessel_y) runs the rule in float arithmetic, complex z
(bessel_j_quat, power_to_bessel_partial) in complex arithmetic, and arrays
(bessel_j_array) with numpy's, where a value does not depend on the
array's other points.  The routes differ only in the power in c0: libm's
pow, CPython's complex power (binary powering at integer orders up to
100) and numpy's, except at nu = +-2, where all three take the square.  A
leading term that overflows, Gamma(nu+1) included, is a DomainError.
Only bessel_j_series reports a bound: the truncation tail plus
(terms + 1) * eps * |c0| sum |b_k| |w|^k.  Y_nu is derived from J by the
reflection formula and therefore refuses integer orders.  Closed-form
half-integer checks live in the tests.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import ConvergenceFailure, DomainError, IntegerOrderUnsupported
from .quaternion import Quaternion, from_lift

__all__ = [
    "SeriesTail",
    "bessel_j",
    "bessel_j_series",
    "bessel_j_array",
    "bessel_y",
    "y_by_reflection",
    "bessel_j_quat",
    "power_to_bessel_partial",
]

MAX_ABS_Z = 30.0
_MAX_TERMS = 300
_BLOCK_PAIRS = 2048
_EPS = sys.float_info.epsilon
_Num = Union[float, complex]

@dataclass(frozen=True)
class SeriesTail:
    """Accounting for a truncated ascending series."""
    terms_used: int
    tail_bound: float


def _is_int(nu: float) -> bool:
    try:
        return float(nu) == int(nu)
    except (ValueError, OverflowError):  # int(nan), int(inf), float(10**400)
        raise DomainError(f"order nu = {nu!r} must be finite") from None


@dataclass(frozen=True)
class _Order:
    """What the series of J at one order needs: the order summed (|nu| at
    a negative integer order, odd when J_{-n} = -J_n), math.gamma's
    Gamma(nu+1) (NaN where it overflows, so that c0 is NaN too), b_0 ..
    b_{_MAX_TERMS}, and Q's degree for each bucket ceil(|z|) = 0 .. 30."""
    nu: float
    odd: bool
    gamma: float
    b: Tuple[float, ...]
    degrees: Tuple[int, ...]


@functools.lru_cache(maxsize=256)
def _order(nu: float) -> _Order:
    """The record of the order nu.  A bucket's degree is the first n (else
    -1) at which, at the bucket's upper edge on the real line, the next
    term is at most 1e-16 of the largest partial sum and the term ratio
    after it at most 1/2, so that the tail is at most twice the next term."""
    integer = _is_int(nu)
    nu, odd = float(nu), False
    if integer and nu < 0:
        nu, odd = -nu, nu % 2 == 1
    try:
        gam = math.gamma(nu + 1.0)
    except OverflowError:
        gam = math.nan
    k = np.arange(1.0, _MAX_TERMS + 2.0)
    aw = 0.25 * np.arange(1.0, MAX_ABS_Z + 1.0) ** 2  # |w| at each bucket's edge
    with np.errstate(all="ignore"):
        denom = k * (nu + k)
        b = np.divide.accumulate(np.concatenate(([1.0], denom[:-1])))
        # the terms at each edge (a column), and their partial sums' running scale
        terms = np.multiply.accumulate(
            np.vstack([np.ones_like(aw), -aw / denom[:-1, None]]), axis=0)
        scale = np.maximum.accumulate(np.abs(np.add.accumulate(terms, axis=0)), axis=0)
        stop = ((np.abs(terms[1:]) <= 1e-16 * scale[:-1])
                & (denom[1:, None] > 0) & (aw / denom[1:, None] <= 0.5))
    degrees = np.where(stop.any(axis=0), stop.argmax(axis=0), -1).tolist()
    return _Order(nu, odd, gam, tuple(b.tolist()), (0,) + tuple(degrees))


def _jv_terms(nu: float, z: _Num) -> Tuple[_Num, _Num, Tuple[float, ...], int, bool]:
    """J_nu(z) = (-1)^odd c0 Q(w), Q = sum of b[k] w^k for k <= n, as
    (c0, w, b, n, odd) for complex z or real z >= 0, |z| <= 30: a negative
    integer order is reflected, J_{-n} = (-1)^n J_n; at z = 0, c0 = J_nu(0)."""
    if not isinstance(z, complex) and z < 0.0:
        raise DomainError("real-branch J_nu needs z >= 0")
    rec = _order(nu)
    az = abs(z)
    if not az <= MAX_ABS_Z:
        raise DomainError(f"ascending series restricted to |z| <= {MAX_ABS_Z:g}")
    if z == 0:
        if rec.nu < 0:
            raise DomainError("J_nu(0) diverges for negative order")
        val = 1.0 if rec.nu == 0 else 0.0  # J_{-n}(0) = 0 too: odd stays False
        return (complex(val) if isinstance(z, complex) else val), 0.0, (1.0,), 0, False

    half = 0.5 * z
    square = half * half
    try:
        # at nu = 2 the square, rounded once, as numpy's power takes it
        # (libm's pow may miss it by an ulp), else libm's or CPython's power
        c0 = (square if rec.nu == 2.0 else half ** rec.nu) / rec.gamma
        scale = abs(c0)
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not scale < math.inf:
        raise DomainError(f"leading term (z/2)^nu / Gamma(nu+1) overflows at "
                          f"nu = {float(nu)!r}, |z| = {az!r}")
    n = rec.degrees[math.ceil(az)]
    if n < 0:
        raise ConvergenceFailure(f"J series did not settle in {_MAX_TERMS} terms")
    return c0, -square, rec.b, n, rec.odd


def _horner(c0: _Num, w: _Num, b: Tuple[float, ...], n: int, odd: bool) -> _Num:
    """(-1)^odd c0 Q(w) as c0 + c0 (w Q1(w)), Q1 = (Q - 1)/w by Horner's
    rule.  c0 comes last, so that where Q is near 1 (small |z|) Q's rounding
    does not add to c0's; the sign is an exact negation of the sum."""
    acc = 0.0
    for bk in reversed(b[1:n + 1]):
        acc = acc * w + bk
    val = c0 + c0 * (acc * w)
    return -val if odd else val


def _jv_ascending(nu: float, z: _Num) -> Tuple[_Num, int, float]:
    """_jv_terms summed, with its record: (value, terms used, bound), the
    rounding term's sum by Horner's rule on |w|."""
    c0, w, b, n, odd = _jv_terms(nu, z)
    aw, mass = abs(w), 0.0
    for bk in reversed(b[:n + 1]):
        mass = mass * aw + abs(bk)
    # in logs: |w|^(n+1) alone may overflow where the term does not
    nxt = math.exp(math.log(abs(b[n + 1])) + (n + 1) * math.log(aw)) if aw and b[n + 1] else 0.0
    return _horner(c0, w, b, n, odd), n + 1, abs(c0) * (2.0 * nxt + (n + 2) * _EPS * mass)


def bessel_j_series(nu: float, z: float) -> Tuple[float, SeriesTail]:
    """J_nu(z) for real z >= 0 with the truncation record."""
    val, terms, bound = _jv_ascending(nu, z)
    return val, SeriesTail(terms, bound)


def bessel_j(nu: float, z: float) -> float:
    """J_nu(z) for real z >= 0: bessel_j_series without the record."""
    return _horner(*_jv_terms(nu, z))


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


@functools.lru_cache(maxsize=64)
def _order_tables(nus: Tuple[float, ...]):
    """The records of the orders nus and, as read-only arrays, their degree
    tables (order, bucket), their b_k (order, k) and their signs (order, 1)."""
    orders = [_order(nu) for nu in nus]
    tables = (np.array([rec.degrees for rec in orders]), np.array([rec.b for rec in orders]),
              np.array([[-1.0 if rec.odd else 1.0] for rec in orders]))
    for table in tables:
        table.setflags(write=False)
    return (orders, *tables)


def bessel_j_array(nu, z) -> np.ndarray:
    """J_nu at each element of a float array z >= 0.  nu is one order, or a
    sequence of orders: then the result has a leading axis over the orders,
    and all of them are summed at once.

    _horner's steps run for all (order, point) pairs of a block (at most
    _BLOCK_PAIRS, which bounds its (degree x pairs) coefficients) from its
    largest degree down, with b_k = 0 above a pair's own degree, where acc
    stays 0 exactly: each pair's value is that of the same point alone.  It
    differs from bessel_j's only through the leading power, numpy's here.
    An element with z > MAX_ABS_Z, or whose leading term overflows, is NaN
    where bessel_j raises DomainError.
    """
    orders, degrees, coeffs, signs = _order_tables(
        tuple(np.atleast_1d(np.asarray(nu, dtype=float)).tolist()))
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise DomainError("real-branch J_nu needs z >= 0")
    out = np.full((len(orders),) + z.shape, math.nan)
    live = (z > 0.0) & (z <= MAX_ABS_Z)
    half = 0.5 * z[live]
    w = -(half * half)
    bucket = np.ceil(z[live]).astype(np.intp)
    at0 = z == 0.0
    with np.errstate(all="ignore"):
        for row, rec in zip(out, orders):
            if rec.nu >= 0.0:
                row[at0] = 1.0 if rec.nu == 0.0 else 0.0
        # (z/2)^nu / Gamma(nu+1); inf or NaN where it overflows
        c0 = np.array([half ** rec.nu / rec.gamma for rec in orders])
        bad = ~(np.abs(c0) < math.inf)  # the leading term overflows
        n = np.where(bad, 0, degrees[:, bucket])
        if np.any(n < 0):
            raise ConvergenceFailure(f"J series did not settle in {_MAX_TERMS} terms")
        table = coeffs[:, :1 + n.max(initial=0)]
        q = np.empty(c0.shape)
        step = max(1, _BLOCK_PAIRS // len(orders))
        for lo in range(0, half.size, step):
            nb, wb = n[:, lo:lo + step], w[lo:lo + step]
            top = nb.max()
            # the Horner coefficients b_top .. b_1 of every pair, 0 above its degree
            steps = np.where(np.arange(top, 0, -1)[:, None, None] <= nb,
                             table[:, top:0:-1].T[:, :, None], 0.0)
            acc = np.zeros(nb.shape)
            for coeff in steps:
                acc *= wb
                acc += coeff
            q[:, lo:lo + step] = acc * wb
        vals = c0 + c0 * q
    vals[bad] = math.nan
    out[:, live] = signs * vals
    return out if np.ndim(nu) else out[0]


def bessel_j_quat(n: Union[int, float], x: Quaternion) -> Quaternion:
    """J_n at a quaternion argument through the complex lift (entire function)."""
    z = complex(x.x0, x.rho())
    nu = float(n)
    if not _is_int(nu) and z.imag == 0.0 and z.real < 0.0:
        raise DomainError("non-integer order on the negative real axis")
    return from_lift(_horner(*_jv_terms(nu, z)), x)


def power_to_bessel_partial(m: int, big_n: int, x: Quaternion) -> Quaternion:
    """Partial sum of (x/2)^m = sum_n (m+2n)(m+n-1)!/n! J_{m+2n}(x), n = 0..N."""
    if m < 1:
        raise DomainError("power-to-Bessel expansion needs m >= 1")
    if not 0 <= big_n <= 30:
        raise DomainError("partial-sum length N must be in [0, 30]")
    z = complex(x.x0, x.rho())
    total = 0j
    for n in range(big_n + 1):
        terms = _jv_terms(float(m + 2 * n), z)  # first: past Gamma's range, a DomainError
        coeff = (m + 2 * n) * math.gamma(m + n) / math.gamma(n + 1)
        total += coeff * _horner(*terms)
    return from_lift(total, x)
