"""Quaternion arithmetic and the axial decomposition of points in R^4.

A point x = (x0, x1, x2, x3) is treated as the quaternion
x0 + x1*i + x2*j + x3*k with the Hamilton rules i^2 = j^2 = k^2 = ijk = -1,
ij = -ji = k.  Away from the real axis every quaternion splits as
x = a + b*I with a = x0, b = rho = |(x1,x2,x3)| and I = unit_axis(x), the
unit pure quaternion along the imaginary part; I^2 = -1, so the plane
spanned by 1 and I is a copy of C.  All the function theory in this
package lives on that plane.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OnAxis, ZeroQuaternion

__all__ = [
    "Quaternion",
    "CylindricalAngles",
    "mul",
    "unit_axis",
    "from_lift",
    "angles",
]


@dataclass(frozen=True)
class Quaternion:
    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return mul(self, other)
        return self.scale(float(other))

    def __rmul__(self, other):
        # real scalars commute with everything
        return self.scale(float(other))

    def scale(self, c: float) -> "Quaternion":
        return Quaternion(c * self.x0, c * self.x1, c * self.x2, c * self.x3)

    def conj(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm_sq(self) -> float:
        return self.x0 ** 2 + self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroQuaternion("zero quaternion has no inverse")
        return self.conj().scale(1.0 / n2)

    def rho(self) -> float:
        """Distance from the real axis, |(x1, x2, x3)|; when the components
        are flat float arrays of one length, at each of their points."""
        # hypot scales, so components below 1e-154 do not underflow; a complex's abs
        # is the libm hypot that np.hypot calls, so a point rounds alike alone and in arrays
        if isinstance(self.x1, np.ndarray):
            return np.hypot(np.hypot(self.x1, self.x2), self.x3)
        try:
            return abs(complex(abs(complex(self.x1, self.x2)), self.x3))
        except OverflowError:  # past 1.8e308: inf, as float arithmetic gives
            return math.inf

    def components(self) -> tuple:
        return (self.x0, self.x1, self.x2, self.x3)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p*q (noncommutative; ij = k)."""
    return Quaternion(
        p.x0 * q.x0 - p.x1 * q.x1 - p.x2 * q.x2 - p.x3 * q.x3,
        p.x0 * q.x1 + p.x1 * q.x0 + p.x2 * q.x3 - p.x3 * q.x2,
        p.x0 * q.x2 - p.x1 * q.x3 + p.x2 * q.x0 + p.x3 * q.x1,
        p.x0 * q.x3 + p.x1 * q.x2 - p.x2 * q.x1 + p.x3 * q.x0,
    )


def unit_axis(x: Quaternion) -> Optional[Quaternion]:
    """The unit pure quaternion I along the imaginary part of x, so that
    x = x0 + rho*I; None on the real axis, where I is undefined."""
    b = x.rho()
    if b == 0.0:
        return None
    if b < sys.float_info.min:
        # a subnormal rho has lost relative precision: rescale by a power of
        # two, which is exact, and normalise the rescaled imaginary part
        return unit_axis(x.scale(2.0 ** 600))
    return Quaternion(0.0, x.x1 / b, x.x2 / b, x.x3 / b)


def from_lift(w: complex, x: Quaternion) -> Quaternion:
    """Re-embed a lift value w = u + i*v as u + v*I along unit_axis(x).

    On the real axis I is undefined, so w must be real to 1e-12 (1 + |w|)."""
    ax = unit_axis(x)
    if ax is None:
        if abs(w.imag) > 1e-12 * (1.0 + abs(w)):
            raise OnAxis(f"value {w} has no real limit on the axis at x0 = {x.x0:g}")
        return Quaternion(w.real, 0.0, 0.0, 0.0)
    return Quaternion(w.real, w.imag * ax.x1, w.imag * ax.x2, w.imag * ax.x3)


@dataclass(frozen=True)
class CylindricalAngles:
    """Spherical/cylindrical chart (r, varphi, theta, psi) of a point off the axis.

    r      = |x|
    varphi = arccos(x0/r), in (0, pi)
    theta  = angle of (x1, sqrt(x2^2+x3^2)) in [0, pi]
    psi    = arccot(x2/x3), in (0, pi); only defined for x3 > 0, None otherwise
    """
    r: float
    varphi: float
    theta: float
    psi: Optional[float]


def angles(x: Quaternion) -> CylindricalAngles:
    """Recover the angular chart of x.

    varphi = atan2(rho, x0) keeps full precision near the axis, where
    acos(x0/r) would lose about half the digits of small angles.
    theta is recovered atan2-style from (x1, sqrt(x2^2+x3^2)), which is
    full-range and exact under the reconstruction
        x1 = rho*cos(theta), x2 = rho*sin(theta)*cos(psi),
        x3 = rho*sin(theta)*sin(psi).
    psi is the arccot(x2/x3) branch in (0, pi), defined only on the open
    half space x3 > 0, and None off it.
    """
    rho = x.rho()
    if rho == 0.0:
        raise OnAxis("angles undefined on the real axis")
    r = x.norm()
    varphi = math.atan2(rho, x.x0)
    s = math.hypot(x.x2, x.x3)
    theta = math.atan2(s, x.x1)
    psi = math.atan2(x.x3, x.x2) if x.x3 > 0.0 else None
    return CylindricalAngles(r, varphi, theta, psi)
