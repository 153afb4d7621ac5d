"""Radially holomorphic functions on R^4 via the complex lift.

Every function here is determined by a complex-analytic function w(z) on the
upper half plane: for x = x0 + rho*I the quaternionic value is
w(x0 + i*rho) re-embedded along the axis I.  Powers, exp, cos, sin and the
principal log are provided with exact derivative and primitive tables, and
arbitrary real-linear combinations of them stay inside the table.

The radial derivative f' = (1/2)(d/dx0 - I d/drho)f coincides with the
complex derivative of the lift, so each RadialFunction carries its lift's
derivative, where registered, as another RadialFunction (derivative()).

Every lift takes a complex scalar or a complex ndarray: arrays go through
numpy, scalars through cmath (and come back as a Python complex).  A field
built from a RadialFunction reads its lifts at one point and at arrays of
points alike, so a lift outside the table must accept both as well.

fd_stencil is the package's one difference rule: the verifiers of fields and
antiholomorphy_residual, which hands the lift arrays, read derivatives from it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BranchCut, OnAxis, Pole, StepTooLarge, Unsupported
from .quaternion import Quaternion, axial_split, from_lift

__all__ = [
    "MeridianValue",
    "RadialFunction",
    "MoebiusRealCoeffs",
    "eval_lift",
    "radial_derivative",
    "antiholomorphy_residual",
    "elementary",
    "qpow",
    "qexp",
    "qcos",
    "qsin",
    "qln",
    "conjugate",
    "moebius",
    "moebius_potential",
    "primitive",
    "default_fd_step",
    "fd_stencil",
]


@dataclass(frozen=True)
class MeridianValue:
    """Value a + b*I in the meridian half plane (b signed)."""
    a: float
    b: float


@dataclass(frozen=True)
class RadialFunction:
    """A radially holomorphic function presented through its complex lift.

    lift  : z -> w(z), the defining analytic function, at a complex scalar
            or entry by entry on a complex ndarray
    deriv : thunk producing the derivative as a RadialFunction, if registered
    prim  : thunk producing a primitive (constant 0), if registered
    """
    name: str
    lift: Callable[[complex], complex]
    deriv: Optional[Callable[[], "RadialFunction"]] = field(default=None, repr=False)
    prim: Optional[Callable[[], "RadialFunction"]] = field(default=None, repr=False)

    def derivative(self) -> "RadialFunction":
        if self.deriv is None:
            raise Unsupported(f"no registered derivative for {self.name}")
        return self.deriv()

    def primitive(self) -> "RadialFunction":
        if self.prim is None:
            raise Unsupported(f"no registered primitive for {self.name}")
        return self.prim()

    # real-linear algebra on the table ------------------------------------

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        f, g = self, other
        return RadialFunction(
            name=f"({f.name} + {g.name})",
            lift=lambda z: f.lift(z) + g.lift(z),
            deriv=(None if f.deriv is None or g.deriv is None
                   else lambda: f.derivative() + g.derivative()),
            prim=(None if f.prim is None or g.prim is None
                  else lambda: f.primitive() + g.primitive()),
        )

    def __sub__(self, other: "RadialFunction") -> "RadialFunction":
        return self + (-1.0) * other

    def __neg__(self) -> "RadialFunction":
        return (-1.0) * self

    def __rmul__(self, c) -> "RadialFunction":
        c = float(c)
        f = self
        return RadialFunction(
            name=f"{c:g}*{f.name}",
            lift=lambda z: c * f.lift(z),
            deriv=None if f.deriv is None else (lambda: c * f.derivative()),
            prim=None if f.prim is None else (lambda: c * f.primitive()),
        )


def default_fd_step(x0, rho):
    """Package-wide finite-difference step: 1e-4 * max(1, |x0|, rho), at
    floats or at each element of arrays."""
    return 1e-4 * np.maximum(np.maximum(1.0, np.abs(x0)), rho)


def fd_stencil(fn: Callable, at, lines: Sequence) -> list:
    """fn's derivatives along lines through the points at, by the package's
    one difference rule.

    at is a plane point (x0, rho), fn a callable of x0 and rho, or a
    Quaternion, fn a callable of a Quaternion; either holds floats or arrays
    of one shape S.  Each line is (order, axis) or (order, axis, room): the
    derivative of order 1 or 2 along coordinate axis, or for order 0 fn's
    value at the points.  A derivative reads fn at t = s/2, -s/2, s, -s (and
    0 for order 2) along its line and combines the central differences D at
    s/2 and s by Richardson extrapolation, (4 D(s/2) - D(s)) / 3, with error
    O(s^4).  The step is s = h for first and s = 10 h for second
    derivatives, whose rounding error grows as eps/s^2 rather than eps/s,
    with each point's own h = default_fd_step(x0, rho).  StepTooLarge when s
    reaches room, the distance to the axis along the line, at any point (the
    message names the first).  fn is called once, with every point a line
    reads in flat arrays, and returns a value there (an array, or a float
    for all of them), or a list or tuple of such values.  Per line, the
    derivative (or value), of shape S, or (len(list), *S).
    """
    r4 = isinstance(at, Quaternion)
    coords = at.components() if r4 else tuple(at)
    h = default_fd_step(at.x0, at.rho()) if r4 else default_fd_step(*coords)
    offsets = []  # per line: s/2, -s/2, s, -s (and 0), or the point itself
    for order, _, *room in lines:
        s = h if order == 1 else 10.0 * h
        reach = np.asarray(s >= room[0] if order and room else False)
        if np.any(reach):
            i = np.flatnonzero(reach)[0]
            s, far = (np.broadcast_to(v, reach.shape).flat[i] for v in (s, room[0]))
            raise StepTooLarge(f"step {s:g} reaches the axis (rho = {far:g})")
        offsets.append([0.5 * s, -0.5 * s, s, -s] + ([0.0 * s] if order == 2 else [])
                       if order else [None])
    shape = np.broadcast(*coords).shape
    base = [np.broadcast_to(c, shape).ravel() for c in coords]
    moved = [[np.ravel(c + t) if order and i == axis else base[i] for i, c in enumerate(coords)]
             for (order, axis, *_), ts in zip(lines, offsets) for t in ts]
    flat = [np.concatenate(column) for column in zip(*moved)]
    vals = fn(Quaternion(*flat)) if r4 else fn(*flat)
    single = not isinstance(vals, (list, tuple))
    vals = np.array([np.broadcast_to(np.asarray(v, dtype=float), flat[0].shape)
                     for v in ([vals] if single else vals)])
    vals = vals.reshape(len(vals), len(moved), *shape).swapaxes(0, 1)
    if single:
        vals = vals[:, 0]

    def central(v, i, order, d):
        if order == 1:
            return (v[i] - v[i + 1]) / (2.0 * d)
        return (v[i] - 2.0 * v[4] + v[i + 1]) / (d * d)

    chunks = np.split(vals, np.cumsum([len(ts) for ts in offsets])[:-1])
    return [(4.0 * central(v, 0, order, ts[0]) - central(v, 2, order, ts[2])) / 3.0
            if order else v[0] for (order, *_), ts, v in zip(lines, offsets, chunks)]


# ---------------------------------------------------------------------------
# atoms: shifted powers, shifted log, exp, trig
# ---------------------------------------------------------------------------

def _dual(scalar_fn, array_fn):
    """One elementary function over a complex scalar (cmath) or ndarray (numpy)."""
    def fn(z):
        return array_fn(z) if isinstance(z, np.ndarray) else scalar_fn(z)
    return fn


_exp = _dual(cmath.exp, np.exp)
_cos = _dual(cmath.cos, np.cos)
_sin = _dual(cmath.sin, np.sin)
_log = _dual(cmath.log, np.log)


def _hits(mask) -> bool:
    """A guard condition at a scalar, or at any entry of an array."""
    return bool(np.any(mask)) if isinstance(mask, np.ndarray) else mask


def _guarded_base(z, n: float, d: float):
    zz = z + d
    if _hits(zz == 0):
        if n < 0:
            raise Pole(f"pole of (x + {d:g})^{n:g} at x = {-d:g}")
        if n != int(n):
            raise BranchCut("non-integer power at its branch point")
    if n != int(n) and _hits((zz.imag == 0.0) & (zz.real < 0.0)):
        raise BranchCut("non-integer power on the negative real half axis")
    return zz


def _spow(d: float, n: float, c: float) -> RadialFunction:
    """c*(x + d)^n, principal branch for non-integer n."""
    if d == 0.0:
        name = f"{c:g}*x^{n:g}" if c != 1.0 else f"x^{n:g}"
    else:
        name = f"{c:g}*(x + {d:g})^{n:g}"

    def lift(z, _d=d, _n=n, _c=c):
        zz = _guarded_base(z, _n, _d)
        if _n == 0:
            return np.full(zz.shape, complex(_c)) if isinstance(zz, np.ndarray) else complex(_c)
        return _c * zz ** _n

    def deriv(_d=d, _n=n, _c=c) -> RadialFunction:
        if _n == 0:
            return _spow(_d, 0, 0.0)
        return _spow(_d, _n - 1, _c * _n)

    def prim(_d=d, _n=n, _c=c) -> RadialFunction:
        if _n == -1:
            return _sln(_d, _c)
        return _spow(_d, _n + 1, _c / (_n + 1))

    return RadialFunction(name, lift, deriv, prim)


def _ln_guard(z, d: float):
    zz = z + d
    if _hits((zz.imag == 0.0) & (zz.real <= 0.0)):
        raise BranchCut("ln on the closed negative real half axis")
    return zz


def _sln(d: float, c: float) -> RadialFunction:
    """c*ln(x + d), principal branch (arg in (0, pi) off the real axis)."""
    name = f"{c:g}*ln(x + {d:g})" if d != 0.0 else (f"{c:g}*ln(x)" if c != 1.0 else "ln(x)")
    return RadialFunction(name, lift=lambda z, _d=d, _c=c: _c * _log(_ln_guard(z, _d)),
                          deriv=lambda _d=d, _c=c: _spow(_d, -1, _c),
                          prim=lambda _d=d, _c=c: _xlnx(_d, _c))


def _xlnx(d: float, c: float) -> RadialFunction:
    """c*((x+d)ln(x+d) - (x+d)): the registered primitive of c*ln(x+d)."""
    name = f"{c:g}*((x+{d:g})ln(x+{d:g}) - (x+{d:g}))"

    def lift(z, _d=d, _c=c):
        zz = _ln_guard(z, _d)
        return _c * (zz * _log(zz) - zz)

    return RadialFunction(name, lift, deriv=lambda _d=d, _c=c: _sln(_d, _c))


def qpow(n: float) -> RadialFunction:
    """x^n = r^n (cos(n*varphi) + I sin(n*varphi)); integer or principal branch."""
    return _spow(0.0, n, 1.0)


def _trig(phase: int) -> RadialFunction:
    """The cos/sin derivative four-cycle; phase 0 = cos, 1 = -sin, 2 = -cos, 3 = sin."""
    names = {0: "cos(x)", 1: "-sin(x)", 2: "-cos(x)", 3: "sin(x)"}
    fns = {0: _cos, 2: _cos, 1: _sin, 3: _sin}
    sgn = {0: 1.0, 1: -1.0, 2: -1.0, 3: 1.0}
    p = phase % 4
    return RadialFunction(
        names[p],
        lift=lambda z, _p=p: sgn[_p] * fns[_p](z),
        deriv=lambda _p=p: _trig(_p + 1),
        prim=lambda _p=p: _trig(_p + 3),
    )


def qexp() -> RadialFunction:
    """e^x = e^{x0}(cos rho + I sin rho)."""
    return RadialFunction("exp(x)", lift=_exp, deriv=lambda: qexp(), prim=lambda: qexp())


def qcos() -> RadialFunction:
    return _trig(0)


def qsin() -> RadialFunction:
    return _trig(3)


def qln() -> RadialFunction:
    """ln x = ln r + I*varphi, principal branch; cut on x0 <= 0, rho = 0."""
    return _sln(0.0, 1.0)


_ELEMENTARY = {"qexp": qexp, "qcos": qcos, "qsin": qsin, "qln": qln}


def elementary(name: str, n: Optional[float] = None) -> RadialFunction:
    """Look up a registered elementary function by name.

    qpow requires the exponent n; the others take no parameter.
    """
    if name == "qpow":
        if n is None:
            raise Unsupported("qpow needs an exponent n")
        return qpow(n)
    try:
        builder = _ELEMENTARY[name]
    except KeyError:
        raise Unsupported(f"unknown elementary function {name!r}") from None
    return builder()


def conjugate(f: RadialFunction) -> RadialFunction:
    """Pointwise quaternionic conjugate: radially anti-holomorphic, no derivative."""
    return RadialFunction(f"conj({f.name})", lambda z: f.lift(z).conjugate())


# ---------------------------------------------------------------------------
# Moebius transformations with real coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoebiusRealCoeffs:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c - 1.0) > 1e-12:
            raise ValueError("Moebius coefficients must satisfy ad - bc = 1")


def moebius(m: MoebiusRealCoeffs) -> RadialFunction:
    """F(x) = (a x + b)(c x + d)^{-1}; real coefficients commute with x.

    A sum of table powers, (a x + b)/d at c = 0 and else
    a/c - (ad - bc)/c^2 (x + d/c)^{-1}, for the derivatives and primitive;
    at c != 0 the value is the quotient, which does not cancel near -b/a."""
    a, b, c, d = m.a, m.b, m.c, m.d
    if c == 0.0:
        return _spow(0.0, 1, a / d) + _spow(0.0, 0, b / d)

    def lift(z):
        den = c * z + d
        if _hits(den == 0):
            raise Pole(f"pole of ({c:g}x + {d:g})^-1 at x = {-d / c:g}")
        return (a * z + b) / den

    return replace(_spow(0.0, 0, a / c) + _spow(d / c, -1, -(a * d - b * c) / (c * c)), lift=lift)


def moebius_potential(a: float, d: float) -> RadialFunction:
    """Radially holomorphic potential G = -ln(x + d) + a*x for the c = 1 family.

    Its radial derivative is -1/(x+d) + a, the holomorphic part of the
    anti-holomorphic companion -(conj(x) + d)^{-1} + a.
    """
    return _sln(d, -1.0) + _spow(0.0, 1, a)


# ---------------------------------------------------------------------------
# evaluation and verification
# ---------------------------------------------------------------------------

def eval_lift(f: RadialFunction, x: Quaternion) -> Quaternion:
    """Evaluate f at the quaternion x through the complex lift.

    Off the axis the value is w(x0 + i*rho) re-embedded along the axis of x.
    On the axis the imaginary part of the lift must vanish (real limit);
    otherwise the axial direction would be ambiguous and OnAxis is raised.
    """
    split = axial_split(x)
    return from_lift(f.lift(complex(split.a, split.b)), x)


def radial_derivative(f: RadialFunction, x0: float, rho: float) -> MeridianValue:
    """f'(x) = (1/2)(d/dx0 - I d/drho) f as a meridian-plane value."""
    w = f.derivative().lift(complex(x0, rho))
    return MeridianValue(w.real, w.imag)


def antiholomorphy_residual(f: RadialFunction, x0: float, rho: float) -> float:
    """|(1/2)(d/dx0 + I d/drho) f| from fd_stencil on the lift.

    Vanishes (to O(h^4)) exactly when f is radially holomorphic.  numpy
    stays as silent as float arithmetic on overflow and NaN: a non-finite
    residual is the caller's to report.
    """
    if rho <= 0.0:
        raise OnAxis("antiholomorphy residual needs rho > 0")

    def parts(a, b):
        w = f.lift(a + 1j * b)
        return w.real, w.imag
    with np.errstate(all="ignore"):
        (ux, vx), (ur, vr) = fd_stencil(parts, (x0, rho), [(1, 0), (1, 1, rho)])
    return abs(0.5 * (complex(ux, vx) + 1j * complex(ur, vr)))


def primitive(f: RadialFunction) -> RadialFunction:
    """Primitive from the registered table (constant of integration 0)."""
    return f.primitive()
