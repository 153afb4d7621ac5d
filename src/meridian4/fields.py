"""Meridional potentials and vector fields on R^4.

A meridional field is the gradient-type field of an axisymmetric potential
g(x0, rho):

    V0 = dg/dx0,   Vrho = dg/drho,   V_m = Vrho * x_m / rho  (m = 1,2,3)

where g satisfies the degenerate-elliptic meridian equation

    rho (g_x0x0 + g_rhorho) - (alpha - 2) g_rho = 0.

Fields of radially holomorphic potentials G (alpha = 2) share one builder,
lifted_field, which reads g, the field and its partials off the complex
lifts of G, G' and G''.  Both the table functions (from_holomorphic_potential)
and the transform fields of the transforms module go through it.  Separable
Bessel-type solutions (any alpha) have their own constructor, whose
profile maps float arrays with the Bessel series summed for all points at
once (specfun.bessel_j_array), with the bits of the scalar call at each
point.  Every profile computes several quantities together through its
batch: MeridionalField.evaluate at arrays of points, MeridionalField.at at
one point (a lift read once, a Bessel order summed once).

The module also holds the verifiers for the underlying PDE family.  Each
takes one point or a cloud of points as arrays, and evaluates all the
points it needs in one call per set of quantities.  The ones that need
partials a profile does not carry take them by the one difference rule of
the package (holomorphic.fd_derivative, here as fd_steps and fd_combine):
Richardson extrapolation of central differences at s and s/2, with error
O(s^4), at s = default_fd_step for first and 10 * default_fd_step for
second derivatives, each point with its own step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, IntegerOrderUnsupported, NoStream, NotHolomorphic
from .holomorphic import (RadialFunction, antiholomorphy_residual, default_fd_step,
                          fd_combine, fd_steps)
from .quaternion import Quaternion
# bessel_y stays bound here for bench/tracing.py, which wraps it at this name
from .specfun import (bessel_j, bessel_j_array, bessel_y, elementwise,  # noqa: F401
                      y_by_reflection)

__all__ = [
    "RHO_MIN",
    "MeridionalProfile",
    "MeridionalField",
    "SeparableParams",
    "from_holomorphic_potential",
    "lifted_field",
    "from_separable",
    "lift_to_r4",
    "verify_epd",
    "verify_stream",
    "verify_stokes_beltrami",
    "verify_weinstein",
    "verify_axial_hyperbolic",
    "verify_general_system",
    "criterion_check",
    "axial_symmetry_check",
]

RHO_MIN = 1e-6

Scalar2 = Callable[[float, float], float]
Lift = Callable[[complex], complex]


@dataclass
class MeridionalProfile:
    """Analytic data of an axisymmetric potential: g and its first/second partials.

    The callables take (x0, rho).  stream, when present, is the Stokes
    stream function paired with g by the generalized Stokes-Beltrami system.
    vectorized marks callables that also map float arrays elementwise.
    batch, when present, maps a tuple of callable names and x0, rho (floats,
    or float arrays when vectorized) to those callables' values there,
    computed together from the factors they share.
    """
    alpha: float
    g: Scalar2
    dg_dx0: Scalar2
    dg_drho: Scalar2
    d2g_dx0x0: Scalar2
    d2g_dx0rho: Scalar2
    d2g_drhorho: Scalar2
    stream: Optional[Scalar2] = None
    label: str = ""
    vectorized: bool = False
    batch: Optional[Callable[[Tuple[str, ...], Any, Any], List[Any]]] = None

    def values(self, attrs: Tuple[str, ...], x0, rho) -> list:
        """The callables attrs at (x0, rho), through batch when there is one."""
        if self.batch is not None:
            return self.batch(attrs, x0, rho)
        return [getattr(self, attr)(x0, rho) for attr in attrs]


def _profile_from_batch(alpha: float, batch, attrs, label: str,
                        vectorized: bool) -> MeridionalProfile:
    """A profile whose callables attrs are one-name views of batch."""
    def view(attr):
        return lambda x0, rho: batch((attr,), x0, rho)[0]
    return MeridionalProfile(alpha=alpha, **{attr: view(attr) for attr in attrs},
                             label=label, vectorized=vectorized, batch=batch)


def _values(p: MeridionalProfile, attrs: Tuple[str, ...], x0: np.ndarray,
            rho: np.ndarray, strict: bool = True) -> List[np.ndarray]:
    """The profile callables attrs at the points of the flat float arrays x0
    and rho, one array each.

    A vectorized profile takes the arrays in one call; any other is called
    point by point.  With strict=False a point at which such a profile
    raises DomainError is NaN.
    """
    if p.vectorized:
        with np.errstate(all="ignore"):
            values = list(p.values(attrs, x0, rho))
        outs = []
        while values:  # each value copied out and let go, so one is held twice at most
            outs.append(np.empty(x0.shape))
            outs[-1][...] = values.pop(0)
        return outs
    outs = [np.empty(x0.shape) for _ in attrs]
    for i, (a, b) in enumerate(zip(x0.tolist(), rho.tolist())):
        try:
            row = p.values(attrs, a, b)
        except DomainError:
            if strict:
                raise
            row = [math.nan] * len(attrs)
        for out, value in zip(outs, row):
            out[i] = value
    return outs


# field quantity (a MeridionalField method name) -> profile callable
_QUANTITY = {"g": "g", "V0": "dg_dx0", "Vrho": "dg_drho", "dV0_dx0": "d2g_dx0x0",
             "dVrho_dx0": "d2g_dx0rho", "dVrho_drho": "d2g_drhorho", "stream": "stream"}


_ATTRS = {}  # tuple of field quantities -> their profile callables


def _attrs(names: Tuple[str, ...]) -> Tuple[str, ...]:
    """The profile callables of a tuple of field quantities."""
    attrs = _ATTRS[names] = tuple(_QUANTITY[name] for name in names)
    return attrs


class MeridionalField:
    """Field view of a profile: V0, Vrho and the partials entering the Jacobian.

    evaluate computes quantities at arrays of points and at() at one point;
    the single-quantity methods are views of at().
    """

    def __init__(self, profile: MeridionalProfile):
        self.profile = profile

    @property
    def alpha(self) -> float:
        return self.profile.alpha

    @property
    def label(self) -> str:
        return self.profile.label

    def at(self, names: Tuple[str, ...], x0: float, rho: float) -> list:
        """The quantities names (each one of g, V0, Vrho, dV0_dx0, dVrho_dx0,
        dVrho_drho, stream) at the point (x0, rho), computed together: a
        lifted field reads each lift once, a separable one sums each Bessel
        order once."""
        if rho < RHO_MIN:
            raise DomainError(f"rho = {rho:g} below the domain floor {RHO_MIN:g}")
        p, attrs = self.profile, _ATTRS.get(names) or _attrs(names)
        # batch called here, not through values: this runs per RK4 stage
        return p.batch(attrs, x0, rho) if p.batch is not None else p.values(attrs, x0, rho)

    def g(self, x0: float, rho: float) -> float:
        return self.at(("g",), x0, rho)[0]

    def V0(self, x0: float, rho: float) -> float:
        return self.at(("V0",), x0, rho)[0]

    def Vrho(self, x0: float, rho: float) -> float:
        return self.at(("Vrho",), x0, rho)[0]

    def dV0_dx0(self, x0: float, rho: float) -> float:
        return self.at(("dV0_dx0",), x0, rho)[0]

    def dVrho_dx0(self, x0: float, rho: float) -> float:
        return self.at(("dVrho_dx0",), x0, rho)[0]

    def dVrho_drho(self, x0: float, rho: float) -> float:
        return self.at(("dVrho_drho",), x0, rho)[0]

    def evaluate(self, names: Sequence[str], x0: np.ndarray, rho: np.ndarray,
                 check: bool = True) -> List[np.ndarray]:
        """The quantities names (as for at) at the points of the flat float
        arrays x0 and rho, one array per name.

        The domain floor is checked once for the whole array.  Vectorized
        profiles (holomorphic lifts, separable Bessel profiles, and transform
        fields, whose quadrature takes all points and lifts in one pass) take
        the arrays directly; the profile of a RadialFunction without array lifts
        is called point by point.  Raises DomainError when any value is not
        finite.  With check=False, for callers that mask such points
        instead, the values come back as they are, and a point at which a
        point-by-point profile raises DomainError is NaN.
        """
        if rho.size and rho.min() < RHO_MIN:
            raise DomainError(f"rho = {rho.min():g} below the domain floor {RHO_MIN:g}")
        outs = _values(self.profile, _attrs(tuple(names)), x0, rho, strict=check)
        for name, out in zip(names, outs if check else ()):
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                i = bad[0]
                raise DomainError(f"{name} = {out[i]:g} at (x0, rho) = ({x0[i]:g}, {rho[i]:g})")
        return outs

    def stream_value(self, x0: float, rho: float) -> float:
        if self.profile.stream is None:
            raise NoStream(f"profile {self.label!r} carries no stream function")
        return self.at(("stream",), x0, rho)[0]

    def has_stream(self) -> bool:
        return self.profile.stream is not None


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

_PROBES = ((0.5, 0.7), (1.3, 0.4), (-0.8, 1.1))


def from_holomorphic_potential(G: RadialFunction) -> MeridionalField:
    """alpha = 2 field of a radially holomorphic potential G = g + I*gh.

    G is probed for antiholomorphy, then its lift and the lifts of G' and G''
    go to lifted_field.
    """
    probed = 0
    for px, pr in _PROBES:
        try:
            res = antiholomorphy_residual(G, px, pr)
            scale = 1.0 + abs(G.lift(complex(px, pr)))
        except Exception:
            continue  # probe fell on a cut/pole; try the next one
        probed += 1
        if not math.isfinite(res) or res > 1e-5 * scale:
            raise NotHolomorphic(
                f"{G.name} fails the antiholomorphy probe at ({px:g}, {pr:g}): "
                f"residual {res:g}")
    if probed == 0:
        raise NotHolomorphic(f"could not probe {G.name} anywhere")

    F = G.derivative()
    F2 = F.derivative()
    return lifted_field(G.lift, F.lift, F2.lift, f"holo:{G.name}",
                        G.vectorized and F.vectorized and F2.vectorized)


# profile callable -> (lift read: 0 for G, 1 for G', 2 for G''; sign; imaginary part?)
_LIFTED = {"g": (0, 1.0, False), "dg_dx0": (1, 1.0, False), "dg_drho": (1, -1.0, True),
           "d2g_dx0x0": (2, 1.0, False), "d2g_dx0rho": (2, -1.0, True),
           "d2g_drhorho": (2, -1.0, False), "stream": (0, 1.0, True)}


def lifted_field(G: Lift, F: Lift, F2: Lift, label: str, vectorized: bool,
                 batch: Optional[Callable[[Tuple[int, ...], Any], List[Any]]] = None
                 ) -> MeridionalField:
    """alpha = 2 field of a potential whose complex lift is G, with F = G', F2 = G''.

    At z = x0 + i*rho: g = Re G, stream = Im G, V0 = Re G', Vrho = -Im G',
    d2g_dx0x0 = Re G'', d2g_dx0rho = -Im G'', d2g_drhorho = -Re G''.
    vectorized says that the three lifts also map complex ndarrays.  batch,
    when given, maps a tuple of lift indices (0: G, 1: G', 2: G'') and a
    complex number or ndarray to those lifts' values there, computed
    together.  The profile's batch reads each lift its callables need once,
    from batch or from G, F and F2.
    """
    lifts = (G, F, F2)
    plans = {}  # callable names -> (lifts to read, (lift position, sign, imag) per name)

    def plan(attrs):
        needed = tuple(sorted({_LIFTED[attr][0] for attr in attrs}))
        reads = tuple((needed.index(k), sign, imag) for k, sign, imag in map(_LIFTED.get, attrs))
        plans[attrs] = needed, reads
        return needed, reads

    def profile_batch(attrs, x0, rho):
        # loops, not comprehensions: a flow calls this at every RK4 stage,
        # where a comprehension's own call costs as much as a cheap lift
        needed, reads = plans.get(attrs) or plan(attrs)
        z = x0 + 1j * rho
        if batch is not None:
            w = batch(needed, z)
        else:
            w = []
            for k in needed:
                w.append(lifts[k](z))
        out = []
        for i, sign, imag in reads:
            out.append(sign * (w[i].imag if imag else w[i].real))
        return out

    return MeridionalField(_profile_from_batch(2.0, profile_batch, _LIFTED, label, vectorized))


@dataclass(frozen=True)
class SeparableParams:
    """g = (b1 cosh(beta x0) + b2 sinh(beta x0)) * rho^nu * C_nu(beta rho),
    nu = (alpha-1)/2, C = a1*J + a2*Y."""
    alpha: float
    beta: float
    a1: float = 1.0
    a2: float = 0.0
    b1: float = 1.0
    b2: float = 0.0

    def __post_init__(self):
        if self.beta <= 0.0:
            raise DomainError("beta must be positive")
        if self.a1 == 0.0 and self.a2 == 0.0:
            raise DomainError("(a1, a2) must not both vanish")
        nu = 0.5 * (self.alpha - 1.0)
        if self.a2 != 0.0 and abs(nu - round(nu)) <= 1e-8:
            raise IntegerOrderUnsupported(
                f"Y component needs non-integer order; (alpha-1)/2 = {nu:g}")


def _xi(p: SeparableParams, ch, sh):
    """Xi and Xi' from cosh and sinh of beta*x0."""
    return p.b1 * ch + p.b2 * sh, p.beta * (p.b1 * sh + p.b2 * ch)


class _SeparableAt:
    """The factors of separable quantities at a point (x0, rho): Xi and Xi'
    at x0, and rho^e and C at every order named at construction, each order
    summed once by the scalar series (Y by reflection, with the bits of
    bessel_y)."""

    def __init__(self, p: SeparableParams, x0: float, rho: float, orders: List[float]):
        self.rho = rho
        self.xi, self.xi_p = _xi(p, math.cosh(p.beta * x0), math.sinh(p.beta * x0))
        z = p.beta * rho
        self._cyl = {}
        for order in orders:
            jp = bessel_j(order, z)
            # bessel_y(order, z) would sum J_order a second time
            self._cyl[order] = (p.a1 * jp if p.a2 == 0.0 else
                                p.a1 * jp + p.a2 * y_by_reflection(order, jp, bessel_j(-order, z)))

    def power(self, e: float):
        return self.rho ** e

    def cyl(self, order: float):
        return self._cyl[order]


class _SeparableArrays:
    """The same factors at arrays of points, each computed once: cosh, sinh
    and the powers from libm per element, and C at every order named at
    construction from one bessel_j_array pass (Y by reflection), so each
    value has the bits of _SeparableAt at that point."""

    def __init__(self, p: SeparableParams, x0: np.ndarray, rho: np.ndarray,
                 orders: List[float]):
        self.rho, self._pow = rho, {}
        self.xi, self.xi_p = _xi(p, elementwise(math.cosh, p.beta * x0),
                                 elementwise(math.sinh, p.beta * x0))
        z = p.beta * rho
        if p.a2 == 0.0:
            self._cyl = dict(zip(orders, p.a1 * bessel_j_array(orders, z)))
        else:
            j = bessel_j_array(orders + [-order for order in orders], z)
            self._cyl = {order: p.a1 * jp + p.a2 * y_by_reflection(order, jp, jm)
                         for order, jp, jm in zip(orders, j, j[len(orders):])}

    def power(self, e: float):
        if e not in self._pow:
            self._pow[e] = elementwise(e.__rpow__, self.rho)
        return self._pow[e]

    def cyl(self, order: float):
        return self._cyl[order]


def from_separable(p: SeparableParams) -> MeridionalField:
    """Separable solution with exact Bessel-recurrence partials.

    Using C for a1*J + a2*Y (the recurrences hold for both kinds):
        Ups(rho)   = rho^nu C_nu(beta rho)
        Ups'(rho)  = beta rho^nu C_{nu-1}(beta rho)
        Ups''(rho) = beta [rho^{nu-1} C_{nu-1}(beta rho) + beta rho^nu C_{nu-2}(beta rho)]
    and the stream function is -(Xi'/beta) rho^{mu} C_{nu-1}(beta rho), mu = (3-alpha)/2.

    Each quantity is one formula over the factors of _SeparableAt (floats)
    or _SeparableArrays (arrays).  The profile's batch evaluates several
    quantities with one pass over the orders of C they use.
    """
    nu, beta, mu = 0.5 * (p.alpha - 1.0), p.beta, 0.5 * (3.0 - p.alpha)

    def ups(f):
        return f.power(nu) * f.cyl(nu)

    def ups_p(f):
        return beta * f.power(nu) * f.cyl(nu - 1.0)

    # profile callable -> (formula over the factors, the orders of C it uses)
    formulas = {
        "g": (lambda f: f.xi * ups(f), (nu,)),
        "dg_dx0": (lambda f: f.xi_p * ups(f), (nu,)),
        "dg_drho": (lambda f: f.xi * ups_p(f), (nu - 1.0,)),
        "d2g_dx0x0": (lambda f: beta * beta * f.xi * ups(f), (nu,)),
        "d2g_dx0rho": (lambda f: f.xi_p * ups_p(f), (nu - 1.0,)),
        "d2g_drhorho": (lambda f: f.xi * (beta * (f.power(nu - 1.0) * f.cyl(nu - 1.0)
                                                  + beta * f.power(nu) * f.cyl(nu - 2.0))),
                        (nu - 1.0, nu - 2.0)),
        "stream": (lambda f: -(f.xi_p / beta) * f.power(mu) * f.cyl(nu - 1.0), (nu - 1.0,)),
    }
    orders = {}  # callable names -> the orders of C they use

    def batch(attrs, x0, rho):
        if attrs not in orders:
            orders[attrs] = list(dict.fromkeys(o for a in attrs for o in formulas[a][1]))
        factors = _SeparableArrays if isinstance(rho, np.ndarray) else _SeparableAt
        f = factors(p, x0, rho, orders[attrs])
        return [formulas[a][0](f) for a in attrs]

    label = (f"separable:alpha={p.alpha:g},beta={p.beta:g},"
             f"a=({p.a1:g},{p.a2:g}),b=({p.b1:g},{p.b2:g})")
    return MeridionalField(_profile_from_batch(p.alpha, batch, formulas, label, True))


def lift_to_r4(f: MeridionalField, x: Quaternion) -> Quaternion:
    """Field vector (V0, V1, V2, V3) at x, V_m = Vrho * x_m / rho.

    x has float components (one point, through f.at) or flat float arrays
    of one shape (points, through f.evaluate, non-finite values kept).
    """
    rho = x.rho()
    if isinstance(rho, np.ndarray):
        v0, vr = f.evaluate(("V0", "Vrho"), x.x0, rho, check=False)
    else:
        v0, vr = f.at(("V0", "Vrho"), x.x0, rho)
    return Quaternion(v0, vr * x.x1 / rho, vr * x.x2 / rho, vr * x.x3 / rho)


# ---------------------------------------------------------------------------
# PDE verifiers
#
# Each verifier takes one point (floats) or many (float arrays of one
# shape, each point with its own default_fd_step) and returns its residuals
# in the same form.  The values a verifier needs, at the points
# fd_derivative's rule reads included, come from one call per set of
# quantities (of the profile, or of each callable it was given) on flat
# arrays that hold all the points.
# ---------------------------------------------------------------------------

def _quiet(verifier: Callable) -> Callable:
    """The verifier with numpy as silent as float arithmetic on overflow
    and NaN: a non-finite residual is its caller's to report."""
    @functools.wraps(verifier)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return verifier(*args, **kwargs)
    return quiet


def _profile_of(f: Union[MeridionalField, MeridionalProfile]) -> MeridionalProfile:
    return f.profile if isinstance(f, MeridionalField) else f


def _pow(x, e: float):
    """x ** e, with libm's bits at each element of an array too."""
    return elementwise(e.__rpow__, x) if isinstance(x, np.ndarray) else x ** e


_CENTER = ((None,), None)  # a line of _stencil that reads the points unmoved


def _stencil(fn: Callable, coords: Sequence, lines: Sequence) -> List[list]:
    """fn's values along lines through the points coords.

    coords are the coordinates of the points (floats, or arrays of one
    shape S).  Each line is (offsets, axis): the points with coords[axis] + t,
    for each t in offsets (floats or arrays of shape S).  fn is called once
    with one flat array per coordinate that holds every moved point, and
    returns a value there (an array, or a float for all of them), or a list
    or tuple of such values.  Per line, the list of fn's values at its
    offsets, each of shape S, or (len(list), *S).
    """
    shape = np.broadcast(*coords).shape
    moved = [[c + t if i == axis else c for i, c in enumerate(coords)]
             for offsets, axis in lines for t in offsets]
    flat = [np.concatenate([np.broadcast_to(m[i], shape).ravel() for m in moved])
            for i in range(len(coords))]
    vals = fn(*flat)
    single = not isinstance(vals, (list, tuple))
    vals = np.array([np.broadcast_to(np.asarray(v, dtype=float), flat[0].shape)
                     for v in ([vals] if single else vals)])
    vals = np.moveaxis(vals.reshape(len(vals), len(moved), *shape), 1, 0)
    if single:
        vals = vals[:, 0]
    out, k = [], 0
    for offsets, _ in lines:
        out.append(list(vals[k:k + len(offsets)]))
        k += len(offsets)
    return out


def _stream(p: MeridionalProfile) -> Callable:
    return lambda x0, rho: _values(p, ("stream",), x0, rho)[0]


def _on_r4(fn: Callable) -> Callable:
    """A field on R^4 (a callable of a Quaternion) as a callable of coordinates."""
    return lambda *c: fn(Quaternion(*c))


def _result(r):
    """A residual as a float at one point, an array at many."""
    return r if np.ndim(r) else float(r)


@_quiet
def verify_epd(f: Union[MeridionalField, MeridionalProfile], x0, rho):
    """|rho (g_x0x0 + g_rhorho) - (alpha-2) g_rho| from the analytic partials."""
    p = _profile_of(f)
    low = np.flatnonzero(np.asarray(rho) < RHO_MIN)
    if low.size:
        raise DomainError(f"rho = {np.ravel(rho)[low[0]]:g} below the domain floor")
    xx, rr, r = _stencil(lambda a, b: _values(p, ("d2g_dx0x0", "d2g_drhorho", "dg_drho"), a, b),
                         (x0, rho), [_CENTER])[0][0]
    return _result(abs(rho * (xx + rr) - (p.alpha - 2.0) * r))


@_quiet
def verify_stream(f: Union[MeridionalField, MeridionalProfile], x0, rho,
                  fd_step=None):
    """Stream equation |rho (gh_x0x0 + gh_rhorho) + (alpha-2) gh_rho| by fd_derivative."""
    p = _profile_of(f)
    if p.stream is None:
        raise NoStream("no stream function on this profile")
    h = fd_step if fd_step is not None else default_fd_step(x0, rho)
    rr, xx, r = _stencil(_stream(p), (x0, rho),
                         [(fd_steps(2, h, room=rho), 1), (fd_steps(2, h), 0),
                          (fd_steps(1, h), 1)])
    drr, dxx = fd_combine(rr, 2, h), fd_combine(xx, 2, h)
    return _result(abs(rho * (dxx + drr) + (p.alpha - 2.0) * fd_combine(r, 1, h)))


@_quiet
def verify_stokes_beltrami(f: Union[MeridionalField, MeridionalProfile], x0, rho,
                           fd_step=None) -> Tuple:
    """Residual pair of the generalized Stokes-Beltrami system.

        rho^{2-alpha} g_x0  = gh_rho
        rho^{2-alpha} g_rho = -gh_x0

    g-side partials are analytic; the stream side goes through fd_derivative.
    """
    p = _profile_of(f)
    if p.stream is None:
        raise NoStream("no stream function on this profile")
    h = fd_step if fd_step is not None else default_fd_step(x0, rho)
    along_rho, along_x0 = _stencil(_stream(p), (x0, rho),
                                   [(fd_steps(1, h, room=rho), 1), (fd_steps(1, h), 0)])
    (g_x0, g_rho), = _stencil(lambda a, b: _values(p, ("dg_dx0", "dg_drho"), a, b),
                              (x0, rho), [_CENTER])[0]
    gh_rho, gh_x0 = fd_combine(along_rho, 1, h), fd_combine(along_x0, 1, h)
    w = _pow(rho, 2.0 - p.alpha)
    return _result(abs(w * g_x0 - gh_rho)), _result(abs(w * g_rho + gh_x0))


ScalarField4 = Callable[[Quaternion], Any]
VectorField4 = Callable[[Quaternion], Sequence]


def _step(x: Quaternion, fd_step):
    return fd_step if fd_step is not None else default_fd_step(x.x0, x.rho())


@_quiet
def verify_weinstein(h_fn: ScalarField4, alpha: float, x: Quaternion, fd_step=None):
    """|x3 * Laplace(h) - alpha * dh/dx3| by fd_derivative.

    h_fn maps a Quaternion whose components are flat float arrays (the
    difference points) to h there, as does every callable a verifier of
    fields on R^4 takes.
    """
    h = _step(x, fd_step)
    *second, d3 = _stencil(_on_r4(h_fn), x.components(),
                           [(fd_steps(2, h), ax) for ax in range(4)] + [(fd_steps(1, h), 3)])
    lap = sum(fd_combine(v, 2, h) for v in second)
    return _result(abs(x.x3 * lap - alpha * fd_combine(d3, 1, h)))


@_quiet
def verify_axial_hyperbolic(h_fn: ScalarField4, alpha: float, x: Quaternion,
                            fd_step=None):
    """|rho^2 Laplace(h) - alpha (x1 h_x1 + x2 h_x2 + x3 h_x3)| by fd_derivative."""
    h = _step(x, fd_step)
    vals = _stencil(_on_r4(h_fn), x.components(),
                    [(fd_steps(2, h), ax) for ax in range(4)]
                    + [(fd_steps(1, h), ax) for ax in (1, 2, 3)])
    lap = sum(fd_combine(v, 2, h) for v in vals[:4])
    g1, g2, g3 = (fd_combine(v, 1, h) for v in vals[4:])
    rad = x.x1 * g1 + x.x2 * g2 + x.x3 * g3
    rho2 = _pow(x.x1, 2.0) + _pow(x.x2, 2.0) + _pow(x.x3, 2.0)
    return _result(abs(rho2 * lap - alpha * rad))


@_quiet
def verify_general_system(u: VectorField4, phi: ScalarField4, x: Quaternion,
                          fd_step=None) -> Tuple:
    """Seven residuals of the static generalized potential system.

    Order: weighted continuity
           phi (u0_x0 - u1_x1 - u2_x2 - u3_x3) + (u0 phi_x0 - u1 phi_x1 - ...),
    then the three symmetric combinations u0_xm + um_x0 (m = 1, 2, 3),
    then the three curls u1_x2 - u2_x1, u1_x3 - u3_x1, u2_x3 - u3_x2.
    u maps points to the four components (floats or arrays).
    """
    h = _step(x, fd_step)
    lines = [(fd_steps(1, h), ax) for ax in range(4)] + [_CENTER]
    *du, (u0,) = _stencil(_on_r4(u), x.components(), lines)
    *dphi, (p0,) = _stencil(_on_r4(phi), x.components(), lines)
    # jac[m][ax] = d u_m / d x_ax
    cols = [fd_combine(v, 1, h) for v in du]
    jac = [[cols[ax][m] for ax in range(4)] for m in range(4)]
    gphi = [fd_combine(v, 1, h) for v in dphi]

    cont = (p0 * (jac[0][0] - jac[1][1] - jac[2][2] - jac[3][3])
            + u0[0] * gphi[0] - u0[1] * gphi[1] - u0[2] * gphi[2] - u0[3] * gphi[3])
    sym = [jac[0][m] + jac[m][0] for m in (1, 2, 3)]
    curl = [jac[1][2] - jac[2][1], jac[1][3] - jac[3][1], jac[2][3] - jac[3][2]]
    return tuple(_result(abs(r)) for r in (cont, *sym, *curl))


@_quiet
def criterion_check(h_fn: ScalarField4, x: Quaternion, fd_step=None) -> Tuple:
    """Axisymmetry criterion residuals for a scalar field.

    Cartesian triple:  |x2 h_x1 - x1 h_x2|, |x3 h_x1 - x1 h_x3|, |x3 h_x2 - x2 h_x3|;
    angular pair: |dh/dtheta|, |dh/dpsi| via the chain rule on the same gradient.
    All five vanish iff h is constant on the (theta, psi) orbits.
    """
    s2 = _pow(x.x2, 2.0) + _pow(x.x3, 2.0)
    if np.any((np.asarray(x.rho()) == 0.0) | (np.asarray(s2) == 0.0)):
        raise DomainError("criterion chart needs rho > 0 and (x2, x3) != 0")
    h = _step(x, fd_step)
    g1, g2, g3 = (fd_combine(v, 1, h) for v in
                  _stencil(_on_r4(h_fn), x.components(),
                           [(fd_steps(1, h), ax) for ax in (1, 2, 3)]))
    cart = (abs(x.x2 * g1 - x.x1 * g2),
            abs(x.x3 * g1 - x.x1 * g3),
            abs(x.x3 * g2 - x.x2 * g3))
    s = np.sqrt(s2)
    dtheta = -s * g1 + (x.x1 * x.x2 / s) * g2 + (x.x1 * x.x3 / s) * g3
    dpsi = -x.x3 * g2 + x.x2 * g3
    return tuple(map(_result, cart)), (_result(abs(dtheta)), _result(abs(dpsi)))


@_quiet
def axial_symmetry_check(u: VectorField4, x: Quaternion) -> Tuple:
    """Algebraic axial-alignment residuals of a vector field's imaginary part.

    |u1 x2 - u2 x1|, |u1 x3 - u3 x1|, |u2 x3 - u3 x2| — all zero iff
    (u1, u2, u3) is parallel to (x1, x2, x3).  u is called once, at x."""
    v = u(x)
    return (abs(v[1] * x.x2 - v[2] * x.x1),
            abs(v[1] * x.x3 - v[3] * x.x1),
            abs(v[2] * x.x3 - v[3] * x.x2))
