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
point.  The module also holds the verifiers for the underlying PDE
family.  The ones that need partials a profile does not carry take them
from holomorphic.fd_derivative, the one difference rule of the package:
Richardson extrapolation of central differences at s and s/2, with error
O(s^4), at s = default_fd_step for first and 10 * default_fd_step for
second derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, IntegerOrderUnsupported, NoStream, NotHolomorphic
from .holomorphic import (RadialFunction, antiholomorphy_residual, default_fd_step,
                          fd_derivative)
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
    batch, when present, maps a list of callable names and float arrays
    x0, rho to those callables' values there, computed together.
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
    batch: Optional[Callable[[Sequence[str], np.ndarray, np.ndarray], List[np.ndarray]]] = None


# field quantity (a MeridionalField method name) -> profile callable
_QUANTITY = {"g": "g", "V0": "dg_dx0", "Vrho": "dg_drho", "dV0_dx0": "d2g_dx0x0",
             "dVrho_dx0": "d2g_dx0rho", "dVrho_drho": "d2g_drhorho"}


class MeridionalField:
    """Field view of a profile: V0, Vrho and the partials entering the Jacobian."""

    def __init__(self, profile: MeridionalProfile):
        self.profile = profile

    @property
    def alpha(self) -> float:
        return self.profile.alpha

    @property
    def label(self) -> str:
        return self.profile.label

    @staticmethod
    def _check(rho: float) -> None:
        if rho < RHO_MIN:
            raise DomainError(f"rho = {rho:g} below the domain floor {RHO_MIN:g}")

    def g(self, x0: float, rho: float) -> float:
        self._check(rho)
        return self.profile.g(x0, rho)

    def V0(self, x0: float, rho: float) -> float:
        self._check(rho)
        return self.profile.dg_dx0(x0, rho)

    def Vrho(self, x0: float, rho: float) -> float:
        self._check(rho)
        return self.profile.dg_drho(x0, rho)

    def dV0_dx0(self, x0: float, rho: float) -> float:
        self._check(rho)
        return self.profile.d2g_dx0x0(x0, rho)

    def dVrho_dx0(self, x0: float, rho: float) -> float:
        self._check(rho)
        return self.profile.d2g_dx0rho(x0, rho)

    def dVrho_drho(self, x0: float, rho: float) -> float:
        self._check(rho)
        return self.profile.d2g_drhorho(x0, rho)

    def evaluate(self, names: Sequence[str], x0: np.ndarray, rho: np.ndarray,
                 check: bool = True) -> List[np.ndarray]:
        """The quantities `names` (each one of g, V0, Vrho, dV0_dx0,
        dVrho_dx0, dVrho_drho) at the points of the flat float arrays x0 and
        rho, one array per name.

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
        attrs = [_QUANTITY[name] for name in names]
        fns = [getattr(self.profile, attr) for attr in attrs]
        outs = [np.empty(x0.shape) for _ in names]
        if self.profile.batch is not None:
            with np.errstate(all="ignore"):
                for out, value in zip(outs, self.profile.batch(attrs, x0, rho)):
                    out[...] = value
        elif self.profile.vectorized:
            with np.errstate(all="ignore"):
                for out, fn in zip(outs, fns):
                    out[...] = fn(x0, rho)
        else:
            def at(fn, a, b):
                try:
                    return fn(a, b)
                except DomainError:
                    if check:
                        raise
                    return math.nan
            points = list(zip(x0.tolist(), rho.tolist()))
            for out, fn in zip(outs, fns):
                out[...] = [at(fn, a, b) for a, b in points]
        for name, out in zip(names, outs if check else ()):
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                i = bad[0]
                raise DomainError(f"{name} = {out[i]:g} at (x0, rho) = ({x0[i]:g}, {rho[i]:g})")
        return outs

    def stream_value(self, x0: float, rho: float) -> float:
        if self.profile.stream is None:
            raise NoStream(f"profile {self.label!r} carries no stream function")
        self._check(rho)
        return self.profile.stream(x0, rho)

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
                 batch: Optional[Callable[[Tuple[int, ...], np.ndarray], List[np.ndarray]]] = None
                 ) -> MeridionalField:
    """alpha = 2 field of a potential whose complex lift is G, with F = G', F2 = G''.

    At z = x0 + i*rho: g = Re G, stream = Im G, V0 = Re G', Vrho = -Im G',
    d2g_dx0x0 = Re G'', d2g_dx0rho = -Im G'', d2g_drhorho = -Re G''.
    vectorized says that the three lifts also map complex ndarrays.  batch,
    when given, maps a tuple of lift indices (0: G, 1: G', 2: G'') and a
    complex ndarray to those lifts' values there, computed together; the
    profile's batch reads each lift its callables need from one call.
    """
    def part(k: int, sign: float, imag: bool) -> Scalar2:
        fn = (G, F, F2)[k]

        def ev(x0, rho):
            w = fn(x0 + 1j * rho)
            return sign * (w.imag if imag else w.real)
        return ev

    def profile_batch(attrs, x0, rho):
        needed = tuple(sorted({_LIFTED[attr][0] for attr in attrs}))
        values = dict(zip(needed, batch(needed, x0 + 1j * rho)))
        return [sign * (values[k].imag if imag else values[k].real)
                for k, sign, imag in (_LIFTED[attr] for attr in attrs)]

    profile = MeridionalProfile(
        alpha=2.0,
        **{attr: part(*recipe) for attr, recipe in _LIFTED.items()},
        label=label,
        vectorized=vectorized,
        batch=None if batch is None else profile_batch,
    )
    return MeridionalField(profile)


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
    at x0, and rho^e and C_order(beta rho) by the scalar series (Y by
    reflection, with the bits of bessel_y)."""

    def __init__(self, p: SeparableParams, x0: float, rho: float):
        self.p, self.rho = p, rho
        self.xi, self.xi_p = _xi(p, math.cosh(p.beta * x0), math.sinh(p.beta * x0))

    def power(self, e: float):
        return self.rho ** e

    def cyl(self, order: float):
        p, z = self.p, self.p.beta * self.rho
        jp = bessel_j(order, z)
        val = p.a1 * jp
        if p.a2 != 0.0:  # bessel_y(order, z) would sum J_order a second time
            val += p.a2 * y_by_reflection(order, jp, bessel_j(-order, z))
        return val


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
    or _SeparableArrays (arrays).  The profile is vectorized, and its batch
    evaluates several quantities at arrays of points with one Bessel pass
    for all the orders they use.
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

    def scalar_or_array(formula, orders):
        def fn(x0, rho):
            if isinstance(rho, np.ndarray):
                return formula(_SeparableArrays(p, x0, rho, list(orders)))
            return formula(_SeparableAt(p, x0, rho))
        return fn

    def batch(attrs, x0, rho):
        orders = list(dict.fromkeys(o for a in attrs for o in formulas[a][1]))
        at = _SeparableArrays(p, x0, rho, orders)
        return [formulas[a][0](at) for a in attrs]

    profile = MeridionalProfile(
        alpha=p.alpha,
        **{attr: scalar_or_array(*recipe) for attr, recipe in formulas.items()},
        label=(f"separable:alpha={p.alpha:g},beta={p.beta:g},"
               f"a=({p.a1:g},{p.a2:g}),b=({p.b1:g},{p.b2:g})"),
        vectorized=True,
        batch=batch,
    )
    return MeridionalField(profile)


def lift_to_r4(f: MeridionalField, x: Quaternion) -> Quaternion:
    """Field vector (V0, V1, V2, V3) at x, V_m = Vrho * x_m / rho."""
    rho = x.rho()
    if rho < RHO_MIN:
        raise DomainError(f"rho = {rho:g} below the domain floor {RHO_MIN:g}")
    v0 = f.V0(x.x0, rho)
    vr = f.Vrho(x.x0, rho)
    return Quaternion(v0, vr * x.x1 / rho, vr * x.x2 / rho, vr * x.x3 / rho)


# ---------------------------------------------------------------------------
# PDE verifiers
# ---------------------------------------------------------------------------

def _profile_of(f: Union[MeridionalField, MeridionalProfile]) -> MeridionalProfile:
    return f.profile if isinstance(f, MeridionalField) else f


def verify_epd(f: Union[MeridionalField, MeridionalProfile],
               x0: float, rho: float) -> float:
    """|rho (g_x0x0 + g_rhorho) - (alpha-2) g_rho| from the analytic partials."""
    p = _profile_of(f)
    if rho < RHO_MIN:
        raise DomainError(f"rho = {rho:g} below the domain floor")
    return abs(rho * (p.d2g_dx0x0(x0, rho) + p.d2g_drhorho(x0, rho))
               - (p.alpha - 2.0) * p.dg_drho(x0, rho))


def verify_stream(f: Union[MeridionalField, MeridionalProfile], x0: float,
                  rho: float, fd_step: Optional[float] = None) -> float:
    """Stream equation |rho (gh_x0x0 + gh_rhorho) + (alpha-2) gh_rho| by fd_derivative."""
    p = _profile_of(f)
    if p.stream is None:
        raise NoStream("no stream function on this profile")
    h = fd_step if fd_step is not None else default_fd_step(x0, rho)

    def along_rho(t):
        return p.stream(x0, rho + t)

    drr = fd_derivative(along_rho, 2, h, room=rho)
    dxx = fd_derivative(lambda t: p.stream(x0 + t, rho), 2, h)
    return abs(rho * (dxx + drr) + (p.alpha - 2.0) * fd_derivative(along_rho, 1, h))


def verify_stokes_beltrami(f: Union[MeridionalField, MeridionalProfile],
                           x0: float, rho: float,
                           fd_step: Optional[float] = None) -> Tuple[float, float]:
    """Residual pair of the generalized Stokes-Beltrami system.

        rho^{2-alpha} g_x0  = gh_rho
        rho^{2-alpha} g_rho = -gh_x0

    g-side partials are analytic; the stream side goes through fd_derivative.
    """
    p = _profile_of(f)
    if p.stream is None:
        raise NoStream("no stream function on this profile")
    h = fd_step if fd_step is not None else default_fd_step(x0, rho)
    gh_rho = fd_derivative(lambda t: p.stream(x0, rho + t), 1, h, room=rho)
    gh_x0 = fd_derivative(lambda t: p.stream(x0 + t, rho), 1, h)
    w = rho ** (2.0 - p.alpha)
    r1 = abs(w * p.dg_dx0(x0, rho) - gh_rho)
    r2 = abs(w * p.dg_drho(x0, rho) + gh_x0)
    return r1, r2


ScalarField4 = Callable[[Quaternion], float]


def _partials(fn: Callable, x: Quaternion, order: int, fd_step: Optional[float],
              axes: Sequence[int] = (0, 1, 2, 3)) -> list:
    """fd_derivative of fn along the given coordinate axes of R^4 at x."""
    h = fd_step if fd_step is not None else default_fd_step(x.x0, x.rho())
    c = x.components()

    def along(ax):
        def line(t):
            moved = list(c)
            moved[ax] += t
            return fn(Quaternion(*moved))
        return line
    return [fd_derivative(along(ax), order, h) for ax in axes]


def verify_weinstein(h_fn: ScalarField4, alpha: float, x: Quaternion,
                     fd_step: Optional[float] = None) -> float:
    """|x3 * Laplace(h) - alpha * dh/dx3| by fd_derivative."""
    lap = sum(_partials(h_fn, x, 2, fd_step))
    d3, = _partials(h_fn, x, 1, fd_step, axes=(3,))
    return abs(x.x3 * lap - alpha * d3)


def verify_axial_hyperbolic(h_fn: ScalarField4, alpha: float, x: Quaternion,
                            fd_step: Optional[float] = None) -> float:
    """|rho^2 Laplace(h) - alpha (x1 h_x1 + x2 h_x2 + x3 h_x3)| by fd_derivative."""
    lap = sum(_partials(h_fn, x, 2, fd_step))
    g1, g2, g3 = _partials(h_fn, x, 1, fd_step, axes=(1, 2, 3))
    rad = x.x1 * g1 + x.x2 * g2 + x.x3 * g3
    rho2 = x.x1 ** 2 + x.x2 ** 2 + x.x3 ** 2
    return abs(rho2 * lap - alpha * rad)


VectorField4 = Callable[[Quaternion], Sequence[float]]


def verify_general_system(u: VectorField4, phi: ScalarField4, x: Quaternion,
                          fd_step: Optional[float] = None) -> Tuple[float, ...]:
    """Seven residuals of the static generalized potential system.

    Order: weighted continuity
           phi (u0_x0 - u1_x1 - u2_x2 - u3_x3) + (u0 phi_x0 - u1 phi_x1 - ...),
    then the three symmetric combinations u0_xm + um_x0 (m = 1, 2, 3),
    then the three curls u1_x2 - u2_x1, u1_x3 - u3_x1, u2_x3 - u3_x2.
    """
    # jac[m][ax] = d u_m / d x_ax
    jac = np.array(_partials(lambda q: np.asarray(u(q), dtype=float), x, 1, fd_step)).T.tolist()
    u0 = u(x)
    gphi = _partials(phi, x, 1, fd_step)
    p0 = phi(x)

    cont = (p0 * (jac[0][0] - jac[1][1] - jac[2][2] - jac[3][3])
            + u0[0] * gphi[0] - u0[1] * gphi[1] - u0[2] * gphi[2] - u0[3] * gphi[3])
    sym = [jac[0][m] + jac[m][0] for m in (1, 2, 3)]
    curl = [jac[1][2] - jac[2][1], jac[1][3] - jac[3][1], jac[2][3] - jac[3][2]]
    return (abs(cont), abs(sym[0]), abs(sym[1]), abs(sym[2]),
            abs(curl[0]), abs(curl[1]), abs(curl[2]))


def criterion_check(h_fn: ScalarField4, x: Quaternion,
                    fd_step: Optional[float] = None
                    ) -> Tuple[Tuple[float, float, float], Tuple[float, float]]:
    """Axisymmetry criterion residuals for a scalar field.

    Cartesian triple:  |x2 h_x1 - x1 h_x2|, |x3 h_x1 - x1 h_x3|, |x3 h_x2 - x2 h_x3|;
    angular pair: |dh/dtheta|, |dh/dpsi| via the chain rule on the same gradient.
    All five vanish iff h is constant on the (theta, psi) orbits.
    """
    s2 = x.x2 ** 2 + x.x3 ** 2
    if x.rho() == 0.0 or s2 == 0.0:
        raise DomainError("criterion chart needs rho > 0 and (x2, x3) != 0")
    g1, g2, g3 = _partials(h_fn, x, 1, fd_step, axes=(1, 2, 3))
    cart = (abs(x.x2 * g1 - x.x1 * g2),
            abs(x.x3 * g1 - x.x1 * g3),
            abs(x.x3 * g2 - x.x2 * g3))
    s = math.sqrt(s2)
    dtheta = -s * g1 + (x.x1 * x.x2 / s) * g2 + (x.x1 * x.x3 / s) * g3
    dpsi = -x.x3 * g2 + x.x2 * g3
    return cart, (abs(dtheta), abs(dpsi))


def axial_symmetry_check(u: VectorField4, x: Quaternion) -> Tuple[float, float, float]:
    """Algebraic axial-alignment residuals of a vector field's imaginary part.

    |u1 x2 - u2 x1|, |u1 x3 - u3 x1|, |u2 x3 - u3 x2| — all zero iff
    (u1, u2, u3) is parallel to (x1, x2, x3)."""
    v = u(x)
    return (abs(v[1] * x.x2 - v[2] * x.x1),
            abs(v[1] * x.x3 - v[3] * x.x1),
            abs(v[2] * x.x3 - v[3] * x.x2))
