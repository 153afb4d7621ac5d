"""Meridional potentials and vector fields on R^4.

A meridional field is the gradient-type field of an axisymmetric potential
g(x0, rho):

    V0 = dg/dx0,   Vrho = dg/drho,   V_m = Vrho * x_m / rho  (m = 1,2,3)

where g satisfies the degenerate-elliptic meridian equation

    rho (g_x0x0 + g_rhorho) - (alpha - 2) g_rho = 0.

Every profile evaluates under one contract: its callables and its batch
take (x0, rho) as two floats (one point) or as two flat float arrays (many
points), and a batch computes several quantities together from the factors
they share.  MeridionalField.at reads one point (a lift read once, a Bessel
order summed once), MeridionalField.evaluate arrays of points in one batch
call.  Fields of radially holomorphic potentials G (alpha = 2) share one
builder, lifted_field, which reads g, the field and its partials off the
complex lifts of G, G' and G''.  Both the table functions
(from_holomorphic_potential) and the transform fields of the transforms
module go through it.  Separable Bessel-type solutions (any alpha) have
their own constructor, which sums the Bessel series for all points at once
(specfun.bessel_j_array).  Array passes use numpy's math: a point's value
does not depend on the array's other points, and agrees with at's to within
rounding.

The module also holds the verifiers for the underlying PDE family.  Those
on the meridian plane take a MeridionalField (a hand-built profile is
checked as MeridionalField(profile)), those on R^4 callables of a
Quaternion; each takes one point or a cloud of points as arrays.  A
verifier reads its values and derivatives through holomorphic.fd_stencil,
the one difference rule of the package, one call per callable, so a field
evaluates all the points it needs in one evaluate call per set of
quantities.  The rule is Richardson extrapolation of central differences
at s and s/2, with error O(s^4), at s = default_fd_step for first and
10 * default_fd_step for second derivatives, each point with its own step.
The antiholomorphy probe of from_holomorphic_potential reads its lift
through the same rule.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, IntegerOrderUnsupported, NoStream, NotHolomorphic
from .holomorphic import RadialFunction, antiholomorphy_residual, fd_stencil
from .quaternion import Quaternion
# bessel_y stays bound here for bench/tracing.py, which wraps it at this name
from .specfun import bessel_j, bessel_j_array, bessel_y, y_by_reflection  # noqa: F401

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

Scalar2 = Callable[[Any, Any], Any]

# field quantity -> the profile callable with its value
_PROFILE_NAMES = {"g": "g", "V0": "dg_dx0", "Vrho": "dg_drho", "dV0_dx0": "d2g_dx0x0",
                  "dVrho_dx0": "d2g_dx0rho", "dVrho_drho": "d2g_drhorho", "stream": "stream"}


@dataclass
class MeridionalProfile:
    """Analytic data of an axisymmetric potential: g and its first/second partials.

    The callables take (x0, rho): two floats, or two flat float arrays of
    one shape, at which they return an array of that shape (or a float for
    all the points).  Hand-built callables must accept float arrays too.
    stream, when present, is the Stokes stream function paired with g by
    the generalized Stokes-Beltrami system.  batch maps a tuple of field
    quantities (g, V0, Vrho, dV0_dx0, dVrho_dx0, dVrho_drho, stream) and
    x0, rho to those quantities' values there, computed together from the
    factors they share; a profile given no batch gets one that calls each
    callable once.
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
    batch: Optional[Callable[[Tuple[str, ...], Any, Any], List[Any]]] = None

    def __post_init__(self):
        if self.batch is None:
            def batch(names, x0, rho):
                return [getattr(self, _PROFILE_NAMES[name])(x0, rho) for name in names]
            self.batch = batch


def _profile_from_batch(alpha: float, batch, label: str) -> MeridionalProfile:
    """A profile whose callables are one-quantity views of batch."""
    def view(name):
        return lambda x0, rho: batch((name,), x0, rho)[0]
    views = {attr: view(name) for name, attr in _PROFILE_NAMES.items()}
    return MeridionalProfile(alpha=alpha, **views, label=label, batch=batch)


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
        return self.profile.batch(names, x0, rho)

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

        The domain floor is checked once for the whole array, and the
        profile's batch takes the arrays in one call.  At the first value
        that is not finite, the error at() raises there (not a float error),
        or else a DomainError.  With check=False, for callers that mask such
        points instead, the values come back as they are.
        """
        if rho.size and rho.min() < RHO_MIN:
            raise DomainError(f"rho = {rho.min():g} below the domain floor {RHO_MIN:g}")
        with np.errstate(all="ignore"):
            values = list(self.profile.batch(tuple(names), x0, rho))
        outs = []
        while values:  # each value copied out and let go, so one is held twice at most
            outs.append(np.empty(x0.shape))
            outs[-1][...] = values.pop(0)
        for name, out in zip(names, outs if check else ()):
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                i = bad[0]
                with contextlib.suppress(ArithmeticError):
                    self.at(tuple(names), float(x0[i]), float(rho[i]))
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
    go to lifted_field as one lift source.
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
    fns = (G.lift, F.lift, F.derivative().lift)

    def lifts(needed, z):
        # a loop, not a comprehension: a flow calls this at every RK4 stage,
        # where a comprehension's own call costs as much as a cheap lift
        w = []
        for k in needed:
            w.append(fns[k](z))
        return w
    return lifted_field(lifts, f"holo:{G.name}")


# field quantity -> (lift read: 0 for G, 1 for G', 2 for G''; sign; imaginary part?)
_LIFTED = {"g": (0, 1.0, False), "V0": (1, 1.0, False), "Vrho": (1, -1.0, True),
           "dV0_dx0": (2, 1.0, False), "dVrho_dx0": (2, -1.0, True),
           "dVrho_drho": (2, -1.0, False), "stream": (0, 1.0, True)}


def lifted_field(lifts: Callable[[Tuple[int, ...], Any], List[Any]],
                 label: str) -> MeridionalField:
    """alpha = 2 field of a potential G whose complex lifts come from lifts.

    lifts maps a tuple of lift indices (0: G, 1: G', 2: G'') and z, a
    complex number or a flat complex ndarray, to those lifts' values at z,
    computed together.  At z = x0 + i*rho: g = Re G, stream = Im G,
    V0 = Re G', Vrho = -Im G', dV0_dx0 = Re G'', dVrho_dx0 = -Im G'',
    dVrho_drho = -Re G''.  The profile's batch reads the lifts its
    quantities need in one call of lifts.
    """
    plans = {}  # quantities -> (lifts to read, (lift position, sign, imag) per quantity)

    def plan(names):
        needed = tuple(sorted({_LIFTED[name][0] for name in names}))
        reads = tuple((needed.index(k), sign, imag) for k, sign, imag in map(_LIFTED.get, names))
        plans[names] = needed, reads
        return needed, reads

    def batch(names, x0, rho):
        # a loop, not a comprehension, as in from_holomorphic_potential
        needed, reads = plans.get(names) or plan(names)
        w = lifts(needed, x0 + 1j * rho)
        out = []
        for i, sign, imag in reads:
            out.append(sign * (w[i].imag if imag else w[i].real))
        return out

    return MeridionalField(_profile_from_batch(2.0, batch, label))


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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"separable {name} = {value!r} must be finite")
        if self.beta <= 0.0:
            raise DomainError("beta must be positive")
        if self.a1 == 0.0 and self.a2 == 0.0:
            raise DomainError("(a1, a2) must not both vanish")
        nu = 0.5 * (self.alpha - 1.0)
        if self.a2 != 0.0 and abs(nu - round(nu)) <= 1e-8:
            raise IntegerOrderUnsupported(
                f"Y component needs non-integer order; (alpha-1)/2 = {nu:g}")


def from_separable(p: SeparableParams) -> MeridionalField:
    """Separable solution with exact Bessel-recurrence partials.

    Using C for a1*J + a2*Y (the recurrences hold for both kinds):
        Ups(rho)   = rho^nu C_nu(beta rho)
        Ups'(rho)  = beta rho^nu C_{nu-1}(beta rho)
        Ups''(rho) = beta [rho^{nu-1} C_{nu-1}(beta rho) + beta rho^nu C_{nu-2}(beta rho)]
    and the stream function is -(Xi'/beta) rho^{mu} C_{nu-1}(beta rho), mu = (3-alpha)/2.

    Each quantity is one formula over Xi and Xi' at x0, powers of rho and C
    at some orders, at floats or at arrays.  The profile's batch keeps one
    plan per tuple of quantities (the orders of C and the powers of rho they
    read) and evaluates them with one Bessel call over those orders.
    """
    nu, beta, mu = 0.5 * (p.alpha - 1.0), p.beta, 0.5 * (3.0 - p.alpha)
    n1, n2 = nu - 1.0, nu - 2.0
    # field quantity -> (formula over Xi, Xi', rho^e by e and C by order, with
    # Ups = rho^nu C_nu and Ups' as above; the orders of C and the powers of rho it reads)
    formulas = {
        "g": (lambda xi, xi_p, pw, c: xi * (pw[nu] * c[nu]), (nu,), (nu,)),
        "V0": (lambda xi, xi_p, pw, c: xi_p * (pw[nu] * c[nu]), (nu,), (nu,)),
        "Vrho": (lambda xi, xi_p, pw, c: xi * (beta * pw[nu] * c[n1]), (n1,), (nu,)),
        "dV0_dx0": (lambda xi, xi_p, pw, c: beta * beta * xi * (pw[nu] * c[nu]), (nu,), (nu,)),
        "dVrho_dx0": (lambda xi, xi_p, pw, c: xi_p * (beta * pw[nu] * c[n1]), (n1,), (nu,)),
        "dVrho_drho": (lambda xi, xi_p, pw, c:
                       xi * (beta * (pw[n1] * c[n1] + beta * pw[nu] * c[n2])), (n1, n2), (n1, nu)),
        "stream": (lambda xi, xi_p, pw, c: -(xi_p / beta) * pw[mu] * c[n1], (n1,), (mu,)),
    }
    plans = {}  # quantities -> (orders of C, powers of rho, formula per quantity)

    def plan(names):
        orders, powers = (list(dict.fromkeys(e for n in names for e in formulas[n][k]))
                          for k in (1, 2))
        plans[names] = orders, powers, [formulas[n][0] for n in names]
        return plans[names]

    def batch(names, x0, rho):
        orders, powers, fns = plans.get(names) or plan(names)
        lib = np if isinstance(rho, np.ndarray) else math
        ch, sh = lib.cosh(beta * x0), lib.sinh(beta * x0)
        xi, xi_p = p.b1 * ch + p.b2 * sh, beta * (p.b1 * sh + p.b2 * ch)
        each = orders if p.a2 == 0.0 else orders + [-order for order in orders]
        j = (bessel_j_array(each, beta * rho) if lib is np
             else [bessel_j(order, beta * rho) for order in each])
        c = {order: p.a1 * j[i] if p.a2 == 0.0 else
             p.a1 * j[i] + p.a2 * y_by_reflection(order, j[i], j[len(orders) + i])
             for i, order in enumerate(orders)}
        pw = {e: rho ** e for e in powers}
        return [fn(xi, xi_p, pw, c) for fn in fns]

    label = (f"separable:alpha={p.alpha:g},beta={p.beta:g},"
             f"a=({p.a1:g},{p.a2:g}),b=({p.b1:g},{p.b2:g})")
    return MeridionalField(_profile_from_batch(p.alpha, batch, label))


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
# shape) and returns its residuals in the same form.  It reads every value
# and derivative it needs from one holomorphic.fd_stencil call per
# callable: the field's quantities, at the difference points included, come
# from one evaluate call per set of quantities, on flat arrays that hold all
# the points, and each point steps by its own default_fd_step.
# ---------------------------------------------------------------------------

def _quiet(verifier: Callable) -> Callable:
    """The verifier with numpy as silent as float arithmetic on overflow
    and NaN: a non-finite residual is its caller's to report."""
    @functools.wraps(verifier)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return verifier(*args, **kwargs)
    return quiet


def _stream(f: MeridionalField) -> Callable:
    """f's stream function, read through evaluate; NoStream if f has none."""
    if not f.has_stream():
        raise NoStream(f"field {f.label!r} carries no stream function")
    return lambda x0, rho: f.evaluate(("stream",), x0, rho, check=False)[0]


def _result(r):
    """A residual as a float at one point, an array at many."""
    return r if np.ndim(r) else float(r)


@_quiet
def verify_epd(f: MeridionalField, x0, rho):
    """|rho (g_x0x0 + g_rhorho) - (alpha-2) g_rho| from the analytic partials."""
    (xx, rr, r), = fd_stencil(lambda a, b: f.evaluate(("dV0_dx0", "dVrho_drho", "Vrho"), a, b,
                                                      check=False), (x0, rho), [(0, 0)])
    return _result(abs(rho * (xx + rr) - (f.alpha - 2.0) * r))


@_quiet
def verify_stream(f: MeridionalField, x0, rho):
    """Stream equation |rho (gh_x0x0 + gh_rhorho) + (alpha-2) gh_rho| by differences."""
    drr, dxx, dr = fd_stencil(_stream(f), (x0, rho), [(2, 1, rho), (2, 0), (1, 1)])
    return _result(abs(rho * (dxx + drr) + (f.alpha - 2.0) * dr))


@_quiet
def verify_stokes_beltrami(f: MeridionalField, x0, rho) -> Tuple:
    """Residual pair of the generalized Stokes-Beltrami system.

        rho^{2-alpha} g_x0  = gh_rho
        rho^{2-alpha} g_rho = -gh_x0

    g-side partials are analytic; the stream side goes through differences.
    """
    gh_rho, gh_x0 = fd_stencil(_stream(f), (x0, rho), [(1, 1, rho), (1, 0)])
    (g_x0, g_rho), = fd_stencil(lambda a, b: f.evaluate(("V0", "Vrho"), a, b, check=False),
                                (x0, rho), [(0, 0)])
    w = rho ** (2.0 - f.alpha)
    return _result(abs(w * g_x0 - gh_rho)), _result(abs(w * g_rho + gh_x0))


ScalarField4 = Callable[[Quaternion], Any]
VectorField4 = Callable[[Quaternion], Sequence]


@_quiet
def verify_weinstein(h_fn: ScalarField4, alpha: float, x: Quaternion):
    """|x3 * Laplace(h) - alpha * dh/dx3| by differences.

    h_fn maps a Quaternion whose components are flat float arrays (the
    difference points) to h there, as does every callable a verifier of
    fields on R^4 takes.
    """
    *second, d3 = fd_stencil(h_fn, x, [(2, ax) for ax in range(4)] + [(1, 3)])
    return _result(abs(x.x3 * sum(second) - alpha * d3))


@_quiet
def verify_axial_hyperbolic(h_fn: ScalarField4, alpha: float, x: Quaternion):
    """|rho^2 Laplace(h) - alpha (x1 h_x1 + x2 h_x2 + x3 h_x3)| by differences."""
    *second, g1, g2, g3 = fd_stencil(h_fn, x, [(2, ax) for ax in range(4)]
                                     + [(1, ax) for ax in (1, 2, 3)])
    rad = x.x1 * g1 + x.x2 * g2 + x.x3 * g3
    rho2 = x.x1 ** 2 + x.x2 ** 2 + x.x3 ** 2
    return _result(abs(rho2 * sum(second) - alpha * rad))


@_quiet
def verify_general_system(u: VectorField4, phi: ScalarField4, x: Quaternion) -> Tuple:
    """Seven residuals of the static generalized potential system.

    Order: weighted continuity
           phi (u0_x0 - u1_x1 - u2_x2 - u3_x3) + (u0 phi_x0 - u1 phi_x1 - ...),
    then the three symmetric combinations u0_xm + um_x0 (m = 1, 2, 3),
    then the three curls u1_x2 - u2_x1, u1_x3 - u3_x1, u2_x3 - u3_x2.
    u maps points to the four components (floats or arrays).
    """
    lines = [(1, ax) for ax in range(4)] + [(0, 0)]
    *cols, u0 = fd_stencil(u, x, lines)
    *gphi, p0 = fd_stencil(phi, x, lines)
    # jac[m][ax] = d u_m / d x_ax
    jac = [[cols[ax][m] for ax in range(4)] for m in range(4)]

    cont = (p0 * (jac[0][0] - jac[1][1] - jac[2][2] - jac[3][3])
            + u0[0] * gphi[0] - u0[1] * gphi[1] - u0[2] * gphi[2] - u0[3] * gphi[3])
    sym = [jac[0][m] + jac[m][0] for m in (1, 2, 3)]
    curl = [jac[1][2] - jac[2][1], jac[1][3] - jac[3][1], jac[2][3] - jac[3][2]]
    return tuple(_result(abs(r)) for r in (cont, *sym, *curl))


@_quiet
def criterion_check(h_fn: ScalarField4, x: Quaternion) -> Tuple:
    """Axisymmetry criterion residuals for a scalar field.

    Cartesian triple:  |x2 h_x1 - x1 h_x2|, |x3 h_x1 - x1 h_x3|, |x3 h_x2 - x2 h_x3|;
    angular pair: |dh/dtheta|, |dh/dpsi| via the chain rule on the same gradient.
    All five vanish iff h is constant on the (theta, psi) orbits.
    """
    s2 = x.x2 ** 2 + x.x3 ** 2
    if np.any((np.asarray(x.rho()) == 0.0) | (np.asarray(s2) == 0.0)):
        raise DomainError("criterion chart needs rho > 0 and (x2, x3) != 0")
    g1, g2, g3 = fd_stencil(h_fn, x, [(1, ax) for ax in (1, 2, 3)])
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
