"""Meridional potentials and vector fields on R^4.

A meridional field is the gradient-type field of an axisymmetric potential
g(x0, rho):

    V0 = dg/dx0,   Vrho = dg/drho,   V_m = Vrho * x_m / rho  (m = 1,2,3)

where g satisfies the degenerate-elliptic meridian equation

    rho (g_x0x0 + g_rhorho) - (alpha - 2) g_rho = 0.

Two closed-form constructors are provided (radially holomorphic potentials,
alpha = 2; separable Bessel-type solutions, any alpha) together with the
finite-difference verifiers for the underlying PDE family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (DomainError, IntegerOrderUnsupported, NoStream,
                     NotHolomorphic, StepTooLarge)
from .holomorphic import RadialFunction, antiholomorphy_residual, default_fd_step
from .quaternion import Quaternion
from .specfun import bessel_j, bessel_y

__all__ = [
    "RHO_MIN",
    "MeridionalProfile",
    "MeridionalField",
    "SeparableParams",
    "from_holomorphic_potential",
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


@dataclass
class MeridionalProfile:
    """Analytic data of an axisymmetric potential: g and its first/second partials.

    The callables take (x0, rho).  stream, when present, is the Stokes
    stream function paired with g by the generalized Stokes-Beltrami system.
    vectorized marks callables that also map float arrays elementwise.
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

    def evaluate(self, name: str, x0: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """The quantity `name` (g, V0, Vrho, dV0_dx0, dVrho_dx0, dVrho_drho)
        at the points of the flat float arrays x0 and rho.

        The domain floor is checked once for the whole array.  Vectorized
        profiles take the arrays directly; the others (Bessel series,
        adaptive quadrature) are called point by point.  Raises DomainError
        when any value is not finite.
        """
        if rho.size and rho.min() < RHO_MIN:
            raise DomainError(f"rho = {rho.min():g} below the domain floor {RHO_MIN:g}")
        fn = getattr(self.profile, _QUANTITY[name])
        out = np.empty(x0.shape)
        if self.profile.vectorized:
            with np.errstate(all="ignore"):
                out[...] = fn(x0, rho)
        else:
            out[...] = [fn(a, b) for a, b in zip(x0.tolist(), rho.tolist())]
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            i = bad[0]
            raise DomainError(f"{name} = {out[i]:g} at (x0, rho) = ({x0[i]:g}, {rho[i]:g})")
        return out

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

    V0 and Vrho come from the radial derivative G' (V0 = Re G', Vrho = -Im G'),
    the second partials from G''.  G is probed for antiholomorphy before use.
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

    def part(fn, sign: float, imag: bool) -> Scalar2:
        def ev(x0, rho):
            w = fn(x0 + 1j * rho)
            return sign * (w.imag if imag else w.real)
        return ev

    profile = MeridionalProfile(
        alpha=2.0,
        g=part(G.lift, 1.0, False),
        dg_dx0=part(F.lift, 1.0, False),
        dg_drho=part(F.lift, -1.0, True),
        d2g_dx0x0=part(F2.lift, 1.0, False),
        d2g_dx0rho=part(F2.lift, -1.0, True),
        d2g_drhorho=part(F2.lift, -1.0, False),
        stream=part(G.lift, 1.0, True),
        label=f"holo:{G.name}",
        vectorized=G.vectorized and F.vectorized and F2.vectorized,
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


def from_separable(p: SeparableParams) -> MeridionalField:
    """Separable solution with exact Bessel-recurrence partials.

    Using C for a1*J + a2*Y (the recurrences hold for both kinds):
        Ups(rho)   = rho^nu C_nu(beta rho)
        Ups'(rho)  = beta rho^nu C_{nu-1}(beta rho)
        Ups''(rho) = beta [rho^{nu-1} C_{nu-1}(beta rho) + beta rho^nu C_{nu-2}(beta rho)]
    and the stream function is -(Xi'/beta) rho^{mu} C_{nu-1}(beta rho), mu = (3-alpha)/2.
    """
    nu = 0.5 * (p.alpha - 1.0)
    beta = p.beta

    def cyl(order: float, z: float) -> float:
        val = p.a1 * bessel_j(order, z)
        if p.a2 != 0.0:
            val += p.a2 * bessel_y(order, z)
        return val

    def xi(x0: float) -> float:
        return p.b1 * math.cosh(beta * x0) + p.b2 * math.sinh(beta * x0)

    def xi_p(x0: float) -> float:
        return beta * (p.b1 * math.sinh(beta * x0) + p.b2 * math.cosh(beta * x0))

    def ups(rho: float) -> float:
        return rho ** nu * cyl(nu, beta * rho)

    def ups_p(rho: float) -> float:
        return beta * rho ** nu * cyl(nu - 1.0, beta * rho)

    def ups_pp(rho: float) -> float:
        return beta * (rho ** (nu - 1.0) * cyl(nu - 1.0, beta * rho)
                       + beta * rho ** nu * cyl(nu - 2.0, beta * rho))

    mu = 0.5 * (3.0 - p.alpha)

    profile = MeridionalProfile(
        alpha=p.alpha,
        g=lambda x0, rho: xi(x0) * ups(rho),
        dg_dx0=lambda x0, rho: xi_p(x0) * ups(rho),
        dg_drho=lambda x0, rho: xi(x0) * ups_p(rho),
        d2g_dx0x0=lambda x0, rho: beta * beta * xi(x0) * ups(rho),
        d2g_dx0rho=lambda x0, rho: xi_p(x0) * ups_p(rho),
        d2g_drhorho=lambda x0, rho: xi(x0) * ups_pp(rho),
        stream=lambda x0, rho: -(xi_p(x0) / beta) * rho ** mu * cyl(nu - 1.0, beta * rho),
        label=(f"separable:alpha={p.alpha:g},beta={p.beta:g},"
               f"a=({p.a1:g},{p.a2:g}),b=({p.b1:g},{p.b2:g})"),
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


def _fd_pair(fn: Scalar2, x0: float, rho: float, h: float):
    """Central first and second differences of fn in both coordinates."""
    f0 = fn(x0, rho)
    fx_p, fx_m = fn(x0 + h, rho), fn(x0 - h, rho)
    fr_p, fr_m = fn(x0, rho + h), fn(x0, rho - h)
    d1 = ((fx_p - fx_m) / (2 * h), (fr_p - fr_m) / (2 * h))
    d2 = ((fx_p - 2 * f0 + fx_m) / (h * h), (fr_p - 2 * f0 + fr_m) / (h * h))
    return d1, d2


def verify_stream(f: Union[MeridionalField, MeridionalProfile], x0: float,
                  rho: float, fd_step: Optional[float] = None) -> float:
    """Stream equation |rho (gh_x0x0 + gh_rhorho) + (alpha-2) gh_rho| by FD."""
    p = _profile_of(f)
    if p.stream is None:
        raise NoStream("no stream function on this profile")
    h = fd_step if fd_step is not None else default_fd_step(x0, rho)
    if h >= rho:
        raise StepTooLarge(f"fd step {h:g} reaches the axis (rho = {rho:g})")
    (_, dr), (dxx, drr) = _fd_pair(p.stream, x0, rho, h)
    return abs(rho * (dxx + drr) + (p.alpha - 2.0) * dr)


def verify_stokes_beltrami(f: Union[MeridionalField, MeridionalProfile],
                           x0: float, rho: float,
                           fd_step: Optional[float] = None) -> Tuple[float, float]:
    """Residual pair of the generalized Stokes-Beltrami system.

        rho^{2-alpha} g_x0  = gh_rho
        rho^{2-alpha} g_rho = -gh_x0

    g-side partials are analytic; the stream side is finite-differenced.
    """
    p = _profile_of(f)
    if p.stream is None:
        raise NoStream("no stream function on this profile")
    h = fd_step if fd_step is not None else default_fd_step(x0, rho)
    if h >= rho:
        raise StepTooLarge(f"fd step {h:g} reaches the axis (rho = {rho:g})")
    w = rho ** (2.0 - p.alpha)
    gh_x0 = (p.stream(x0 + h, rho) - p.stream(x0 - h, rho)) / (2 * h)
    gh_rho = (p.stream(x0, rho + h) - p.stream(x0, rho - h)) / (2 * h)
    r1 = abs(w * p.dg_dx0(x0, rho) - gh_rho)
    r2 = abs(w * p.dg_drho(x0, rho) + gh_x0)
    return r1, r2


ScalarField4 = Callable[[Quaternion], float]


def _step_for(x: Quaternion, fd_step: Optional[float]) -> float:
    return fd_step if fd_step is not None else default_fd_step(x.x0, x.rho())


def _shift(x: Quaternion, axis: int, h: float) -> Quaternion:
    c = list(x.components())
    c[axis] += h
    return Quaternion(*c)


def _grad4(h_fn: ScalarField4, x: Quaternion, h: float) -> Tuple[float, float, float, float]:
    out = []
    for ax in range(4):
        out.append((h_fn(_shift(x, ax, h)) - h_fn(_shift(x, ax, -h))) / (2 * h))
    return tuple(out)


def _laplace4(h_fn: ScalarField4, x: Quaternion, h: float) -> float:
    center = h_fn(x)
    total = 0.0
    for ax in range(4):
        total += (h_fn(_shift(x, ax, h)) - 2 * center + h_fn(_shift(x, ax, -h))) / (h * h)
    return total


def verify_weinstein(h_fn: ScalarField4, alpha: float, x: Quaternion,
                     fd_step: Optional[float] = None) -> float:
    """|x3 * Laplace(h) - alpha * dh/dx3| by central differences."""
    h = _step_for(x, fd_step)
    lap = _laplace4(h_fn, x, h)
    d3 = (h_fn(_shift(x, 3, h)) - h_fn(_shift(x, 3, -h))) / (2 * h)
    return abs(x.x3 * lap - alpha * d3)


def verify_axial_hyperbolic(h_fn: ScalarField4, alpha: float, x: Quaternion,
                            fd_step: Optional[float] = None) -> float:
    """|rho^2 Laplace(h) - alpha (x1 h_x1 + x2 h_x2 + x3 h_x3)| by central differences."""
    h = _step_for(x, fd_step)
    lap = _laplace4(h_fn, x, h)
    g = _grad4(h_fn, x, h)
    rad = x.x1 * g[1] + x.x2 * g[2] + x.x3 * g[3]
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
    h = _step_for(x, fd_step)
    # 4x4 Jacobian of u by central differences: jac[m][ax] = d u_m / d x_ax
    jac = [[0.0] * 4 for _ in range(4)]
    for ax in range(4):
        up = u(_shift(x, ax, h))
        um = u(_shift(x, ax, -h))
        for m in range(4):
            jac[m][ax] = (up[m] - um[m]) / (2 * h)
    u0 = u(x)
    gphi = _grad4(phi, x, h)
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
    h = _step_for(x, fd_step)
    g = _grad4(h_fn, x, h)
    cart = (abs(x.x2 * g[1] - x.x1 * g[2]),
            abs(x.x3 * g[1] - x.x1 * g[3]),
            abs(x.x3 * g[2] - x.x2 * g[3]))
    s = math.sqrt(s2)
    dtheta = -s * g[1] + (x.x1 * x.x2 / s) * g[2] + (x.x1 * x.x3 / s) * g[3]
    dpsi = -x.x3 * g[2] + x.x2 * g[3]
    return cart, (abs(dtheta), abs(dpsi))


def axial_symmetry_check(u: VectorField4, x: Quaternion) -> Tuple[float, float, float]:
    """Algebraic axial-alignment residuals of a vector field's imaginary part.

    |u1 x2 - u2 x1|, |u1 x3 - u3 x1|, |u2 x3 - u3 x2| — all zero iff
    (u1, u2, u3) is parallel to (x1, x2, x3)."""
    v = u(x)
    return (abs(v[1] * x.x2 - v[2] * x.x1),
            abs(v[1] * x.x3 - v[3] * x.x1),
            abs(v[2] * x.x3 - v[3] * x.x2))
