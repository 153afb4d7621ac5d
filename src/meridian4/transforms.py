"""Laplace- and Fourier-type transforms evaluated on the complex lift.

An original function eta lives on [0, T] (or [0, inf)) and is pushed through
one of three kernels at a quaternionic parameter x = x0 + rho*I:

    lf   :  integral eta(tau) exp(-x tau) dtau
    ffc  :  integral eta(tau) cos(x tau) dtau
    ffs  :  integral eta(tau) sin(x tau) dtau

All kernels are evaluated at z = x0 + i*rho and re-embedded along the axis.
Quadrature is composite Gauss-Legendre with panel doubling until two
successive refinements agree below tol.  Originals with an inverse-square-
root endpoint singularity (the Chebyshev family) are integrated after the
tau = sin(u) substitution, which removes the weight exactly when the smooth
numerator eta(tau)*sqrt(1-tau^2) is supplied.

A transform field (alpha = 2) is the field of the radially holomorphic
potential G whose derivative G' is the ffc or ffs transform.  The lifts of
G (with G(0) = 0), G' and G'' integrate eta against the kernels

    ffc :  sin(z t)/t          cos(z t)    -t sin(z t)
    ffs :  (1 - cos(z t))/t    sin(z t)     t cos(z t)

and go to fields.lifted_field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (AbscissaViolation, ConvergenceFailure, DomainError,
                     KernelGrowth, Unsupported)
from .fields import MeridionalField, lifted_field
from .quaternion import Quaternion, axial_split, from_lift

__all__ = [
    "OriginalFunction",
    "QuadratureSpec",
    "chebyshev_kernel",
    "cheb_original",
    "unit_original",
    "exp_decay_original",
    "transform_detail",
    "laplace_fueter",
    "ff_cos",
    "ff_sin",
    "bessel_integral_rep",
    "transform_field",
]

DEFAULT_TOL = 1e-10
_NODES_PER_PANEL = 16
_MAX_PANELS = 4096

_gl_x, _gl_w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
_GL_X = [float(v) for v in _gl_x]
_GL_W = [float(v) for v in _gl_w]
del _gl_x, _gl_w


@dataclass(frozen=True)
class OriginalFunction:
    """Metadata-carrying original eta(tau) on [0, support_t] (inf = half line).

    growth_rate_s0 and bound_m assert |eta(tau)| <= bound_m * e^{s0 tau};
    decay_rate > 0 asserts |eta(tau)| <= bound_m * e^{-decay_rate tau}
    (needed for Fourier kernels off the real axis).  singularity marks an
    inverse-square-root blow-up location (only the right endpoint of a
    compact support is implemented); smooth_numerator, when given, is
    eta(tau)*sqrt(1 - tau^2) evaluated without the weight.
    """
    evaluator: Callable[[float], float]
    support_t: float = 1.0
    growth_rate_s0: float = 0.0
    bound_m: float = 1.0
    decay_rate: float = 0.0
    singularity: Optional[float] = None
    smooth_numerator: Optional[Callable[[float], float]] = None
    holder_asserted: bool = True
    name: str = "eta"

    def compact(self) -> bool:
        return math.isfinite(self.support_t)


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str
    nodes_per_panel: int
    panels: int
    tol: float
    last_delta: float


def _gl_panels(f: Callable[[float], complex], a: float, b: float, panels: int) -> complex:
    total = 0j
    width = (b - a) / panels
    for p in range(panels):
        mid = a + width * (p + 0.5)
        half = 0.5 * width
        for xi, wi in zip(_GL_X, _GL_W):
            total += wi * f(mid + half * xi)
    return total * (0.5 * width)


def _adaptive(f: Callable[[float], complex], a: float, b: float,
              tol: float) -> Tuple[complex, QuadratureSpec]:
    prev = _gl_panels(f, a, b, 1)
    panels = 2
    while panels <= _MAX_PANELS:
        cur = _gl_panels(f, a, b, panels)
        delta = abs(cur - prev)
        if delta < tol:
            return cur, QuadratureSpec("gauss_legendre_panels",
                                       _NODES_PER_PANEL, panels, tol, delta)
        prev = cur
        panels *= 2
    raise ConvergenceFailure(
        f"quadrature did not reach tol {tol:g} within {_MAX_PANELS} panels")


def _integrate_original(eta: OriginalFunction, kernel: Callable[[float], complex],
                        upper: float, tol: float) -> Tuple[complex, QuadratureSpec]:
    """Integrate eta(tau)*kernel(tau) over [0, upper] honoring the singularity."""
    if eta.singularity is None:
        return _adaptive(lambda t: eta.evaluator(t) * kernel(t), 0.0, upper, tol)
    if not eta.compact() or eta.singularity != eta.support_t or eta.support_t != 1.0:
        raise Unsupported("only an inverse-sqrt singularity at the right "
                          "endpoint tau = 1 is implemented")
    if upper != eta.support_t:
        raise Unsupported("cannot truncate inside a singular support")
    num = eta.smooth_numerator
    if num is not None:
        f = lambda u: num(math.sin(u)) * kernel(math.sin(u))
    else:
        # fallback: the cos(u) factor cancels the weight only approximately
        # in floating point near u = pi/2
        f = lambda u: eta.evaluator(math.sin(u)) * math.cos(u) * kernel(math.sin(u))
    return _adaptive(f, 0.0, 0.5 * math.pi, tol)


def _truncation(gap: float, bound_m: float, tol: float) -> float:
    """Upper limit T with bound_m * e^{-gap T} / gap <= tol/2 (gap > 0)."""
    arg = 2.0 * bound_m / (gap * tol)
    if arg <= 1.0:
        return 1.0
    return max(1.0, math.log(arg) / gap)


# kernel factories: z -> (tau -> kernel(z, tau))
_KERNEL = {
    "lf": lambda z: lambda t: cmath.exp(-z * t),
    "ffc": lambda z: lambda t: cmath.cos(z * t),
    "ffs": lambda z: lambda t: cmath.sin(z * t),
}


def _upper(kind: str, eta: OriginalFunction, z: complex, tol: float) -> float:
    """The support, or where the tail drops below tol/2: lf needs Re z right of
    the abscissa, ffc/ffs a decay faster than the kernel's e^(|Im z| tau)."""
    if eta.compact():
        return eta.support_t
    if kind == "lf":
        gap = z.real - eta.growth_rate_s0
        if gap <= 0.0:
            raise AbscissaViolation(
                f"x0 = {z.real:g} not right of the abscissa s0 = {eta.growth_rate_s0:g}")
    else:
        gap = eta.decay_rate - abs(z.imag)
        if gap <= 0.0:
            raise KernelGrowth(
                f"kernel grows like e^(rho tau) with rho = {abs(z.imag):g}; original "
                f"decays at rate {eta.decay_rate:g} — integral not dominated")
    return _truncation(gap, eta.bound_m, tol)


def transform_detail(kind: str, eta: OriginalFunction, x: Quaternion,
                     tol: float = DEFAULT_TOL) -> Tuple[Quaternion, QuadratureSpec]:
    """The lf, ffc or ffs transform of eta at x, with its quadrature record."""
    if kind not in _KERNEL:
        raise DomainError(f"transform kind must be 'lf', 'ffc' or 'ffs', got {kind!r}")
    split = axial_split(x)
    z = complex(split.a, split.b)
    val, spec = _integrate_original(eta, _KERNEL[kind](z), _upper(kind, eta, z, tol), tol)
    return from_lift(val, x), spec


def laplace_fueter(eta: OriginalFunction, x: Quaternion,
                   tol: float = DEFAULT_TOL) -> Quaternion:
    return transform_detail("lf", eta, x, tol)[0]


def ff_cos(eta: OriginalFunction, x: Quaternion, tol: float = DEFAULT_TOL) -> Quaternion:
    return transform_detail("ffc", eta, x, tol)[0]


def ff_sin(eta: OriginalFunction, x: Quaternion, tol: float = DEFAULT_TOL) -> Quaternion:
    return transform_detail("ffs", eta, x, tol)[0]


# ---------------------------------------------------------------------------
# originals
# ---------------------------------------------------------------------------

def _cheb_t(k: int, tau: float) -> float:
    """Chebyshev T_k(tau) by the stable three-term recurrence."""
    if k == 0:
        return 1.0
    tkm1, tk = 1.0, tau
    for _ in range(k - 1):
        tkm1, tk = tk, 2.0 * tau * tk - tkm1
    return tk


def chebyshev_kernel(k: int) -> OriginalFunction:
    """eta(tau) = cos(k arccos tau)/sqrt(1 - tau^2) = T_k(tau)/sqrt(1-tau^2) on [0, 1]."""
    if k < 0:
        raise DomainError("Chebyshev kernel order must be >= 0")

    def evaluator(tau: float, _k=k) -> float:
        if not 0.0 <= tau < 1.0:
            raise DomainError("Chebyshev original defined on [0, 1) (singular at 1)")
        return _cheb_t(_k, tau) / math.sqrt(1.0 - tau * tau)

    return OriginalFunction(
        evaluator=evaluator,
        support_t=1.0,
        growth_rate_s0=0.0,
        bound_m=1.0,
        singularity=1.0,
        smooth_numerator=lambda tau, _k=k: _cheb_t(_k, tau),
        name=f"cheb{k}",
    )


def cheb_original(n: int) -> OriginalFunction:
    """Even-order Chebyshev original cos(2n arccos tau)/sqrt(1-tau^2)."""
    if n < 0:
        raise DomainError("cheb_original order must be >= 0")
    return chebyshev_kernel(2 * n)


def unit_original() -> OriginalFunction:
    """eta = 1 on [0, 1]."""
    return OriginalFunction(evaluator=lambda t: 1.0, support_t=1.0, name="unit")


def exp_decay_original(rate: float = 1.0) -> OriginalFunction:
    """eta(tau) = e^{-rate tau} on [0, inf); decay asserted for Fourier kernels."""
    if rate <= 0.0:
        raise DomainError("decay rate must be positive")
    return OriginalFunction(
        evaluator=lambda t, _r=rate: math.exp(-_r * t),
        support_t=math.inf,
        growth_rate_s0=0.0,
        bound_m=1.0,
        decay_rate=rate,
        name=f"exp{rate:g}",
    )


def bessel_integral_rep(n: int, parity: str, x: Quaternion,
                        tol: float = DEFAULT_TOL) -> Quaternion:
    """J_{2n}(x) or J_{2n+1}(x) via the Chebyshev-weighted finite cosine/sine integral.

    even:  J_{2n}(x)   = (2/pi)(-1)^n * ffc(cheb_original(n), x)
    odd:   J_{2n+1}(x) = (2/pi)(-1)^n * ffs(chebyshev_kernel(2n+1), x)
    """
    if n < 0:
        raise DomainError("representation order must be >= 0")
    sign = -1.0 if n % 2 else 1.0
    factor = sign * 2.0 / math.pi
    if parity == "even":
        return factor * ff_cos(cheb_original(n), x, tol)
    if parity == "odd":
        return factor * ff_sin(chebyshev_kernel(2 * n + 1), x, tol)
    raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


# ---------------------------------------------------------------------------
# transform-backed meridional fields (alpha = 2)
# ---------------------------------------------------------------------------

# kind -> kernel factories of the potential's lifts G, G' and G''
_FIELD_KERNELS = {
    "ffc": (lambda z: lambda t: cmath.sin(z * t) / t if t != 0.0 else z,
            _KERNEL["ffc"],
            lambda z: lambda t: -t * cmath.sin(z * t)),
    "ffs": (lambda z: lambda t: (1.0 - cmath.cos(z * t)) / t if t != 0.0 else 0j,
            _KERNEL["ffs"],
            lambda z: lambda t: t * cmath.cos(z * t)),
}


def _transform_lift(kind: str, kernel, eta: OriginalFunction, tol: float):
    """z -> integral of eta(t) kernel(z)(t) dt at a complex scalar or ndarray.

    An ndarray is a loop of the scalar quadrature, so both give the same bits.
    A one-slot memo lets V0 and Vrho read one integral of G', and the two
    dVrho partials one integral of G''.
    """
    def scalar(z: complex) -> complex:
        return _integrate_original(eta, kernel(z), _upper(kind, eta, z, tol), tol)[0]

    memo = [None, None]

    def lift(z):
        key = (np.shape(z), np.asarray(z, dtype=complex).tobytes())
        if key != memo[0]:
            memo[1] = (np.array([scalar(w) for w in z.ravel().tolist()],
                                dtype=complex).reshape(z.shape)
                       if isinstance(z, np.ndarray) else scalar(complex(z)))
            memo[0] = key
        return memo[1]
    return lift


def transform_field(kind: str, eta: OriginalFunction,
                    tol: float = DEFAULT_TOL) -> MeridionalField:
    """Meridional field (alpha = 2) whose potential's lift is a transform of eta.

    G' is the ffc or ffs transform, so V0 - i*Vrho = G'(x0 + i*rho); see the
    module docstring for the kernels of G, G' and G''.
    """
    if kind not in _FIELD_KERNELS:
        raise DomainError(f"transform field kind must be 'ffc' or 'ffs', got {kind!r}")
    G, F, F2 = (_transform_lift(kind, k, eta, tol) for k in _FIELD_KERNELS[kind])
    return lifted_field(G, F, F2, f"transform:{kind}:{eta.name}", vectorized=True)
