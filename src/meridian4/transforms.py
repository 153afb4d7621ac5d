"""Laplace- and Fourier-type transforms evaluated on the complex lift.

An original function eta lives on [0, T] (or [0, inf)) and is pushed through
one of three kernels at a quaternionic parameter x = x0 + rho*I:

    lf   :  integral eta(tau) exp(-x tau) dtau
    ffc  :  integral eta(tau) cos(x tau) dtau
    ffs  :  integral eta(tau) sin(x tau) dtau

All kernels are evaluated at z = x0 + i*rho and re-embedded along the axis.
One batched rule serves any number of points and kernels: composite 16-point
Gauss-Legendre on [0, T(z)], (points x nodes) numpy arrays in bounded
blocks summed row by row, with the panel count doubling until a point's last
two sums of each kernel agree below TOL.  The kernels of one pass share
their cos, sin and exponentials, and each keeps the value and panel count
that a pass with it alone gives.  transform_detail is the one-point,
one-kernel call.  The rule integrates an original's smooth numerator, never
eta itself: eta(tau)*e^(rate tau) for an original that decays at rate, whose
e^(-rate tau) the rule folds into the kernel's exponent, where it cancels
the growth of cos and sin; and eta(tau)*sqrt(1-tau^2) for an original with
an inverse-square-root blow-up at tau = 1 (the Chebyshev family), which
is integrated after the substitution tau = sin(u) on [0, pi/2], where the
weight drops out exactly.

A transform field (alpha = 2) is the field of the radially holomorphic
potential G whose derivative G' is the ffc or ffs transform.  The lifts of
G (with G(0) = 0), G' and G'' integrate eta against the kernels

    ffc :  sin(z t)/t          cos(z t)    -t sin(z t)
    ffs :  (1 - cos(z t))/t    sin(z t)     t cos(z t)

and go to fields.lifted_field as one lift source: one quadrature pass
integrates every lift a set of quantities reads, at one point or at arrays
of points (all three for the six quantities, G' and G'' alone for the
columns of eval and spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .errors import (AbscissaViolation, ConvergenceFailure, DomainError,
                     KernelGrowth, Unsupported)
from .fields import MeridionalField, lifted_field
from .quaternion import Quaternion, from_lift

__all__ = [
    "OriginalFunction",
    "QuadratureSpec",
    "chebyshev_kernel",
    "unit_original",
    "exp_decay_original",
    "transform_detail",
    "laplace_fueter",
    "ff_cos",
    "ff_sin",
    "bessel_integral_rep",
    "transform_field",
]

TOL = 1e-10  # the rule's one tolerance, which no option changes
_NODES_PER_PANEL = 16
_MAX_PANELS = 4096
_BLOCK = 1 << 13  # integrand values per block, of all kernels together

_GL_X, _GL_W = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)


@dataclass(frozen=True)
class OriginalFunction:
    """An original eta(tau) on [0, support_t] (inf = half line), declared by
    what the quadrature reads.

    evaluator is eta and smooth_numerator the function the rule integrates;
    both map float arrays of tau entry by entry (a constant may come back as
    a scalar).  smooth_numerator is eta(tau)*e^(decay_rate tau), times
    sqrt(1 - tau^2) with sqrt_end, which marks an inverse-square-root
    blow-up at tau = support_t = 1.  On the half line |eta(tau)| <=
    e^(-decay_rate tau) is asserted: the Laplace abscissa is -decay_rate,
    and the Fourier kernels exist for |Im z| < decay_rate.
    """
    evaluator: Callable[[np.ndarray], np.ndarray]
    smooth_numerator: Callable[[np.ndarray], np.ndarray]
    support_t: float = 1.0
    decay_rate: float = 0.0
    sqrt_end: bool = False
    name: str = "eta"

    def __post_init__(self):
        if self.sqrt_end and self.support_t != 1.0:
            raise Unsupported("only an inverse-sqrt blow-up at the right "
                              "endpoint tau = 1 is implemented")

    def compact(self) -> bool:
        return math.isfinite(self.support_t)


@dataclass(frozen=True)
class QuadratureSpec:
    panels: int
    last_delta: float


# ---------------------------------------------------------------------------
# kernels (z, s, t) -> [e^(-s t) k(z, t), ...]
# ---------------------------------------------------------------------------

def _trig(z, s, t, cos: bool, sin: bool):
    """e^(-s t) cos(z t) and e^(-s t) sin(z t), each only when asked for
    (else None).  With s > 0 the factors e^(+-Im z t) of cos and sin are
    folded into e^(-s t), so that none overflows while |Im z| < s; the two
    exponentials are shared."""
    if not s:
        return (np.cos(z * t) if cos else None), (np.sin(z * t) if sin else None)
    ep, em = np.exp((1j * z - s) * t), np.exp((-1j * z - s) * t)
    return (0.5 * (ep + em) if cos else None), (-0.5j * (ep - em) if sin else None)


# kind -> kernels of G, G' and G'' from u, the factor of G' (e^(-s t) cos(z t)
# for ffc, e^(-s t) sin(z t) for ffs), and v, the other one
_LIFT_KERNELS = {
    "ffc": (lambda u, v, s, t: v / t, lambda u, v, s, t: u, lambda u, v, s, t: -t * v),
    "ffs": (lambda u, v, s, t: (np.exp(-s * t) - v) / t, lambda u, v, s, t: u,
            lambda u, v, s, t: t * v),
}


def _lift_kernels(kind: str, lifts: Tuple[int, ...]):
    """(z, s, t) -> the kernels of the lifts (0: G, 1: G', 2: G'') of the ffc
    or ffs transform field, in the order of lifts.  u and v are computed
    once for all of them, each only when a lift reads it."""
    ffc = kind == "ffc"
    need_u, need_v = 1 in lifts, 0 in lifts or 2 in lifts
    recipes = [_LIFT_KERNELS[kind][lift] for lift in lifts]

    def kernels(z, s, t):
        c, sn = _trig(z, s, t, need_u if ffc else need_v, need_v if ffc else need_u)
        u, v = (c, sn) if ffc else (sn, c)
        return [recipe(u, v, s, t) for recipe in recipes]
    return kernels


# transform kind -> its kernel, as a one-kernel list
_TRANSFORMS = {"lf": lambda z, s, t: [np.exp(-(z + s) * t)],
               "ffc": _lift_kernels("ffc", (1,)), "ffs": _lift_kernels("ffs", (1,))}


# ---------------------------------------------------------------------------
# the batched quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _panel_rule(counts: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """Nodes and weights of the composite Gauss-Legendre rules on [0, 1] with
    these panel counts, end to end, and the index where each rule ends."""
    nodes = [(((np.arange(p) + 0.5) / p)[:, None] + (0.5 / p) * _GL_X).ravel()
             for p in counts]
    weights = [np.tile((0.5 / p) * _GL_W, p) for p in counts]
    ends = tuple((_NODES_PER_PANEL * np.cumsum(counts)).tolist())
    return np.concatenate(nodes), np.concatenate(weights), ends


def _panel_sums(integrand, count: int, z: np.ndarray, upper: np.ndarray,
                ps: Tuple[int, ...]) -> np.ndarray:
    """b * sum_j w_j f(b u_j) k(z, b u_j) at each point z for each of the
    count kernels k and each panel count p, as an array (kernel, p, point),
    where the integrand gives the original's factor f and the kernels, and b
    is the point's upper limit.  A block holds at most _BLOCK integrand
    values of all kernels together.  Rows are summed one by one
    (np.add.reduce, never a matrix product): a point's bits depend neither
    on its batch nor on the other kernels.  A sum that is not finite
    raises DomainError naming the first point it falls on."""
    nodes, weights, ends = _panel_rule(ps)
    rows = max(1, _BLOCK // (count * nodes.size))
    outs = np.empty((count, len(ps), z.size), dtype=complex)
    with np.errstate(all="ignore"):
        for lo in range(0, z.size, rows):
            hi = lo + rows
            col = upper[lo:hi, None]
            f, ks = integrand(z[lo:hi, None], col * nodes)
            fw = f * weights * col
            for out, k in zip(outs, ks):
                vals = k * fw
                for row, start, end in zip(out, (0,) + ends, ends):
                    row[lo:hi] = np.add.reduce(vals[:, start:end], axis=-1)
    bad = ~np.isfinite(outs).all(axis=(0, 1))
    if bad.any():
        z0 = z[bad][0]
        raise DomainError(f"quadrature sum not finite at (x0, rho) = ({z0.real:g}, {z0.imag:g})")
    return outs


def _truncation(gap: np.ndarray) -> np.ndarray:
    """Upper limits T >= 1 with e^{-gap T} / gap <= TOL/2 (gap > 0)."""
    arg = 2.0 / (gap * TOL)
    return np.maximum(1.0, np.log(np.maximum(arg, 1.0)) / gap)


def _upper(kind: str, eta: OriginalFunction, z: np.ndarray) -> np.ndarray:
    """Each point's upper limit: the support, or where the point's tail e^(-gap tau)
    drops below TOL/2, with gap = Re z + decay_rate for lf (Re z right of the
    abscissa -decay_rate) and decay_rate - |Im z| for ffc/ffs."""
    if eta.compact():
        return np.full(z.size, eta.support_t)
    with np.errstate(over="ignore"):  # an infinite gap takes T = 1
        gap = (z.real if kind == "lf" else -np.abs(z.imag)) + eta.decay_rate
    i = np.argmin(gap)  # the first nan, if any
    if not gap[i] > 0.0 and kind == "lf":
        raise AbscissaViolation(f"x0 = {z.real[i]:g} not right of the abscissa "
                                f"s0 = {0.0 - eta.decay_rate:g}")  # 0.0 - : no "-0"
    if not gap[i] > 0.0:
        raise KernelGrowth(
            f"kernel grows like e^(rho tau) with rho = {abs(z.imag[i]):g}; original "
            f"decays at rate {eta.decay_rate:g} — integral not dominated")
    return _truncation(gap)


def _integrals(kind: str, kernels, count: int, eta: OriginalFunction,
               z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integrals of eta(t) k(z, t) dt for each of the count kernels k that
    kernels(z, s, t) returns, at the points of the flat complex array z, with
    each one's panel count and last difference: three arrays (kernel, point).

    Panel doubling at all points and for all kernels at once (the first pass
    takes 1 and 2 panels together): a (kernel, point) pair retires at the
    first p at which its sums at p and p/2 panels agree below TOL, and a
    point goes on with 2p panels while any of its kernels has not retired.
    A pair's value and panel count are those of a pass with its kernel
    alone.
    """
    num, shift, sqrt_end = eta.smooth_numerator, eta.decay_rate, eta.sqrt_end
    upper = np.full(z.size, 0.5 * math.pi) if sqrt_end else _upper(kind, eta, z)

    def integrand(zc, u):
        t = np.sin(u) if sqrt_end else u
        return num(t), kernels(zc, shift, t)

    shape = (count, z.size)
    value, panels, delta = np.empty(shape, complex), np.empty(shape, int), np.empty(shape)
    points = np.arange(z.size)
    prev, cur = _panel_sums(integrand, count, z, upper, (1, 2)).transpose(1, 0, 2)
    live = np.ones(shape, dtype=bool)
    p = 2
    while True:
        d = np.abs(cur - prev)
        fin = live & (d < TOL)
        if fin.all():  # every pair of the points left retires now, as one point mostly does
            value[:, points], panels[:, points], delta[:, points] = cur, p, d
            return value, panels, delta
        if fin.any():
            kernel, at = np.nonzero(fin)
            at = points[at]
            value[kernel, at], panels[kernel, at], delta[kernel, at] = cur[fin], p, d[fin]
            live &= ~fin
            keep = live.any(axis=0)
            if not keep.all():
                if not keep.any():
                    return value, panels, delta
                points, z, upper = points[keep], z[keep], upper[keep]
                cur, live = cur[:, keep], live[:, keep]
        if p == _MAX_PANELS:
            raise ConvergenceFailure(
                f"quadrature did not reach tol {TOL:g} within {_MAX_PANELS} panels")
        p *= 2
        prev, cur = cur, _panel_sums(integrand, count, z, upper, (p,))[:, 0]


def transform_detail(kind: str, eta: OriginalFunction,
                     x: Quaternion) -> Tuple[Quaternion, QuadratureSpec]:
    """The lf, ffc or ffs transform of eta at x, with its quadrature record."""
    if kind not in _TRANSFORMS:
        raise DomainError(f"transform kind must be 'lf', 'ffc' or 'ffs', got {kind!r}")
    z = np.array([complex(x.x0, x.rho())])
    val, panels, delta = _integrals(kind, _TRANSFORMS[kind], 1, eta, z)
    spec = QuadratureSpec(int(panels[0, 0]), float(delta[0, 0]))
    return from_lift(complex(val[0, 0]), x), spec


def laplace_fueter(eta: OriginalFunction, x: Quaternion) -> Quaternion:
    return transform_detail("lf", eta, x)[0]


def ff_cos(eta: OriginalFunction, x: Quaternion) -> Quaternion:
    return transform_detail("ffc", eta, x)[0]


def ff_sin(eta: OriginalFunction, x: Quaternion) -> Quaternion:
    return transform_detail("ffs", eta, x)[0]


# ---------------------------------------------------------------------------
# originals
# ---------------------------------------------------------------------------

def _cheb_t(k: int, tau):
    """Chebyshev T_k(tau) by the stable three-term recurrence (tau float or array)."""
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

    def evaluator(tau, _k=k):
        if not np.all((0.0 <= tau) & (tau < 1.0)):
            raise DomainError("Chebyshev original defined on [0, 1) (singular at 1)")
        return _cheb_t(_k, tau) / np.sqrt(1.0 - tau * tau)

    return OriginalFunction(evaluator, lambda tau, _k=k: _cheb_t(_k, tau), sqrt_end=True,
                            name=f"cheb{k}")


def unit_original() -> OriginalFunction:
    """eta = 1 on [0, 1]."""
    return OriginalFunction(lambda t: 1.0, lambda t: 1.0, name="unit")


def exp_decay_original(rate: float = 1.0) -> OriginalFunction:
    """eta(tau) = e^{-rate tau} on [0, inf); decay asserted for Fourier kernels.

    Its smooth numerator is 1: the quadrature folds e^{-rate tau} into the
    kernel's exponent.
    """
    if not 0.0 < rate < math.inf:
        raise DomainError(f"decay rate must be positive and finite, got {rate!r}")
    return OriginalFunction(
        evaluator=lambda t, _r=rate: np.exp(-_r * t),
        smooth_numerator=lambda t: 1.0,
        support_t=math.inf,
        decay_rate=rate,
        name=f"exp{rate:g}",
    )


def bessel_integral_rep(k: int, x: Quaternion) -> Quaternion:
    """J_k(x) = (2/pi)(-1)^(k//2) ff(chebyshev_kernel(k), x) at integer k >= 0, ff the
    cosine transform at even k and the sine transform at odd k (DLMF 10.9)."""
    factor = (-1.0 if k // 2 % 2 else 1.0) * 2.0 / math.pi
    return factor * (ff_sin if k % 2 else ff_cos)(chebyshev_kernel(k), x)


# ---------------------------------------------------------------------------
# transform-backed meridional fields (alpha = 2)
# ---------------------------------------------------------------------------

def transform_field(kind: str, eta: OriginalFunction) -> MeridionalField:
    """Meridional field (alpha = 2) whose potential's lift is a transform of eta.

    G' is the ffc or ffs transform, so V0 - i*Vrho = G'(x0 + i*rho); see the
    module docstring for the kernels of G, G' and G''.  Every lift its
    quantities read is integrated in one pass, at arrays of points and at
    one point alike.
    """
    if kind not in _LIFT_KERNELS:
        raise DomainError(f"transform field kind must be 'ffc' or 'ffs', got {kind!r}")

    def lifts(needed, z):
        zs = np.asarray(z, dtype=complex)
        vals = _integrals(kind, _lift_kernels(kind, needed), len(needed), eta, zs.reshape(-1))[0]
        return [v.reshape(zs.shape) if zs.ndim else complex(v[0]) for v in vals]
    return lifted_field(lifts, f"transform:{kind}:{eta.name}")
