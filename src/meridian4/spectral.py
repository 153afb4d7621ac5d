"""Spectral analysis of meridional Jacobians.

The Jacobian of a lifted meridional field at x (rho > 0) is the symmetric
4x4 matrix built from three meridian-plane quantities

    q = Vrho/rho,  p01 = dVrho/dx0,  p11 = dVrho/drho:

    J[0,0] = -p11 + (alpha-2) q
    J[0,m] = J[m,0] = p01 * xm/rho
    J[m,m] = p11 * xm^2/rho^2 + q * (rho^2 - xm^2)/rho^2
    J[m,n] = (p11 - q) * xm*xn/rho^2            (m != n, m,n in 1..3)

Its spectrum is known in closed form: q is a double eigenvalue and

    lambda_{2,3} = (alpha-2)/2 q +- sqrt( ((alpha-2)/2 q - p11)^2 + p01^2 ),

so no quartic ever needs to be solved numerically.  The closed form is
written once over arrays of (q, p01, p11); the numeric route kept alongside
as an oracle is LAPACK's symmetric eigensolver (numpy.linalg.eigvalsh), which
takes a whole stack of Jacobians at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import AlphaZero, DomainError, EmptyWindow, NotSymmetric
from .fields import RHO_MIN, MeridionalField
from .quaternion import Quaternion

__all__ = [
    "SpectralReport",
    "Jacobian4",
    "jacobian",
    "jacobian_stack",
    "invariants",
    "closed_spectrum",
    "eigen_closed",
    "eigen_numeric",
    "degenerate_set",
    "zero_divergence_scan",
    "critical_points",
    "CriticalPoint",
    "LevelChain",
    "DEGENERACY_RTOL",
]

DEGENERACY_RTOL = 1e-9

Jacobian4 = np.ndarray  # symmetric 4x4, float64


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues (ascending), principal invariants, degeneracy flag.

    pair_eigenvalue records the closed-form double eigenvalue Vrho/rho
    (multiplicity 2); it is None on the numeric route, which cannot
    attribute multiplicity exactly.  For a stack of matrices (eigen_numeric
    on an (..., 4, 4) array) lambdas and invariants are (..., 4) arrays and
    degenerate is a boolean array.
    """
    lambdas: Tuple[float, float, float, float]
    invariants: Tuple[float, float, float, float]
    degenerate: bool
    method: str
    pair_eigenvalue: Optional[float] = None

    def char_residuals(self) -> Tuple[float, float, float, float]:
        """Vieta residuals |e_k(lambdas) - invariant_k| (diagnostic)."""
        l0, l1, l2, l3 = self.lambdas
        e1 = l0 + l1 + l2 + l3
        e2 = (l0 * l1 + l0 * l2 + l0 * l3 + l1 * l2 + l1 * l3 + l2 * l3)
        e3 = (l0 * l1 * l2 + l0 * l1 * l3 + l0 * l2 * l3 + l1 * l2 * l3)
        e4 = l0 * l1 * l2 * l3
        i1, i2, i3, i4 = self.invariants
        return (abs(e1 - i1), abs(e2 - i2), abs(e3 - i3), abs(e4 - i4))


def _meridian_data(f: MeridionalField, x: Quaternion):
    rho = x.rho()
    if rho < RHO_MIN:
        raise DomainError(f"rho = {rho:g} below the domain floor {RHO_MIN:g}")
    q = f.Vrho(x.x0, rho) / rho
    p01 = f.dVrho_dx0(x.x0, rho)
    p11 = f.dVrho_drho(x.x0, rho)
    return rho, q, p01, p11


def jacobian_stack(alpha: float, q, p01, p11, axis) -> np.ndarray:
    """Symmetric Jacobians (..., 4, 4) from meridian data arrays q, p01, p11.

    axis holds the components (..., 3) of the unit vector x_m / rho of each
    point (broadcast against the data).
    """
    u = np.asarray(axis, dtype=float)
    q, p01, p11 = (np.asarray(v, dtype=float)[..., None] for v in (q, p01, p11))
    J = np.empty(np.broadcast_shapes(q.shape[:-1], u.shape[:-1]) + (4, 4))
    J[..., 0, 0] = (-p11 + (alpha - 2.0) * q)[..., 0]
    J[..., 0, 1:] = J[..., 1:, 0] = p01 * u
    J[..., 1:, 1:] = (p11 - q)[..., None] * (u[..., :, None] * u[..., None, :])
    J[..., [1, 2, 3], [1, 2, 3]] = p11 * u * u + q * (1.0 - u * u)
    return J


def jacobian(f: MeridionalField, x: Quaternion) -> Jacobian4:
    """Assemble the symmetric 4x4 Jacobian of the lifted field at x."""
    rho, q, p01, p11 = _meridian_data(f, x)
    return jacobian_stack(f.alpha, q, p01, p11, (x.x1 / rho, x.x2 / rho, x.x3 / rho))


def _check_symmetric(J) -> np.ndarray:
    J = np.asarray(J, dtype=float)
    if J.shape[-2:] != (4, 4):
        raise NotSymmetric("expected a 4x4 matrix or a stack of them")
    if not np.all(np.isfinite(J)):
        raise DomainError("matrix has non-finite entries")
    scale = np.maximum(1.0, np.max(np.abs(J), axis=(-2, -1)))
    if np.any(np.max(np.abs(J - np.swapaxes(J, -1, -2)), axis=(-2, -1)) > 1e-12 * scale):
        raise NotSymmetric("matrix is not symmetric")
    return J


def invariants(J):
    """Principal invariants (I, II, III, IV) of a symmetric 4x4 matrix.

    These are the elementary symmetric functions of the eigenvalues,
    written as explicit polynomials in the entries: trace, the sum of 2x2
    principal minors, the sum of 3x3 principal minors, and the determinant.
    On an (..., 4, 4) stack each invariant is an array over the stack.
    """
    J = _check_symmetric(J)
    d = [J[..., i, i] for i in range(4)]
    o = {(i, j): J[..., i, j] for i in range(4) for j in range(i + 1, 4)}

    inv1 = d[0] + d[1] + d[2] + d[3]

    inv2 = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            inv2 += d[i] * d[j] - o[(i, j)] ** 2

    inv3 = 0.0
    for tri in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        i, j, k = tri
        inv3 += (d[i] * d[j] * d[k]
                 + 2.0 * o[(i, j)] * o[(i, k)] * o[(j, k)]
                 - d[i] * o[(j, k)] ** 2 - d[j] * o[(i, k)] ** 2
                 - d[k] * o[(i, j)] ** 2)

    J01, J02, J03 = o[(0, 1)], o[(0, 2)], o[(0, 3)]
    J12, J13, J23 = o[(1, 2)], o[(1, 3)], o[(2, 3)]
    J00, J11, J22, J33 = d
    inv4 = (J00 * J11 * J22 * J33
            + 2.0 * (J00 * J12 * J13 * J23 + J01 * J02 * J12 * J33
                     + J02 * J03 * J23 * J11 + J01 * J03 * J13 * J22)
            + (J01 * J23) ** 2 + (J02 * J13) ** 2 + (J03 * J12) ** 2
            - 2.0 * (J01 * J03 * J12 * J23 + J01 * J02 * J13 * J23
                     + J02 * J03 * J12 * J13)
            - J00 * J11 * J23 ** 2 - J00 * J22 * J13 ** 2 - J00 * J33 * J12 ** 2
            - J11 * J22 * J03 ** 2 - J11 * J33 * J02 ** 2 - J22 * J33 * J01 ** 2)
    out = (inv1, inv2, inv3, inv4)
    return tuple(float(v) for v in out) if J.ndim == 2 else out


def _degenerate(lams: np.ndarray) -> np.ndarray:
    """min |lambda| <= DEGENERACY_RTOL * max(1, ||lambda||) along the last axis."""
    frob = np.linalg.norm(lams, axis=-1)
    return np.min(np.abs(lams), axis=-1) <= DEGENERACY_RTOL * np.maximum(1.0, frob)


def closed_spectrum(alpha: float, q, p01, p11):
    """Closed-form spectrum over arrays of meridian data q, p01, p11.

    Returns the eigenvalues (..., 4) in ascending order, the invariants
    (..., 4) and the degeneracy mask (...).  Raises DomainError when any of
    them is not finite.
    """
    q, p01, p11 = (np.asarray(v, dtype=float) for v in (q, p01, p11))
    with np.errstate(all="ignore"):
        half = 0.5 * (alpha - 2.0) * q
        rad = np.sqrt((half - p11) ** 2 + p01 ** 2)
        lams = np.sort(np.stack((q, q, half - rad, half + rad), axis=-1), axis=-1)
        s = p01 ** 2 + p11 ** 2
        inv = np.stack((
            alpha * q,
            -s + (alpha - 2.0) * q * p11 + (2.0 * alpha - 3.0) * q ** 2,
            -2.0 * q * s + (alpha - 2.0) * q ** 2 * (2.0 * p11 + q),
            -q ** 2 * s + (alpha - 2.0) * q ** 3 * p11), axis=-1)
        degenerate = _degenerate(lams)
    if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(inv))):
        raise DomainError("closed-form spectrum overflows")
    return lams, inv, degenerate


def eigen_closed(f: MeridionalField, x: Quaternion) -> SpectralReport:
    """Closed-form spectrum of the meridional Jacobian at x."""
    _, q, p01, p11 = _meridian_data(f, x)
    lams, inv, degenerate = closed_spectrum(f.alpha, q, p01, p11)
    return SpectralReport(tuple(lams.tolist()), tuple(inv.tolist()), bool(degenerate),
                          "closed", pair_eigenvalue=q)


def eigen_numeric(J) -> SpectralReport:
    """LAPACK eigvalsh spectrum (independent oracle) of a symmetric 4x4
    matrix, or of each matrix of an (..., 4, 4) stack."""
    J = _check_symmetric(J)
    lams = np.linalg.eigvalsh(J)
    inv = invariants(J)
    if J.ndim == 2:
        return SpectralReport(tuple(lams.tolist()), inv, bool(_degenerate(lams)), "eigvalsh")
    return SpectralReport(lams, np.stack(inv, axis=-1), _degenerate(lams), "eigvalsh")


# ---------------------------------------------------------------------------
# level sets, zero-divergence scan, critical points
# ---------------------------------------------------------------------------

Window = Tuple[float, float, float, float]  # x0_lo, x0_hi, rho_lo, rho_hi


@dataclass
class LevelChain:
    """A polyline on which one degeneracy equation vanishes."""
    equation: str  # 'Vrho' or 'E2'
    points: List[Tuple[float, float]]


def _check_window(window: Window, grid: Tuple[int, int]) -> None:
    x0_lo, x0_hi, rho_lo, rho_hi = window
    nx, nr = grid
    if nx < 2 or nr < 2 or x0_lo >= x0_hi or rho_lo >= rho_hi:
        raise EmptyWindow(f"window {window} with grid {grid} has no interior")
    if rho_lo < RHO_MIN:
        raise DomainError(f"window reaches below the rho floor {RHO_MIN:g}")


def _bisect_edge(fn, pa, pb, fa, fb, tol=1e-10, max_iter=200):
    """Bisection along the segment pa-pb for a sign change of fn."""
    (xa, ra), (xb, rb) = pa, pb
    for _ in range(max_iter):
        xm, rm = 0.5 * (xa + xb), 0.5 * (ra + rb)
        fm = fn(xm, rm)
        if abs(fm) <= tol:
            return (xm, rm)
        if (fa < 0.0) != (fm < 0.0):
            xb, rb, fb = xm, rm, fm
        else:
            xa, ra, fa = xm, rm, fm
        if abs(xb - xa) + abs(rb - ra) < 1e-15 * (1.0 + abs(xa) + abs(ra)):
            break
    return (0.5 * (xa + xb), 0.5 * (ra + rb))


def _grid_crossings(fn, window: Window, grid: Tuple[int, int]):
    """Marching-squares style segments of the zero set of fn on the window.

    The node table is filled row by row in rho, so that a field's radial
    memo (see fields.from_separable) serves a whole row.  Each cell walks
    its four edges; an edge is bisected once, keyed by its unordered pair
    of nodes, and the cell that shares it reuses the result.  Both
    orientations of an edge visit the same midpoints and keep the same
    half (the end values have opposite signs), so the shared result is the
    one either cell would compute (the stall stop of _bisect_edge reads one
    end's coordinates, so the two could differ only on a last-bit tie after
    some fifty halvings).
    """
    x0_lo, x0_hi, rho_lo, rho_hi = window
    nx, nr = grid
    xs = [x0_lo + (x0_hi - x0_lo) * i / (nx - 1) for i in range(nx)]
    rs = [rho_lo + (rho_hi - rho_lo) * j / (nr - 1) for j in range(nr)]
    rows = [[fn(x, r) for x in xs] for r in rs]  # rows[j][i] = fn(xs[i], rs[j])

    bisected = {}
    segments = []
    for i in range(nx - 1):
        for j in range(nr - 1):
            nodes = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            corners = [(xs[a], rs[b]) for a, b in nodes]
            f = [rows[b][a] for a, b in nodes]
            crossings = []
            for e in range(4):
                a, b = e, (e + 1) % 4
                if f[a] == 0.0:
                    crossings.append(corners[a])
                elif (f[a] < 0.0) != (f[b] < 0.0):
                    edge = frozenset((nodes[a], nodes[b]))
                    if edge not in bisected:
                        bisected[edge] = _bisect_edge(fn, corners[a], corners[b], f[a], f[b])
                    crossings.append(bisected[edge])
            # dedupe corner hits
            uniq = []
            for c in crossings:
                if all(abs(c[0] - u[0]) + abs(c[1] - u[1]) > 1e-12 for u in uniq):
                    uniq.append(c)
            if len(uniq) >= 2:
                # ambiguous 4-crossing cells get paired in sequence
                for a, b in zip(uniq[0::2], uniq[1::2]):
                    segments.append((a, b))
    return segments


def _stitch(segments) -> List[List[Tuple[float, float]]]:
    """Join segments sharing endpoints (1e-9 proximity) into polylines."""
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    unused = list(segments)
    chains = []
    while unused:
        a, b = unused.pop()
        chain = [a, b]
        grew = True
        while grew:
            grew = False
            for idx, (c, d) in enumerate(unused):
                if key(c) == key(chain[-1]):
                    chain.append(d); unused.pop(idx); grew = True; break
                if key(d) == key(chain[-1]):
                    chain.append(c); unused.pop(idx); grew = True; break
                if key(c) == key(chain[0]):
                    chain.insert(0, d); unused.pop(idx); grew = True; break
                if key(d) == key(chain[0]):
                    chain.insert(0, c); unused.pop(idx); grew = True; break
        chains.append(chain)
    return chains


def degenerate_set(f: MeridionalField, window: Window,
                   grid: Tuple[int, int] = (40, 40)) -> List[LevelChain]:
    """Approximate the degenerate set in the meridian half plane.

    The spectrum degenerates exactly where Vrho = 0 (the double eigenvalue
    vanishes) or where E2 = p01^2 + p11^2 - (alpha-2) q p11 = 0 (the product
    lambda_2 lambda_3 vanishes; det J = -q^2 E2).  Both loci are located by
    grid sign changes plus bisection along cell edges and returned as
    polylines tagged by their defining equation.
    """
    _check_window(window, grid)
    alpha = f.alpha

    def e1(x0: float, rho: float) -> float:
        return f.Vrho(x0, rho)

    def e2(x0: float, rho: float) -> float:
        q = f.Vrho(x0, rho) / rho
        p01 = f.dVrho_dx0(x0, rho)
        p11 = f.dVrho_drho(x0, rho)
        return p01 ** 2 + p11 ** 2 - (alpha - 2.0) * q * p11

    out: List[LevelChain] = []
    for tag, fn in (("Vrho", e1), ("E2", e2)):
        for chain in _stitch(_grid_crossings(fn, window, grid)):
            out.append(LevelChain(tag, chain))
    return out


@dataclass
class ZeroDivergencePoint:
    x0: float
    rho: float
    det: float
    det_bound: float
    consistent: bool


def zero_divergence_scan(f: MeridionalField, window: Window,
                         grid: Tuple[int, int] = (40, 40)) -> List[ZeroDivergencePoint]:
    """Points where div V = alpha Vrho/rho vanishes, with the degeneracy check.

    Since div V = alpha q and the determinant is q^2 (lam2 lam3), every zero
    of the divergence (alpha != 0) must kill the determinant; each located
    zero is reported with |det J| and the tolerance 1e-8 ||J||_F^4 it is
    checked against.
    """
    if f.alpha == 0.0:
        raise AlphaZero("divergence vanishes identically at alpha = 0")
    _check_window(window, grid)

    points: List[ZeroDivergencePoint] = []
    segments = _grid_crossings(lambda x0, rho: f.Vrho(x0, rho), window, grid)
    seen = []
    for seg in segments:
        for (x0, rho) in seg:
            if any(abs(x0 - a) + abs(rho - b) < 1e-8 for a, b in seen):
                continue
            seen.append((x0, rho))
            x = Quaternion(x0, rho, 0.0, 0.0)
            J = jacobian(f, x)
            det = invariants(J)[3]
            frob = float(np.sqrt(np.sum(np.asarray(J) ** 2)))
            bound = 1e-8 * max(frob, 1e-300) ** 4
            points.append(ZeroDivergencePoint(x0, rho, det, bound, abs(det) <= bound))
    return points


@dataclass
class CriticalPoint:
    x0: float
    rho: float
    report: SpectralReport


def critical_points(f: MeridionalField, window: Window,
                    grid: Tuple[int, int] = (12, 12),
                    max_iter: int = 50) -> List[CriticalPoint]:
    """Newton search for V = 0 seeded on a coarse grid.

    The Newton matrix is the analytic meridian-plane Jacobian
    [[dV0/dx0, dV0/drho], [dVrho/dx0, dVrho/drho]]; diverging or singular
    seeds are dropped silently, converged points deduplicated to 1e-8.
    """
    _check_window(window, grid)
    x0_lo, x0_hi, rho_lo, rho_hi = window
    nx, nr = grid
    span = max(x0_hi - x0_lo, rho_hi - rho_lo)

    # field scale for the convergence test (rho outer: the radial memo of a
    # separable field serves a row; the max does not depend on the order)
    scale = 0.0
    for j in range(nr):
        for i in range(nx):
            xs = x0_lo + (x0_hi - x0_lo) * i / (nx - 1)
            rs = rho_lo + (rho_hi - rho_lo) * j / (nr - 1)
            try:
                scale = max(scale, abs(f.V0(xs, rs)), abs(f.Vrho(xs, rs)))
            except DomainError:
                continue
    vtol = 1e-12 * max(1.0, scale)

    found: List[CriticalPoint] = []
    for i in range(nx):
        for j in range(nr):
            x0 = x0_lo + (x0_hi - x0_lo) * i / (nx - 1)
            rho = rho_lo + (rho_hi - rho_lo) * j / (nr - 1)
            ok = False
            for _ in range(max_iter):
                try:
                    v0 = f.V0(x0, rho)
                    vr = f.Vrho(x0, rho)
                    if math.hypot(v0, vr) <= vtol:
                        ok = True
                        break
                    a = f.dV0_dx0(x0, rho)
                    b = f.dVrho_dx0(x0, rho)  # = dV0/drho by symmetry of g
                    c = f.dVrho_drho(x0, rho)
                except DomainError:
                    break
                det = a * c - b * b
                if det == 0.0 or not math.isfinite(det):
                    break
                dx = (c * v0 - b * vr) / det
                dr = (a * vr - b * v0) / det
                step = math.hypot(dx, dr)
                if step > span:
                    break  # Newton divergence: abandon the seed
                x0 -= dx
                rho -= dr
                if rho < RHO_MIN or not (x0_lo - span <= x0 <= x0_hi + span):
                    break
            if not ok:
                continue
            if not (x0_lo - 1e-9 <= x0 <= x0_hi + 1e-9
                    and rho_lo - 1e-9 <= rho <= rho_hi + 1e-9):
                continue
            if any(abs(x0 - cp.x0) + abs(rho - cp.rho) < 1e-8 for cp in found):
                continue
            found.append(CriticalPoint(
                x0, rho, eigen_closed(f, Quaternion(x0, rho, 0.0, 0.0))))
    found.sort(key=lambda cp: (cp.x0, cp.rho))
    return found
