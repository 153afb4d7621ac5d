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
import sys
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
    "grid_nodes",
    "CriticalPoint",
    "LevelChain",
    "DEGENERACY_RTOL",
]

DEGENERACY_RTOL = 1e-9
_EDGE_TOL, _EDGE_PASSES = 1e-10, 200  # _edge_roots: |fn| that counts as a root, pass cap

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

    def char_residuals(self):
        """Vieta residuals |e_k(lambdas) - invariant_k| (diagnostic), floats for
        one matrix and arrays over a stack; e_k <- e_k + lambda e_{k-1} takes
        the eigenvalues one at a time along the last axis."""
        lams, inv = np.asarray(self.lambdas, dtype=float), np.asarray(self.invariants, dtype=float)
        e = [1.0, 0.0, 0.0, 0.0, 0.0]
        for lam in np.moveaxis(lams, -1, 0):
            for k in (4, 3, 2, 1):
                e[k] = e[k] + lam * e[k - 1]
        res = tuple(np.abs(e[k] - inv[..., k - 1]) for k in (1, 2, 3, 4))
        return tuple(map(float, res)) if lams.ndim == 1 else res


def _meridian_data(f: MeridionalField, x: Quaternion):
    if not all(map(math.isfinite, x.components())):
        raise DomainError(f"non-finite point {x.components()}")
    rho = x.rho()
    vrho, p01, p11 = f.at(("Vrho", "dVrho_dx0", "dVrho_drho"), x.x0, rho)
    return rho, vrho / rho, p01, p11


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
    """Principal invariants (I, II, III, IV) of a symmetric 4x4 matrix: the
    elementary symmetric functions of its eigenvalues, by the Faddeev-LeVerrier
    recurrence P_1 = J, c_k = -tr(P_k)/k, P_{k+1} = J (P_k + c_k 1),
    invariant k = (-1)^k c_k.  Floats for one matrix, arrays over an
    (..., 4, 4) stack; DomainError when one overflows."""
    J = _check_symmetric(J)
    out, P = [], J
    with np.errstate(all="ignore"):  # an overflowing invariant is inf or nan
        for k in (1, 2, 3, 4):
            c = -np.trace(P, axis1=-2, axis2=-1) / k
            out.append(-c if k % 2 else c)
            if k < 4:
                P = J @ (P + np.multiply.outer(c, np.eye(4)))
    if not all(np.all(np.isfinite(v)) for v in out):
        raise DomainError("principal invariants overflow")
    return tuple(float(v) for v in out) if J.ndim == 2 else tuple(out)


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


def _closed_report(alpha: float, q: float, p01: float, p11: float) -> SpectralReport:
    lams, inv, degenerate = closed_spectrum(alpha, q, p01, p11)
    return SpectralReport(tuple(lams.tolist()), tuple(inv.tolist()), bool(degenerate),
                          "closed", pair_eigenvalue=q)


def eigen_closed(f: MeridionalField, x: Quaternion) -> SpectralReport:
    """Closed-form spectrum of the meridional Jacobian at x."""
    _, q, p01, p11 = _meridian_data(f, x)
    return _closed_report(f.alpha, q, p01, p11)


def eigen_numeric(J) -> SpectralReport:
    """LAPACK eigvalsh spectrum (independent oracle) of a symmetric 4x4
    matrix, or of each matrix of an (..., 4, 4) stack."""
    J = np.asarray(J, dtype=float)
    inv = invariants(J)  # checks J
    lams = np.linalg.eigvalsh(J)
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


_MAX_NODES = sys.maxsize // 8  # float64 values in one array: numpy caps it at sys.maxsize bytes


def grid_nodes(window: Window, grid: Tuple[int, int]):
    """The nodes of an nx x nr grid on a window, bounds included: the axis coordinates
    xs and rs (lists), and every node's x0 and rho as flat arrays in x0-major order.
    The one check of a window, before any node is built: each axis (named in the
    message) needs finite bounds, n >= 2 and lo < hi (else EmptyWindow), n < 10**20
    (a longer count is not echoed) and a finite span (hi - lo)*(n - 1), its last
    node's; rho_lo >= RHO_MIN, nx*nr <= _MAX_NODES."""
    x0_lo, x0_hi, rho_lo, rho_hi = window
    nx, nr = grid
    for label, lo, hi, n in (("x0", x0_lo, x0_hi, nx), ("rho", rho_lo, rho_hi, nr)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"{label} axis bounds must be finite")
        if n < 2:
            raise EmptyWindow(f"{label} axis needs n >= 2, got {n}")
        if not lo < hi:
            raise EmptyWindow(f"{label} axis needs lo < hi")
        if n >= 10 ** 20:
            raise DomainError(f"{label} axis has more nodes than one array can address")
        if not math.isfinite((hi - lo) * (n - 1)):
            raise DomainError(f"{label} axis span (hi - lo)*(n - 1) overflows")
    if rho_lo < RHO_MIN:
        raise DomainError(f"rho axis starts below the domain floor {RHO_MIN:g}")
    if nx * nr > _MAX_NODES:
        raise DomainError(f"grid {nx} x {nr} has more nodes than one array can address")
    xs = x0_lo + (x0_hi - x0_lo) * np.arange(nx) / (nx - 1)
    rs = rho_lo + (rho_hi - rho_lo) * np.arange(nr) / (nr - 1)
    x0, rho = (v.ravel() for v in np.meshgrid(xs, rs, indexing="ij"))
    return xs.tolist(), rs.tolist(), x0, rho


def _distinct(points) -> List[Tuple[float, float]]:
    """The points in order, each kept when it lies 1e-8 or more (L1) from all kept before."""
    kept: List[Tuple[float, float]] = []
    for x, r in points:
        if all(abs(x - a) + abs(r - b) >= 1e-8 for a, b in kept):
            kept.append((x, r))
    return kept


def _edge_roots(fn, edges):
    """Illinois false position on every edge (eq, pa, pb, fa, fb) for a sign
    change of equation eq of fn, all edges at once: each pass calls fn once,
    at s = fa/(fa - fb) along each edge still open (at its midpoint where s is
    not in (0, 1)), and halves the stored value of an end kept two passes in
    a row (Dowell & Jarratt 1971).  An edge stops where |fn| <= _EDGE_TOL at
    the new point, or at its midpoint (ends halved first, so no sum overflows)
    where its two ends stall or _EDGE_PASSES passes are spent."""
    eq, (xa, ra), (xb, rb), fa, fb = (np.array(v).T for v in zip(*edges))
    out = np.empty((len(edges), 2))
    open_, kept_a = np.arange(len(edges)), np.full(len(edges), np.nan)  # nan: no pass yet
    for _ in range(_EDGE_PASSES):
        if not open_.size:
            break
        s = fa / (fa - fb)
        s = np.where((s > 0.0) & (s < 1.0), s, 0.5)
        xm, rm = xa + s * (xb - xa), ra + s * (rb - ra)
        fm = fn(xm, rm)[eq, np.arange(open_.size)]
        hit = np.abs(fm) <= _EDGE_TOL
        out[open_[hit]] = np.stack((xm, rm), axis=-1)[hit]
        flip = (fa < 0.0) != (fm < 0.0)  # the new point replaces b, and a is kept
        twice = flip == kept_a  # the end kept last pass is kept again: halve its value
        fa, fb = np.where(twice & flip, 0.5 * fa, fa), np.where(twice & ~flip, 0.5 * fb, fb)
        xb, rb, fb = np.where(flip, xm, xb), np.where(flip, rm, rb), np.where(flip, fm, fb)
        xa, ra, fa = np.where(flip, xa, xm), np.where(flip, ra, rm), np.where(flip, fa, fm)
        gap = np.abs(xb - xa) + np.abs(rb - ra)
        stall = ~hit & (gap < 1e-15 * (1.0 + np.abs(xa) + np.abs(ra)))
        out[open_[stall]] = np.stack((0.5 * xa + 0.5 * xb, 0.5 * ra + 0.5 * rb), axis=-1)[stall]
        keep = ~(hit | stall)
        open_, eq, xa, ra, xb, rb, fa, fb, kept_a = (
            v[keep] for v in (open_, eq, xa, ra, xb, rb, fa, fb, flip))
    out[open_] = np.stack((0.5 * xa + 0.5 * xb, 0.5 * ra + 0.5 * rb), axis=-1)
    return [tuple(p) for p in out.tolist()]


def _grid_crossings(fn, window: Window, grid: Tuple[int, int]):
    """Marching-squares style segments of the zero sets of one or more
    equations on the window, one list of segments per equation.

    fn maps arrays of x0 and rho to the equations' values there (equations
    x points); the node table is one call.  For each equation the cells are
    taken x0-outer, and each cell walks its four edges in turn.  A zero node
    is a crossing itself, and an edge with a zero end has no sign change.  An
    edge with a sign change is solved once, from its lower (i, j) node to its
    higher one whichever cell finds it (false position, unlike bisection, is
    not symmetric in its ends), and the cell that shares it reuses the root;
    the edges of every equation are solved in one batch (_edge_roots).  A
    segment that two cells find (an edge on the zero set) is kept once.
    """
    xs, rs, x0, rho = grid_nodes(window, grid)
    tables = fn(x0, rho).reshape(-1, *grid)  # [eq, i, j] at (xs[i], rs[j])

    edge_index, edges, cells = {}, [], []
    for eq, F in enumerate(tables):
        # only cells with a zero corner or a sign change yield crossings
        corner = (F[:-1, :-1], F[1:, :-1], F[1:, 1:], F[:-1, 1:])
        neg = [c < 0.0 for c in corner]
        busy = (neg[0] != neg[1]) | (neg[1] != neg[2]) | (neg[2] != neg[3])
        for c in corner:
            busy |= c == 0.0
        vals = F.tolist()
        for i, j in zip(*(v.tolist() for v in np.nonzero(busy))):
            nodes = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            corners = [(xs[a], rs[b]) for a, b in nodes]
            f = [vals[a][b] for a, b in nodes]
            crossings = []  # a corner, or the index of a solved edge
            for e in range(4):
                a, b = e, (e + 1) % 4
                if f[a] == 0.0:
                    crossings.append(corners[a])
                elif f[b] != 0.0 and (f[a] < 0.0) != (f[b] < 0.0):
                    lo, hi = sorted((a, b), key=nodes.__getitem__)
                    edge = (eq, nodes[lo], nodes[hi])
                    if edge not in edge_index:
                        edge_index[edge] = len(edges)
                        edges.append((eq, corners[lo], corners[hi], f[lo], f[hi]))
                    crossings.append(edge_index[edge])
            cells.append((eq, crossings))

    roots = _edge_roots(fn, edges) if edges else []
    segments = [{} for _ in tables]  # each segment keyed by its two points
    for eq, crossings in cells:
        # dedupe corner hits
        uniq = []
        for c in crossings:
            c = roots[c] if isinstance(c, int) else c
            if all(abs(c[0] - u[0]) + abs(c[1] - u[1]) > 1e-12 for u in uniq):
                uniq.append(c)
        # ambiguous 4-crossing cells get paired in sequence
        for seg in zip(uniq[0::2], uniq[1::2]):
            segments[eq].setdefault(frozenset(seg), seg)
    return [list(kept.values()) for kept in segments]


def _stitch(segments) -> List[List[Tuple[float, float]]]:
    """Join segments sharing endpoints (1e-9 proximity) into polylines.

    A chain starts from the last unused segment and grows by the unused
    segment of lowest index that touches either of its ends (its end before
    its start, and a segment's first point before its second); segments
    are found through an index of their rounded endpoints.
    """
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    touching = {}
    for idx, (c, d) in enumerate(segments):
        for k in {key(c), key(d)}:
            touching.setdefault(k, []).append(idx)
    used = [False] * len(segments)
    chains = []
    for top in range(len(segments) - 1, -1, -1):
        if used[top]:
            continue
        used[top] = True
        a, b = segments[top]
        chain = [a, b]
        while True:
            head, tail = key(chain[0]), key(chain[-1])
            idx = min((i for k in (head, tail) for i in touching.get(k, ()) if not used[i]),
                      default=None)
            if idx is None:
                break
            used[idx] = True
            c, d = segments[idx]
            if key(c) == tail:
                chain.append(d)
            elif key(d) == tail:
                chain.append(c)
            elif key(c) == head:
                chain.insert(0, d)
            else:
                chain.insert(0, c)
        chains.append(chain)
    return chains


def degenerate_set(f: MeridionalField, window: Window,
                   grid: Tuple[int, int] = (40, 40)) -> List[LevelChain]:
    """Approximate the degenerate set in the meridian half plane.

    The spectrum degenerates exactly where Vrho = 0 (the double eigenvalue
    vanishes) or where E2 = p01^2 + p11^2 - (alpha-2) q p11 = 0 (the product
    lambda_2 lambda_3 vanishes; det J = -q^2 E2).  Both loci are located by
    grid sign changes plus false position along the crossing cell edges
    (_edge_roots) and returned as polylines tagged by their defining equation.
    """
    alpha = f.alpha

    def equations(x0, rho):
        vrho, p01, p11 = f.evaluate(("Vrho", "dVrho_dx0", "dVrho_drho"), x0, rho)
        with np.errstate(all="ignore"):  # a square past the float range is inf, as is E2
            return np.stack((vrho, p01 ** 2 + p11 ** 2 - (alpha - 2.0) * (vrho / rho) * p11))

    out: List[LevelChain] = []
    for tag, segments in zip(("Vrho", "E2"), _grid_crossings(equations, window, grid)):
        out.extend(LevelChain(tag, chain) for chain in _stitch(segments))
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
    segments, = _grid_crossings(lambda x0, rho: np.array(f.evaluate(("Vrho",), x0, rho)),
                                window, grid)
    seen = _distinct(p for seg in segments for p in seg)
    if not seen:
        return []
    x0, rho = np.array(seen).T
    vrho, p01, p11 = f.evaluate(("Vrho", "dVrho_dx0", "dVrho_drho"), x0, rho)
    # the points lie on the e1 axis of R^4: x = (x0, rho, 0, 0)
    J = jacobian_stack(f.alpha, vrho / rho, p01, p11, (1.0, 0.0, 0.0))
    det = invariants(J)[3]
    with np.errstate(all="ignore"):  # an overflowing bound is inf
        bound = 1e-8 * np.sqrt(np.sum(J ** 2, axis=(-2, -1))) ** 4
    return [ZeroDivergencePoint(a, b, d, t, abs(d) <= t)
            for a, b, d, t in zip(x0.tolist(), rho.tolist(), det.tolist(), bound.tolist())]


@dataclass
class CriticalPoint:
    x0: float
    rho: float
    report: SpectralReport


_NEWTON = ("V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho")
_NEWTON_STEPS = 50


def critical_points(f: MeridionalField, window: Window,
                    grid: Tuple[int, int] = (12, 12)) -> List[CriticalPoint]:
    """Newton search for V = 0 seeded on a coarse grid.

    The Newton matrix is the analytic meridian-plane Jacobian
    [[dV0/dx0, dV0/drho], [dVrho/dx0, dVrho/drho]].  All seeds step at once,
    one evaluate per step, for at most _NEWTON_STEPS steps.  A seed is
    dropped silently where the field is not finite, the matrix is singular,
    the step exceeds the window's span, the iterate leaves the rho floor or
    the widened window, or the steps run out; converged points are
    deduplicated to 1e-8 in seed order (x0-outer).
    """
    _, _, x0, rho = grid_nodes(window, grid)
    x0_lo, x0_hi, rho_lo, rho_hi = window
    span = max(x0_hi - x0_lo, rho_hi - rho_lo)

    live = np.arange(x0.size)  # seeds still stepping
    ok = np.zeros(x0.size, dtype=bool)
    vtol = None
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        v0, vr, a, b, c = f.evaluate(_NEWTON, x0[live], rho[live], check=False)
        if vtol is None:  # field scale for the convergence test, over the finite seeds
            finite = np.isfinite(v0) & np.isfinite(vr)
            scale = float(np.max(np.abs(np.concatenate((v0[finite], vr[finite]))), initial=0.0))
            vtol = 1e-12 * max(1.0, scale)
        # b = dVrho/dx0 = dV0/drho by symmetry of g; hypot scales, so no square overflows
        with np.errstate(all="ignore"):
            done = np.hypot(v0, vr) <= vtol
            det = a * c - b * b
            dx = (c * v0 - b * vr) / det
            dr = (a * vr - b * v0) / det
            step = np.hypot(dx, dr)
        ok[live[done]] = True
        going = ~done & (det != 0.0) & np.isfinite(det) & ~(step > span)
        live, xn, rn = live[going], x0[live][going] - dx[going], rho[live][going] - dr[going]
        x0[live], rho[live] = xn, rn
        inside = (rn >= RHO_MIN) & (x0_lo - span <= xn) & (xn <= x0_hi + span)
        live = live[inside]

    found = _distinct((x, r) for x, r in zip(x0[ok].tolist(), rho[ok].tolist())
                      if x0_lo - 1e-9 <= x <= x0_hi + 1e-9 and rho_lo - 1e-9 <= r <= rho_hi + 1e-9)
    if not found:
        return []
    px, pr = np.array(found).T
    vrho, p01, p11 = f.evaluate(("Vrho", "dVrho_dx0", "dVrho_drho"), px, pr)
    data = zip(px.tolist(), pr.tolist(), (vrho / pr).tolist(), p01.tolist(), p11.tolist())
    return sorted((CriticalPoint(x, r, _closed_report(f.alpha, q, s, t))
                   for x, r, q, s, t in data), key=lambda cp: (cp.x0, cp.rho))
