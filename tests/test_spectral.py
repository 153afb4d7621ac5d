import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meridian4.quaternion import Quaternion
from meridian4.holomorphic import moebius_potential, qexp, qpow
from meridian4.fields import (MeridionalField, MeridionalProfile, SeparableParams,
                              from_holomorphic_potential, from_separable)
from meridian4 import spectral
from meridian4.spectral import (
    DEGENERACY_RTOL,
    critical_points,
    degenerate_set,
    eigen_closed,
    eigen_numeric,
    invariants,
    jacobian,
    zero_divergence_scan,
)
from meridian4.errors import AlphaZero, DomainError, EmptyWindow, NotSymmetric

SQRT_2_OVER_PI = 0.7978845608028654


def _half_square():
    return from_holomorphic_potential(0.5 * qpow(2))


def _sin_field():
    # nu = 1/2 collapses the radial factor: g = sqrt(2/pi) cosh(x0) sin(rho)
    return from_separable(SeparableParams(alpha=2.0, beta=1.0, b1=1.0, b2=0.0))


def _rand_sym(rng: random.Random) -> np.ndarray:
    A = np.array([[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)])
    return (A + A.T) / 2.0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_of_diagonal():
    J = np.diag([1.0, 2.0, 3.0, 4.0])
    assert invariants(J) == (10.0, 35.0, 50.0, 24.0)


def test_invariants_match_eigvalsh():
    rng = random.Random(19)
    for _ in range(30):
        J = _rand_sym(rng)
        lam = np.linalg.eigvalsh(J)
        e1 = lam.sum()
        e2 = sum(lam[i] * lam[j] for i in range(4) for j in range(i + 1, 4))
        e3 = sum(lam[i] * lam[j] * lam[k]
                 for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))
        e4 = lam.prod()
        got = invariants(J)
        scale = max(1.0, float(np.abs(lam).max())) ** 4
        for a, b in zip(got, (e1, e2, e3, e4)):
            assert abs(a - b) <= 1e-12 * scale


def test_invariants_reject_asymmetric():
    bad = np.diag([1.0, 2.0, 3.0, 4.0])
    bad[0, 1] = 0.5
    with pytest.raises(NotSymmetric):
        invariants(bad)
    with pytest.raises(NotSymmetric):
        invariants(np.eye(3))


def _invariant_error_constants():
    """c_k with |error of invariant k| <= c_k eps ||J||_F^k, derived from the
    Faddeev-LeVerrier steps of spectral.invariants (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3; first order in
    u = eps/2, the O(u^2) terms are far below the slack).

    With s = ||J||_F and the exact P_1 = J, c_k = -tr(P_k)/k,
    B_k = P_k + c_k 1 and P_{k+1} = J B_k:
    - |c_k| = |e_k(lambda)| <= C(4, k) (s/2)^k (Maclaurin, sum |lambda| <= 2 s);
    - B_k has eigenvalues (-1)^k e_k(the other three lambdas), so
      ||B_k||_F <= 2 C(3, k) (s/sqrt 3)^k, and ||P_{k+1}||_F <= s ||B_k||_F.
    Each step's error, in units of eps s^k:
    - the trace of four entries: gamma_3 sum |p_ii| <= 3u 2 ||P_k||_F, plus
      |tr dP| <= 2 ||dP||_F carried in; dividing by k is exact but for k = 3;
    - adding c_k to the diagonal: dP + 2 dc_k carried in, u ||B_k||_F made;
    - the product J B_k: s dB_k carried in, gamma_4 s ||B_k||_F made.
    """
    u = 0.5
    b = [2 * math.comb(3, k) / 3 ** (k / 2) for k in range(4)]
    dP, P, out = 0.0, 1.0, []
    for k in (1, 2, 3, 4):
        dc = (2 * dP + 6 * u * P) / k + (u * math.comb(4, 3) / 8 if k == 3 else 0.0)
        out.append(dc)
        if k < 4:
            dB = dP + 2 * dc + u * b[k]
            dP, P = dB + 4 * u * b[k], b[k]
    return out


def test_invariants_against_mpmath_principal_minors():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    n = 256
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1)[:, None]
    scale = 10.0 ** rng.uniform(-2, 2, n)
    q, p01, p11 = (scale * rng.uniform(-1, 1, n) for _ in range(3))
    stack = spectral.jacobian_stack(rng.uniform(-3, 5), q, p01, p11, axis)
    bound = np.array(_invariant_error_constants()) * np.finfo(float).eps
    got = np.stack(invariants(stack), axis=-1)
    worst = np.zeros(4)
    with mpmath.workdps(40):
        for J, row in zip(stack, got):
            rows = J.tolist()
            exact = [mpmath.fsum(mpmath.det(mpmath.matrix([[rows[i][j] for j in S] for i in S]))
                                 for S in itertools.combinations(range(4), k))
                     for k in (1, 2, 3, 4)]
            frob = np.linalg.norm(J)
            for one in (row, invariants(J)):
                err = [float(abs(mpmath.mpf(v) - e)) for v, e in zip(one, exact)]
                worst = np.maximum(worst, np.array(err) / frob ** np.arange(1, 5))
    assert np.all(worst <= bound), (worst / np.finfo(float).eps, bound / np.finfo(float).eps)


def test_invariants_overflow_is_a_domain_error():
    J = spectral.jacobian_stack(2.5, 1e90, 3e90, -2e90, (0.6, 0.8, 0.0))
    for bad in (J, np.stack((np.eye(4), J, np.eye(4)))):
        with pytest.raises(DomainError, match="principal invariants overflow"):
            invariants(bad)
        with pytest.raises(DomainError, match="principal invariants overflow"):
            eigen_numeric(bad)


def test_eigen_numeric_refuses_non_finite_entries():
    with pytest.raises(DomainError, match="matrix has non-finite entries"):
        eigen_numeric(np.full((4, 4), np.nan))


def test_closed_spectrum_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="closed-form spectrum overflows"):
        spectral.closed_spectrum(2.5, 1e200, 1e200, 1e200)


def test_eigen_numeric_checks_symmetry_once(monkeypatch):
    calls = []
    check = spectral._check_symmetric
    monkeypatch.setattr(spectral, "_check_symmetric", lambda J: calls.append(1) or check(J))
    eigen_numeric(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_char_residuals_on_a_stack(n):
    rng = np.random.default_rng(n)
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1)[:, None]
    stack = spectral.jacobian_stack(2.5, *rng.normal(size=(3, n)), axis)
    rep = eigen_numeric(stack)
    got = rep.char_residuals()
    want = [spectral.SpectralReport(tuple(lams), tuple(inv), False, "eigvalsh").char_residuals()
            for lams, inv in zip(rep.lambdas.tolist(), rep.invariants.tolist())]
    assert len(got) == 4 and all(r.shape == (n,) for r in got)
    assert np.array_equal(np.stack(got, axis=-1), np.array(want))
    assert np.max(got) < 1e-13


# ---------------------------------------------------------------------------
# Jacobian assembly
# ---------------------------------------------------------------------------

def test_jacobian_half_square_is_signature_matrix():
    f = _half_square()
    J = jacobian(f, Quaternion(0, 0, 3, 4))
    assert np.allclose(J, np.diag([1.0, -1.0, -1.0, -1.0]), atol=1e-14)


def test_jacobian_is_exactly_symmetric():
    f = from_holomorphic_potential(qexp())
    for x in (Quaternion(0.3, 0.5, -0.7, 0.2), Quaternion(-1.1, 0.0, 0.4, 0.9)):
        J = jacobian(f, x)
        assert np.array_equal(J, J.T)


def test_jacobian_domain_floor():
    with pytest.raises(DomainError):
        jacobian(_half_square(), Quaternion(1, 0, 0, 0))


# ---------------------------------------------------------------------------
# closed-form spectrum
# ---------------------------------------------------------------------------

def test_moebius_inverse_spectrum():
    # G = -ln z: V = x^{-1} up to embedding; at (1,1) the spectrum is
    # {-1/2, -1/2, -1/2, 1/2} with the double eigenvalue Vrho/rho = -1/2
    f = from_holomorphic_potential(moebius_potential(0.0, 0.0))
    rep = eigen_closed(f, Quaternion(1, 1, 0, 0))
    assert rep.method == "closed"
    assert rep.pair_eigenvalue == pytest.approx(-0.5, abs=1e-14)
    for got, want in zip(rep.lambdas, (-0.5, -0.5, -0.5, 0.5)):
        assert abs(got - want) < 1e-13
    assert not rep.degenerate


@pytest.mark.parametrize("point", [(math.nan, 1.0, 0.0, 0.0), (0.5, 0.8, math.inf, 0.0)])
def test_eigen_closed_names_a_non_finite_point(point):
    # the point is at fault, not an overflow of the closed form
    with pytest.raises(DomainError, match="non-finite point"):
        eigen_closed(from_holomorphic_potential(qexp()), Quaternion(*point))


def test_alpha2_extremes_are_plus_minus_fprime():
    # for a holomorphic potential the straddling pair is +-|F'(z)|
    f = from_holomorphic_potential(qexp())
    for x0, rho in ((0.3, 0.8), (-0.9, 1.4)):
        rep = eigen_closed(f, Quaternion(x0, rho, 0, 0))
        mag = math.exp(x0)  # |exp'| on the lift
        assert abs(rep.lambdas[0] + mag) < 1e-12
        assert abs(rep.lambdas[3] - mag) < 1e-12


def test_alpha0_spectrum_is_traceless():
    f = from_separable(SeparableParams(alpha=0.0, beta=1.2, b1=0.8, b2=0.3))
    rep = eigen_closed(f, Quaternion(0.4, 1.1, 0, 0))
    assert abs(sum(rep.lambdas)) < 1e-12
    assert abs(rep.invariants[0]) < 1e-12


def test_closed_matches_numeric_random_points():
    fields = [
        _half_square(),
        from_holomorphic_potential(qexp()),
        from_holomorphic_potential(moebius_potential(0.25, 1.5)),
        _sin_field(),
        from_separable(SeparableParams(alpha=-2.0, beta=0.7, a1=0.9, a2=0.2, b1=1.0, b2=0.5)),
        from_separable(SeparableParams(alpha=3.0, beta=1.1, b1=0.4, b2=0.6)),
    ]
    rng = random.Random(23)
    for f in fields:
        for _ in range(10):
            x = Quaternion(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.0),
                           rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            closed = eigen_closed(f, x)
            numeric = eigen_numeric(jacobian(f, x))
            scale = 1.0 + max(abs(l) for l in closed.lambdas)
            for a, b in zip(closed.lambdas, numeric.lambdas):
                assert abs(a - b) <= 1e-9 * scale
            for a, b in zip(closed.invariants, numeric.invariants):
                assert abs(a - b) <= 1e-9 * scale ** 4


def test_char_residuals_small():
    f = from_holomorphic_potential(moebius_potential(0.25, 1.5))
    x = Quaternion(0.4, 1.1, 0.2, -0.3)
    for rep in (eigen_closed(f, x), eigen_numeric(jacobian(f, x))):
        assert max(rep.char_residuals()) < 1e-12


def test_numeric_reports_no_pair():
    rep = eigen_numeric(np.diag([4.0, 3.0, 2.0, 1.0]))
    assert rep.method == "eigvalsh"
    assert rep.pair_eigenvalue is None
    assert rep.lambdas == (1.0, 2.0, 3.0, 4.0)


def test_degenerate_flag():
    f = _sin_field()
    # Vrho = sqrt(2/pi) cosh(x0) cos(rho) vanishes on rho = pi/2
    rep = eigen_closed(f, Quaternion(0.7, 0.5 * math.pi, 0, 0))
    assert rep.degenerate
    assert abs(rep.pair_eigenvalue) < 1e-15
    assert abs(rep.invariants[3]) < 1e-15
    ok = eigen_closed(f, Quaternion(0.7, 1.0, 0, 0))
    assert not ok.degenerate
    assert DEGENERACY_RTOL == 1e-9


# ---------------------------------------------------------------------------
# degenerate set / zero-divergence scan / critical points
# ---------------------------------------------------------------------------

def test_degenerate_set_finds_vrho_line():
    f = _sin_field()
    chains = degenerate_set(f, (-1.0, 1.0, 0.5, 2.5), grid=(30, 30))
    vrho_chains = [c for c in chains if c.equation == "Vrho"]
    assert vrho_chains
    pts = [p for c in vrho_chains for p in c.points]
    assert all(abs(r - 0.5 * math.pi) < 1e-6 for _, r in pts)
    xs = sorted(x for x, _ in pts)
    assert xs[0] < -0.9 and xs[-1] > 0.9  # the line crosses the window


def test_degenerate_set_walks_a_zero_node_column_once():
    # Vrho = -6 x0 rho is exactly 0 at the nodes x0 = 0 of a 3 x 3 grid: each
    # zero node is crossed once, and the column, an edge of two cells, is
    # one chain that does not double back
    f = from_holomorphic_potential(qpow(3))
    chains = degenerate_set(f, (-1.0, 1.0, 0.5, 1.5), (3, 3))
    assert [c.equation for c in chains] == ["Vrho"]
    pts = chains[0].points
    assert len(set(pts)) == len(pts)
    assert sorted(pts) == [(0.0, 0.5), (0.0, 1.0), (0.0, 1.5)]


def test_degenerate_set_empty_for_moebius_inverse():
    f = from_holomorphic_potential(moebius_potential(0.0, 0.0))
    assert degenerate_set(f, (-2.0, 2.0, 0.1, 3.0), grid=(20, 20)) == []


def test_window_validation():
    f = _half_square()
    with pytest.raises(EmptyWindow):
        degenerate_set(f, (1.0, -1.0, 0.5, 2.0))
    with pytest.raises(EmptyWindow):
        degenerate_set(f, (-1.0, 1.0, 0.5, 2.0), grid=(1, 5))
    with pytest.raises(DomainError):
        degenerate_set(f, (-1.0, 1.0, 1e-7, 2.0))


@pytest.mark.parametrize("scan", [critical_points, degenerate_set, zero_divergence_scan],
                         ids=lambda scan: scan.__name__)
@pytest.mark.parametrize("window,grid", [
    ((math.nan, 1.0, 0.5, 2.0), (40, 40)), ((-1.0, 1.0, 0.5, math.inf), (40, 40)),
    ((-1e308, 1e308, 0.5, 2.0), (40, 40)),
    ((0.0, 1.0, 1.0, 1e308), (3, 3)),    # the span fits, (hi - lo)*(n - 1) does not
    ((0.0, 1.0, 0.5, 1.0), (10 ** 20, 3)),  # more nodes than one array can address
], ids=[f"window{i}" for i in range(5)])
def test_scans_reject_a_non_finite_window(scan, window, grid):
    # rejected before any field pass, so a NaN bound or an overflowing span
    # cannot pass unchecked
    with pytest.raises(DomainError, match="bounds must be finite|overflows|can address"):
        scan(_sin_field(), window, grid)


def test_zero_divergence_scan_consistency():
    f = _sin_field()
    pts = zero_divergence_scan(f, (-1.0, 1.0, 0.5, 2.5), grid=(25, 25))
    assert pts
    for p in pts:
        assert abs(p.rho - 0.5 * math.pi) < 1e-6
        assert p.consistent
        assert abs(p.det) <= p.det_bound


def test_zero_divergence_scan_empty_when_vrho_never_zero():
    pts = zero_divergence_scan(_half_square(), (-1.0, 1.0, 0.5, 2.0), grid=(15, 15))
    assert pts == []


def test_zero_divergence_alpha_zero():
    f = from_separable(SeparableParams(alpha=0.0, beta=1.0, b1=1.0, b2=0.0))
    with pytest.raises(AlphaZero):
        zero_divergence_scan(f, (-1.0, 1.0, 0.5, 2.0))


def _distinct_all_pairs(points):
    """The rule of spectral._distinct, each point against every kept one."""
    kept = []
    for x, r in points:
        if all(abs(x - a) + abs(r - b) >= 1e-8 for a, b in kept):
            kept.append((x, r))
    return kept


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e8])
def test_distinct_keeps_what_the_all_pairs_rule_keeps(scale):
    # exact repeats, and neighbours at L1 distance 1e-8 give or take a few
    # ulps, split between x0 and rho in any proportion
    rng = random.Random(35)
    for _ in range(20):
        points = []
        for _ in range(150):
            draw = rng.random()
            if points and draw < 0.2:
                points.append(rng.choice(points))
            elif points and draw < 0.8:
                a, b = rng.choice(points)
                x = a + rng.choice((-1, 1)) * rng.random() * 1e-8
                r = b + rng.choice((-1, 1)) * (1e-8 - abs(x - a))
                for _ in range(rng.randint(0, 3)):
                    r = math.nextafter(r, rng.choice((-math.inf, math.inf)))
                points.append((x, r))
            else:
                points.append((rng.uniform(-scale, scale), rng.uniform(0.0, 2.0)))
        assert spectral._distinct(points) == _distinct_all_pairs(points)


def _illinois_edge(fn, pa, pb, fa, fb, tol=1e-10, max_iter=200):
    """Reference Illinois false position along the segment pa-pb for a sign
    change of fn: the next point at s = fa/(fa - fb) (the midpoint where s is
    not in (0, 1)), and an end kept two passes in a row has its value halved."""
    (xa, ra), (xb, rb) = pa, pb
    kept = None
    for _ in range(max_iter):
        s = fa / (fa - fb)
        if not 0.0 < s < 1.0:
            s = 0.5
        xm, rm = xa + s * (xb - xa), ra + s * (rb - ra)
        fm = fn(xm, rm)
        if abs(fm) <= tol:
            return (xm, rm)
        if (fa < 0.0) != (fm < 0.0):
            if kept == "a":
                fa = 0.5 * fa
            xb, rb, fb, kept = xm, rm, fm, "a"
        else:
            if kept == "b":
                fb = 0.5 * fb
            xa, ra, fa, kept = xm, rm, fm, "b"
        if abs(xb - xa) + abs(rb - ra) < 1e-15 * (1.0 + abs(xa) + abs(ra)):
            break
    return (0.5 * (xa + xb), 0.5 * (ra + rb))


def _per_cell_crossings(fn, window, grid):
    """Reference marching squares: fn (the scans' array function) taken one
    point at a time, the node table filled x0-outer, and every cell solving
    each of its own crossing edges from its lower (i, j) node to its higher
    one."""
    x0_lo, x0_hi, rho_lo, rho_hi = window
    nx, nr = grid
    xs = [x0_lo + (x0_hi - x0_lo) * i / (nx - 1) for i in range(nx)]
    rs = [rho_lo + (rho_hi - rho_lo) * j / (nr - 1) for j in range(nr)]
    per_equation = []
    for eq in range(len(fn(np.array(xs[:1]), np.array(rs[:1])))):
        def one(x, r):
            return float(fn(np.array([x]), np.array([r]))[eq, 0])
        vals = [[one(x, r) for r in rs] for x in xs]
        segments = []
        for i in range(nx - 1):
            for j in range(nr - 1):
                nodes = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                corners = [(xs[a], rs[b]) for a, b in nodes]
                f = [vals[a][b] for a, b in nodes]
                crossings = []
                for a in range(4):
                    b = (a + 1) % 4
                    if f[a] == 0.0:
                        crossings.append(corners[a])
                    elif f[b] != 0.0 and (f[a] < 0.0) != (f[b] < 0.0):
                        lo, hi = sorted((a, b), key=nodes.__getitem__)
                        crossings.append(
                            _illinois_edge(one, corners[lo], corners[hi], f[lo], f[hi]))
                uniq = []
                for c in crossings:
                    if all(abs(c[0] - u[0]) + abs(c[1] - u[1]) > 1e-12 for u in uniq):
                        uniq.append(c)
                if len(uniq) >= 2:
                    segments.extend(zip(uniq[0::2], uniq[1::2]))
        per_equation.append(segments)
    return per_equation


@pytest.mark.parametrize("params", [
    SeparableParams(alpha=2.5, beta=1.05, a2=0.4, b1=0.75, b2=0.05),
    SeparableParams(alpha=3.0, beta=1.1, b1=0.7, b2=0.2),
], ids=("a2!=0", "a2=0"))
def test_grid_crossings_solve_each_edge_once(monkeypatch, params):
    batches = []
    edge_roots = spectral._edge_roots

    def recording(fn, edges):
        batches.append([(eq, frozenset((pa, pb))) for eq, pa, pb, _, _ in edges])
        return edge_roots(fn, edges)

    monkeypatch.setattr(spectral, "_edge_roots", recording)
    f = from_separable(params)
    window, grid = (-1.0, 1.0, 0.22, 5.7), (30, 30)
    chains = degenerate_set(f, window, grid)
    zeros = zero_divergence_scan(f, window, grid)
    assert chains and zeros
    assert len(batches) == 2  # one batch per scan
    for edges in batches:
        assert len(edges) == len(set(edges))
    assert {eq for eq, _ in batches[0]} == {0, 1}

    monkeypatch.setattr(spectral, "_grid_crossings", _per_cell_crossings)
    assert degenerate_set(from_separable(params), window, grid) == chains
    assert zero_divergence_scan(from_separable(params), window, grid) == zeros


def test_scans_need_few_field_passes(monkeypatch):
    # false position converges superlinearly: bisection took about 31 passes
    calls = []
    evaluate = MeridionalField.evaluate

    def counting(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(MeridionalField, "evaluate", counting)
    f = from_separable(SeparableParams(alpha=2.5, beta=1.05, a2=0.4, b1=0.75, b2=0.05))
    window, grid = (-1.0, 1.0, 0.22, 5.7), (30, 30)
    assert degenerate_set(f, window, grid)
    assert len(calls) <= 12
    calls.clear()
    assert zero_divergence_scan(f, window, grid)
    assert len(calls) <= 8


def _scan_field(kind, scale, a, b):
    if kind == "holo":  # G' = scale (x^2 + a): Vrho vanishes on x0 = 0
        return from_holomorphic_potential((scale / 3.0) * qpow(3) + (scale * a) * qpow(1))
    if kind == "moebius":  # G' = scale (a - 1/(x + 2b) - 2b x): Vrho vanishes on a circle
        return from_holomorphic_potential(scale * (moebius_potential(a, 2.0 * b) - b * qpow(2)))
    return from_separable(SeparableParams(alpha=1.5 + 2.0 * a, beta=0.8 + 0.4 * b,
                                          a2=0.5 * a, b1=scale, b2=0.1 * b - 0.05))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["holo", "moebius", "separable"]),
       scale=st.sampled_from([1e-3, 1.0, 1e3, 1e7]),
       a=st.floats(0.1, 1.0), b=st.floats(0.25, 1.0),
       x0_lo=st.floats(-1.5, -0.5), x0_hi=st.floats(0.5, 1.5),
       rho_lo=st.floats(0.2, 0.5), rho_hi=st.floats(2.0, 4.0),
       grid=st.tuples(st.integers(4, 16), st.integers(4, 16)))
@example(kind="separable", scale=0.75, a=0.8, b=0.625, x0_lo=-1.0, x0_hi=1.0,
         rho_lo=0.22, rho_hi=5.7, grid=(30, 30))
def test_edge_roots_land_on_their_edges(kind, scale, a, b, x0_lo, x0_hi, rho_lo, rho_hi,
                                        grid):
    """Each crossing lies on the edge it was solved on, where |f| <= 1e-10 or
    two points the solver read of opposite sign stall around it."""
    solved, edge_roots = [], spectral._edge_roots

    def recording(fn, edges):
        reads = []

        def reading(x0, rho):
            values = fn(x0, rho)
            reads.append((x0.tolist(), rho.tolist(), values))
            return values
        roots = edge_roots(reading, edges)
        solved.extend((fn, reads, edge, root) for edge, root in zip(edges, roots))
        return roots

    f = _scan_field(kind, scale, a, b)
    window = (x0_lo, x0_hi, rho_lo, rho_hi)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "_edge_roots", recording)
        degenerate_set(f, window, grid)
        zero_divergence_scan(f, window, grid)

    def on_edge(p, box):
        return all(min(u, v) <= w <= max(u, v) for (u, v), w in zip(box, p))

    for fn, reads, (eq, pa, pb, fa, fb), (x, r) in solved:
        box = list(zip(pa, pb))  # grid edges are axis-parallel: the box is the segment
        assert on_edge((x, r), box)
        if abs(fn(np.array([x]), np.array([r]))[eq, 0]) <= 1e-10:
            continue
        # a stalled bracket: the solver read both signs right next to (x, r)
        read = [(pa, fa), (pb, fb)] + [(p, values[eq, n]) for xs, rs, values in reads
                                       for n, p in enumerate(zip(xs, rs))]
        near = [v for p, v in read if on_edge(p, box)
                and abs(p[0] - x) + abs(p[1] - r) < 1e-14 * (1.0 + abs(x) + abs(r))]
        assert min(near) < 0.0 <= max(near)


def _stitch_by_scan(segments):
    """Reference stitching: each join rescans the unused segments in order."""
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


def test_stitch_joins_as_the_rescanning_loop_does():
    rng = random.Random(3)
    points = [(rng.choice((0.0, 0.5, 1.0, 1.5)), rng.choice((0.25, 0.75, 1.25)))
              for _ in range(40)]
    for n in (0, 1, 7, 60):
        segments = [(rng.choice(points), rng.choice(points)) for _ in range(n)]
        assert spectral._stitch(segments) == _stitch_by_scan(segments)
    f = from_separable(SeparableParams(alpha=2.5, beta=1.05, a2=0.4, b1=0.75, b2=0.05))
    x0, rho = (v.ravel() for v in np.meshgrid(np.linspace(-1, 1, 30),
                                              np.linspace(0.22, 5.7, 30), indexing="ij"))
    segments, = spectral._grid_crossings(
        lambda a, b: np.array(f.evaluate(["Vrho"], a, b)), (-1.0, 1.0, 0.22, 5.7), (30, 30))
    assert len(segments) > 20
    assert spectral._stitch(segments) == _stitch_by_scan(segments)


SCALAR_METHODS = ("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho")


@pytest.mark.parametrize("make,window", [
    (lambda: from_separable(SeparableParams(alpha=2.5, beta=1.05, a2=0.4, b1=0.75, b2=0.05)),
     (-1.0, 1.0, 0.22, 5.7)),
    # G = x^3/3 + x: G' = x^2 + 1 vanishes at x0 = 0, rho = 1
    (lambda: from_holomorphic_potential((1.0 / 3.0) * qpow(3) + qpow(1)), (-1.0, 1.0, 0.3, 2.0)),
], ids=["separable", "holo"])
def test_scans_run_on_evaluate_alone(monkeypatch, make, window):
    f = make()
    want = (degenerate_set(f, window, (30, 30)), zero_divergence_scan(f, window, (30, 30)),
            critical_points(f, window, (12, 12)))
    assert all(want)

    def refuse(*args):
        raise AssertionError("a scan called a scalar field method")

    for name in SCALAR_METHODS:
        monkeypatch.setattr(MeridionalField, name, refuse)
    assert (degenerate_set(f, window, (30, 30)), zero_divergence_scan(f, window, (30, 30)),
            critical_points(f, window, (12, 12))) == want


def _newton_one_seed(f, x0, rho, window, vtol, max_iter=50):
    """Reference Newton iteration of one seed through the scalar methods;
    None where the seed is dropped."""
    x0_lo, x0_hi, rho_lo, rho_hi = window
    span = max(x0_hi - x0_lo, rho_hi - rho_lo)
    for _ in range(max_iter):
        try:
            v0, vr = f.V0(x0, rho), f.Vrho(x0, rho)
            if math.hypot(v0, vr) <= vtol:
                return x0, rho
            a, b, c = f.dV0_dx0(x0, rho), f.dVrho_dx0(x0, rho), f.dVrho_drho(x0, rho)
        except DomainError:
            return None
        det = a * c - b * b
        if det == 0.0 or not math.isfinite(det):
            return None
        dx, dr = (c * v0 - b * vr) / det, (a * vr - b * v0) / det
        if math.hypot(dx, dr) > span:
            return None
        x0, rho = x0 - dx, rho - dr
        if rho < 1e-6 or not (x0_lo - span <= x0 <= x0_hi + span):
            return None
    return None


def _bowl():
    """g = -(x0^2 + (rho - 1)^2)/2, critical at (0, 1), whose field is
    undefined (NaN) for rho > 1.6."""
    def part(fn):
        return lambda x0, rho: np.where(rho > 1.6, np.nan, fn(x0, rho))
    return MeridionalField(MeridionalProfile(
        alpha=3.0, g=part(lambda x0, rho: -0.5 * (x0 * x0 + (rho - 1.0) ** 2)),
        dg_dx0=part(lambda x0, rho: -x0), dg_drho=part(lambda x0, rho: 1.0 - rho),
        d2g_dx0x0=part(lambda x0, rho: -1.0 + 0.0 * x0),
        d2g_dx0rho=part(lambda x0, rho: 0.0 * x0),
        d2g_drhorho=part(lambda x0, rho: -1.0 + 0.0 * x0),
        label="bowl"))


@pytest.mark.parametrize("f,window", [
    (_bowl(), (-1.0, 1.0, 0.5, 2.0)),
    # seeds near beta * rho = 30 step past the Bessel series' cap
    (from_separable(SeparableParams(alpha=3.0, beta=11.0)), (-0.2, 0.2, 1.5, 2.72)),
], ids=["nan-seeds", "series-cap"])
def test_critical_points_keep_the_seeds_that_converge(f, window):
    nx, nr = 12, 12
    x0_lo, x0_hi, rho_lo, rho_hi = window
    seeds = [(x0_lo + (x0_hi - x0_lo) * i / (nx - 1), rho_lo + (rho_hi - rho_lo) * j / (nr - 1))
             for i in range(nx) for j in range(nr)]
    scale = 0.0
    for a, b in seeds:
        try:
            scale = max(scale, abs(f.V0(a, b)), abs(f.Vrho(a, b)))
        except DomainError:
            continue
    vtol = 1e-12 * max(1.0, (scale if math.isfinite(scale) else 0.0))
    ends = [_newton_one_seed(f, a, b, window, vtol) for a, b in seeds]
    assert None in ends and any(ends)  # some seeds are dropped, others converge
    want = []
    for end in ends:
        if end is None or not (x0_lo - 1e-9 <= end[0] <= x0_hi + 1e-9
                               and rho_lo - 1e-9 <= end[1] <= rho_hi + 1e-9):
            continue
        if all(abs(end[0] - u) + abs(end[1] - w) >= 1e-8 for u, w in want):
            want.append(end)
    got = critical_points(f, window, (nx, nr))
    assert sorted(want) == [(cp.x0, cp.rho) for cp in got]
    for cp in got:
        assert cp.report == eigen_closed(f, Quaternion(cp.x0, cp.rho, 0.0, 0.0))


def test_critical_point_of_sin_field():
    f = _sin_field()
    found = critical_points(f, (-1.0, 1.0, 0.5, 2.5), grid=(12, 12))
    assert len(found) == 1
    cp = found[0]
    assert abs(cp.x0) < 1e-9
    assert abs(cp.rho - 0.5 * math.pi) < 1e-9
    # spectrum there: {-sqrt(2/pi), 0, 0, sqrt(2/pi)}
    assert cp.report.degenerate
    assert abs(cp.report.lambdas[0] + SQRT_2_OVER_PI) < 1e-10
    assert abs(cp.report.lambdas[3] - SQRT_2_OVER_PI) < 1e-10
    assert abs(cp.report.lambdas[1]) < 1e-10 and abs(cp.report.lambdas[2]) < 1e-10


def test_critical_points_empty_for_half_square():
    assert critical_points(_half_square(), (-1.0, 1.0, 0.5, 2.0)) == []
