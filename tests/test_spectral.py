import math
import random

import numpy as np
import pytest

from meridian4.quaternion import Quaternion
from meridian4.holomorphic import moebius_potential, qexp, qpow
from meridian4.fields import SeparableParams, from_holomorphic_potential, from_separable
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
