"""Acceptance gate: ten end-to-end checks across the whole package.

Run `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion:

    ACCEPTANCE <n>: PASS — <measurements>

Every test also fails hard when its tolerance is breached, so the file
doubles as a regression gate under plain `pytest`.
"""

import cmath
import functools
import math
import random
import subprocess
import sys
import time

import numpy as np

from meridian4.quaternion import Quaternion
from meridian4.holomorphic import (
    antiholomorphy_residual,
    fd_stencil,
    moebius_potential,
    qcos,
    qexp,
    qln,
    qpow,
    qsin,
    radial_derivative,
)
from meridian4.fields import (
    MeridionalField,
    MeridionalProfile,
    SeparableParams,
    criterion_check,
    from_holomorphic_potential,
    from_separable,
    verify_epd,
    verify_stokes_beltrami,
    verify_weinstein,
)
from meridian4.specfun import bessel_j, bessel_j_quat, power_to_bessel_partial
from meridian4.transforms import bessel_integral_rep, chebyshev_kernel, ff_cos
from meridian4.spectral import (
    degenerate_set,
    eigen_closed,
    eigen_numeric,
    invariants,
    jacobian,
    zero_divergence_scan,
)
from meridian4.dynsys import classify, flow, monotonicity_audit

CLI = [sys.executable, "-m", "meridian4"]


def acceptance(n):
    """Print the one-line verdict for criterion n, pass or fail."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {n}: FAIL — {exc}")
                raise
            print(f"ACCEPTANCE {n}: PASS — {detail}")
        return wrapper
    return deco


def _sep(alpha, beta, **kw):
    return from_separable(SeparableParams(alpha=alpha, beta=beta, **kw))


def _quadratic_field(a, b, alpha):
    # g = a x0^2 + b rho^2 solves the meridian equation iff a = (alpha - 3) b
    return MeridionalField(MeridionalProfile(
        alpha=alpha,
        g=lambda x0, rho: a * x0 * x0 + b * rho * rho,
        dg_dx0=lambda x0, rho: 2.0 * a * x0,
        dg_drho=lambda x0, rho: 2.0 * b * rho,
        d2g_dx0x0=lambda x0, rho: 2.0 * a,
        d2g_dx0rho=lambda x0, rho: 0.0,
        d2g_drhorho=lambda x0, rho: 2.0 * b,
        label=f"quadratic:a={a:g},b={b:g}",
    ))


def _rand_point(rng, x0_span, rho_span):
    """Meridian point with a random axis direction for the imaginary part."""
    x0 = rng.uniform(*x0_span)
    rho = rng.uniform(*rho_span)
    while True:
        u = [rng.gauss(0.0, 1.0) for _ in range(3)]
        nrm = math.sqrt(sum(c * c for c in u))
        if nrm > 1e-6:
            break
    return Quaternion(x0, rho * u[0] / nrm, rho * u[1] / nrm, rho * u[2] / nrm)


# ---------------------------------------------------------------------------
# 1. closed-form spectrum against the numeric eigensolver
# ---------------------------------------------------------------------------

def _spectrum_pool():
    """Fields spanning alpha in {-2,-1,0,1,3} (separable) plus alpha=2
    (separable and holomorphic-potential constructors)."""
    return [
        _sep(-2.0, 0.8, b1=1.0, b2=1.0),
        _sep(-2.0, 1.4),
        _sep(-1.0, 1.1, b1=0.6, b2=0.2),
        _sep(-1.0, 0.7),
        _sep(0.0, 1.0, b1=1.0, b2=1.0),
        _sep(0.0, 0.9, a1=0.8, a2=0.4, b1=1.2),
        _sep(1.0, 1.3, b1=0.5, b2=0.5),
        _sep(1.0, 0.6),
        _sep(2.0, 1.0),
        _sep(2.0, 0.8, a1=1.0, a2=0.3, b1=0.7, b2=0.4),
        _sep(3.0, 1.2, b1=1.0, b2=0.5),
        _sep(3.0, 0.9, b1=0.3, b2=1.0),
        from_holomorphic_potential(0.5 * qpow(2)),
        from_holomorphic_potential(qpow(3)),
        from_holomorphic_potential(qexp()),
        from_holomorphic_potential(qsin()),
        from_holomorphic_potential(moebius_potential(0.3, 2.5)),
    ]


@acceptance(1)
def test_acceptance_01_closed_vs_numeric_spectrum():
    rng = random.Random(101)
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for f in _spectrum_pool():
        for _ in range(60):
            x = _rand_point(rng, (-1.5, 1.5), (0.4, 2.5))
            closed = eigen_closed(f, x).lambdas
            numeric = eigen_numeric(jacobian(f, x)).lambdas
            worst = max(worst, max(abs(a - b) for a, b in zip(closed, numeric)))
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs >= 1000, f"only {pairs} pairs"
    assert worst <= 1e-9, f"worst eigenvalue deviation {worst:g}"
    assert elapsed <= 10.0, f"took {elapsed:.2f}s"
    return f"{pairs} pairs, worst |closed-numeric| = {worst:.2e}, {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. the three alpha-specializations of the closed-form eigenvalues
# ---------------------------------------------------------------------------

@acceptance(2)
def test_acceptance_02_specialized_eigenvalue_formulas():
    rng = random.Random(202)

    def lambdas_at(f, x0, rho):
        return eigen_closed(f, Quaternion(x0, rho, 0.0, 0.0)).lambdas

    def meridian_partials(f, x0, rho):
        q = f.Vrho(x0, rho) / rho
        return q, f.dVrho_dx0(x0, rho), f.dVrho_drho(x0, rho)

    # alpha = -2:  lam23 = -2 Vrho/rho +- sqrt((2 Vrho/rho + dVrho/drho)^2 + (dVrho/dx0)^2)
    worst_m2 = 0.0
    fields_m2 = [_sep(-2.0, 0.8, b1=1.0, b2=1.0), _sep(-2.0, 1.3, b1=0.4, b2=0.9)]
    for k in range(100):
        f = fields_m2[k % len(fields_m2)]
        x0, rho = rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5)
        q, p01, p11 = meridian_partials(f, x0, rho)
        r = math.sqrt((2.0 * q + p11) ** 2 + p01 ** 2)
        expect = sorted((q, q, -2.0 * q - r, -2.0 * q + r))
        worst_m2 = max(worst_m2, max(
            abs(a - b) for a, b in zip(expect, lambdas_at(f, x0, rho))))

    # alpha = 2:  lam23 = +-|F'| where F is the radial derivative of the potential
    worst_p2 = 0.0
    pots = [0.5 * qpow(2), qpow(3), qexp(), qsin(), moebius_potential(0.3, 2.5)]
    pairs_p2 = [(G, from_holomorphic_potential(G)) for G in pots]
    for k in range(100):
        G, f = pairs_p2[k % len(pairs_p2)]
        x0, rho = rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.0)
        q, _, _ = meridian_partials(f, x0, rho)
        d = radial_derivative(G.derivative(), x0, rho)
        m = abs(d)
        expect = sorted((q, q, -m, m))
        worst_p2 = max(worst_p2, max(
            abs(a - b) for a, b in zip(expect, lambdas_at(f, x0, rho))))

    # alpha = 0:  lam23 = -Vrho/rho +- sqrt((Vrho/rho + dVrho/drho)^2 + (dVrho/dx0)^2)
    worst_0 = 0.0
    fields_0 = [_sep(0.0, 1.0, b1=1.0, b2=1.0),
                _sep(0.0, 0.9, a1=0.8, a2=0.4, b1=1.2),
                _quadratic_field(1.0, -1.0 / 3.0, 0.0)]
    for k in range(100):
        f = fields_0[k % len(fields_0)]
        x0, rho = rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5)
        q, p01, p11 = meridian_partials(f, x0, rho)
        r = math.sqrt((q + p11) ** 2 + p01 ** 2)
        expect = sorted((q, q, -q - r, -q + r))
        worst_0 = max(worst_0, max(
            abs(a - b) for a, b in zip(expect, lambdas_at(f, x0, rho))))

    assert worst_m2 <= 1e-12, f"alpha=-2 deviation {worst_m2:g}"
    assert worst_p2 <= 1e-12, f"alpha=2 deviation {worst_p2:g}"
    assert worst_0 <= 1e-12, f"alpha=0 deviation {worst_0:g}"
    return (f"alpha=-2: {worst_m2:.2e}, alpha=2 (+-|F'|): {worst_p2:.2e}, "
            f"alpha=0: {worst_0:.2e} over 100 states each")


# ---------------------------------------------------------------------------
# 3. the Moebius field: explicit spectrum on a grid, no degenerate points
# ---------------------------------------------------------------------------

@acceptance(3)
def test_acceptance_03_moebius_grid_spectrum():
    f = from_holomorphic_potential(moebius_potential(0.0, 0.0))
    worst = 0.0
    for x0 in np.linspace(-2.0, 2.0, 20):
        for rho in np.linspace(0.1, 3.0, 20):
            x0f, rhof = float(x0), float(rho)
            big_d = x0f * x0f + rhof * rhof
            q = f.Vrho(x0f, rhof) / rhof
            # pair eigenvalue Vrho/rho twice, then the +-1/D couple
            expect = sorted((q, q, -1.0 / big_d, 1.0 / big_d))
            got = eigen_closed(f, Quaternion(x0f, rhof, 0.0, 0.0)).lambdas
            worst = max(worst, max(abs(a - b) for a, b in zip(expect, got)))
            worst = max(worst, abs(q + 1.0 / big_d))
    assert worst <= 1e-12, f"grid deviation {worst:g}"
    curves = degenerate_set(f, (-2.0, 2.0, 0.1, 3.0), (20, 20))
    assert curves == [], f"degenerate set unexpectedly non-empty: {len(curves)} curve(s)"
    return f"20x20 grid, worst deviation {worst:.2e}, degenerate set empty"


# ---------------------------------------------------------------------------
# 4. cosine transform of the Chebyshev original reproduces Bessel J0
# ---------------------------------------------------------------------------

@acceptance(4)
def test_acceptance_04_transform_bessel_identity():
    eta = chebyshev_kernel(0)
    s3 = 1.0 / math.sqrt(3.0)
    dirs = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (s3, s3, s3)]
    worst = 0.0
    npts = 0
    for x0 in (-4.0, -2.0, -0.5, 1.0, 2.5, 3.9):
        for rho in (0.1, 0.8, 1.7, 2.6, 3.0):
            if x0 * x0 + rho * rho > 25.0:
                continue
            u = dirs[npts % len(dirs)]
            x = Quaternion(x0, rho * u[0], rho * u[1], rho * u[2])
            lhs = (2.0 / math.pi) * ff_cos(eta, x)
            worst = max(worst, (lhs - bessel_j_quat(0, x)).norm())
            npts += 1
    assert worst <= 1e-10, f"transform identity deviation {worst:g}"

    # the integral representations of orders 0..7 against the series
    pts = [Quaternion(1.0, 0.6, 0.0, 0.8),
           Quaternion(0.3, 0.0, 1.1, 0.0),
           Quaternion(2.0, 0.5, 0.5, 0.5)]
    worst_rep = 0.0
    for order in range(8):
        for x in pts:
            got = bessel_integral_rep(order, x)
            worst_rep = max(worst_rep, (got - bessel_j_quat(order, x)).norm())
    assert worst_rep <= 1e-8, f"integral representation deviation {worst_rep:g}"
    return (f"{npts} grid points |x|<=5: worst {worst:.2e}; "
            f"orders 0..7 reps: worst {worst_rep:.2e}")


# ---------------------------------------------------------------------------
# 5. PDE residual suite: analytic profiles, Weinstein verifier, O(h^2) decay
# ---------------------------------------------------------------------------

@acceptance(5)
def test_acceptance_05_pde_residual_suite():
    rng = random.Random(505)

    # the two exponential-times-Bessel profiles (alpha = -2 and alpha = 0)
    worst_epd = 0.0
    for f in (_sep(-2.0, 0.9, b1=1.0, b2=1.0), _sep(0.0, 0.9, b1=1.0, b2=1.0)):
        for _ in range(100):
            x0, rho = rng.uniform(-1.5, 1.5), rng.uniform(0.25, 2.8)
            worst_epd = max(worst_epd, verify_epd(f, x0, rho))
    assert worst_epd <= 1e-10, f"meridian-equation residual {worst_epd:g}"

    # x3^{1+alpha} solves the Weinstein equation
    worst_w = 0.0
    for alpha in (0.5, 1.5):
        def h_pow(xq, a=alpha):
            return xq.x3 ** (1.0 + a)
        for _ in range(20):
            x = Quaternion(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                           rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.6))
            worst_w = max(worst_w, verify_weinstein(h_pow, alpha, x))
    assert worst_w <= 2e-6, f"Weinstein residual for x3^(1+alpha): {worst_w:g}"

    # non-solutions are rejected with the analytically known residuals:
    # for h = r^3 (r the imaginary radius), x3*Lap(h) - alpha h_x3 = (4-alpha)*3*r*x3
    def rad_cube(xq):
        return (xq.x1 ** 2 + xq.x2 ** 2 + xq.x3 ** 2) ** 1.5

    x_rej = Quaternion(0.2, 0.0, 0.6, 0.8)  # r = 1, x3 = 0.8
    res_rad = verify_weinstein(rad_cube, 1.0, x_rej)
    assert res_rad > 0.1 and abs(res_rad - 7.2) <= 1e-4, f"r^3 residual {res_rad:g}"

    # for h = x3^3 at alpha = 1 the residual is exactly 3 x3^2
    def cube(xq):
        return xq.x3 ** 3

    x_c = Quaternion(0.3, 0.2, -0.4, 1.0)
    res_cube = verify_weinstein(cube, 1.0, x_c)
    assert abs(res_cube - 3.0) <= 1e-6, f"x3^3 residual {res_cube:g}"

    # the Richardson differences behind the verifiers are exact on cubics,
    # so at any step the derivatives of x3^3 are off by rounding only (a
    # second-order rule was off by h^2 = 4e-6 at h = 2e-3).  At (0, 1)
    # fd_stencil steps 1e-4 along x0, so (1 + k a)^3 is read at steps
    # k * 1e-4, here 2e-3 and 1e-3, and its derivative comes back times k^order
    e_cube = max(abs(fd_stencil(lambda a, b: (1.0 + k * a) ** 3, (0.0, 1.0), [(order, 0)])[0]
                     / k ** order - exact)
                 for k in (20.0, 10.0) for order, exact in ((1, 3.0), (2, 6.0)))
    assert e_cube <= 1e-10, f"x3^3 derivatives off by {e_cube:g}"
    return (f"meridian-eq residual {worst_epd:.2e}; Weinstein accept {worst_w:.2e}, "
            f"rejects r^3 ({res_rad:.3g}) and x3^3 ({res_cube:.3g}); "
            f"x3^3 exact to {e_cube:.1e}")


# ---------------------------------------------------------------------------
# 6. axisymmetry criterion: passes lifted meridional fields, fails x0^2 - x3^2
# ---------------------------------------------------------------------------

@acceptance(6)
def test_acceptance_06_axisymmetry_criterion():
    rng = random.Random(606)
    fields = [
        from_holomorphic_potential(0.5 * qpow(2)),
        from_holomorphic_potential(qexp()),
        from_holomorphic_potential(moebius_potential(0.0, 0.0)),
        _sep(2.0, 1.0),
        _sep(3.0, 1.2, b1=1.0, b2=0.5),
    ]
    worst = 0.0
    checks = 0
    for f in fields:
        def lifted(xq, ff=f):  # the verifier hands over its difference points as arrays
            return ff.evaluate(("g",), xq.x0, xq.rho())[0]
        for _ in range(12):
            v = [rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 1.2) for _ in range(3)]
            x = Quaternion(rng.uniform(-1.0, 1.0), v[0], v[1], v[2])
            cart, ang = criterion_check(lifted, x)
            worst = max(worst, *cart, *ang)
            checks += 1
    assert worst <= 1e-7, f"criterion residual {worst:g} on a lifted field"

    def skew(xq):
        return xq.x0 ** 2 - xq.x3 ** 2

    cart, ang = criterion_check(skew, Quaternion(1.0, 1.0, 1.0, 1.0))
    bad = max(*cart, *ang)
    assert bad >= 1.0, f"x0^2 - x3^2 slipped through: residual {bad:g}"
    return (f"{checks} lifted checks across 5 fields, worst {worst:.2e}; "
            f"x0^2-x3^2 residual {bad:.3g}")


# ---------------------------------------------------------------------------
# 7. elementary radially holomorphic functions and their primitives
# ---------------------------------------------------------------------------

@acceptance(7)
def test_acceptance_07_radial_holomorphy_suite():
    rng = random.Random(707)
    table = [
        (qpow(3), lambda z: 3.0 * z * z),
        (qexp(), cmath.exp),
        (qcos(), lambda z: -cmath.sin(z)),
        (qsin(), cmath.cos),
        (qln(), lambda z: 1.0 / z),
    ]
    worst_dbar = 0.0
    worst_tab = 0.0
    for f, d_ref in table:
        for _ in range(100):
            x0, rho = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.4)
            worst_dbar = max(worst_dbar,
                             antiholomorphy_residual(f, x0, rho))
            d = radial_derivative(f, x0, rho)
            worst_tab = max(worst_tab,
                            abs(d - d_ref(complex(x0, rho))))
    assert worst_dbar <= 1e-6, f"dbar residual {worst_dbar:g}"
    assert worst_tab <= 1e-8, f"derivative-table deviation {worst_tab:g}"

    worst_sb = 0.0
    for f, _ in table:
        fld = from_holomorphic_potential(f.primitive())
        for _ in range(10):
            x0, rho = rng.uniform(0.8, 1.6), rng.uniform(0.5, 1.2)
            r1, r2 = verify_stokes_beltrami(fld, x0, rho)
            worst_sb = max(worst_sb, r1, r2)
    assert worst_sb <= 1e-7, f"Stokes-Beltrami residual {worst_sb:g}"
    return (f"dbar {worst_dbar:.2e}, derivative table {worst_tab:.2e}, "
            f"Stokes-Beltrami {worst_sb:.2e} (5 functions x 100 points)")


# ---------------------------------------------------------------------------
# 8. quaternionic Bessel algebra
# ---------------------------------------------------------------------------

@acceptance(8)
def test_acceptance_08_bessel_algebra():
    rng = random.Random(808)

    # partial sums of the power-to-Bessel expansion recover (x/2)^m
    worst_pow = 0.0
    for _ in range(40):
        while True:
            comps = [rng.uniform(-1.0, 1.0) for _ in range(4)]
            nrm = math.sqrt(sum(c * c for c in comps))
            imag = math.sqrt(sum(c * c for c in comps[1:]))
            if 0.2 <= nrm <= 1.0 and imag >= 1e-3:
                break
        scale = rng.uniform(0.5, 2.0) / nrm
        x = Quaternion(*[c * scale for c in comps])  # |x| in [0.5, 2]
        half = 0.5 * x
        for m in (1, 2, 3):
            exact = half
            for _ in range(m - 1):
                exact = exact * half
            got = power_to_bessel_partial(m, 15, x)
            worst_pow = max(worst_pow, (got - exact).norm())
    assert worst_pow <= 1e-8, f"power-to-Bessel deviation {worst_pow:g}"

    # on the real axis the quaternionic series collapses to the real one
    worst_axis = 0.0
    for n in range(5):
        sign = 1.0 if n % 2 == 0 else -1.0
        for t in np.linspace(0.05, 8.0, 25):
            tf = float(t)
            v = bessel_j_quat(n, Quaternion(tf, 0.0, 0.0, 0.0))
            ref = bessel_j(n, tf)
            worst_axis = max(worst_axis, abs(v.x0 - ref),
                             abs(v.x1), abs(v.x2), abs(v.x3))
            v_neg = bessel_j_quat(n, Quaternion(-tf, 0.0, 0.0, 0.0))
            worst_axis = max(worst_axis, abs(v_neg.x0 - sign * ref))
    assert worst_axis <= 1e-12, f"real-axis deviation {worst_axis:g}"

    # three-term recurrence J_{nu-1} + J_{nu+1} = (2 nu / z) J_nu
    worst_rec = 0.0
    for _ in range(150):
        nu = rng.uniform(-2.0, 5.0)
        z = rng.uniform(0.1, 12.0)
        lhs = bessel_j(nu - 1.0, z) + bessel_j(nu + 1.0, z)
        rhs = (2.0 * nu / z) * bessel_j(nu, z)
        worst_rec = max(worst_rec, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst_rec <= 1e-10, f"recurrence deviation {worst_rec:g}"
    return (f"power expansion {worst_pow:.2e}, real axis {worst_axis:.2e}, "
            f"recurrence {worst_rec:.2e}")


# ---------------------------------------------------------------------------
# 9. gradient flow on the linear saddle
# ---------------------------------------------------------------------------

@acceptance(9)
def test_acceptance_09_gradient_flow():
    # g = x0^2 - rho^2/3 (alpha = 0): flow is x0 e^{2t}, rho e^{-2t/3}
    f = _quadratic_field(1.0, -1.0 / 3.0, 0.0)
    start = Quaternion(0.5, 0.1, 0.0, 0.0)
    ex0, ex1 = 0.5 * math.exp(2.0), 0.1 * math.exp(-2.0 / 3.0)

    tr = flow(f, start, dt=1e-3, horizon=1.0)
    end = tr.points[-1]
    err_fine = math.hypot(end.x0 - ex0, end.x1 - ex1)
    assert tr.termination == "horizon"
    assert err_fine <= 1e-6, f"endpoint error {err_fine:g} at dt=1e-3"

    audit = monotonicity_audit(tr)
    tr2 = flow(from_holomorphic_potential(qexp()),
               Quaternion(-0.3, 0.8, 0.0, 0.0), dt=1e-3, horizon=1.0)
    audit2 = monotonicity_audit(tr2)
    assert audit <= 1e-9 and audit2 <= 1e-9, f"h not monotone: {audit:g}, {audit2:g}"

    tr_coarse = flow(f, start, dt=4e-3, horizon=1.0)
    end_c = tr_coarse.points[-1]
    err_coarse = math.hypot(end_c.x0 - ex0, end_c.x1 - ex1)
    factor = err_coarse / err_fine
    assert 128.0 <= factor <= 512.0, f"dt-quartering factor {factor:g}"

    verdict = classify(f, Quaternion(0.7, 0.9, 0.0, 0.0))
    expect = sorted((2.0, -2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0))
    worst_l = max(abs(a - b) for a, b in zip(expect, verdict.report.lambdas))
    assert verdict.kind == "saddle", f"classified as {verdict.kind}"
    assert worst_l <= 1e-12, f"saddle spectrum deviation {worst_l:g}"
    return (f"endpoint error {err_fine:.2e}, audits {max(audit, audit2):.2e}, "
            f"quartering factor {factor:.0f}, saddle spectrum {worst_l:.2e}")


# ---------------------------------------------------------------------------
# 10. invariant bookkeeping, determinant at divergence zeros, CLI determinism
# ---------------------------------------------------------------------------

@acceptance(10)
def test_acceptance_10_invariants_and_determinism():
    rng = random.Random(1010)
    # moderate scales: the quartic Vieta products must stay inside the
    # 1e-8 budget, so the steep small-rho corner of the alpha=-2 profile
    # gets a higher rho floor
    pool = [
        (_sep(-2.0, 0.8, b1=1.0, b2=1.0), 1.4),
        (_sep(-1.0, 1.1, b1=0.6, b2=0.2), 0.6),
        (_sep(0.0, 0.9, b1=1.0, b2=1.0), 0.6),
        (_sep(1.0, 1.0, b1=0.5, b2=0.5), 0.6),
        (_sep(2.0, 1.0), 0.6),
        (_sep(3.0, 1.1, b1=1.0, b2=0.5), 0.6),
        (from_holomorphic_potential(0.5 * qpow(2)), 0.5),
        (from_holomorphic_potential(qexp()), 0.5),
        (from_holomorphic_potential(moebius_potential(0.3, 2.5)), 0.5),
    ]
    worst_trace = 0.0
    worst_vieta = 0.0
    sampled = 0
    for f, rho_lo in pool:
        for _ in range(40):
            x0, rho = rng.uniform(-1.2, 1.2), rng.uniform(rho_lo, 2.5)
            rep = eigen_closed(f, Quaternion(x0, rho, 0.0, 0.0))
            q = f.Vrho(x0, rho) / rho
            worst_trace = max(worst_trace, abs(rep.invariants[0] - f.alpha * q))
            worst_vieta = max(worst_vieta, max(rep.char_residuals()))
            sampled += 1
    assert worst_trace <= 1e-8, f"trace identity deviation {worst_trace:g}"
    assert worst_vieta <= 1e-8, f"Vieta residual {worst_vieta:g}"

    # every located zero of the divergence (alpha != 0) kills the determinant
    zeros = zero_divergence_scan(_sep(2.0, 1.0), (-1.0, 1.0, 0.5, 2.5), (25, 25))
    zeros += zero_divergence_scan(_sep(-2.0, 0.9, b1=1.0, b2=1.0),
                                  (-0.8, 0.8, 0.6, 3.3), (25, 25))
    assert len(zeros) >= 10, f"only {len(zeros)} divergence zeros located"
    for z in zeros:
        assert z.consistent, f"|det| {z.det:g} above its bound {z.det_bound:g}"

    # CLI output is byte-deterministic across repeated runs
    cmds = [
        CLI + ["eval", "--field", "separable:alpha=2,beta=1,b1=1,b2=0",
               "--grid", "0:1:5,0.5:2.5:5"],
        CLI + ["spectrum", "--field", "moebius:a=0,d=0", "--grid", "1:2:4,0.5:2:4"],
        CLI + ["flow", "--field", "holo:name=qpow,n=2,coeff=-0.5",
               "--start", "0.5,0.1,0,0", "--dt", "0.01", "--horizon", "0.2"],
    ]
    for cmd in cmds:
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0 and r2.returncode == 0, cmd
        assert r1.stdout == r2.stdout, f"non-deterministic stdout: {cmd}"
    return (f"{sampled} Jacobians: trace {worst_trace:.2e}, Vieta {worst_vieta:.2e}; "
            f"{len(zeros)} divergence zeros all consistent; CLI byte-identical "
            f"on {len(cmds)} commands x 2 runs")
