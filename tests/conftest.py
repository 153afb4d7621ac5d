"""Bounds on the gap between the array routes and the one-point routes.

An array pass (bessel_j_array, a separable field's evaluate) runs the same
arithmetic as the one-point route (bessel_j, MeridionalField.at) except
where one calls numpy and the other libm.  The bounds below follow that
difference through the standard model of floating-point arithmetic,
fl(x op y) = (x op y)(1 + d) with |d| <= u = eps/2 (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., §2.2), to first order in eps.
The pow, cosh and sinh of both libraries are taken as within 1 ulp, that
is within eps relative: numpy's own accuracy tests hold float64 cosh and
sinh to 1 ulp, and numpy's pow measured at most 0.67 ulp (libm's 0.51)
against mpmath at 40 digits over 4000 arguments in [1e-6, 40] and 14
orders from -9.5 to 40.
"""

import math
import sys

import pytest

from meridian4.specfun import _jv_terms

EPS = sys.float_info.epsilon


def series_magnitude(nu, z):
    """|c0| sum_k |b_k| |w|^k: J_nu(z)'s ascending series with every term
    taken positive, the scale its rounding is measured against."""
    c0, w, b, n, _ = _jv_terms(nu, z)
    mass = 0.0
    for bk in reversed(b[:n + 1]):
        mass = mass * abs(w) + abs(bk)
    return abs(c0) * mass


# |bessel_j_array - bessel_j| <= LEAD_GAP_EPS eps series_magnitude.  Both
# routes take w = -(z/2)^2 and Q's Horner steps from the same per-order
# record, bit for bit, and differ only in c0 = fl(P / D), with D = n! or
# Gamma(nu + 1) the same float in both and P = (z/2)^|nu| by numpy's power
# in one route and by libm's pow in the other (each within eps; both square
# at nu = +-2).  The division adds u to each: 1.5 eps twice.  Each route
# then rounds c0 q and c0 + c0 q, each within u |c0| sum |b_k||w|^k: 2 eps
# more between the two.
LEAD_GAP_EPS = 1.5 + 1.5 + 2.0


# Separable quantities: each factor's gap between the routes, in eps times
# its magnitude, propagated by the operations of fields.from_separable.  A
# product adds its factors' gaps, a sum takes the larger of its terms' (the
# bound then scales with the sum of their magnitudes), and each operation
# adds 1 (a rounding of u in each route); the constants beta, a1, a2, b1,
# b2, cos and sin of nu pi are the same floats in both.
#   cosh, sinh and rho^e (pow, 1 ulp each)                      2
#   J (LEAD_GAP_EPS)                                            5
#   Xi = b1 ch + b2 sh                  max(2+1, 2+1) + 1      = 4
#   Xi' = beta (b1 sh + b2 ch)          4 + 1                  = 5
#   Y = (J_nu cos - J_-nu) / sin        max(5+1, 5) + 1 + 1    = 8
#   C = a1 J + a2 Y                     max(5+1, 8+1) + 1      = 10
#   Ups = rho^nu C_nu                   2 + 10 + 1             = 13
#   Ups' = (beta rho^nu) C_nu-1         (2+1) + 10 + 1         = 14
#   g 18, V0 19, dV0_dx0 19, Vrho 19, dVrho_dx0 20, stream 20, and
#   dVrho_drho = Xi (beta (rho^(nu-1) C_nu-1 + (beta rho^nu) C_nu-2)):
#     max(13, 14) + 1, then beta + 1, then Xi: 4 + 16 + 1       = 21.
SEPARABLE_GAP_EPS = 21.0


def separable_magnitudes(p, x0, rho):
    """Each separable quantity at (x0, rho) with every factor and every term
    of a sum taken by magnitude; Y's is (|J_nu cos nu pi| + |J_-nu|) /
    |sin nu pi|, with each J by its series_magnitude."""
    nu, mu, beta = 0.5 * (p.alpha - 1.0), 0.5 * (3.0 - p.alpha), p.beta
    ch, sh = math.cosh(beta * x0), abs(math.sinh(beta * x0))
    xi, xi_p = abs(p.b1) * ch + abs(p.b2) * sh, beta * (abs(p.b1) * sh + abs(p.b2) * ch)

    def cyl(order):
        jp = series_magnitude(order, beta * rho)
        if not p.a2:
            return abs(p.a1) * jp
        y = ((jp * abs(math.cos(order * math.pi)) + series_magnitude(-order, beta * rho))
             / abs(math.sin(order * math.pi)))
        return abs(p.a1) * jp + abs(p.a2) * y

    ups, ups_p = rho ** nu * cyl(nu), beta * rho ** nu * cyl(nu - 1.0)
    return {"g": xi * ups, "V0": xi_p * ups, "Vrho": xi * ups_p,
            "dV0_dx0": beta * beta * xi * ups, "dVrho_dx0": xi_p * ups_p,
            "dVrho_drho": xi * beta * (rho ** (nu - 1.0) * cyl(nu - 1.0)
                                       + beta * rho ** nu * cyl(nu - 2.0)),
            "stream": xi_p / beta * rho ** mu * cyl(nu - 1.0)}


@pytest.fixture
def separable_gap():
    """(params, x0, rho) -> the largest gap allowed at that point between
    the array and the one-point value of each separable quantity."""
    def bound(p, x0, rho):
        return {name: SEPARABLE_GAP_EPS * EPS * m
                for name, m in separable_magnitudes(p, x0, rho).items()}
    return bound


@pytest.fixture
def j_gap():
    """(nu, z) -> the largest gap allowed between bessel_j_array and bessel_j
    at that pair."""
    return lambda nu, z: LEAD_GAP_EPS * EPS * series_magnitude(nu, z)
