import math

import numpy as np
import pytest

from meridian4.quaternion import Quaternion
from meridian4.specfun import bessel_j, bessel_j_quat
from meridian4.transforms import (
    OriginalFunction,
    bessel_integral_rep,
    chebyshev_kernel,
    exp_decay_original,
    ff_cos,
    ff_sin,
    laplace_fueter,
    transform_detail,
    transform_field,
    unit_original,
)
from meridian4 import transforms as tr
from meridian4.errors import (AbscissaViolation, ConvergenceFailure, DomainError,
                              KernelGrowth, Unsupported)


def _const_half_line() -> OriginalFunction:
    return OriginalFunction(evaluator=lambda t: 1.0, smooth_numerator=lambda t: 1.0,
                            support_t=math.inf, name="one")


# ---------------------------------------------------------------------------
# Laplace transform, Fueter-embedded
# ---------------------------------------------------------------------------

def test_laplace_exp_decay_real_axis():
    # int_0^inf e^{-t} e^{-t} dt = 1/2
    got = laplace_fueter(exp_decay_original(1.0), Quaternion(1, 0, 0, 0))
    assert abs(got.x0 - 0.5) < 1e-9
    assert got.rho() < 1e-14


def test_laplace_unit_compact():
    # (1 - e^{-z})/z at z = 2 + i
    got = laplace_fueter(unit_original(), Quaternion(2, 0, 1, 0))
    assert abs(got.x0 - 0.3935273565736498) < 1e-11
    assert abs(got.x2 - (-0.13982332125464084)) < 1e-11
    assert got.x1 == 0.0 and got.x3 == 0.0


def test_laplace_constant_half_line():
    # 1/z at z = 2 + i
    got = laplace_fueter(_const_half_line(), Quaternion(2, 0, 1, 0))
    assert abs(got.x0 - 0.4) < 1e-9
    assert abs(got.x2 - (-0.2)) < 1e-9


def test_laplace_embedding_follows_axis():
    oblique = laplace_fueter(unit_original(), Quaternion(2, 0.6, 0, 0.8))
    planar = laplace_fueter(unit_original(), Quaternion(2, 1, 0, 0))
    assert abs(oblique.x0 - planar.x0) < 1e-13
    assert abs(oblique.x1 - 0.6 * planar.x1) < 1e-13
    assert abs(oblique.x3 - 0.8 * planar.x1) < 1e-13
    assert oblique.x2 == 0.0


def test_laplace_abscissa_violation():
    # e^(-t) moves the abscissa to -1: int e^(-(z + 1) t) dt = 1/(z + 1) at x0 = 0
    got = laplace_fueter(exp_decay_original(1.0), Quaternion(0, 1, 0, 0))
    assert abs(complex(got.x0, got.x1) - 1 / complex(1, 1)) < 1e-10
    with pytest.raises(AbscissaViolation, match="s0 = -1$"):
        laplace_fueter(exp_decay_original(1.0), Quaternion(-1, 1, 0, 0))
    # compact support has no abscissa
    laplace_fueter(unit_original(), Quaternion(-3, 1, 0, 0))


def test_transform_detail_refuses_an_unknown_kind():
    with pytest.raises(DomainError, match="transform kind must be 'lf', 'ffc' or 'ffs'"):
        transform_detail("xx", unit_original(), Quaternion(1, 0.5, 0, 0))


def test_quadrature_spec_reporting():
    _, spec = transform_detail("lf", unit_original(), Quaternion(2, 0, 1, 0))
    assert spec.panels >= 2 and spec.panels & (spec.panels - 1) == 0
    assert spec.last_delta < tr.TOL == 1e-10


def test_values_are_plain_floats():
    got = laplace_fueter(unit_original(), Quaternion(2, 0, 1, 0))
    assert type(got.x0) is float and type(got.x2) is float


# ---------------------------------------------------------------------------
# cosine / sine transforms
# ---------------------------------------------------------------------------

def test_ffc_exp_decay_closed_form():
    # int_0^inf e^{-2t} cos(z t) dt = 2/(z^2+4); at z = 1+i this is 0.4 - 0.2i
    got = ff_cos(exp_decay_original(2.0), Quaternion(1, 1, 0, 0))
    assert abs(got.x0 - 0.4) < 1e-9
    assert abs(got.x1 - (-0.2)) < 1e-9


def test_ffs_exp_decay_closed_form():
    # int_0^inf e^{-2t} sin(z t) dt = z/(z^2+4); at z = 1+i this is 0.3 + 0.1i
    got = ff_sin(exp_decay_original(2.0), Quaternion(1, 1, 0, 0))
    assert abs(got.x0 - 0.3) < 1e-9
    assert abs(got.x1 - 0.1) < 1e-9


def test_ffc_chebyshev_gives_bessel_on_real_axis():
    # int_0^1 cos(x tau)/sqrt(1-tau^2) dtau = (pi/2) J_0(x)
    got = ff_cos(chebyshev_kernel(0), Quaternion(1, 0, 0, 0))
    assert abs(got.x0 - 1.2019697153172064) < 5e-10
    assert abs(got.x0 - 0.5 * math.pi * bessel_j(0, 1.0)) < 5e-10


def test_ffs_chebyshev_gives_bessel_on_real_axis():
    # int_0^1 tau sin(x tau)/sqrt(1-tau^2) dtau = (pi/2) J_1(x)
    got = ff_sin(chebyshev_kernel(1), Quaternion(1, 0, 0, 0))
    assert abs(got.x0 - 0.6912298436920843) < 5e-10
    assert abs(got.x0 - 0.5 * math.pi * bessel_j(1, 1.0)) < 5e-10


def test_kernel_growth_rejected():
    with pytest.raises(KernelGrowth):
        ff_cos(exp_decay_original(0.5), Quaternion(1, 1, 0, 0))
    with pytest.raises(KernelGrowth):
        ff_sin(exp_decay_original(1.0), Quaternion(1, 0, 0, 1))
    # strictly dominated is fine
    ff_cos(exp_decay_original(2.0), Quaternion(1, 1.5, 0, 0))


def test_laplace_and_fourier_agree_on_compact_support():
    # on the pure-imaginary axis e^{-(i b) t} = cos(bt) - i sin(bt), so the
    # Laplace value at b*axis must re-embed the two Fourier values
    b = 1.3
    lf = laplace_fueter(unit_original(), Quaternion(0, b, 0, 0))
    c = ff_cos(unit_original(), Quaternion(b, 0, 0, 0)).x0
    s = ff_sin(unit_original(), Quaternion(b, 0, 0, 0)).x0
    assert abs(lf.x0 - c) < 1e-10
    assert abs(lf.x1 - (-s)) < 1e-10


# ---------------------------------------------------------------------------
# originals
# ---------------------------------------------------------------------------

def test_chebyshev_kernel_values():
    eta = chebyshev_kernel(2)
    # T_2(0.5)/sqrt(0.75)
    assert abs(eta.evaluator(0.5) - (-0.5773502691896257)) < 1e-15
    assert eta.evaluator(0.0) == -1.0  # T_2(0) = -1
    assert eta.sqrt_end
    assert eta.smooth_numerator(0.5) == -0.5


def test_chebyshev_kernel_guards():
    with pytest.raises(DomainError):
        chebyshev_kernel(-1)
    eta = chebyshev_kernel(0)
    for tau in (1.0, 1.2, -0.1):
        with pytest.raises(DomainError):
            eta.evaluator(tau)


def test_exp_decay_guard():
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            exp_decay_original(rate)
    assert exp_decay_original(2.5).decay_rate == 2.5
    assert not exp_decay_original(1.0).compact()
    assert unit_original().compact()


def test_unsupported_singularity_layouts():
    # the substitution tau = sin(u) needs the blow-up at tau = 1 = support_t
    with pytest.raises(Unsupported):
        OriginalFunction(evaluator=lambda t: 1.0, smooth_numerator=lambda t: 1.0,
                         support_t=2.0, sqrt_end=True, name="bad2")


def test_singular_fallback_path_without_numerator():
    # 1/sqrt(1 - tau^2) declared by hand: numerator 1 with the sqrt end
    eta = OriginalFunction(
        evaluator=lambda t: 1.0 / np.sqrt(1.0 - t * t), smooth_numerator=lambda t: 1.0,
        sqrt_end=True, name="raw")
    got = ff_cos(eta, Quaternion(1, 0, 0, 0))
    assert abs(got.x0 - 1.2019697153172064) < 1e-9


# float.hex of x0, x1, x2, x3 and the panel count of transform_detail, and
# float.hex of (g, V0, Vrho, dV0_dx0, dVrho_dx0, dVrho_drho, stream) from a
# transform field's at, each keyed by (original, kind, x0, rho)
_PINNED_DETAIL = {
    ("unit", "lf", 0.7, 0.4): "0x1.681e673a39c55p-1 -0x1.015b0bfbe4903p-3 -0x0.0p+0 -0x0.0p+0 2",
    ("unit", "lf", 1.3, 0.9): "0x1.047c4fe709f08p-1 -0x1.81077e5b9e642p-3 -0x0.0p+0 -0x0.0p+0 2",
    ("unit", "ffc", 0.7, 0.4): "0x1.e2fe8ede332a8p-1 -0x1.71af70a6e4db6p-4 -0x0.0p+0 -0x0.0p+0 2",
    ("unit", "ffc", 1.3, 0.9): "0x1.a240e770b0a0dp-1 -0x1.6ad38531de636p-2 -0x0.0p+0 -0x0.0p+0 2",
    ("unit", "ffs", 0.7, 0.4): "0x1.65b1364fe98e8p-2 0x1.6d64c1b62c71bp-3 0x0.0p+0 0x0.0p+0 2",
    ("unit", "ffs", 1.3, 0.9): "0x1.5a7d5b78996d8p-1 0x1.2b5bb91acac92p-2 0x0.0p+0 0x0.0p+0 2",
    ("exp2.2", "lf", 0.7, 0.4): "0x1.5a82d67b518b6p-2 -0x1.7e5b684156ccbp-5 -0x0.0p+0 -0x0.0p+0 2",
    ("exp2.2", "lf", 1.3, 0.9): "0x1.126cfc77f1324p-2 -0x1.1a4436e36f568p-4 -0x0.0p+0 -0x0.0p+0 2",
    ("exp2.2", "ffc", 0.7, 0.4):
        "0x1.aeb108d6af63ep-2 -0x1.7535e108b9d06p-5 -0x0.0p+0 -0x0.0p+0 2",
    ("exp2.2", "ffc", 1.3, 0.9):
        "0x1.51621ced82c68p-2 -0x1.140a74c2f4a14p-3 -0x0.0p+0 -0x0.0p+0 4",
    ("exp2.2", "ffs", 0.7, 0.4): "0x1.230a614e8a41fp-3 0x1.fbb62dfdddfaap-5 0x0.0p+0 0x0.0p+0 2",
    ("exp2.2", "ffs", 1.3, 0.9): "0x1.ffa6c651ae663p-3 0x1.c3b404dfa06b0p-5 0x0.0p+0 0x0.0p+0 4",
    ("cheb2", "lf", 0.7, 0.4): "-0x1.5f5965e56a090p-3 -0x1.b0a8a224a2d6ep-5 -0x0.0p+0 -0x0.0p+0 2",
    ("cheb2", "lf", 1.3, 0.9): "-0x1.fcba31aef3843p-3 -0x1.1d55421328ac3p-5 -0x0.0p+0 -0x0.0p+0 2",
    ("cheb2", "ffc", 0.7, 0.4):
        "-0x1.168c9a56cf439p-4 -0x1.a9a0e5817c744p-4 -0x0.0p+0 -0x0.0p+0 2",
    ("cheb2", "ffc", 1.3, 0.9):
        "-0x1.f0e9317844d90p-3 -0x1.8df430325b44ap-2 -0x0.0p+0 -0x0.0p+0 2",
    ("cheb2", "ffs", 0.7, 0.4): "0x1.db0bda7d04914p-3 0x1.956026b108374p-4 0x0.0p+0 0x0.0p+0 2",
    ("cheb2", "ffs", 1.3, 0.9): "0x1.de5748b8a0982p-2 0x1.954914108473cp-5 0x0.0p+0 0x0.0p+0 2",
    ("cheb3", "lf", 0.7, 0.4): "-0x1.40841ad55da51p-2 0x1.7e948bf1f5006p-6 0x0.0p+0 0x0.0p+0 2",
    ("cheb3", "lf", 1.3, 0.9): "-0x1.16aeaa91bfa79p-2 0x1.0d5e02d998606p-4 0x0.0p+0 0x0.0p+0 2",
    ("cheb3", "ffc", 0.7, 0.4):
        "-0x1.6dc2553285364p-2 -0x1.1507257104393p-5 -0x0.0p+0 -0x0.0p+0 2",
    ("cheb3", "ffc", 1.3, 0.9):
        "-0x1.ba40f472bcf9fp-2 -0x1.d4ac006d7dd42p-4 -0x0.0p+0 -0x0.0p+0 2",
    ("cheb3", "ffs", 0.7, 0.4):
        "-0x1.ab0f7f716e8e0p-11 -0x1.12f044941fd5ep-6 -0x0.0p+0 -0x0.0p+0 2",
    ("cheb3", "ffs", 1.3, 0.9): "0x1.8961621ab6989p-7 -0x1.f409861b072e8p-4 -0x0.0p+0 -0x0.0p+0 2",
}
_PINNED_FIELD = {
    ("unit", "ffc", 0.6, 0.3): (
        "0x1.3196098e67374p-1 0x1.e8ba08be66633p-1 0x1.de4d3502a5f38p-5 -0x1.95b0f2bff2964p-3 "
        "0x1.718934e6642a8p-4 0x1.95b0f2bff2964p-3 0x1.227965f3adae9p-2"),
    ("unit", "ffc", -0.8, 1.1): (
        "-0x1.dd825a5bb8308p-1 0x1.1225e284d25c4p+0 -0x1.3cb4401cd864cp-2 0x1.6283394016b4cp-2 "
        "0x1.5713e1a627e8cp-2 -0x1.6283394016b4cp-2 0x1.0c7cf9e870e5cp+0"),
    ("unit", "ffs", 0.6, 0.3): (
        "0x1.16d19ad00b2cap-4 0x1.30c42679cb6c1p-2 -0x1.1a23c36fcfc47p-3 0x1.dd0d47b522f4dp-2 "
        "0x1.65a07a22bd202p-5 -0x1.dd0d47b522f4dp-2 0x1.68605495bb8f7p-4"),
    ("unit", "ffs", -0.8, 1.1): (
        "-0x1.cc9497bf292fep-4 -0x1.ff6e9948e6512p-2 -0x1.0598c6df0c77ep-1 0x1.1a2c0b0d7958dp-1 "
        "-0x1.ddb5e3aa00924p-3 -0x1.1a2c0b0d7958dp-1 -0x1.d70a67c2f3d6ep-2"),
    ("exp2.2", "ffc", 0.6, 0.3): (
        "0x1.153581d446facp-2 0x1.b6af0bd4fd674p-2 0x1.ee7c2b5f1a1f6p-6 -0x1.b4e342519fa08p-4 "
        "0x1.2473d28ab5ef2p-5 0x1.b4e342519fa08p-4 0x1.0506ce9f0f056p-3"),
    ("exp2.2", "ffc", -0.8, 1.1): (
        "-0x1.bbb737b0807f0p-2 0x1.c2f8ce1737193p-2 -0x1.73c2e97202156p-3 0x1.1ba0c2624fe63p-2 "
        "0x1.6e5bc67fb272bp-5 -0x1.1ba0c2624fe63p-2 0x1.d46b9713257f8p-2"),
    ("exp2.2", "ffs", 0.6, 0.3): (
        "0x1.d0faab675297ap-6 0x1.ef6beb78e327cp-4 -0x1.9b226413f97c1p-5 0x1.5d32a30da8cc4p-3 "
        "0x1.374b3df921bdep-5 -0x1.5d32a30da8cc4p-3 0x1.20166e045c4d8p-5"),
    ("exp2.2", "ffs", -0.8, 1.1): (
        "-0x1.7fc29ff55da48p-6 -0x1.00ee1c93b3ff4p-2 -0x1.3bc9336229d11p-3 0x1.f2fd1f0e64596p-4 "
        "-0x1.e5ea6d1f4943bp-3 -0x1.f2fd1f0e64596p-4 -0x1.9057e98f0e255p-3"),
    ("cheb4", "ffc", 0.6, 0.3): (
        "-0x1.357019e7df480p-14 -0x1.c2220836e0cc0p-13 -0x1.9d6f03b586780p-11 "
        "0x1.04c9a17f477bcp-10 -0x1.3674bbb1ae284p-8 -0x1.04c9a17f477bcp-10 "
        "0x1.569b4eedb52e0p-14"),
    ("cheb4", "ffc", -0.8, 1.1): (
        "0x1.0948f978a8100p-12 -0x1.955e22f816c81p-7 -0x1.e4b17a37c06aep-8 0x1.3e2ff2dfb2dd0p-5 "
        "-0x1.305490e1d9eecp-6 -0x1.3e2ff2dfb2dd0p-5 -0x1.fc731de0947d0p-9"),
    ("cheb4", "ffs", 0.6, 0.3): (
        "-0x1.22fa095aa4131p-7 -0x1.4cad768b372aep-5 0x1.744af6ed893dbp-6 -0x1.31d0bd60cc445p-4 "
        "0x1.2f93c0f3ed4bep-7 0x1.31d0bd60cc445p-4 -0x1.9831d57c2fef4p-7"),
    ("cheb4", "ffs", -0.8, 1.1): (
        "0x1.b1f8693f7bae8p-6 0x1.f92506857fb83p-6 0x1.5f560b8a6dbe3p-4 -0x1.0f142bc1ae20ep-4 "
        "-0x1.eba17ef1dada5p-5 0x1.0f142bc1ae20ep-4 0x1.bf39f2d58abbep-5"),
}


def test_transform_values_keep_their_bits():
    originals = {eta.name: eta for eta in (unit_original(), exp_decay_original(2.2),
                                           chebyshev_kernel(2), chebyshev_kernel(3),
                                           chebyshev_kernel(4))}
    for (name, kind, x0, rho), want in _PINNED_DETAIL.items():
        v, spec = transform_detail(kind, originals[name], Quaternion(x0, rho, 0, 0))
        got = " ".join(c.hex() for c in (v.x0, v.x1, v.x2, v.x3)) + f" {spec.panels}"
        assert got == want, (name, kind, x0, rho)
    for (name, kind, x0, rho), want in _PINNED_FIELD.items():
        vals = transform_field(kind, originals[name]).at(
            ("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho", "stream"), x0, rho)
        assert " ".join(float(c).hex() for c in vals) == want, (name, kind, x0, rho)


# ---------------------------------------------------------------------------
# Bessel integral representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", range(8))
def test_bessel_rep_matches_series_real_axis(order):
    x = Quaternion(1.7, 0, 0, 0)
    rep = bessel_integral_rep(order, x)
    assert abs(rep.x0 - bessel_j(order, 1.7)) < 1e-9


def test_bessel_rep_matches_series_quaternionic():
    x = Quaternion(1, 0.6, 0, 0.8)
    for order in range(8):
        rep = bessel_integral_rep(order, x)
        assert (rep - bessel_j_quat(order, x)).norm() < 1e-9, order


def test_bessel_rep_guards():
    x = Quaternion(1, 0, 0, 0)
    for order in (-1, -2):
        with pytest.raises(DomainError, match="Chebyshev kernel order must be >= 0"):
            bessel_integral_rep(order, x)


# ---------------------------------------------------------------------------
# transform-backed fields
# ---------------------------------------------------------------------------

def test_transform_field_ffc_values():
    field = transform_field("ffc", exp_decay_original(2.0))
    assert field.alpha == 2.0
    # V0 + i(-Vrho) = int e^{-2t} cos(z t) dt = 0.4 - 0.2i at z = 1+i
    assert abs(field.V0(1.0, 1.0) - 0.4) < 1e-9
    assert abs(field.Vrho(1.0, 1.0) - 0.2) < 1e-9


def test_transform_field_ffs_values():
    field = transform_field("ffs", exp_decay_original(2.0))
    # V0 - i Vrho = int e^{-2t} sin(z t) dt = 0.3 + 0.1i at z = 1+i
    assert abs(field.V0(1.0, 1.0) - 0.3) < 1e-9
    assert abs(field.Vrho(1.0, 1.0) - (-0.1)) < 1e-9


@pytest.mark.parametrize("kind", ["ffc", "ffs"])
def test_transform_field_derivative_consistency(kind):
    field = transform_field(kind, exp_decay_original(2.0))
    h = 1e-4
    x0, rho = 0.7, 0.9
    fd_v0 = (field.g(x0 + h, rho) - field.g(x0 - h, rho)) / (2 * h)
    fd_vr = (field.g(x0, rho + h) - field.g(x0, rho - h)) / (2 * h)
    assert abs(fd_v0 - field.V0(x0, rho)) < 1e-6
    assert abs(fd_vr - field.Vrho(x0, rho)) < 1e-6
    fd_0r = (field.Vrho(x0 + h, rho) - field.Vrho(x0 - h, rho)) / (2 * h)
    fd_rr = (field.Vrho(x0, rho + h) - field.Vrho(x0, rho - h)) / (2 * h)
    assert abs(fd_0r - field.dVrho_dx0(x0, rho)) < 1e-6
    assert abs(fd_rr - field.dVrho_drho(x0, rho)) < 1e-6


def test_transform_field_stream_consistency():
    # Vrho = -(1/rho) d(stream)/dx0 does not hold here; the alpha = 2 stream
    # pairing is rho-weighted: d(stream)/dx0 = rho * V... check both partials
    field = transform_field("ffc", exp_decay_original(2.0))
    assert field.has_stream()
    h = 1e-4
    x0, rho = 0.7, 0.9
    fd = (field.stream_value(x0, rho + h) - field.stream_value(x0, rho - h)) / (2 * h)
    # d/drho int eta sinh(rho t)/t cos(x0 t) = int eta cosh(rho t) cos(x0 t) = V0
    assert abs(fd - field.V0(x0, rho)) < 1e-6


def test_transform_field_kind_guard():
    with pytest.raises(DomainError):
        transform_field("laplace", exp_decay_original(2.0))


_FIELD_ORIGINALS = [exp_decay_original(2.0), unit_original(), chebyshev_kernel(2)]
_FIELD_POINTS = [(0.7, 0.9), (-1.3, 0.2), (0.0, 1.4), (2.1, 1e-3)]


@pytest.mark.parametrize("kind,op", [("ffc", ff_cos), ("ffs", ff_sin)])
@pytest.mark.parametrize("eta", _FIELD_ORIGINALS, ids=lambda eta: eta.name)
def test_transform_field_is_the_transform_lift(kind, op, eta):
    # V0 - i*Vrho = G'(x0 + i*rho), and G' is the transform itself
    field = transform_field(kind, eta)
    for x0, rho in _FIELD_POINTS:
        want = op(eta, Quaternion(x0, rho, 0.0, 0.0))
        v0, neg_vr = field.V0(x0, rho), -field.Vrho(x0, rho)
        assert abs(v0 - want.x0) <= 1e-15 * abs(want.x0)
        assert abs(neg_vr - want.x1) <= 1e-15 * abs(want.x1)


_QUANTITIES = ("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho")


@pytest.mark.parametrize("kind", ["ffc", "ffs"])
def test_transform_field_memo_never_goes_stale(kind, monkeypatch):
    eta = exp_decay_original(2.0)
    field = transform_field(kind, eta)
    integrals, passes = tr._integrals, []
    monkeypatch.setattr(tr, "_integrals", lambda *args: passes.append(args[2]) or integrals(*args))
    field.evaluate(_QUANTITIES, np.array([0.3, -0.8]), np.array([0.4, 0.9]))
    assert passes == [3]  # G, G' and G'' of both points in one quadrature pass
    monkeypatch.undo()
    grid_a = (np.array([0.3, -0.8, 1.1]), np.array([0.4, 0.9, 1.5]))
    grid_b = (np.array([0.3, -0.8, 1.2]), np.array([0.4, 0.9, 1.5]))  # one node moved
    for x0, rho in (grid_a, grid_b, grid_a):
        for name in _QUANTITIES:
            got, = field.evaluate([name], x0, rho)
            for i in range(x0.size):
                fresh = getattr(transform_field(kind, eta), name)(x0[i], rho[i])
                assert got[i] == fresh
    fresh = transform_field(kind, eta)
    for name in _QUANTITIES:
        assert getattr(field, name)(0.5, 0.6) == getattr(fresh, name)(0.5, 0.6)
    assert field.stream_value(0.5, 0.6) == fresh.stream_value(0.5, 0.6)


# ---------------------------------------------------------------------------
# the whole convergent strip, and the batched rule against one-point calls
# ---------------------------------------------------------------------------

_RATE = 2.0


def _strip_grid(x_lo, x_hi):
    """A 13 x 13 grid whose rho reaches 0.99 * rate, flattened."""
    x0, rho = np.meshgrid(np.linspace(x_lo, x_hi, 13), np.linspace(0.01, 0.99 * _RATE, 13))
    return x0.ravel(), rho.ravel()


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("kind,closed", [
    ("ffc", lambda z: _RATE / (z * z + _RATE ** 2)),
    ("ffs", lambda z: z / (z * z + _RATE ** 2)),
])
def test_exp_field_matches_closed_form_over_the_strip(monkeypatch, kind, closed, tol):
    # G' = V0 - i*Vrho; near rho = rate the value reaches 25 and T 1150-1600
    monkeypatch.setattr(tr, "TOL", tol)
    x0, rho = _strip_grid(-1.5, 1.5)
    field = transform_field(kind, exp_decay_original(_RATE))
    v0, vr = field.evaluate(["V0", "Vrho"], x0, rho)
    err = np.abs(v0 - 1j * vr - closed(x0 + 1j * rho))
    assert err.max() <= tol


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_laplace_exp_matches_closed_form_over_the_strip(monkeypatch, tol):
    monkeypatch.setattr(tr, "TOL", tol)
    x0, rho = _strip_grid(-1.5, 1.5)  # the abscissa is -rate
    for a, b in zip(x0.tolist(), rho.tolist()):
        got = laplace_fueter(exp_decay_original(_RATE), Quaternion(a, b, 0, 0))
        assert abs(complex(got.x0, got.x1) - 1.0 / (complex(a, b) + _RATE)) <= tol


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_ffc_cheb0_is_bessel_j0_on_the_real_axis(monkeypatch, tol):
    monkeypatch.setattr(tr, "TOL", tol)
    for x in np.linspace(-6.0, 6.0, 25).tolist():
        got = ff_cos(chebyshev_kernel(0), Quaternion(x, 0, 0, 0))
        assert abs(got.x0 - 0.5 * math.pi * bessel_j(0, abs(x))) <= tol


@pytest.mark.parametrize("kind", ["ffc", "ffs"])
def test_field_near_the_decay_rate_raises_no_float_error(kind):
    x0, rho = _strip_grid(-1.5, 1.5)
    prof = transform_field(kind, exp_decay_original(_RATE)).profile
    with np.errstate(over="raise", invalid="raise"):
        for name in ("g", "dg_dx0", "dg_drho", "d2g_dx0x0", "d2g_dx0rho",
                     "d2g_drhorho", "stream"):
            assert np.all(np.isfinite(getattr(prof, name)(x0, rho)))


# eval and spectrum grids of the transform benchmark: 20 x 20, 15 x 15, 12 x 12
_BENCH_SHAPES = [(20, 20), (15, 15), (12, 12)]


@pytest.mark.parametrize("shape", _BENCH_SHAPES)
@pytest.mark.parametrize("kind,eta", [
    ("ffc", exp_decay_original(2.2)), ("ffs", exp_decay_original(2.2)),
    ("ffc", unit_original()), ("ffs", unit_original()),
    ("ffc", chebyshev_kernel(4)), ("ffs", chebyshev_kernel(3)),
], ids=lambda v: getattr(v, "name", v))
def test_batched_evaluate_equals_one_point_transforms(kind, eta, shape):
    nx, nr = shape
    x0, rho = np.meshgrid(np.linspace(-1.05, 0.95, nx), np.linspace(0.12, 0.78, nr),
                          indexing="ij")
    x0, rho = x0.ravel(), rho.ravel()
    v0, vr = transform_field(kind, eta).evaluate(["V0", "Vrho"], x0, rho)
    for i, (a, b) in enumerate(zip(x0.tolist(), rho.tolist())):
        got, _ = transform_detail(kind, eta, Quaternion(a, b, 0, 0))
        assert (v0[i], -vr[i]) == (got.x0, got.x1)


# ---------------------------------------------------------------------------
# one pass for a field's lifts, against one pass per lift
# ---------------------------------------------------------------------------

def _ref_cos(z, s, t):
    if not s:
        return np.cos(z * t)
    return 0.5 * (np.exp((1j * z - s) * t) + np.exp((-1j * z - s) * t))


def _ref_sin(z, s, t):
    if not s:
        return np.sin(z * t)
    return -0.5j * (np.exp((1j * z - s) * t) - np.exp((-1j * z - s) * t))


# kind -> kernels of G, G' and G'', each on its own
_REF_KERNELS = {
    "ffc": (lambda z, s, t: _ref_sin(z, s, t) / t, _ref_cos,
            lambda z, s, t: -t * _ref_sin(z, s, t)),
    "ffs": (lambda z, s, t: (np.exp(-s * t) - _ref_cos(z, s, t)) / t, _ref_sin,
            lambda z, s, t: t * _ref_cos(z, s, t)),
}


def _single_kernel_passes(kind, eta, z):
    """Values and panel counts of G, G' and G'', one pass per lift."""
    runs = [tr._integrals(kind, lambda zc, s, t, k=k: [k(zc, s, t)], 1, eta, z)
            for k in _REF_KERNELS[kind]]
    return np.stack([r[0][0] for r in runs]), np.stack([r[1][0] for r in runs])


_SHARED_ORIGINALS = ([exp_decay_original(2.2), unit_original()]
                     + [chebyshev_kernel(2 * n) for n in (1, 2, 3)]
                     + [chebyshev_kernel(k) for k in (1, 3, 5)])


def _bench_grid(shape):
    nx, nr = shape
    x0, rho = np.meshgrid(np.linspace(-1.05, 0.95, nx), np.linspace(0.12, 0.78, nr),
                          indexing="ij")
    return x0.ravel(), rho.ravel()


@pytest.mark.parametrize("shape", _BENCH_SHAPES)
@pytest.mark.parametrize("eta", _SHARED_ORIGINALS, ids=lambda eta: eta.name)
@pytest.mark.parametrize("kind", ["ffc", "ffs"])
def test_shared_pass_has_the_bits_of_one_pass_per_lift(kind, eta, shape):
    x0, rho = _bench_grid(shape)
    field = transform_field(kind, eta)
    got = dict(zip(_QUANTITIES, field.evaluate(_QUANTITIES, x0, rho)))
    (G, F, F2), _ = _single_kernel_passes(kind, eta, x0 + 1j * rho)
    want = {"g": G.real, "V0": F.real, "Vrho": -F.imag, "dV0_dx0": F2.real,
            "dVrho_dx0": -F2.imag, "dVrho_drho": -F2.real}
    for name in _QUANTITIES:
        assert np.array_equal(got[name], want[name]), name
    stream = [field.stream_value(a, b) for a, b in zip(x0.tolist(), rho.tolist())]
    assert np.array_equal(stream, G.imag)


@pytest.mark.parametrize("eta,tol,grid", [
    *[(eta, tr.TOL, _bench_grid((20, 20))) for eta in _SHARED_ORIGINALS],
    # near the decay rate the points need from 2 to 512 panels, and some
    # points need more for one lift than for another
    (exp_decay_original(_RATE), 1e-12, _strip_grid(-1.5, 1.5)),
    (exp_decay_original(_RATE), 1e-8, _strip_grid(-1.5, 1.5)),
], ids=lambda v: getattr(v, "name", None))
@pytest.mark.parametrize("kind", ["ffc", "ffs"])
def test_shared_pass_panel_counts_are_those_of_one_pass_per_lift(monkeypatch, kind, eta, tol,
                                                                 grid):
    monkeypatch.setattr(tr, "TOL", tol)
    z = grid[0] + 1j * grid[1]
    value, panels, _ = tr._integrals(kind, tr._lift_kernels(kind, (0, 1, 2)), 3, eta, z)
    want_value, want_panels = _single_kernel_passes(kind, eta, z)
    assert np.array_equal(value, want_value)
    assert np.array_equal(panels, want_panels)


@pytest.mark.parametrize("argv", [
    ["eval", "--field", "transform:kind=ffc,original=exp,rate=2.2", "--grid=-1:1:4,0.1:0.8:4"],
    ["spectrum", "--field", "transform:kind=ffs,original=kernel3", "--grid=-1:1:4,0.1:0.8:4",
     "--oracle"],
])
def test_eval_and_spectrum_integrate_g_prime_and_g_second_once(monkeypatch, capsys, argv):
    from meridian4 import cli

    seen, make = [], tr._lift_kernels

    def spy(kind, lifts):
        seen.append(tuple(lifts))
        return make(kind, lifts)

    monkeypatch.setattr(tr, "_lift_kernels", spy)
    assert cli.main(argv) == 0
    assert seen == [(1, 2)]  # no G: neither command prints g
    assert capsys.readouterr().out.count("\n") == 17
    field = transform_field("ffc", unit_original())
    field.evaluate(_QUANTITIES, np.array([0.2, 0.4]), np.array([0.3, 0.1]))
    assert seen == [(1, 2), (0, 1, 2)]


def test_scalar_callers_integrate_no_more_than_before(monkeypatch):
    from meridian4.fields import lift_to_r4
    from meridian4.spectral import eigen_closed

    calls, integrals = [], tr._integrals

    def spy(kind, kernels, count, eta, z):
        calls.append((count, z.size))
        return integrals(kind, kernels, count, eta, z)

    monkeypatch.setattr(tr, "_integrals", spy)
    field = transform_field("ffc", exp_decay_original(2.0))
    x = Quaternion(0.3, 0.4, -0.2, 0.5)
    lift_to_r4(field, x)
    assert calls == [(1, 1)]  # V0 and Vrho read one integral of G'
    eigen_closed(field, x)
    # Vrho and both dVrho partials: G' and G'' from one pass
    assert calls == [(1, 1), (2, 1)]


def test_shared_pass_raises_at_the_panel_cap(monkeypatch):
    ps, panel_sums = [], tr._panel_sums

    def spy(integrand, count, z, upper, counts):
        ps.append(counts[-1])
        return panel_sums(integrand, count, z, upper, counts)

    monkeypatch.setattr(tr, "_panel_sums", spy)

    def kernels(z, s, t):  # the first converges at once, the second (1/t diverges at 0) never
        return [np.ones_like(z * t), 1.0 / t + 0 * z]

    z = np.array([0.3 + 0.2j, -0.5 + 0.7j])
    with pytest.raises(ConvergenceFailure):
        tr._integrals("ffc", kernels, 2, unit_original(), z)
    assert ps[-1] == tr._MAX_PANELS
    monkeypatch.setattr(tr, "TOL", 1e-300)
    field = transform_field("ffs", unit_original())
    with pytest.raises(ConvergenceFailure):
        field.evaluate(_QUANTITIES, np.array([0.2]), np.array([0.3]))


def test_non_finite_sum_raises_at_its_first_pass(monkeypatch):
    passes, panel_sums = [], tr._panel_sums

    def spy(*args):
        passes.append(args[-1])
        return panel_sums(*args)

    monkeypatch.setattr(tr, "_panel_sums", spy)

    def kernels(z, s, t):  # finite at the first point, NaN at the second
        return [np.where(z.imag > 0.5, np.nan, 1.0) * t + 0j]

    z = np.array([0.3 + 0.2j, -0.5 + 0.7j])
    with pytest.raises(DomainError, match=r"not finite at \(x0, rho\) = \(-0.5, 0.7\)"):
        tr._integrals("ffc", kernels, 1, unit_original(), z)
    assert passes == [(1, 2)]
    with pytest.raises(DomainError, match=r"\(x0, rho\) = \(1, 1.41421e\+308\)"):
        transform_detail("ffc", unit_original(), Quaternion(1, 1e308, 1e308, 0))
