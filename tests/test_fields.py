import math
import random

import numpy as np
import pytest

from meridian4.quaternion import Quaternion
from meridian4.holomorphic import (
    RadialFunction,
    conjugate,
    fd_stencil,
    moebius_potential,
    qexp,
    qpow,
)
from meridian4.fields import (
    RHO_MIN,
    MeridionalField,
    MeridionalProfile,
    SeparableParams,
    axial_symmetry_check,
    criterion_check,
    from_holomorphic_potential,
    from_separable,
    lift_to_r4,
    verify_axial_hyperbolic,
    verify_epd,
    verify_general_system,
    verify_stokes_beltrami,
    verify_stream,
    verify_weinstein,
)
from meridian4.errors import (
    DomainError,
    IntegerOrderUnsupported,
    NoStream,
    NotHolomorphic,
    StepTooLarge,
)


def _half_square():
    return from_holomorphic_potential(0.5 * qpow(2))


def _cubic_profile(alpha: float) -> MeridionalProfile:
    """g = rho^3 with analytic partials; solves the meridian equation only
    when alpha = 4 (rho * 6rho = (alpha-2) * 3rho^2)."""
    return MeridionalProfile(
        alpha=alpha,
        g=lambda x0, rho: rho ** 3,
        dg_dx0=lambda x0, rho: 0.0,
        dg_drho=lambda x0, rho: 3 * rho ** 2,
        d2g_dx0x0=lambda x0, rho: 0.0,
        d2g_dx0rho=lambda x0, rho: 0.0,
        d2g_drhorho=lambda x0, rho: 6 * rho,
        stream=None,
        label="rho3",
    )


# ---------------------------------------------------------------------------
# holomorphic constructor
# ---------------------------------------------------------------------------

def test_half_square_field():
    f = _half_square()
    assert f.alpha == 2.0
    for x0, rho in ((0.7, 1.2), (-1.4, 0.3), (0.0, 2.0)):
        assert abs(f.V0(x0, rho) - x0) < 1e-14
        assert abs(f.Vrho(x0, rho) - (-rho)) < 1e-14
        assert abs(f.g(x0, rho) - 0.5 * (x0 * x0 - rho * rho)) < 1e-14
        assert abs(f.stream_value(x0, rho) - x0 * rho) < 1e-14
    assert abs(f.dV0_dx0(0.7, 1.2) - 1.0) < 1e-14
    assert abs(f.dVrho_drho(0.7, 1.2) - (-1.0)) < 1e-14
    assert abs(f.dVrho_dx0(0.7, 1.2)) < 1e-14


def test_moebius_potential_field_values():
    # G(z) = -ln(z + 1.5) + 0.25 z at z = 0.4 + 1.1i (50-digit references)
    f = from_holomorphic_potential(moebius_potential(0.25, 1.5))
    assert abs(f.g(0.4, 1.1) - (-0.6863869640312544)) < 1e-14
    assert abs(f.V0(0.4, 1.1) - (-0.1441908713692946)) < 1e-14
    assert abs(f.Vrho(0.4, 1.1) - (-0.22821576763485477)) < 1e-14


def test_moebius_potential_closed_partials():
    # V0 = a - (x0+d)/D, Vrho = -rho/D with D = (x0+d)^2 + rho^2
    a, d = 0.25, 1.5
    f = from_holomorphic_potential(moebius_potential(a, d))
    for x0, rho in ((0.4, 1.1), (-0.9, 0.6), (1.7, 2.3)):
        D = (x0 + d) ** 2 + rho ** 2
        assert abs(f.V0(x0, rho) - (a - (x0 + d) / D)) < 1e-13
        assert abs(f.Vrho(x0, rho) - (-rho / D)) < 1e-13


def test_constructor_rejects_antiholomorphic():
    with pytest.raises(NotHolomorphic):
        from_holomorphic_potential(conjugate(qexp()))


def test_constructor_rejects_nan_lift():
    bad = RadialFunction(name="nanny", lift=lambda z: complex("nan"))
    with pytest.raises(NotHolomorphic):
        from_holomorphic_potential(bad)


def test_constructor_rejects_unprobeable():
    def nowhere(z: complex) -> complex:
        raise DomainError("defined nowhere")

    with pytest.raises(NotHolomorphic):
        from_holomorphic_potential(RadialFunction(name="void", lift=nowhere))


# ---------------------------------------------------------------------------
# separable constructor
# ---------------------------------------------------------------------------

def test_separable_frozen_values():
    p = SeparableParams(alpha=2.0, beta=1.0, a1=1.0, a2=0.0, b1=1.0, b2=1.0)
    f = from_separable(p)
    assert abs(f.g(0.4, 1.2) - 1.1094097530816285) < 1e-13
    assert abs(f.Vrho(0.4, 1.2) - 0.43131584605596207) < 1e-13


def test_separable_params_validation():
    with pytest.raises(DomainError):
        SeparableParams(alpha=2.0, beta=0.0)
    with pytest.raises(DomainError):
        SeparableParams(alpha=2.0, beta=-1.0)
    with pytest.raises(DomainError):
        SeparableParams(alpha=2.0, beta=1.0, a1=0.0, a2=0.0)
    # (alpha-1)/2 integer and a Y part requested
    with pytest.raises(IntegerOrderUnsupported):
        SeparableParams(alpha=-1.0, beta=1.0, a1=1.0, a2=0.5)
    with pytest.raises(IntegerOrderUnsupported):
        SeparableParams(alpha=3.0, beta=1.0, a1=0.0, a2=1.0)
    # non-integer order with Y is fine
    SeparableParams(alpha=-2.0, beta=1.0, a1=1.0, a2=0.5)


@pytest.mark.parametrize("name", ["alpha", "beta", "a1", "a2", "b1", "b2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_separable_params_reject_non_finite_values(name, value):
    # one DomainError naming the parameter, whichever it is: not a
    # ValueError from round(nan), an OverflowError from round(inf), or the
    # series cap blamed for beta = nan
    kwargs = dict(alpha=2.5, beta=1.0, a1=1.0, a2=0.5, b1=1.0, b2=0.5)
    kwargs[name] = value
    with pytest.raises(DomainError, match=f"^separable {name} = {value!r} must be finite$"):
        SeparableParams(**kwargs)


@pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 2.6])
def test_separable_solves_meridian_equation(alpha):
    f = from_separable(SeparableParams(alpha=alpha, beta=1.3, b1=0.7, b2=0.4))
    rng = random.Random(11)
    for _ in range(25):
        x0 = rng.uniform(-1.5, 1.5)
        rho = rng.uniform(0.2, 2.5)
        assert verify_epd(f, x0, rho) < 1e-12


def test_separable_with_y_component_solves():
    f = from_separable(SeparableParams(alpha=2.0, beta=0.9, a1=0.6, a2=0.4))
    for x0, rho in ((0.3, 0.8), (-1.1, 1.7)):
        assert verify_epd(f, x0, rho) < 1e-12


SEPARABLE_QUANTITIES = ("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho")
PROFILE_CALLABLE = {"g": "g", "V0": "dg_dx0", "Vrho": "dg_drho", "dV0_dx0": "d2g_dx0x0",
                     "dVrho_dx0": "d2g_dx0rho", "dVrho_drho": "d2g_drhorho"}


@pytest.mark.parametrize("params", [
    SeparableParams(alpha=3.0, beta=1.1, b1=0.7, b2=0.2),
    SeparableParams(alpha=2.5, beta=1.05, a1=0.9, a2=0.4, b1=0.8, b2=-0.1),
], ids=("a2=0", "a2!=0"))
@pytest.mark.parametrize("size", [1, 40, 400], ids=["one-point", "one-block", "blocks"])
def test_separable_evaluate_equals_scalar_methods(separable_gap, params, size):
    # points interleaved in rho (with repeats) and in x0, in one block of
    # (order, point) pairs of the array series or in several: each value has
    # the bits of the same point evaluated alone, the profile callables on
    # arrays give them too, and the scalar methods agree within the gap of
    # conftest.SEPARABLE_GAP_EPS
    f = from_separable(params)
    k = np.arange(size)
    x0 = np.array((-0.3, 0.4, 0.4, 1.7))[k % 4] + 1e-3 * (k // 8)
    rho = np.array((0.7, 1.9, 1.9, 0.7, 4.8))[k % 5] + 1e-3 * (k // 10)
    points = list(zip(x0.tolist(), rho.tolist()))
    names = SEPARABLE_QUANTITIES[::-1] + SEPARABLE_QUANTITIES[::2]
    alone = [f.evaluate(names, x0[i:i + 1], rho[i:i + 1]) for i in range(size)]
    gaps = [separable_gap(params, a, b) for a, b in points]
    for j, (name, got) in enumerate(zip(names, f.evaluate(names, x0, rho))):
        assert got.tolist() == [float(v[j][0]) for v in alone], name
        for (a, b), v, gap in zip(points, got.tolist(), gaps):
            assert abs(v - getattr(f, name)(a, b)) <= gap[name], (name, a, b)
        whole = getattr(f.profile, PROFILE_CALLABLE[name])(x0, rho)
        assert whole.tolist() == got.tolist(), name
    stream = f.profile.stream(x0, rho).tolist()
    assert stream == [f.profile.stream(x0[i:i + 1], rho[i:i + 1])[0] for i in range(size)]
    for (a, b), v, gap in zip(points, stream, gaps):
        assert abs(v - f.stream_value(a, b)) <= gap["stream"], (a, b)


# float.hex of (g, V0, Vrho, dV0_dx0, dVrho_dx0, dVrho_drho, stream) at each
# of SEPARABLE_PINNED_POINTS, one string of seven per point, read through at
# and through one evaluate call over the three points
SEPARABLE_PINNED_POINTS = ((-0.3, 0.7), (0.4, 1.9), (1.7, 4.8))
SEPARABLE_PINNED = [
    (SeparableParams(alpha=3.0, beta=1.1, b1=0.7, b2=0.2), {
        "at": (
        "0x1.57b40997026bep-3 -0x1.b4a43cf5fd885p-8 0x1.c5ae723dff04bp-2 0x1.9fe1867bd7690p-3 "
        "-0x1.202dd651bacb8p-6 0x1.b82d04885c092p-2 0x1.543c29768e8eep-6",
        "0x1.dc23fbfc5e269p-1 0x1.4793eebb16f1cp-1 0x1.3d03d455003bap-2 0x1.2010a6880ae1ap+0 "
        "0x1.b434166186b3dp-3 -0x1.ecb480f9b762bp-1 -0x1.7b78ebf09ff16p-4",
        "-0x1.3a264357296e1p+2 -0x1.5090049751f36p+2 -0x1.4ac3f7c20a31dp+0 -0x1.7c1ef033b4b0dp+2 "
        "-0x1.625d346b7249dp+0 0x1.6ae4bb4c4428ep+2 0x1.e81ad3d6febe8p-3",
        ),
        "evaluate": (
        "0x1.57b40997026bep-3 -0x1.b4a43cf5fd885p-8 0x1.c5ae723dff04bp-2 0x1.9fe1867bd7690p-3 "
        "-0x1.202dd651bacb8p-6 0x1.b82d04885c092p-2 0x1.543c29768e8eep-6",
        "0x1.dc23fbfc5e269p-1 0x1.4793eebb16f1dp-1 0x1.3d03d455003bap-2 0x1.2010a6880ae1ap+0 "
        "0x1.b434166186b3ep-3 -0x1.ecb480f9b762bp-1 -0x1.7b78ebf09ff17p-4",
        "-0x1.3a264357296e0p+2 -0x1.5090049751f35p+2 -0x1.4ac3f7c20a31cp+0 -0x1.7c1ef033b4b0bp+2 "
        "-0x1.625d346b7249bp+0 0x1.6ae4bb4c4428dp+2 0x1.e81ad3d6febe5p-3",
        ),
    }),
    (SeparableParams(alpha=2.5, beta=1.05, a1=0.9, a2=0.4, b1=0.8, b2=-0.1), {
        "at": (
        "0x1.9f8998c5741cbp-5 -0x1.696eeab2a3156p-6 0x1.3780616a4de4ap-1 0x1.ca214ce90d742p-5 "
        "-0x1.0ef16cb558367p-2 0x1.83bc618d04739p-2 0x1.25bb3f11b7d68p-2",
        "0x1.70e83e7853fafp-1 0x1.bb53fe74caa8cp-3 0x1.4b05c703367e2p-2 0x1.96b85e792444bp-1 "
        "0x1.8dcd05d9ab422p-4 -0x1.6b2a229a67343p-1 -0x1.05c3a5c812837p-4",
        "-0x1.1b36af41fd42ep+1 -0x1.1498a972b8eb7p+1 -0x1.3c869b6527a04p+0 -0x1.383e35b3a219bp+1 "
        "-0x1.35215467cf369p+0 0x1.27c1dd9bb2b3dp+1 0x1.ffeb8d27ea66bp-2",
        ),
        "evaluate": (
        "0x1.9f8998c5741cbp-5 -0x1.696eeab2a3156p-6 0x1.3780616a4de4ap-1 0x1.ca214ce90d742p-5 "
        "-0x1.0ef16cb558367p-2 0x1.83bc618d0473ap-2 0x1.25bb3f11b7d68p-2",
        "0x1.70e83e7853fafp-1 0x1.bb53fe74caa8cp-3 0x1.4b05c703367e2p-2 0x1.96b85e792444bp-1 "
        "0x1.8dcd05d9ab422p-4 -0x1.6b2a229a67343p-1 -0x1.05c3a5c812837p-4",
        "-0x1.1b36af41fd42ep+1 -0x1.1498a972b8eb7p+1 -0x1.3c869b6527a04p+0 -0x1.383e35b3a219bp+1 "
        "-0x1.35215467cf369p+0 0x1.27c1dd9bb2b3dp+1 0x1.ffeb8d27ea66bp-2",
        ),
    }),
    (SeparableParams(alpha=-1.5, beta=0.7, a1=0.3, a2=1.0, b1=0.5, b2=0.5), {
        "at": (
        "0x1.068b919000b07p-1 0x1.6f90323000f6fp-2 -0x1.f6975c49d0389p+0 0x1.014b5654cd79bp-2 "
        "-0x1.5fd05a33ab5acp+0 0x1.32143efb7bb69p+3 0x1.9c168a71c9aaap-1",
        "-0x1.47b257c741853p-6 -0x1.cac67ae3c220dp-7 -0x1.bf85e106c0aecp-4 -0x1.4124893907e3cp-7 "
        "-0x1.39441d84ba13ep-4 0x1.b0437ce3e3a49p-3 0x1.79c6c6e549400p+0",
        "-0x1.a5e2aa256238ep-4 -0x1.2751dd80918e3p-4 0x1.eda08322efd7ap-5 -0x1.9d729c80cbc70p-5 "
        "0x1.5989f565417d5p-5 0x1.ac173c653c76ep-8 -0x1.4db6f184400d6p+4",
        ),
        "evaluate": (
        "0x1.068b919000b07p-1 0x1.6f90323000f6fp-2 -0x1.f6975c49d0389p+0 0x1.014b5654cd79bp-2 "
        "-0x1.5fd05a33ab5acp+0 0x1.32143efb7bb69p+3 0x1.9c168a71c9aaap-1",
        "-0x1.47b257c741853p-6 -0x1.cac67ae3c220dp-7 -0x1.bf85e106c0aecp-4 -0x1.4124893907e3cp-7 "
        "-0x1.39441d84ba13ep-4 0x1.b0437ce3e3a49p-3 0x1.79c6c6e549400p+0",
        "-0x1.a5e2aa256238ep-4 -0x1.2751dd80918e3p-4 0x1.eda08322efd7ap-5 -0x1.9d729c80cbc70p-5 "
        "0x1.5989f565417d5p-5 0x1.ac173c653c76ep-8 -0x1.4db6f184400d6p+4",
        ),
    }),
]


@pytest.mark.parametrize("params,pinned", SEPARABLE_PINNED, ids=("a2=0", "a2!=0", "Y-negative"))
def test_separable_values_keep_their_bits(params, pinned):
    # both routes pinned: the gap test above passes when both move together
    f = from_separable(params)
    names = SEPARABLE_QUANTITIES + ("stream",)
    x0, rho = (np.array(c) for c in zip(*SEPARABLE_PINNED_POINTS))
    at = [" ".join(v.hex() for v in f.at(names, a, b)) for a, b in SEPARABLE_PINNED_POINTS]
    assert at == list(pinned["at"])
    columns = f.evaluate(names, x0, rho)
    evaluate = [" ".join(float(v[i]).hex() for v in columns) for i in range(len(x0))]
    assert evaluate == list(pinned["evaluate"])


def test_separable_evaluate_marks_the_series_cap_as_eval_reports_it(capsys):
    # beta * rho > 30 is past the Bessel series' cap: the scalar methods raise
    # DomainError, evaluate raises it too (eval exits 3 and writes nothing),
    # and with check=False the array series gives NaN at the same points, in
    # one block of pairs or several
    from meridian4.cli import main
    assert main(["eval", "--field", "separable:alpha=3,beta=11", "--grid", "0:1:2,2:3:3"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "DomainError" in out.err
    f = from_separable(SeparableParams(alpha=3.0, beta=11.0))
    for size in (4, 300):
        rho = np.linspace(2.0, 3.0, size)
        x0 = np.zeros(size)
        with pytest.raises(DomainError):
            f.evaluate(["Vrho"], x0, rho)
        v0, vr = f.evaluate(["V0", "Vrho"], x0, rho, check=False)
        capped = 11.0 * rho > 30.0
        assert capped.any() and not capped.all()
        assert np.isnan(v0[capped]).all() and np.isnan(vr[capped]).all()
        assert vr[~capped].tolist() == [f.Vrho(0.0, r) for r in rho[~capped].tolist()]
        with pytest.raises(DomainError):
            f.Vrho(0.0, float(rho[-1]))


# ---------------------------------------------------------------------------
# the meridian equation verifier
# ---------------------------------------------------------------------------

def test_epd_holomorphic_alpha2_exact():
    f = from_holomorphic_potential(qexp())
    # for alpha = 2 the residual is rho * |Re F' - Re F'| = 0 identically
    assert verify_epd(f, 0.8, 1.1) == 0.0


def test_epd_nonsolution_analytic_value():
    prof = MeridionalField(_cubic_profile(alpha=1.0))
    # rho*(0 + 6 rho) - (1-2)*3 rho^2 = 9 rho^2
    assert abs(verify_epd(prof, 0.0, 1.1) - 9 * 1.1 ** 2) < 1e-12
    assert verify_epd(MeridionalField(_cubic_profile(alpha=4.0)), 0.0, 1.1) == 0.0


def test_epd_domain_floor():
    f = _half_square()
    with pytest.raises(DomainError):
        verify_epd(f, 0.0, 1e-7)
    with pytest.raises(DomainError):
        f.V0(0.0, 0.5 * RHO_MIN)
    with pytest.raises(DomainError):
        f.g(0.0, -1.0)


# ---------------------------------------------------------------------------
# stream / Stokes-Beltrami verifiers
# ---------------------------------------------------------------------------

def test_stream_equation_residuals():
    holo = from_holomorphic_potential(qexp())
    sep = from_separable(SeparableParams(alpha=3.0, beta=1.1, b1=1.0, b2=0.3))
    for x0, rho in ((0.4, 0.9), (-0.7, 1.6)):
        assert verify_stream(holo, x0, rho) < 1e-6
        assert verify_stream(sep, x0, rho) < 1e-6


def test_stokes_beltrami_residuals():
    holo = from_holomorphic_potential(moebius_potential(0.0, 5.0))
    for x0, rho in ((0.4, 0.9), (-0.7, 1.6), (1.8, 0.5)):
        r1, r2 = verify_stokes_beltrami(holo, x0, rho)
        assert r1 < 1e-7 and r2 < 1e-7
    sep = from_separable(SeparableParams(alpha=0.0, beta=1.0, b1=0.5, b2=0.5))
    for x0, rho in ((0.4, 0.9), (-0.7, 1.6)):
        r1, r2 = verify_stokes_beltrami(sep, x0, rho)
        assert r1 < 1e-6 and r2 < 1e-6


def test_stokes_beltrami_detects_wrong_pairing():
    # swap the stream sign: residual r2 jumps to ~2|w g_rho|
    good = from_separable(SeparableParams(alpha=2.0, beta=1.0, b1=1.0, b2=1.0))
    bad = MeridionalField(MeridionalProfile(
        alpha=good.alpha, g=good.profile.g, dg_dx0=good.profile.dg_dx0,
        dg_drho=good.profile.dg_drho, d2g_dx0x0=good.profile.d2g_dx0x0,
        d2g_dx0rho=good.profile.d2g_dx0rho, d2g_drhorho=good.profile.d2g_drhorho,
        stream=lambda x0, rho: -good.profile.stream(x0, rho), label="flipped"))
    r1, r2 = verify_stokes_beltrami(bad, 0.4, 1.2)
    assert max(r1, r2) > 0.1


def test_stream_guards():
    prof = MeridionalField(_cubic_profile(alpha=5.0))
    with pytest.raises(NoStream):
        verify_stream(prof, 0.3, 1.0)
    with pytest.raises(NoStream):
        verify_stokes_beltrami(prof, 0.3, 1.0)
    # points nearer the axis than the step of a second (10 h) or first (h)
    # derivative along rho, with h = 1e-4
    f = _half_square()
    with pytest.raises(StepTooLarge, match=r"^step 0\.001 reaches the axis \(rho = 0\.0005\)$"):
        verify_stream(f, 0.3, 5e-4)
    with pytest.raises(StepTooLarge, match=r"^step 0\.0001 reaches the axis \(rho = 5e-05\)$"):
        verify_stokes_beltrami(f, 0.3, 5e-5)


# float.hex of (epd, stream, r1, r2) at each of VERIFIER_PINNED_POINTS, one
# string of four per point, each point passed alone as floats
VERIFIER_PINNED_POINTS = ((-0.3, 0.7), (0.4, 1.2), (1.1, 0.5))
VERIFIER_PINNED = {
    "holo:name=qexp": (
        "0x0.0p+0 0x1.8ec3519999999p-34 0x1.39b0000000000p-41 0x1.27e8000000000p-41",
        "0x0.0p+0 0x1.4221419999999p-30 0x1.b800000000000p-47 0x1.e800000000000p-41",
        "0x0.0p+0 0x1.0d06860000000p-30 0x1.2600000000000p-42 0x1.9ca0000000000p-39"),
    "separable:alpha=3,beta=1.1,b1=0.5,b2=0.5": (
        "0x1.0000000000000p-55 0x1.178a800000000p-30 0x1.4a74000000000p-41 0x1.2a50000000000p-40",
        "0x0.0p+0 0x1.4585c00000000p-35 0x1.84b8000000000p-40 0x1.0a40000000000p-40",
        "0x1.0000000000000p-53 0x1.24ef540000000p-32 0x1.b9d0000000000p-42 0x1.0f50000000000p-39"),
    "separable:alpha=2.5,beta=1.05,a1=0.9,a2=0.4,b1=0.8,b2=-0.1": (
        "0x1.0000000000000p-54 0x1.6d7fb46000000p-32 0x1.a9ca000000000p-43 0x1.0000000000000p-51",
        "0x1.8000000000000p-53 0x1.3585320000000p-32 0x1.c740000000000p-44 0x1.2ac0000000000p-42",
        "0x1.0000000000000p-54 0x1.e574ea0000000p-34 0x1.b0ec000000000p-42 0x1.31e8000000000p-39"),
    "transform:kind=ffc,original=exp,rate=2": (
        "0x0.0p+0 0x1.87a46a8ccccccp-30 0x1.48ba000000000p-36 0x1.9553800000000p-39",
        "0x0.0p+0 0x1.39a7240000000p-30 0x1.4e15800000000p-36 0x1.11d0000000000p-40",
        "0x0.0p+0 0x1.3d5db21200000p-31 0x1.af70000000000p-41 0x1.d440000000000p-41"),
}
# the same through one cloud of the three points, where it differs: the
# Stokes-Beltrami weight rho^(-1/2) is libm's pow at a float, numpy's at an array
VERIFIER_CLOUD_PINNED = {
    "separable:alpha=2.5,beta=1.05,a1=0.9,a2=0.4,b1=0.8,b2=-0.1": (
        "0x1.0000000000000p-54 0x1.6d7fb46000000p-32 0x1.a9cc000000000p-43 0x1.8000000000000p-52",
        "0x1.8000000000000p-53 0x1.3585320000000p-32 0x1.c740000000000p-44 0x1.2ac0000000000p-42",
        "0x1.0000000000000p-54 0x1.e574ea0000000p-34 0x1.b0ec000000000p-42 0x1.31e8000000000p-39"),
}


@pytest.mark.parametrize("spec", VERIFIER_PINNED,
                         ids=("holo", "separable3", "separable2.5", "transform"))
def test_verifier_residuals_keep_their_bits(spec):
    from meridian4.cli import parse_field_spec
    f = parse_field_spec(spec)

    def residuals(x0, rho):
        return (verify_epd(f, x0, rho), verify_stream(f, x0, rho),
                *verify_stokes_beltrami(f, x0, rho))
    alone = [" ".join(float(r).hex() for r in residuals(a, b)) for a, b in VERIFIER_PINNED_POINTS]
    assert alone == list(VERIFIER_PINNED[spec])
    columns = residuals(*(np.array(c) for c in zip(*VERIFIER_PINNED_POINTS)))
    cloud = [" ".join(float(c[i]).hex() for c in columns)
             for i in range(len(VERIFIER_PINNED_POINTS))]
    assert cloud == list(VERIFIER_CLOUD_PINNED.get(spec, VERIFIER_PINNED[spec]))


# float.hex of the residuals of the R^4 suites as the CLI's verify runs them
# (its u, phi and h) at R4_VERIFIER_PINNED_POINTS, point by point.  A point
# passed alone as floats and the three as one cloud give the same bits:
# Quaternion.rho, and with it the step, rounds alike at floats and arrays
R4_VERIFIER_PINNED_POINTS = ((0.3, 0.8, -0.4, 0.6), (-1.2, 0.2, 0.5, 1.1),
                             (0.7, -0.9, 1.3, 0.25))
R4_VERIFIER_PINNED = {
    'system --field holo:name=qexp': (
        '0x1.2b18000000000p-40 0x1.82c0000000000p-42 0x1.09f8000000000p-40 0x1.cb64000000000p-39 '
        '0x1.b334000000000p-41 0x1.5282000000000p-40 0x1.82dc000000000p-41 0x1.3248000000000p-42 '
        '0x1.5420000000000p-46 0x1.29a8000000000p-43 0x1.3ef0000000000p-41 0x1.29ae000000000p-42 '
        '0x1.1f0e000000000p-42 0x1.3ef2000000000p-40 0x1.8571400000000p-40 0x1.b130000000000p-40 '
        '0x1.25d8000000000p-38 0x1.7a38000000000p-41 0x1.a6f8000000000p-38 0x1.8668000000000p-43 '
        '0x1.455e000000000p-39'
    ),
    'symmetry --field holo:name=qexp': (
        '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
        '0x1.0000000000000p-57 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
        '0x0.0p+0'
    ),
    'criterion --field holo:name=qexp': (
        '0x1.f6e8000000000p-41 0x1.43fc000000000p-39 0x1.0ec8000000000p-41 0x1.534e000000000p-39 '
        '0x1.0ec8000000000p-41 0x1.9860000000000p-47 0x1.1030000000000p-44 0x1.8fc0000000000p-44 '
        '0x1.0cf0000000000p-44 0x1.8fc0000000000p-44 0x1.43c4000000000p-38 0x1.a300000000000p-45 '
        '0x1.54d8000000000p-40 0x1.3e8b400000000p-38 0x1.54d8000000000p-40'
    ),
    'system --field separable:alpha=3,beta=1.1,b1=0.5,b2=0.5': (
        '0x1.7540000000000p-41 0x1.6ab0000000000p-40 0x1.1002000000000p-39 0x1.e398000000000p-40 '
        '0x1.b334000000000p-42 0x1.3a54000000000p-40 0x1.09f8000000000p-41 0x1.c244000000000p-42 '
        '0x1.5ed6000000000p-43 0x1.5430000000000p-43 0x1.7ebc000000000p-41 0x1.9400000000000p-44 '
        '0x1.1f0c000000000p-42 0x1.a940000000000p-43 0x1.fc07800000000p-41 0x1.c784000000000p-39 '
        '0x1.c780000000000p-40 0x1.20c2000000000p-40 0x1.24d4000000000p-39 0x1.24d2000000000p-41 '
        '0x1.e810000000000p-43'
    ),
    'symmetry --field separable:alpha=3,beta=1.1,b1=0.5,b2=0.5': (
        '0x0.0p+0 0x1.0000000000000p-54 0x1.0000000000000p-55 0x0.0p+0 '
        '0x1.0000000000000p-58 0x0.0p+0 0x1.0000000000000p-53 0x0.0p+0 '
        '0x0.0p+0'
    ),
    'criterion --field separable:alpha=3,beta=1.1,b1=0.5,b2=0.5': (
        '0x1.0ecc000000000p-40 0x1.3540000000000p-44 0x1.82e0000000000p-41 0x1.4c8c000000000p-41 '
        '0x1.82e0000000000p-41 0x1.8fbe000000000p-44 0x1.036a000000000p-43 0x1.c2bc000000000p-43 '
        '0x1.3ee0000000000p-43 0x1.c2bc000000000p-43 0x1.1ff2000000000p-38 0x1.114e000000000p-40 '
        '0x1.2b50000000000p-42 0x1.27a8300000000p-38 0x1.2b50000000000p-42'
    ),
    'weinstein --potential x3pow':
        '0x1.7cfc000000000p-37 0x1.40e1e00000000p-31 0x1.f4e0000000000p-43',
    'axial --potential x3pow':
        '0x1.70a3d70a497f8p+1 0x1.e9fbe7691dc50p+0 0x1.e000000001018p+1',
    'criterion --potential x3pow': (
        '0x0.0p+0 0x1.ba5e353f7d962p-1 0x1.ba5e353f7d962p-2 0x1.70128a6b41360p-1 '
        '0x1.ba5e353f7d962p-2 0x0.0p+0 0x1.73b645a1c8f5dp-1 0x1.d0a3d70a3b334p+0 '
        '0x1.5264e6a0336bdp-1 0x1.d0a3d70a3b334p+0 0x0.0p+0 0x1.59999999996c0p-3 '
        '0x1.f333333332f15p-3 0x1.051008fa2cc8bp-5 0x1.f333333332f15p-3'
    ),
    'weinstein --potential rhopow:e=-1.5':
        '0x1.bc3e50aa9fba5p+0 0x1.03b38c261aa80p+1 0x1.71f26b3314eb4p-3',
    'axial --potential rhopow:e=-1.5':
        '0x1.ad6f701c670d8p+1 0x1.622362056ab11p+1 0x1.d9fe99596aa48p+0',
    'criterion --potential rhopow:e=-1.5': (
        '0x1.3580000000000p-40 0x1.d040000000000p-42 0x1.5c30000000000p-41 0x1.0c38000000000p-40 '
        '0x1.5c30000000000p-41 0x1.3230000000000p-43 0x1.5cb8000000000p-41 0x1.c2c8000000000p-41 '
        '0x1.5d20000000000p-41 0x1.c2c8000000000p-41 0x1.6c60000000000p-42 0x1.48a0000000000p-42 '
        '0x1.1ff4000000000p-41 0x1.27a1000000000p-42 0x1.1ff4000000000p-41'
    ),
}


@pytest.mark.parametrize("case", R4_VERIFIER_PINNED)
def test_r4_verifier_residuals_keep_their_bits(case):
    from meridian4 import cli
    _, _, check, _ = cli._suite(cli.build_parser().parse_args(["verify", *case.split()]))
    alone = [float(r).hex() for p in R4_VERIFIER_PINNED_POINTS
             for r in check(Quaternion(*p))]
    columns = check(Quaternion(*map(np.array, zip(*R4_VERIFIER_PINNED_POINTS))))
    cloud = [float(c[i]).hex() for i in range(len(R4_VERIFIER_PINNED_POINTS)) for c in columns]
    assert alone == cloud == R4_VERIFIER_PINNED[case].split()

def test_no_stream_on_field_view():
    from meridian4.fields import MeridionalField
    f = MeridionalField(_cubic_profile(alpha=5.0))
    assert not f.has_stream()
    with pytest.raises(NoStream):
        f.stream_value(0.3, 1.0)


def test_profile_of_callables_evaluates_arrays_one_call_per_quantity():
    # the batch of a hand-built profile hands each callable the whole array
    # once, and a callable may answer with one float for every point
    from meridian4.fields import MeridionalField
    base, calls = _cubic_profile(alpha=4.0), {}

    def counted(attr, fn):
        def call(x0, rho):
            calls[attr] = calls.get(attr, 0) + 1
            return fn(x0, rho)
        return call
    attrs = dict(PROFILE_CALLABLE, stream="stream")
    fns = {attr: getattr(base, attr) for attr in PROFILE_CALLABLE.values()}
    fns["stream"] = lambda x0, rho: x0 * rho
    f = MeridionalField(MeridionalProfile(
        alpha=4.0, label="counted", **{attr: counted(attr, fn) for attr, fn in fns.items()}))
    x0, rho = np.linspace(-1.0, 1.0, 9), np.linspace(0.2, 2.0, 9)
    got = f.evaluate(tuple(attrs), x0, rho)
    assert calls == {attr: 1 for attr in attrs.values()}
    for name, col in zip(attrs, got):
        at = f.stream_value if name == "stream" else getattr(f, name)
        assert col.tolist() == [at(a, b) for a, b in zip(x0.tolist(), rho.tolist())], name


# ---------------------------------------------------------------------------
# Weinstein / axial verifiers (scalar fields on R^4)
# ---------------------------------------------------------------------------

def test_weinstein_power_solution():
    alpha = 1.5
    h_fn = lambda q: q.x3 ** (1.0 + alpha)
    for x in (Quaternion(0.3, 0.1, -0.4, 0.8), Quaternion(-1.0, 0.5, 0.2, 1.4)):
        assert verify_weinstein(h_fn, alpha, x) < 2e-6


def test_weinstein_rejects_wrong_power():
    # x3^3 against alpha = 1: residual 3 x3^2 exactly
    h_fn = lambda q: q.x3 ** 3
    x = Quaternion(0.2, 0.1, 0.3, 1.0)
    res = verify_weinstein(h_fn, 1.0, x)
    assert abs(res - 3.0) < 1e-7


def test_fd_stencil_is_fourth_order():
    # the difference rule behind every verifier is fourth order: halving
    # the step divides the truncation error by about sixteen, for first
    # and for second derivatives of exp and x^2.5.  At (0, 1) fd_stencil
    # steps h = 1e-4 along x0, so reading fn(x + k a) there steps k h
    # (10 k h for a second derivative) from x, and the derivative comes
    # back times k^order
    cases = [(np.exp, np.exp, np.exp, 0.3),
             (lambda t: t ** 2.5, lambda t: 2.5 * t ** 1.5, lambda t: 3.75 * t ** 0.5, 0.9)]
    for fn, d1, d2, x in cases:
        for order, exact, step in ((1, d1(x), 0.1), (2, d2(x), 0.02)):
            e_coarse, e_fine = (
                abs(fd_stencil(lambda a, b: fn(x + k * a), (0.0, 1.0), [(order, 0)])[0]
                    / k ** order - exact)
                for k in (step / 1e-4, 0.5 * step / 1e-4))
            assert 15.0 < e_coarse / e_fine < 17.0, (order, x, e_coarse, e_fine)


def test_axial_hyperbolic_quadratic_solution():
    # h = x1^2+x2^2+x3^2 solves the axial equation exactly when alpha = 3
    h_fn = lambda q: q.x1 ** 2 + q.x2 ** 2 + q.x3 ** 2
    x = Quaternion(0.5, 0.8, -0.3, 0.6)
    assert verify_axial_hyperbolic(h_fn, 3.0, x) < 1e-8
    # against alpha = 2 the residual is rho^2 * 6 - 2 * (2 rho^2) = 2 rho^2
    rho2 = 0.8 ** 2 + 0.3 ** 2 + 0.6 ** 2
    res = verify_axial_hyperbolic(h_fn, 2.0, x)
    assert abs(res - 2 * rho2) < 1e-7


# ---------------------------------------------------------------------------
# general system / criterion / axial symmetry
# ---------------------------------------------------------------------------

def test_general_system_linear_example():
    u = lambda q: (0.0, q.x2, 0.0, 0.0)
    phi = lambda q: 1.0
    res = verify_general_system(u, phi, Quaternion(0.3, 0.5, 0.7, 0.2))
    cont, s1, s2, s3, c12, c13, c23 = res
    assert max(cont, s1, s2, s3) < 1e-12
    assert abs(c12 - 1.0) < 1e-12
    assert max(c13, c23) < 1e-12


def test_general_system_meridional_solution():
    # the meridional field enters with flipped imaginary part and the
    # rho^{-alpha} weight; all seven residuals then vanish
    f = from_holomorphic_potential(qexp())

    def u(q: Quaternion):
        v = lift_to_r4(f, q)
        return (v.x0, -v.x1, -v.x2, -v.x3)

    def phi(q: Quaternion) -> float:
        return q.rho() ** (-f.alpha)

    for x in (Quaternion(0.5, 0.8, 0.4, 0.3), Quaternion(-0.6, 0.3, -0.9, 0.5)):
        assert max(verify_general_system(u, phi, x)) < 1e-6


def test_criterion_passes_axisymmetric():
    h_fn = lambda q: q.x0 ** 2 - (q.x1 ** 2 + q.x2 ** 2 + q.x3 ** 2) / 3.0
    cart, ang = criterion_check(h_fn, Quaternion(0.7, 0.5, 0.6, 0.4))
    assert max(cart) < 1e-9
    assert max(ang) < 1e-9


def test_criterion_fails_non_axisymmetric():
    h_fn = lambda q: q.x0 ** 2 - q.x3 ** 2
    cart, ang = criterion_check(h_fn, Quaternion(1, 1, 1, 1))
    # analytic residuals: (0, 2, 2) and (sqrt(2), 2)
    assert abs(cart[0]) < 1e-10
    assert abs(cart[1] - 2.0) < 1e-9
    assert abs(cart[2] - 2.0) < 1e-9
    assert abs(ang[0] - math.sqrt(2.0)) < 1e-9
    assert abs(ang[1] - 2.0) < 1e-9


def test_criterion_chart_guards():
    h_fn = lambda q: q.x0
    with pytest.raises(DomainError):
        criterion_check(h_fn, Quaternion(1, 0, 0, 0))  # rho = 0
    with pytest.raises(DomainError):
        criterion_check(h_fn, Quaternion(1, 1, 0, 0))  # x2 = x3 = 0


def test_axial_symmetry_check():
    f = _half_square()
    u = lambda q: tuple(lift_to_r4(f, q).components())
    x = Quaternion(0.5, 0.2, 0.7, 0.3)
    assert max(axial_symmetry_check(u, x)) < 1e-15
    skew = lambda q: (0.0, 1.0, 0.0, 0.0)
    r12, r13, r23 = axial_symmetry_check(skew, x)
    assert abs(r12 - 0.7) < 1e-15
    assert abs(r13 - 0.3) < 1e-15
    assert r23 == 0.0


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_to_r4_values():
    f = _half_square()
    x = Quaternion(1.2, 0.3, -0.4, 0.5)
    v = lift_to_r4(f, x)
    assert abs(v.x0 - 1.2) < 1e-14
    assert abs(v.x1 - (-0.3)) < 1e-14
    assert abs(v.x2 - 0.4) < 1e-14
    assert abs(v.x3 - (-0.5)) < 1e-14


def test_lift_domain_floor():
    f = _half_square()
    with pytest.raises(DomainError):
        lift_to_r4(f, Quaternion(1, 0, 0, 0))
    with pytest.raises(DomainError):
        lift_to_r4(f, Quaternion(1, 1e-7, 0, 0))
