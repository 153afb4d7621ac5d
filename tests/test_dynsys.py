import math
import random
import re

import pytest

from meridian4.quaternion import Quaternion
from meridian4.holomorphic import qcos, qexp, qpow
from meridian4.fields import (
    MeridionalField,
    MeridionalProfile,
    SeparableParams,
    from_holomorphic_potential,
    from_separable,
    verify_epd,
)
from meridian4.dynsys import CONVERGED_SPEED, classify, flow, monotonicity_audit
from meridian4.errors import DomainError

X0_AT_1 = 3.694528049465325       # 0.5 * e^2
RHO_AT_1 = 0.0513417119032592     # 0.1 * e^(-2/3)


def _quad_field(a: float, b: float, alpha: float) -> MeridionalField:
    """g = a x0^2 + b rho^2; solves the meridian equation iff a = (alpha-3) b."""
    return MeridionalField(MeridionalProfile(
        alpha=alpha,
        g=lambda x0, rho: a * x0 ** 2 + b * rho ** 2,
        dg_dx0=lambda x0, rho: 2 * a * x0,
        dg_drho=lambda x0, rho: 2 * b * rho,
        d2g_dx0x0=lambda x0, rho: 2 * a,
        d2g_dx0rho=lambda x0, rho: 0.0,
        d2g_drhorho=lambda x0, rho: 2 * b,
        label=f"quad:{a:g},{b:g}",
    ))


def _saddle_field() -> MeridionalField:
    # x0^2 - rho^2/3 solves the alpha = 0 equation; flow is x0 e^{2t}, rho e^{-2t/3}
    f = _quad_field(1.0, -1.0 / 3.0, 0.0)
    assert verify_epd(f, 0.4, 0.9) < 1e-15
    return f


def _sin_field() -> MeridionalField:
    return from_separable(SeparableParams(alpha=2.0, beta=1.0, b1=1.0, b2=0.0))


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_saddle_flow_matches_closed_form():
    tr = flow(_saddle_field(), Quaternion(0.5, 0.1, 0, 0), dt=1e-3, horizon=1.0)
    assert tr.termination == "horizon"
    end = tr.points[-1]
    assert abs(tr.times[-1] - 1.0) < 1e-9
    assert abs(end.x0 - X0_AT_1) < 1e-6
    assert abs(end.x1 - RHO_AT_1) < 1e-6
    assert end.x2 == 0.0 and end.x3 == 0.0


def test_flow_preserves_axis_direction():
    # initial axis (0.6, 0, 0.8): the imaginary part stays on that ray
    tr = flow(_saddle_field(), Quaternion(0.5, 0.06, 0, 0.08), dt=1e-3, horizon=1.0)
    end = tr.points[-1]
    assert abs(end.x1 - 0.6 * RHO_AT_1) < 1e-6
    assert abs(end.x3 - 0.8 * RHO_AT_1) < 1e-6
    assert end.x2 == 0.0


def test_flow_is_monotone_in_h():
    for f, start in ((_saddle_field(), Quaternion(0.5, 0.1, 0, 0)),
                     (from_holomorphic_potential(qexp()), Quaternion(0.0, 1.0, 0, 0))):
        tr = flow(f, start, dt=1e-3, horizon=1.0)
        assert monotonicity_audit(tr) <= 1e-9


def test_rk4_order_by_quartering():
    f = _saddle_field()
    start = Quaternion(0.5, 0.1, 0, 0)

    def end_error(dt):
        end = flow(f, start, dt=dt, horizon=1.0).points[-1]
        return math.hypot(end.x0 - X0_AT_1, end.x1 - RHO_AT_1)

    ratio = end_error(4e-3) / end_error(1e-3)
    assert 128.0 <= ratio <= 512.0


def test_flow_records_consistently():
    tr = flow(_saddle_field(), Quaternion(0.5, 0.1, 0, 0), dt=1e-2, horizon=0.1)
    assert len(tr.times) == len(tr.points) == len(tr.h_values) == 11
    assert tr.times == sorted(tr.times)
    f = _saddle_field()
    for x, h in zip(tr.points, tr.h_values):
        assert h == f.g(x.x0, x.rho())


def test_flow_is_deterministic():
    a = flow(_saddle_field(), Quaternion(0.5, 0.1, 0, 0), dt=1e-3, horizon=0.5)
    b = flow(_saddle_field(), Quaternion(0.5, 0.1, 0, 0), dt=1e-3, horizon=0.5)
    assert [p.components() for p in a.points] == [p.components() for p in b.points]
    assert a.h_values == b.h_values


def test_flow_evaluates_the_field_four_times_per_step(monkeypatch):
    calls = []
    at = MeridionalField.at

    def counted(self, names, x0, rho):
        calls.append(names)
        return at(self, names, x0, rho)

    monkeypatch.setattr(MeridionalField, "at", counted)
    f = from_holomorphic_potential(qexp())
    tr = flow(f, Quaternion(0.1, 0.2, 0.1, 0.0), dt=1e-3, horizon=0.2)
    assert tr.termination == "horizon"
    steps = len(tr.times) - 1
    assert steps == 200
    # k1 of each step comes with the last row's h, so a step evaluates the
    # field at its three later stages and at its end point; the row at the
    # horizon asks for h alone
    assert len(calls) == 4 * steps + 1
    assert calls.count(("g", "V0", "Vrho")) == steps
    assert calls.count(("V0", "Vrho")) == 3 * steps
    assert calls[-1] == ("g",)


@pytest.mark.parametrize("a2,per_step", [(0.0, 8), (0.4, 16)])
def test_separable_flow_sums_each_bessel_order_once_per_point(monkeypatch, a2, per_step):
    import meridian4.fields as fields

    calls, bessel_j = [], fields.bessel_j

    def counted(nu, z):
        calls.append(nu)
        return bessel_j(nu, z)

    monkeypatch.setattr(fields, "bessel_j", counted)
    f = from_separable(SeparableParams(2.5 if a2 else 3.0, 1.05, a2=a2, b1=0.75, b2=0.05))
    tr = flow(f, Quaternion(0.1, 1.5, 0.0, 0.0), dt=0.002, horizon=0.4)
    steps = len(tr.times) - 1
    assert tr.termination == "horizon" and steps == 200
    # V0 and Vrho read C at orders nu and nu - 1, h at nu: three stages and
    # the end point cost 2 orders each, one J per order (two with a Y part).
    # The start point adds a row; the row at the horizon asks for h alone.
    orders = 2 if a2 else 1
    assert len(calls) == per_step * steps + orders


def test_flow_keeps_a_three_component_start_axis():
    start = Quaternion(-2.0, 0.5, 0.3, -0.2)
    axis = [c / start.rho() for c in (start.x1, start.x2, start.x3)]
    tr = flow(from_holomorphic_potential(qexp()), start, dt=1e-3, horizon=1.0)
    assert tr.termination == "horizon"
    for x in tr.points:
        for c, a in zip((x.x1, x.x2, x.x3), axis):
            assert abs(c / x.rho() - a) <= 1e-15


def test_flow_converges_at_interior_equilibrium():
    # on the x0 = 0 slice of the sin field the flow relaxes to rho = pi/2
    tr = flow(_sin_field(), Quaternion(0.0, 1.2, 0, 0), dt=0.02, horizon=40.0)
    assert tr.termination == "converged"
    assert tr.times[-1] < 40.0
    end = tr.points[-1]
    assert abs(end.x1 - 0.5 * math.pi) < 1e-8
    assert abs(end.x0) < 1e-12
    # h plateaus at sqrt(2/pi); only ulp-level wobble is tolerable
    assert monotonicity_audit(tr) <= 1e-15


def test_flow_leaves_domain_toward_axis():
    tr = flow(_saddle_field(), Quaternion(0.0, 0.1, 0, 0), dt=0.01, horizon=30.0)
    assert tr.termination == "left_domain"
    # rho decays like e^{-2t/3}; the floor 1e-6 is reached near t = 17.3
    assert 16.0 < tr.times[-1] < 18.0
    assert tr.points[-1].rho() > 1e-6


def test_flow_passes_on_a_field_domain_error():
    # V0 = -x0 and Vrho = 1 - rho draw the flow to rho = 1, but V0 is only
    # defined below rho = 0.8: only a stage under the rho floor is left_domain
    def dg_dx0(x0, rho):
        if rho > 0.8:
            raise DomainError(f"dg_dx0 undefined at rho = {rho}")
        return -x0

    f = MeridionalField(MeridionalProfile(
        alpha=3.0, g=lambda x0, rho: -0.5 * x0 ** 2 - 0.5 * (1.0 - rho) ** 2,
        dg_dx0=dg_dx0, dg_drho=lambda x0, rho: 1.0 - rho,
        d2g_dx0x0=lambda x0, rho: -1.0, d2g_dx0rho=lambda x0, rho: 0.0,
        d2g_drhorho=lambda x0, rho: -1.0, label="capped"))
    with pytest.raises(DomainError, match="undefined at rho"):
        flow(f, Quaternion(0.3, 0.5, 0, 0), dt=0.05, horizon=5.0)
    tr = flow(f, Quaternion(0.3, 0.5, 0, 0), dt=0.05, horizon=0.5)
    assert tr.termination == "horizon" and tr.points[-1].rho() < 0.8


def test_flow_that_blows_up_raises_domain_error_naming_t_and_the_point():
    # rho' = cos(x0) sinh(rho) blows up in finite time; the field's OverflowError
    # becomes a DomainError at the last row reached, from which a stage overflowed
    f = from_holomorphic_potential(qcos())
    with pytest.raises(DomainError, match="t = ") as err:
        flow(f, Quaternion(0.5, 0.3, 0, 0), dt=1e-3, horizon=2.0)
    assert isinstance(err.value.__cause__, OverflowError)
    at = re.search(r"at t = (\S+), \(x0, rho\) = \((\S+), (\S+)\),", str(err.value))
    t, x0, rho = map(float, at.groups())
    assert 1.9 < t < 2.0 and abs(x0) < 1.0 and 20.0 < rho < 30.0
    tr = flow(f, Quaternion(0.5, 0.3, 0, 0), dt=1e-3, horizon=t - 0.01)
    assert tr.termination == "horizon" and tr.points[-1].rho() < rho


def test_flow_argument_guards():
    f = _saddle_field()
    x = Quaternion(0.5, 0.1, 0, 0)
    with pytest.raises(DomainError):
        flow(f, x, dt=0.0, horizon=1.0)
    with pytest.raises(DomainError):
        flow(f, x, dt=-1e-3, horizon=1.0)
    with pytest.raises(DomainError):
        flow(f, x, dt=1e-3, horizon=0.0)
    with pytest.raises(DomainError):
        flow(f, Quaternion(0.5, 0, 0, 0), dt=1e-3, horizon=1.0)


@pytest.mark.parametrize("dt,horizon", [(math.nan, 1.0), (1e-3, math.inf),
                                        (1e-3, math.nan), (math.inf, 1.0)])
def test_flow_rejects_non_finite_step_or_horizon(dt, horizon):
    with pytest.raises(DomainError):
        flow(_saddle_field(), Quaternion(0.5, 0.1, 0, 0), dt=dt, horizon=horizon)


@pytest.mark.parametrize("start", [(math.nan, 1.0, 0.0, 0.0), (0.5, 0.1, 0.0, math.inf)])
def test_flow_rejects_a_non_finite_start(start):
    with pytest.raises(DomainError, match="initial point"):
        flow(_saddle_field(), Quaternion(*start), dt=0.01, horizon=1.0)


def test_flow_refuses_a_row_that_overflows():
    # V0 = 1e308 steps x0 from 1 to inf in one RK4 step with no OverflowError
    f = MeridionalField(MeridionalProfile(
        alpha=0.0,
        g=lambda x0, rho: 1e308 * x0,
        dg_dx0=lambda x0, rho: 1e308,
        dg_drho=lambda x0, rho: 0.0,
        d2g_dx0x0=lambda x0, rho: 0.0,
        d2g_dx0rho=lambda x0, rho: 0.0,
        d2g_drhorho=lambda x0, rho: 0.0,
    ))
    with pytest.raises(DomainError) as err:
        flow(f, Quaternion(1, 1, 0, 0), dt=1.0, horizon=3.0)
    assert str(err.value) == "flow row at t = 1 is not finite (x0 = inf, rho = 1.0)"


def test_converged_speed_constant():
    assert CONVERGED_SPEED == 1e-10


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_saddle_closed_form():
    v = classify(_saddle_field(), Quaternion(0.3, 0.5, 0, 0))
    assert v.kind == "saddle"
    want = sorted((2.0, -2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0))
    for got, ref in zip(v.report.lambdas, want):
        assert abs(got - ref) < 1e-14


def test_classify_negated_square_potential():
    f = from_holomorphic_potential((-0.5) * qpow(2))
    v = classify(f, Quaternion(0.8, 1.1, 0, 0))
    assert v.kind == "saddle"
    for got, ref in zip(v.report.lambdas, (-1.0, 1.0, 1.0, 1.0)):
        assert abs(got - ref) < 1e-14


def test_classify_source_and_sink():
    # alpha = 4 makes a = b admissible: g = +-(x0^2 + rho^2)
    src = classify(_quad_field(1.0, 1.0, 4.0), Quaternion(0.2, 0.7, 0, 0))
    assert src.kind == "source"
    assert src.report.lambdas == (2.0, 2.0, 2.0, 2.0)
    snk = classify(_quad_field(-1.0, -1.0, 4.0), Quaternion(0.2, 0.7, 0, 0))
    assert snk.kind == "sink"


def test_classify_names_a_non_finite_point():
    with pytest.raises(DomainError, match="non-finite point"):
        classify(_saddle_field(), Quaternion(0.3, math.nan, 0, 0))


def test_classify_degenerate_on_vrho_zero():
    v = classify(_sin_field(), Quaternion(0.4, 0.5 * math.pi, 0, 0))
    assert v.kind == "degenerate"


def test_alpha2_never_sink_or_source():
    # the straddling pair +-|F'| forbids definite spectra wherever F' != 0
    f = from_holomorphic_potential(qexp())
    rng = random.Random(31)
    for _ in range(50):
        x = Quaternion(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0),
                       rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        v = classify(f, x)
        assert v.kind in ("saddle", "degenerate")
        assert v.kind == "saddle"  # |exp'| = e^{x0} > 0 everywhere
