"""Which verify suite sees an error in which field quantity.

perturbed(field, quantity, eps) scales one quantity of the field's batch by
1 + eps and leaves the others as they are.  Each of the five field suites
runs, as `verify SUITE --field SPEC --samples 40` does, on five fields with
each of the seven quantities scaled by 1 + 1e-6, and the test asserts the
suites that then fail:

- V0: stokes, and system except on the transform field;
- Vrho: stokes, system except on the transform field, and epd on the two
  separable fields (on an alpha = 2 field the term (alpha - 2) Vrho of the
  meridian equation is zero);
- dV0_dx0 and dVrho_drho: epd;
- stream: stokes;
- g and dVrho_dx0: none.  These are known gaps: no suite compares g or
  dVrho_dx0, the p01 of every spectrum, with the rest of the field.

symmetry and criterion never fail.  They hold by construction of the lift
(V_m = Vrho x_m / rho) and of h = g(x0, rho(x)), whatever the quantities
are.

Over eps = 1e-9, 1e-8, ..., 1e-1, the smallest eps a suite detected in a
quantity it sees was 1e-9 for epd, 1e-7 for stokes and 1e-6 for system,
except on the transform field (stokes 1e-6, system 1e-5) and for stokes in
V0 on the moebius field (1e-6).  g and dVrho_dx0 go unseen up to 1e-1.
"""

import dataclasses

import pytest

from meridian4 import cli
from meridian4.fields import MeridionalField

EPS = 1e-6
SUITES = ("epd", "stokes", "system", "symmetry", "criterion")
QUANTITIES = ("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho", "stream")
FIELDS = {
    "holo": "holo:name=qexp",
    "moebius": "moebius:a=0.25,d=1.5",
    "separable3": "separable:alpha=3,beta=1.1,b1=0.5,b2=0.5",
    "separable2.5": "separable:alpha=2.5,beta=1.05,a1=0.9,a2=0.4,b1=0.8,b2=-0.1",
    "transform": "transform:kind=ffc,original=exp,rate=3",
}


def perturbed(field: MeridionalField, quantity: str, eps: float) -> MeridionalField:
    """field with quantity scaled by 1 + eps, at one point and at arrays alike."""
    batch = field.profile.batch

    def scaled(names, x0, rho):
        return [v * (1.0 + eps) if name == quantity else v
                for name, v in zip(names, batch(names, x0, rho))]
    return MeridionalField(dataclasses.replace(field.profile, batch=scaled))


def failing_suites(monkeypatch, field: MeridionalField) -> set:
    """The suites whose worst residual over 40 samples exceeds their tolerance."""
    monkeypatch.setattr(cli, "parse_field_spec", lambda spec: field)
    failing = set()
    for suite in SUITES:
        args = cli.build_parser().parse_args(
            ["verify", suite, "--field", "given", "--samples", "40"])
        if any(worst > cli.SUITES[suite][0] for _, worst in cli._run_suite(args)):
            failing.add(suite)
    return failing


def expected(name: str) -> dict:
    transform, separable = name == "transform", name.startswith("separable")
    return {
        "g": set(),
        "V0": {"stokes"} | (set() if transform else {"system"}),
        "Vrho": ({"stokes"} | (set() if transform else {"system"})
                 | ({"epd"} if separable else set())),
        "dV0_dx0": {"epd"},
        "dVrho_dx0": set(),
        "dVrho_drho": {"epd"},
        "stream": {"stokes"},
    }


@pytest.mark.parametrize("name", FIELDS)
def test_suites_that_see_a_perturbed_quantity(monkeypatch, name):
    field = cli.parse_field_spec(FIELDS[name])
    assert failing_suites(monkeypatch, field) == set()
    seen = {q: failing_suites(monkeypatch, perturbed(field, q, EPS)) for q in QUANTITIES}
    assert seen == expected(name)
