"""The benchmark's tracer finds every name it wraps and restores each one.

``bench/tracing.py`` wraps package functions at the names their consumers
bound (``dynsys.lift_to_r4``, ``cli.eigen_closed``, ...).  A rename in the
package would otherwise surface only when the traced benchmark runs.
"""

from pathlib import Path

import meridian4
import meridian4.cli
import meridian4.dynsys
import meridian4.fields
import meridian4.spectral
import meridian4.transforms

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bindings():
    m4 = meridian4
    owners = {"cli": m4.cli, "dynsys": m4.dynsys, "fields": m4.fields,
              "spectral": m4.spectral, "transforms": m4.transforms,
              "MeridionalField": m4.fields.MeridionalField}
    return {(name, attr): value for name, owner in owners.items()
            for attr, value in vars(owner).items()}


def test_tracer_install_and_uninstall_restore_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCH))
    import tracing

    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install(meridian4)
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()

    wrapped = {key for key, value in before.items() if during.get(key) is not value}
    assert {("dynsys", "lift_to_r4"), ("dynsys", "eigen_closed"), ("cli", "eigen_closed"),
            ("cli", "jacobian"), ("cli", "flow"), ("MeridionalField", "V0")} <= wrapped
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
