"""The array path of `eval` and `spectrum` against the per-point library values."""

import json

import numpy as np
import pytest

from meridian4.cli import EVAL_HEADER, main, parse_field_spec, parse_grid
from meridian4.errors import BranchCut, DomainError, Pole
from meridian4.holomorphic import moebius_potential, qln, qpow
from meridian4.quaternion import Quaternion
from meridian4.spectral import eigen_closed, eigen_numeric, jacobian

GRID = "--grid=-1:1:4,0.3:1.5:3"

SPECS = [
    "holo:name=qexp",
    "holo:name=qpow,n=3,coeff=0.7",
    "holo:name=qln",
    "moebius:a=0.25,d=1.5",
    "separable:alpha=3,beta=1.1,b1=0.5,b2=0.5",
    "separable:alpha=2.5,beta=1.1,a2=0.5,b1=1,b2=0.3",
    "transform:kind=ffc,original=exp,rate=2",
]


def _run(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _csv(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _points():
    x0s, rhos = parse_grid(GRID.partition("=")[2])
    return [(x0, rho) for x0 in x0s for rho in rhos]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("spec", SPECS)
def test_eval_rows_match_per_point_values(capsys, spec):
    header, rows = _csv(_run(capsys, "eval", "--field", spec, GRID))
    field = parse_field_spec(spec)
    points = _points()
    assert len(rows) == len(points)
    for cells, (x0, rho) in zip(rows, points):
        want = [x0, rho, field.V0(x0, rho), field.Vrho(x0, rho),
                field.dVrho_dx0(x0, rho), field.dVrho_drho(x0, rho)]
        for name, cell, w in zip(header, cells, want):
            assert _close(float(cell), w), (spec, name, x0, rho, cell, w)


@pytest.mark.parametrize("spec", SPECS)
def test_spectrum_oracle_rows_match_per_point_values(capsys, spec):
    header, rows = _csv(_run(capsys, "spectrum", "--field", spec, GRID, "--oracle"))
    field = parse_field_spec(spec)
    points = _points()
    assert len(rows) == len(points)
    for cells, (x0, rho) in zip(rows, points):
        row = dict(zip(header, cells))
        x = Quaternion(x0, rho, 0.0, 0.0)
        closed = eigen_closed(field, x)
        numeric = eigen_numeric(jacobian(field, x))
        want = {"x0": x0, "rho": rho}
        want.update((f"l{i}", v) for i, v in enumerate(closed.lambdas))
        want.update(zip(("I", "II", "III", "IV"), closed.invariants))
        want.update((f"n{i}", v) for i, v in enumerate(numeric.lambdas))
        want["deviation"] = max(abs(a - b) for a, b in zip(closed.lambdas, numeric.lambdas))
        for name, w in want.items():
            assert _close(float(row[name]), w), (spec, name, x0, rho, row[name], w)
        assert row["degenerate"] == ("true" if closed.degenerate else "false")
        assert row["method"] == "closed"


def test_spectrum_json_matches_csv(capsys):
    args = ("spectrum", "--field", "moebius:a=0.25,d=1.5", GRID, "--oracle")
    header, rows = _csv(_run(capsys, *args))
    data = json.loads(_run(capsys, *args, "--format", "json"))
    assert len(data) == len(rows)
    for obj, cells in zip(data, rows):
        assert list(obj) == header
        for name, cell in zip(header, cells):
            if name == "degenerate":
                assert obj[name] is (cell == "true")
            elif name == "method":
                assert obj[name] == cell == "closed"
            else:
                assert obj[name] == float(cell)


def test_grid_overflow_writes_nothing(capsys):
    assert main(["eval", "--field", "holo:name=qexp", "--grid=700:720:2,0.1:1:2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: DomainError: ") and err.count("\n") == 1


def test_eigen_numeric_takes_a_stack():
    rng = np.random.default_rng(5)
    A = rng.uniform(-2.0, 2.0, size=(3, 2, 4, 4))
    stack = A + np.swapaxes(A, -1, -2)
    rep = eigen_numeric(stack)
    assert rep.method == "eigvalsh"
    assert rep.lambdas.shape == rep.invariants.shape == (3, 2, 4)
    assert rep.degenerate.shape == (3, 2)
    for idx in np.ndindex(3, 2):
        one = eigen_numeric(stack[idx])
        assert np.array_equal(rep.lambdas[idx], one.lambdas)
        assert np.allclose(rep.invariants[idx], one.invariants, rtol=1e-14, atol=1e-14)
        assert rep.degenerate[idx] == one.degenerate


def test_lifts_take_arrays_and_guard_every_entry():
    z = np.array([0.5 + 0.7j, -1.3 + 0.4j, 2.0 + 1.1j])
    for f in (qpow(3), qpow(-2), qpow(0.5), qln(), moebius_potential(0.25, 1.5)):
        for g in (f, f.derivative()):
            got = g.lift(z)
            assert got.shape == z.shape
            for a, w in zip(got, z):
                assert abs(a - g.lift(complex(w))) <= 1e-15 * (1.0 + abs(a))
    assert isinstance(qln().lift(0.5 + 0.7j), complex)
    with pytest.raises(BranchCut):
        qln().lift(np.append(z, -1.0 + 0j))
    with pytest.raises(Pole):
        qpow(-1).lift(np.append(z, 0j))


def test_evaluate_checks_the_floor_for_the_whole_array():
    field = parse_field_spec("holo:name=qexp")
    with pytest.raises(DomainError):
        field.evaluate(["V0"], np.array([0.0, 1.0]), np.array([0.5, 1e-9]))


@pytest.mark.parametrize("spec", SPECS[4:6])
def test_separable_eval_computes_bessel_data_once_per_rho(monkeypatch, capsys, spec):
    import meridian4.fields as fields

    calls = []

    def counting(fn):
        def wrapped(nu, z):
            calls.append(nu)
            return fn(nu, z)
        return wrapped

    monkeypatch.setattr(fields, "bessel_j", counting(fields.bessel_j))
    monkeypatch.setattr(fields, "bessel_y", counting(fields.bessel_y))
    def per_point(names):
        # Bessel calls one point needs for all names on one fresh field:
        # one per distinct order (and kind)
        calls.clear()
        field = parse_field_spec(spec)
        for name in names:
            getattr(field, name)(0.1, 0.9)
        return len(calls)

    names = EVAL_HEADER.split(",")[2:]
    spectrum_names = ("Vrho", "dVrho_dx0", "dVrho_drho")
    kinds = 2 if "a2=" in spec else 1
    assert (per_point(names), per_point(spectrum_names)) == (3 * kinds, 2 * kinds)

    # one visit per distinct rho serves every quantity: at a2 = 0 that is
    # 60 calls for eval and 40 for spectrum (100 and 80 with a pass per quantity)
    grid = "--grid=-1:1:20,0.3:2.5:20"
    calls.clear()
    _run(capsys, "spectrum", "--field", spec, grid)
    assert len(calls) == 20 * 2 * kinds
    calls.clear()
    header, rows = _csv(_run(capsys, "eval", "--field", spec, grid))
    assert len(calls) == 20 * 3 * kinds

    x0s, rhos = parse_grid(grid.partition("=")[2])
    for cells, (x0, rho) in zip(rows, [(a, b) for a in x0s for b in rhos]):
        want = [x0, rho] + [getattr(parse_field_spec(spec), n)(x0, rho) for n in names]
        assert [float(c) for c in cells] == want
