import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meridian4.cli import _BLOCK_ROWS, SUITES, _emit_table
from meridian4.errors import DomainError
from meridian4.quaternion import Quaternion

CMD = [sys.executable, "-m", "meridian4"]


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=env)


def csv_rows(stdout: str):
    lines = stdout.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_ARGS = ("eval", "--field", "holo:name=qpow,n=2,coeff=0.5",
             "--grid", "0:1:2,1:2:2")


def test_eval_header_and_values():
    r = run_cli(*EVAL_ARGS)
    assert r.returncode == 0
    header, rows = csv_rows(r.stdout)
    assert ",".join(header) == "x0,rho,V0,Vrho,dVrho_dx0,dVrho_drho"
    assert len(rows) == 4
    # G = x^2/2: V0 = x0, Vrho = -rho, dVrho_dx0 = 0, dVrho_drho = -1
    for cells in rows:
        x0, rho, v0, vr, p01, p11 = map(float, cells)
        assert v0 == x0
        assert vr == -rho
        assert p01 == 0.0
        assert p11 == -1.0
    # negative zero never reaches the output
    assert all(cell != "-0.0" for cells in rows for cell in cells)


def test_eval_json_mirrors_csv():
    csv = run_cli(*EVAL_ARGS)
    js = run_cli(*EVAL_ARGS, "--format", "json")
    assert js.returncode == 0
    data = json.loads(js.stdout)
    header, rows = csv_rows(csv.stdout)
    assert len(data) == len(rows)
    for obj, cells in zip(data, rows):
        for key, cell in zip(header, cells):
            assert obj[key] == float(cell)


def test_eval_negative_bounds_with_equals_form():
    r = run_cli("eval", "--field", "moebius:a=0.25,d=1.5",
                "--grid=-2:2:3,0.5:1.5:2")
    assert r.returncode == 0
    _, rows = csv_rows(r.stdout)
    assert len(rows) == 6
    assert float(rows[0][0]) == -2.0


def test_eval_is_byte_deterministic():
    a = run_cli(*EVAL_ARGS)
    b = run_cli(*EVAL_ARGS)
    assert a.stdout == b.stdout
    c = run_cli("eval", "--field", "transform:kind=ffc,original=exp,rate=2",
                "--grid", "0:1:3,0.3:1:3")
    d = run_cli("eval", "--field", "transform:kind=ffc,original=exp,rate=2",
                "--grid", "0:1:3,0.3:1:3")
    assert c.returncode == 0 and c.stdout == d.stdout
    # cheb<n> is the Chebyshev kernel of order 2n
    e, f = (run_cli("eval", "--field", f"transform:kind=ffc,original={o}",
                    "--grid", "0:1:3,0.3:1:3") for o in ("cheb2", "kernel4"))
    assert e.returncode == 0 and e.stdout == f.stdout


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,grid", [
    ("bogus:a=1", "0:1:2,1:2:2"),                    # unknown kind
    ("holo:name=qpow,n=2,zz=3", "0:1:2,1:2:2"),      # unknown parameter
    ("separable:beta=1", "0:1:2,1:2:2"),             # missing required alpha
    ("holo:name=qpow,n=2", "0:1:1,1:2:2"),           # n = 1 grid
    ("holo:name=qpow,n=2", "1:0:2,1:2:2"),           # lo >= hi
    ("holo:name=qpow,n=2", "0:1:2,1e-9:2:2"),        # rho below the floor
    ("holo:name=qpow,n=2", "0:1:2"),                 # missing rho axis
    ("separable:alpha=3,beta=nan", "0:1:2,1:2:2"),   # non-finite parameter
    ("holo:name=qpow,n=inf", "0:1:2,1:2:2"),         # non-finite parameter
    ("holo:name=qexp,n=2", "0:1:2,0.5:1:2"),         # n is qpow's alone
    ("holo:name=qfoo", "0:1:2,0.5:1:2"),             # unknown function
    ("holo:name=qpow", "0:1:2,0.5:1:2"),             # qpow without n
    ("moebius:a=0.25,d=1.5", "-1e308:1e308:2,0.5:1:2"),  # x0 span overflows
    ("holo:name=qexp", "0:1:2,1:1e308:3"),           # rho span fits, (hi - lo)*(n - 1) does not
    ("holo:name=qexp", "0:1:9223372036854775807,0.1:1:2"),  # more nodes than an array holds
    ("holo:name=qexp", "0:1:4611686018427387904,0.1:1:2"),  # more nodes than an array holds
    # tol is no setting: the quadrature runs at transforms.TOL
    ("transform:kind=ffc,original=unit,tol=1e-8", "0:1:2,0.5:1:2"),
    # counts past int()'s 4300 digits, and at it: refused by axis, not echoed
    pytest.param("holo:name=qexp", "0:1:" + "1" * 5000 + ",0.1:1:2", id="count-5000-digits"),
    pytest.param("holo:name=qexp", "0:1:" + "1" * 4300 + ",0.1:1:2", id="count-4300-digits"),
    # 5000 characters of user text: the echo is cut to one short line
    pytest.param("holo:name=qexp", "0:1:" + "a" * 5000 + ",0.1:1:2", id="grid-5000-chars"),
    pytest.param("holo:name=" + "a" * 5000, "0:1:2,0.1:1:2", id="name-5000-chars"),
    pytest.param("holo:name=qexp,coeff=" + "a" * 5000, "0:1:2,0.1:1:2", id="coeff-5000-chars"),
])
def test_spec_errors_exit_2(field, grid):
    r = run_cli("eval", "--field", field, f"--grid={grid}")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and len(r.stderr) < 200
    # one line, and the same one where a RuntimeWarning is an error (as on CI)
    assert r.stderr.count("\n") == 1
    strict = run_cli("eval", "--field", field, f"--grid={grid}",
                     env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert (strict.returncode, strict.stdout, strict.stderr) == (2, "", r.stderr)


def test_domain_errors_exit_3():
    # Y at integer order
    r = run_cli("special", "bessel", "--nu", "1", "--z", "1", "--kind", "y")
    assert r.returncode == 3
    assert "IntegerOrderUnsupported" in r.stderr
    # Laplace transform at the abscissa -rate
    r = run_cli("special", "transform", "--kind", "lf", "--original", "exp",
                "--at=-1,1,0,0")
    assert r.returncode == 3
    assert "AbscissaViolation" in r.stderr
    # cosine kernel outgrowing the original's decay
    r = run_cli("special", "transform", "--kind", "ffc", "--original", "exp",
                "--rate", "0.5", "--at", "1,1,0,0")
    assert r.returncode == 3
    assert "KernelGrowth" in r.stderr
    # a negative Bessel order, refused by the Chebyshev kernel
    r = run_cli("special", "besselrep", "--n", "-1", "--parity", "odd", "--at", "1,0.5,0,0")
    assert r.returncode == 3
    assert r.stderr == "error: DomainError: Chebyshev kernel order must be >= 0\n"
    # separable with a Y part at integer order
    r = run_cli("eval", "--field", "separable:alpha=3,beta=1,a2=0.5",
                "--grid", "0:1:2,1:2:2")
    assert r.returncode == 3
    assert "IntegerOrderUnsupported" in r.stderr


def test_grid_too_large_to_allocate_exits_3():
    # 5e6 x 5e6 nodes need 182 TiB per array, more than any address space holds,
    # so the allocation fails at once; the run peaks at about 150 MB
    r = run_cli("eval", "--field", "holo:name=qexp", "--grid=0:1:5000000,0.1:1:5000000")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: MemoryError: ")
    assert r.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

PASSING_SUITES = [
    ("epd", ["--field", "separable:alpha=3,beta=1.1,b1=0.5,b2=0.5"]),
    ("epd", ["--field", "holo:name=qexp"]),
    ("stokes", ["--field", "moebius:a=0.25,d=5"]),
    ("stokes", ["--field", "holo:name=qexp"]),
    ("system", ["--field", "holo:name=qexp", "--samples", "25"]),
    ("symmetry", ["--field", "separable:alpha=-2,beta=0.7,a1=0.9,a2=0.2"]),
    ("criterion", ["--field", "holo:name=qexp", "--samples", "25"]),
    ("weinstein", ["--potential", "x3pow", "--alpha", "1.5", "--samples", "25"]),
    ("axial", ["--potential", "rhopow:e=2", "--alpha", "3", "--samples", "25"]),
]


@pytest.mark.parametrize("suite,extra", PASSING_SUITES,
                         ids=[f"{s}-{e[1].split(':')[0]}" for s, e in PASSING_SUITES])
def test_verify_suites_pass(suite, extra):
    r = run_cli("verify", suite, "--samples", "50", *extra)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().split("\n")
    assert lines[0] == f"suite={suite}"
    assert lines[-1] == "result=pass"
    assert any(line.startswith("check=") and line.endswith("status=pass")
               for line in lines)


# correct fields that the second-order differences of earlier releases failed
# at these sample counts; the Richardson rule passes them at SUITE_TOL
CORRECT_FIELD_CASES = [
    ("system", ["--field", "holo:name=qexp"]),
    ("system", ["--field", "holo:name=qpow,n=3,coeff=0.5", "--samples", "40"]),
    ("stokes", ["--field", "holo:name=qln"]),
    ("stokes", ["--field", "holo:name=qpow,n=-2"]),
    ("stokes", ["--field", "moebius:a=0.25,d=1.5"]),
    ("stokes", ["--field", "moebius:a=0,d=0"]),
    ("stokes", ["--field", "separable:alpha=2.5,beta=1.1,a2=0.5,b1=1,b2=0.3"]),
    ("axial", ["--potential", "rho3", "--alpha", "4"]),
]


@pytest.mark.parametrize("suite,extra", CORRECT_FIELD_CASES,
                         ids=[f"{s}-{e[1]}" for s, e in CORRECT_FIELD_CASES])
def test_verify_correct_fields_pass(suite, extra):
    r = run_cli("verify", suite, *extra)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.strip().split("\n")[-1] == "result=pass"


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("suite,potential", [("weinstein", "x3pow"), ("axial", "rho3")])
def test_verify_rejects_non_finite_alpha(suite, potential, alpha):
    r = run_cli("verify", suite, "--potential", potential, f"--alpha={alpha}")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: --alpha must be finite")


def test_verify_infinite_residual_exits_3_with_the_point():
    # a finite alpha of 1e308 overflows alpha * (x . grad h) to inf
    r = run_cli("verify", "axial", "--potential", "rho3", "--alpha", "1e308")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: DomainError: axial residual inf at sample point (")


@pytest.mark.parametrize("argv,error", [
    (["epd", "--field", "separable:alpha=3,beta=20,b1=1"],
     "DomainError: ascending series restricted to |z| <= 30"),
    (["system", "--field", "separable:alpha=400,beta=1.1"],
     "DomainError: leading term (z/2)^nu / Gamma(nu+1) overflows at nu = 199.5, "
     "|z| = 1.1942648528337607"),
], ids=["epd-series-cap", "system-leading-term"])
def test_verify_reports_the_field_error_at_a_non_finite_sample(argv, error):
    # the field's own error at the sample, not the NaN residual it leads to
    r = run_cli("verify", *argv)
    assert (r.returncode, r.stdout, r.stderr) == (3, "", f"error: {error}\n")


@pytest.mark.parametrize("cmd", ["eval", "spectrum"])
def test_grid_commands_report_the_field_error_at_a_non_finite_value(cmd):
    # beta * rho = 33 is past the series cap: the cap, not the NaN it leads to
    r = run_cli(cmd, "--field", "separable:alpha=3,beta=11,b1=1", "--grid", "0:1:2,2.5:3:2")
    assert (r.returncode, r.stdout, r.stderr) == (
        3, "", "error: DomainError: ascending series restricted to |z| <= 30\n")


@pytest.mark.parametrize("argv,error", [
    (["eval", "--field", "holo:name=qexp,coeff=1e308", "--grid=-1:1:4,0.5:1.9:3"],
     "NotHolomorphic: 1e+308*exp(x) fails the antiholomorphy probe at (0.5, 0.7): residual nan"),
    (["special", "transform", "--kind", "ffc", "--original", "unit", "--at=1,1e308,1e308,0"],
     "DomainError: quadrature sum not finite at (x0, rho) = (1, 1.41421e+308)"),
    (["special", "besselrep", "--n", "2", "--parity", "even", "--at=0.3,1e308,-1e308,0.5"],
     "DomainError: quadrature sum not finite at (x0, rho) = (0.3, 1.41421e+308)"),
    (["spectrum", "--field=separable:alpha=2.5,beta=1.0,a1=1.0,a2=1.0,b1=1e+308,b2=0.5",
      "--grid=1e-06:1.0:3,0.5:1.9:3", "--format=json"],
     "DomainError: closed-form spectrum overflows"),
], ids=["probe", "transform", "besselrep", "spectrum"])
@pytest.mark.parametrize("flags", [[], ["-W", "error::RuntimeWarning"]], ids=["plain", "W-error"])
def test_overflow_exits_3_with_one_error_line(argv, error, flags):
    # numpy overflows inside the probe, the quadrature or V_rho / rho print no warning
    r = subprocess.run([sys.executable, *flags, "-m", "meridian4", *argv],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (3, "", f"error: {error}\n")


def test_verify_nan_residual_is_never_skipped(monkeypatch, capsys):
    from meridian4 import cli

    clouds = []

    def nan_at_third(field, x0, rho):
        clouds.append((x0.tolist(), rho.tolist()))
        return np.where(np.arange(len(x0)) == 2, math.nan, 0.0)

    monkeypatch.setattr(cli, "verify_epd", nan_at_third)
    assert cli.main(["verify", "epd", "--field", "holo:name=qexp"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(clouds) == 1 and len(clouds[0][0]) == 100  # the whole cloud in one call
    x0, rho = clouds[0]
    assert err == f"error: DomainError: epd residual nan at sample point {(x0[2], rho[2])}\n"


def test_verify_failure_exits_4():
    r = run_cli("verify", "criterion", "--potential", "x0sq-x3sq",
                "--samples", "50")
    assert r.returncode == 4
    lines = r.stdout.strip().split("\n")
    assert lines[-1] == "result=fail"
    assert any("status=fail" in line for line in lines)


def test_verify_json_shape():
    r = run_cli("verify", "epd", "--field", "holo:name=qexp",
                "--samples", "20", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["suite"] == "epd"
    assert data["result"] == "pass"
    assert data["samples"] == 20
    for c in data["checks"]:
        assert c["status"] == "pass"
        assert c["max"] <= c["tol"]


def test_verify_seed_changes_samples_but_not_verdict():
    a = run_cli("verify", "epd", "--field", "holo:name=qexp", "--seed", "1")
    b = run_cli("verify", "epd", "--field", "holo:name=qexp", "--seed", "2")
    assert a.returncode == b.returncode == 0
    assert "seed=1" in a.stdout and "seed=2" in b.stdout


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_empty_sample_set(samples):
    r = run_cli("verify", "epd", "--field", "holo:name=qexp", "--samples", samples)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ")


def test_unknown_potential_names_all_four():
    r = run_cli("verify", "weinstein", "--potential", "nope")
    assert r.returncode == 2
    for name in ("x3pow", "rhopow", "rho3", "x0sq-x3sq"):
        assert name in r.stderr
    assert "rhopow:e=E" in run_cli("verify", "--help").stdout


def test_rho3_is_rhopow_with_e_3():
    rho3 = run_cli("verify", "axial", "--potential", "rho3", "--samples", "12")
    rhopow = run_cli("verify", "axial", "--potential", "rhopow:e=3", "--samples", "12")
    assert rho3.returncode == rhopow.returncode  # the same residual bits, pass or fail
    assert rho3.stdout == rhopow.stdout.replace("target=rhopow:e=3", "target=rho3")
    r = run_cli("verify", "axial", "--potential", "rho3:e=2")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: unknown parameter(s) for rho3: e\n"


def test_verify_requires_target():
    assert run_cli("verify", "epd").returncode == 2
    assert run_cli("verify", "weinstein").returncode == 2
    assert run_cli("verify", "criterion").returncode == 2


@pytest.mark.parametrize("argv", [
    ("epd", "--field", "holo:name=qexp", "--potential", "garbage"),
    ("criterion", "--field", "holo:name=qexp", "--potential", "garbage"),
    ("weinstein", "--field", "garbage", "--potential", "x3pow"),
    ("criterion", "--field", "holo:name=qexp", "--potential", "x3pow"),
], ids=("epd-potential", "criterion-garbage", "weinstein-field", "criterion-both"))
def test_verify_refuses_an_option_its_suite_does_not_read(argv):
    # a suite reads exactly one of --field and --potential, and only one it uses
    r = run_cli("verify", *argv, "--samples", "3")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"error: suite {argv[0]!r} ")
    assert "--field" in r.stderr and "--potential" in r.stderr


@pytest.mark.parametrize("suite", ["epd", "criterion"])
def test_verify_refuses_alpha_with_a_field(suite):
    # a field suite uses the field's own alpha, so --alpha would be ignored
    r = run_cli("verify", suite, "--field", "separable:alpha=3,beta=1.1,b1=0.5,b2=0.5",
                "--alpha", "7", "--samples", "3")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: --alpha ")


def test_verify_alpha_defaults_to_two():
    argv = ["verify", "weinstein", "--potential", "x3pow", "--samples", "12"]
    assert _main(argv) == _main(argv + ["--alpha", "2"])
    assert _main(argv)[0] == 0


@pytest.mark.parametrize("argv", [
    ("eval", "--field", "transform:kind=ffs,original=cheb1,rate=7", "--grid", "0:1:2,0.5:1:2"),
    ("special", "transform", "--kind", "ffc", "--original", "unit", "--rate", "5",
     "--at", "1,0.5,0,0"),
], ids=("field-spec", "special"))
def test_rate_belongs_to_original_exp_only(argv):
    r = run_cli(*argv)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: ") and "rate" in r.stderr


# ---------------------------------------------------------------------------
# verify: one pass over the cloud against the sample-by-sample loop
# ---------------------------------------------------------------------------

def _per_sample_run_suite(args):
    """Reference: the sample-by-sample loop that ran the suites before the
    cloud went through one pass.  Each check gets one sample as a cloud of
    one, so the runner's outcome equals it only if a sample's residuals do
    not depend on the other samples of the cloud; a non-finite residual is
    reported unless the field's scalar methods raise at that sample on
    purpose."""
    from meridian4 import cli

    names, sample, check, field = cli._suite(args)
    rng = random.Random(args.seed)
    worst = [0.0] * len(names)
    for _ in range(args.samples):
        point = sample(rng)
        for i, r in enumerate(cli._cloud_pass(check, [point])[:, 0].tolist()):
            if not math.isfinite(r):
                where = point.components() if isinstance(point, Quaternion) else point
                if field is not None:  # the field's own error at the sample comes first
                    x0, rho = (point.x0, point.rho()) if isinstance(point, Quaternion) else point
                    for name in ("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho"):
                        with contextlib.suppress(ArithmeticError):
                            getattr(field, name)(x0, rho)
                raise DomainError(f"{names[i]} residual {r!r} at sample point {where}")
            worst[i] = max(worst[i], r)
    return list(zip(names, worst))


def _main(argv):
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    from meridian4 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_surface_argv_exits_0_3_or_4():
    """Each argv of tools/stdout_diff.py, run in-process under pyproject's
    RuntimeWarning-as-error filter, ends in exit 0, 3 or 4, never in a
    warning or another exception out of main."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "stdout_diff.py")
    spec = importlib.util.spec_from_file_location("stdout_diff", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert len(tool.ARGVS) >= 197
    for argv in tool.ARGVS:
        assert _main(argv)[0] in (0, 3, 4), argv


FUZZ_BOUNDS = [0.0, -0.0, 5e-324, 1e-300, 1e-6, 1.0, 1e308, -1e308, 1.7e308,
               math.inf, -math.inf, math.nan]
# no draw builds more than 3 x 3 nodes: grid_nodes refuses every larger count
FUZZ_COUNTS = [-1, 0, 1, 2, 3, 2 ** 60 + 1, 2 ** 62, 2 ** 63 - 1, 10 ** 20, 10 ** 400]
FUZZ_FIELDS = ["holo:name=qexp", "moebius:a=0.25,d=1.5",
               "separable:alpha=3,beta=1.1,b1=0.5,b2=0.5"]


def _fuzz_axis(rng):
    """lo, hi, n from the extreme values.  Half the axes take two distinct bounds
    from 1e-6 up, in order, and half take 2 or 3 nodes, so that draws get past the
    first checks and reach the last ones, or the field."""
    if rng.random() < 0.5:
        lo, hi = sorted(rng.sample([1e-6, 1.0, 1e308, 1.7e308], 2))
    else:
        lo, hi = rng.choices(FUZZ_BOUNDS, k=2)
    return lo, hi, rng.choice(FUZZ_COUNTS if rng.random() < 0.5 else [2, 3])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_fuzz(seed):
    """Random --grid argv and scan windows from extreme bounds and node counts:
    a CLI run exits 0, 2 or 3, and at exit 0 prints rows, each cell finite; a
    scan returns or raises a MeridianError."""
    from meridian4.cli import parse_field_spec
    from meridian4.errors import MeridianError
    from meridian4.spectral import critical_points, degenerate_set, zero_divergence_scan

    rng = random.Random(seed)
    for _ in range(150):
        axes = [":".join(map(repr, _fuzz_axis(rng))) for _ in range(2)]
        cmd = rng.choice([["eval"], ["spectrum"], ["spectrum", "--oracle"]])
        argv = cmd + ["--field", rng.choice(FUZZ_FIELDS), "--grid=" + ",".join(axes)]
        code, out, _ = _main(argv)
        assert code in (0, 2, 3), argv
        if code == 0:
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert rows and not any(c in ("nan", "inf", "-inf") for r in rows for c in r), argv
    for _ in range(50):
        (x0_lo, x0_hi, nx), (rho_lo, rho_hi, nr) = _fuzz_axis(rng), _fuzz_axis(rng)
        window, grid = (x0_lo, x0_hi, rho_lo, rho_hi), (nx, nr)
        scan = rng.choice([critical_points, degenerate_set, zero_divergence_scan])
        try:
            scan(parse_field_spec(rng.choice(FUZZ_FIELDS)), window, grid)
        except MeridianError:
            pass


FUZZ_ORDERS = [171.0, 1e306, 1e308, -1e308]


def _fuzz_argv(rng):
    """One argv of any command over any field kind: each number an extreme value or,
    half the time, a plain one, on 3 x 3 grids, with at most 5 samples, 3000 steps and
    Chebyshev order 5."""
    def real(*plain):
        return repr(rng.choice(plain if rng.random() < 0.5 else FUZZ_BOUNDS + FUZZ_ORDERS))

    def point():
        return ",".join(real(v, 0.5) for v in (0.3, 0.4, -0.2, 0.5))

    def original():
        k = rng.randint(0, 5)  # cheb<n> is of order 2n
        name = rng.choice(["unit", "exp", f"cheb{k // 2}", f"kernel{k}"])
        return name, (real(2.0, 3.0) if name == "exp" else None)

    def field():
        kind = rng.choice(["holo", "moebius", "separable", "transform"])
        if kind == "holo":
            name = rng.choice(["qexp", "qcos", "qsin", "qln", "qpow"])
            n = f",n={real(2.0, 3.0, -1.5)}" if name == "qpow" else ""
            return f"holo:name={name}{n},coeff={real(1.0, 0.7)}"
        if kind == "moebius":
            return f"moebius:a={real(0.25)},d={real(1.5)}"
        if kind == "separable":
            return (f"separable:alpha={real(3.0, 2.5, -1.5)},beta={real(1.1, 0.7)},"
                    f"a1={real(1.0)},a2={real(0.0, 1.0)},b1={real(0.5)},b2={real(0.5)}")
        name, rate = original()
        return (f"transform:kind={rng.choice(['ffc', 'ffs'])},original={name}"
                + (f",rate={rate}" if rate else ""))

    fmt = ["--format=" + rng.choice(["csv", "json"])]
    cmd = rng.choice(["eval", "spectrum", "verify", "flow", "special"])
    if cmd in ("eval", "spectrum"):
        grid = f"--grid={real(-1.0)}:{real(1.0)}:3,{real(0.5)}:{real(1.9)}:3"
        oracle = ["--oracle"] if cmd == "spectrum" and rng.random() < 0.5 else []
        return [cmd, f"--field={field()}", grid, *oracle, *fmt]
    if cmd == "verify":
        suite = rng.choice(sorted(SUITES))
        reads = SUITES[suite][1]
        if reads == "field" or reads == "either" and rng.random() < 0.5:
            target = [f"--field={field()}"]
        else:
            pot = rng.choice(["x3pow", f"x3pow:alpha={real(1.5)}", f"rhopow:e={real(-0.5)}",
                              "rho3", "x0sq-x3sq"])
            target = [f"--potential={pot}"] + ([f"--alpha={real(1.5)}"] if rng.random() < 0.5
                                               else [])
        return ["verify", suite, *target, f"--samples={rng.randint(1, 5)}",
                f"--seed={rng.randint(0, 9)}", *fmt]
    if cmd == "flow":
        dt, horizon = float(real(0.01, 0.1)), float(real(0.3, 1.0))
        if 0.0 < dt < math.inf and 3000 < horizon / dt < math.inf:
            horizon = 3000 * dt
        return ["flow", f"--field={field()}", f"--start={point()}", f"--dt={dt!r}",
                f"--horizon={horizon!r}", *fmt]
    query = rng.choice(["bessel", "besselq", "besselrep", "transform"])
    if query == "bessel":
        return ["special", "bessel", f"--nu={real(0.5, 2.0, -1.25)}", f"--z={real(5.0, 29.0)}",
                "--kind=" + rng.choice(["j", "y"]), *fmt]
    if query == "besselq":
        return ["special", "besselq", f"--n={rng.choice([0, 3, -2, 5])}", f"--at={point()}", *fmt]
    if query == "besselrep":
        return ["special", "besselrep", f"--n={rng.randint(0, 2)}",
                "--parity=" + rng.choice(["even", "odd"]), f"--at={point()}", *fmt]
    name, rate = original()
    return ["special", "transform", "--kind=" + rng.choice(["lf", "ffc", "ffs"]),
            f"--original={name}", *([f"--rate={rate}"] if rate else []), f"--at={point()}", *fmt]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 2, 14, 27])
def test_cli_fuzz(seed):
    """Random argv of every command and field kind, with extreme values and huge
    Bessel orders: each run exits 0, 2, 3 or 4 and raises nothing out of main; at
    exit 0 no output token is nan or inf, and exit 3 prints one error line."""
    import re

    rng = random.Random(seed)
    for _ in range(300):
        argv = _fuzz_argv(rng)
        code, out, err = _main(argv)
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            tokens = re.split(r"[\s,=:\[\]{}\"]+", out.lower())
            assert not {"nan", "inf", "-inf", "infinity", "-infinity"} & set(tokens), argv
        if code == 3:
            assert [line[:7] for line in err.splitlines()].count("error: ") == 1, argv


def _against_reference(monkeypatch, argv):
    """The runner's outcome, asserted equal to the reference loop's."""
    from meridian4 import cli

    got = _main(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_run_suite", _per_sample_run_suite)
        assert _main(argv) == got, argv
    return got


CLOUD_FIELDS = ["separable:alpha=3,beta=1.1,b1=0.5,b2=0.5",
                "separable:alpha=2.5,beta=1.1,a2=0.5,b1=1,b2=0.3",
                "holo:name=qexp", "holo:name=qpow,n=2,coeff=0.5", "holo:name=qln",
                "moebius:a=0.25,d=1.5", "transform:kind=ffc,original=exp,rate=2.5"]
CLOUD_POTENTIALS = ["x3pow", "rhopow:e=-1.5", "rho3", "x0sq-x3sq"]
CLOUD_RUNS = [("0", "csv"), ("7", "csv"), ("3", "json")]
CLOUD_CASES = (
    [(suite, "--field", target) for suite in ("epd", "stokes", "system", "symmetry", "criterion")
     for target in CLOUD_FIELDS]
    + [(suite, "--potential", target) for suite in ("weinstein", "axial", "criterion")
       for target in CLOUD_POTENTIALS])


@pytest.mark.parametrize("suite,flag,target", CLOUD_CASES,
                         ids=[f"{s}-{t}" for s, _, t in CLOUD_CASES])
def test_verify_cloud_matches_the_per_sample_loop(monkeypatch, suite, flag, target):
    samples = "4" if target.startswith("transform") else "12"
    for seed, fmt in CLOUD_RUNS:
        alpha = ["--alpha", "1.5"] if flag == "--potential" else []
        argv = ["verify", suite, flag, target, *alpha, "--samples", samples,
                "--seed", seed, "--format", fmt]
        code, out, err = _against_reference(monkeypatch, argv)
        assert (code in (0, 4) and out) or (code == 3 and err.startswith("error: ")), argv


def _patched_sampler(monkeypatch, name, changes):
    """Replace cli.<name> by a sampler that draws as before and passes
    draw number i through changes[i], where there is one."""
    from meridian4 import cli

    original, draws = getattr(cli, name), []

    def sample(*args, **kwargs):
        point = original(*args, **kwargs)
        draws.append(point)
        change = changes.get(len(draws) - 1)
        return change(point) if change else point
    monkeypatch.setattr(cli, name, sample)


def _verify_error(monkeypatch, argv, sampler=None):
    """Runner and reference on argv, each with a fresh patched sampler."""
    from meridian4 import cli

    def run():
        with monkeypatch.context() as m:
            if sampler:
                _patched_sampler(m, *sampler)
            return _main(argv)
    got = run()
    with monkeypatch.context() as m:
        m.setattr(cli, "_run_suite", _per_sample_run_suite)
        assert run() == got, argv
    return got


def test_verify_error_is_the_first_non_finite_residual_by_sample_then_check(monkeypatch):
    from meridian4 import cli

    def residuals(field, x0, rho):
        # r1 fails where x0 > 1, r2 where rho < 0.7: the first sample that
        # fails either decides, and r1 before r2 within it
        def plain(v):
            return float(v) if np.ndim(v) == 0 else v
        return (plain(np.where(np.asarray(x0) > 1.0, math.nan, 0.0)),
                plain(np.where(np.asarray(rho) < 0.7, math.inf, 0.0)))

    monkeypatch.setattr(cli, "verify_stokes_beltrami", residuals)
    for seed in range(6):
        code, out, err = _verify_error(
            monkeypatch, ["verify", "stokes", "--field", "holo:name=qexp", "--seed", str(seed)])
        assert (code, out) == (3, "")
        assert err.startswith(("error: DomainError: r1 residual nan at sample point (",
                               "error: DomainError: r2 residual inf at sample point ("))
    code, out, err = _verify_error(
        monkeypatch, ["verify", "axial", "--potential", "rho3", "--alpha", "1e308"])
    assert (code, out) == (3, "")
    assert err.startswith("error: DomainError: axial residual inf at sample point (")


def test_verify_step_too_large_after_an_earlier_non_finite_sample(monkeypatch):
    argv = ["verify", "stokes", "--field", "holo:name=qexp", "--samples", "10"]
    # the fifth sample sits closer to the axis than its difference step
    near_axis = {4: lambda p: (p[0], 5e-5)}
    code, out, err = _verify_error(monkeypatch, argv, ("_sample_plane", near_axis))
    assert (code, out) == (3, "")
    assert err == "error: StepTooLarge: step 0.0001 reaches the axis (rho = 5e-05)\n"
    # a third sample where exp overflows fails first, with its residual
    code, out, err = _verify_error(monkeypatch, argv, (
        "_sample_plane", {2: lambda p: (800.0, p[1]), **near_axis}))
    assert (code, out) == (3, "")
    assert err.startswith("error: DomainError: r1 residual nan at sample point (800.0, ")


def test_verify_x3pow_below_the_plane_keeps_its_error(monkeypatch):
    code, out, err = _verify_error(
        monkeypatch, ["verify", "criterion", "--potential", "x3pow:alpha=0.5", "--seed", "4"])
    assert (code, out) == (3, "")
    assert err == "error: MeridianError: x3^1.5 needs x3 >= 0 at non-integer exponents\n"


def test_verify_criterion_chart_error_at_a_later_sample(monkeypatch):
    code, out, err = _verify_error(
        monkeypatch, ["verify", "criterion", "--field", "holo:name=qexp", "--samples", "20"],
        ("_sample_space", {13: lambda x: Quaternion(x.x0, x.x1, 0.0, 0.0)}))
    assert (code, out) == (3, "")
    assert err == "error: DomainError: criterion chart needs rho > 0 and (x2, x3) != 0\n"


def test_verify_sends_the_cloud_through_one_field_evaluation(monkeypatch):
    from meridian4.fields import MeridionalField

    calls, evaluate = [], MeridionalField.evaluate

    def counted(self, names, x0, rho, check=True):
        calls.append((tuple(names), len(x0)))
        return evaluate(self, names, x0, rho, check)

    monkeypatch.setattr(MeridionalField, "evaluate", counted)
    for suite, want in [
            ("epd", [(("dV0_dx0", "dVrho_drho", "Vrho"), 30)]),
            # two lines of four difference points each, then the samples
            ("stokes", [(("stream",), 30 * 2 * 4), (("V0", "Vrho"), 30)]),
            ("system", [(("V0", "Vrho"), 30 * (4 * 4 + 1))]),  # four axes and the sample
            ("symmetry", [(("V0", "Vrho"), 30)]),
            ("criterion", [(("g",), 30 * 3 * 4)])]:  # three axes, four points each
        calls.clear()
        code, _, _ = _main(["verify", suite, "--field", "holo:name=qexp", "--samples", "30"])
        assert (code, calls) == (0, want), suite


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_moebius_inverse():
    r = run_cli("spectrum", "--field", "moebius:a=0,d=0", "--grid", "1:2:2,1:2:2")
    assert r.returncode == 0
    header, rows = csv_rows(r.stdout)
    assert header == ["x0", "rho", "l0", "l1", "l2", "l3",
                      "I", "II", "III", "IV", "degenerate", "method"]
    first = rows[0]
    assert float(first[0]) == 1.0 and float(first[1]) == 1.0
    lams = [float(c) for c in first[2:6]]
    for got, want in zip(lams, (-0.5, -0.5, -0.5, 0.5)):
        assert abs(got - want) < 1e-12
    assert first[10] == "false"
    assert first[11] == "closed"


def test_spectrum_oracle_columns():
    r = run_cli("spectrum", "--field", "holo:name=qexp",
                "--grid", "0:1:3,0.5:1.5:3", "--oracle")
    assert r.returncode == 0
    header, rows = csv_rows(r.stdout)
    assert header[-6:] == ["method", "n0", "n1", "n2", "n3", "deviation"]
    for cells in rows:
        row = dict(zip(header, cells))
        assert float(row["deviation"]) <= 1e-9
        for a, b in (("l0", "n0"), ("l3", "n3")):
            assert abs(float(row[a]) - float(row[b])) <= 1e-9


def test_spectrum_json_types():
    r = run_cli("spectrum", "--field", "moebius:a=0,d=0",
                "--grid", "1:2:2,1:2:2", "--format", "json")
    data = json.loads(r.stdout)
    assert data[0]["degenerate"] is False
    assert data[0]["method"] == "closed"
    assert isinstance(data[0]["l0"], float)


# ---------------------------------------------------------------------------
# table writer
# ---------------------------------------------------------------------------

# repr switches to exponent form below 1e-4 and from 1e16 on
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e-05, 9.999999999999999e-06, 0.0001, -1e-05,
               1e16, 9999999999999998.0, -1e16, 1.0000000000000002e16,
               1.7976931348623157e308, math.inf, -math.inf, math.nan,
               -math.nan, 0.1, -0.1, 1 / 3, 2.0, -2.0]


def naive_table(fmt, columns):
    """The reference writer: every cell formatted on its own."""
    rows = len(next(c for c in columns.values() if not isinstance(c, str)))

    def cell(col, i):
        if isinstance(col, str):
            return json.dumps(col) if fmt == "json" else col
        if col.dtype == bool:
            return "true" if col[i] else "false"
        return repr(float(col[i]) + 0.0)

    lines = [[cell(col, i) for col in columns.values()] for i in range(rows)]
    if fmt == "csv":
        return "".join(",".join(r) + "\n" for r in [list(columns)] + lines)
    return "[" + ", ".join("{" + ", ".join(f'"{k}": {c}' for k, c in zip(columns, r)) + "}"
                           for r in lines) + "]\n"


def assert_writer_matches_naive(fmt, columns):
    out = io.StringIO()
    floats = [c for c in columns.values() if not isinstance(c, str) and c.dtype != bool]
    if fmt == "json" and not all(np.isfinite(c).all() for c in floats):
        # JSON has no NaN or infinity: the writer refuses before writing
        with contextlib.redirect_stdout(out), pytest.raises(DomainError):
            _emit_table(fmt, columns)
        assert out.getvalue() == ""
        return
    with contextlib.redirect_stdout(out):
        _emit_table(fmt, columns)
    got, want = out.getvalue(), naive_table(fmt, columns)
    if got != want:  # a window, not pytest's diff of two long strings
        i = len(os.path.commonprefix([got, want]))
        pytest.fail(f"{fmt} differs at {i}: {got[i - 30:i + 30]!r} != {want[i - 30:i + 30]!r}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("extra", [0, 1], ids=["block", "block+1"])
def test_table_writer_matches_per_cell_repr(fmt, extra):
    rng = np.random.default_rng(7)
    rows = _BLOCK_ROWS + extra
    edge = rng.choice(np.array(EDGE_FLOATS), rows)
    a = np.where(rng.random(rows) < 0.5, edge, np.round(rng.normal(size=rows), 2))
    columns = {
        "a": a,
        "neg": -a,                     # negations of the first column
        "same": a[::-1].copy(),        # the same values, other rows
        "wide": rng.normal(scale=1e17, size=rows) * rng.random(rows) ** 40,
        "flag": rng.random(rows) < 0.3,
        "method": "closed",
    }
    assert_writer_matches_naive(fmt, columns)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("v", EDGE_FLOATS, ids=repr)
def test_table_writer_single_row(fmt, v):
    columns = {"v": np.array([v]), "w": np.array([-v]), "ok": np.array([v > 0]),
               "tag": 'a "quoted" name'}
    assert_writer_matches_naive(fmt, columns)


def test_table_writer_json_refuses_non_finite_cells():
    columns = {"v": np.array([math.nan, math.inf])}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(DomainError, match="v = nan in row 0"):
        _emit_table("json", columns)
    assert out.getvalue() == ""
    with contextlib.redirect_stdout(out):
        _emit_table("csv", columns)
    assert out.getvalue() == "v\nnan\ninf\n"


@given(st.lists(st.tuples(st.floats(), st.floats(width=32), st.booleans()),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_table_writer_on_arbitrary_floats(rows):
    x, y, b = (np.array(c) for c in zip(*rows))
    columns = {"x": x, "y": y, "x_again": x, "minus_y": -y, "b": b, "s": "s"}
    for fmt in ("csv", "json"):
        assert_writer_matches_naive(fmt, columns)


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_saddle_csv():
    # G = -x^2/2: V0 = -x0, Vrho = rho; exponential in closed form
    r = run_cli("flow", "--field", "holo:name=qpow,n=2,coeff=-0.5",
                "--start", "0.5,0.1,0,0", "--dt", "0.001", "--horizon", "0.5")
    assert r.returncode == 0
    header, rows = csv_rows(r.stdout)
    assert ",".join(header) == "t,x0,x1,x2,x3,h"
    assert len(rows) == 501
    last = dict(zip(header, map(float, rows[-1])))
    assert abs(last["t"] - 0.5) < 1e-9
    assert abs(last["x0"] - 0.5 * math.exp(-0.5)) < 1e-6
    assert abs(last["x1"] - 0.1 * math.exp(0.5)) < 1e-6
    assert last["x2"] == 0.0 and last["x3"] == 0.0
    assert "termination: horizon" in r.stderr


def test_flow_csv_cells_are_the_json_rows(capsys):
    from meridian4.cli import main
    argv = ["flow", "--field", "holo:name=qexp", "--start=-2,0.5,0.3,-0.2",
            "--dt", "0.01", "--horizon", "0.5"]
    assert main(argv) == 0
    csv = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    header, cells = csv_rows(csv)
    assert csv.endswith("\n") and len(cells) == len(rows) == 51
    assert cells == [[repr(r[k]) for k in header] for r in rows]


def test_flow_left_domain_json():
    # G = x^2/2: Vrho = -rho pulls toward the axis; rho = 0.1 e^{-t}
    r = run_cli("flow", "--field", "holo:name=qpow,n=2,coeff=0.5",
                "--start", "0.1,0.1,0,0", "--dt", "0.01", "--horizon", "20",
                "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["termination"] == "left_domain"
    assert data["rows"][-1]["x1"] > 1e-6


def test_flow_through_the_axis_leaves_domain():
    # an RK4 step passes through the axis and lands on the far side
    r = run_cli("flow", "--field",
                "separable:alpha=2.5,beta=1.2607497567255213,a1=1.0,"
                "a2=0.5531754135469718,b1=0.8422967147337637,b2=-0.2624236026413273",
                "--start=-0.42308116697232234,-0.7807978040581653,"
                "0.8050457338446678,0.22060906977214317",
                "--dt", "0.005", "--horizon", "1.0")
    assert r.returncode == 0, r.stderr
    assert "termination: left_domain" in r.stderr


def test_flow_rejects_bad_start():
    r = run_cli("flow", "--field", "holo:name=qexp", "--start", "1,0,0",
                "--dt", "0.01", "--horizon", "1")
    assert r.returncode == 2
    r = run_cli("flow", "--field", "holo:name=qexp", "--start", "1,0,0,0",
                "--dt", "0.01", "--horizon", "1")
    assert r.returncode == 3  # rho = 0 start is a domain error


@pytest.mark.parametrize("dt,horizon", [("nan", "0.5"), ("0.01", "inf"),
                                        ("0.01", "nan"), ("inf", "1")])
def test_flow_rejects_non_finite_step_or_horizon(dt, horizon):
    r = run_cli("flow", "--field", "holo:name=qexp", "--start", "0.5,0.1,0,0",
                "--dt", dt, "--horizon", horizon)
    assert r.returncode == 3
    assert r.stdout == ""
    assert "DomainError" in r.stderr


@pytest.mark.parametrize("argv", [
    ("eval", "--field", "holo:name=qexp", "--grid=700:720:2,0.1:1:2"),
    ("spectrum", "--field", "holo:name=qpow,n=3", "--grid=1e200:2e200:2,0.1:1:2"),
    ("flow", "--field", "holo:name=qexp", "--start", "2,6,0,0",
     "--dt", "0.001", "--horizon", "1"),
], ids=["eval-qexp", "spectrum-qpow", "flow-qexp"])
def test_overflow_exits_3_without_output(argv):
    r = run_cli(*argv)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_flow_of_too_many_steps_exits_3_at_once():
    # past about 2**53 steps t += dt stops moving t, and the loop never ends;
    # a horizon of more than MAX_STEPS steps is refused before the first
    for dt in ("1e-300", "9.99e-7"):
        r = subprocess.run(CMD + ["flow", "--field", "holo:name=qexp", "--start", "0,1,0,0",
                                  "--dt", dt, "--horizon", "1"],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("error: DomainError: horizon / dt = ")
        assert r.stderr.count("\n") == 1 and "MAX_STEPS = 1000000" in r.stderr


def test_flow_that_blows_up_names_t_and_the_point():
    # rho' = cos(x0) sinh(rho) blows up in finite time: near t = 1.96 an RK4
    # stage lands where the lift of cos overflows
    r = run_cli("flow", "--field", "holo:name=qcos", "--start", "0.5,0.3,0,0",
                "--dt", "0.001", "--horizon", "2")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: DomainError: field overflows at t = 1.96, (x0, rho) = (")
    assert r.stderr.count("\n") == 1 and "OverflowError" not in r.stderr


def test_flow_stage_through_the_axis_leaves_the_domain():
    # rho shrinks while x0 grows; an RK4 stage crosses the axis before x0 overflows
    r = run_cli("flow", "--field", "holo:name=qexp", "--start", "0.5,0.1,0.2,0",
                "--dt", "0.001", "--horizon", "1")
    assert r.returncode == 0
    assert "termination: left_domain" in r.stderr


def test_flow_field_domain_error_exits_3_without_output():
    # from rho = 2.64 a stage of the third step reaches beta * rho > 30, the
    # Bessel series' cap, far above the rho floor: the field's DomainError is
    # not reported as leaving the domain
    argv = ["flow", "--field", "separable:alpha=3,beta=11,b1=1",
            "--dt", "0.01", "--horizon", "2"]
    r = run_cli(*argv, "--start", "0.1,2.64,0,0")
    assert r.returncode == 3
    assert r.stdout == ""
    assert "|z| <= 30" in r.stderr and "left_domain" not in r.stderr
    # from rho = 2.65 the last stage of the third step lands at rho = -4.6
    r = run_cli(*argv, "--start", "0.1,2.65,0,0")
    assert r.returncode == 0
    assert "termination: left_domain" in r.stderr


def test_flow_non_finite_row_exits_3_without_output():
    # z^3 at rho = 1e50 overflows to inf - inf in the first step
    r = run_cli("flow", "--field", "holo:name=qpow,n=3", "--start=0,1e50,0,0",
                "--dt", "0.1", "--horizon", "1")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == ("error: DomainError: flow row at t = 0.1 is not finite "
                        "(x0 = nan, rho = nan)\n")


# ---------------------------------------------------------------------------
# special
# ---------------------------------------------------------------------------

def _kv(stdout: str) -> dict:
    out = {}
    for line in stdout.strip().split("\n"):
        k, _, v = line.partition("=")
        out[k] = v
    return out


def test_special_bessel_first_zero():
    r = run_cli("special", "bessel", "--nu", "0", "--z", "2.404825557695773")
    assert r.returncode == 0
    assert abs(float(_kv(r.stdout)["value"])) < 1e-12


def test_special_bessel_y():
    r = run_cli("special", "bessel", "--nu", "0.5", "--z", str(math.pi),
                "--kind", "y")
    assert abs(float(_kv(r.stdout)["value"]) - 0.45015815807855303) < 1e-13


@pytest.mark.parametrize("nu,z,code", [("-1.25", "5e-324", 3), ("nan", "1", 2),
                                       ("0.5", "nan", 2), ("inf", "1", 2)])
def test_special_bessel_bad_inputs_exit_with_one_error_line(nu, z, code):
    # the power (z/2)^nu overflows (3); non-finite order or argument (2)
    r = run_cli("special", "bessel", "--nu", nu, "--z", z)
    assert r.returncode == code
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,order", [
    (("special", "bessel", "--nu", "1e300", "--z", "1"), "1e+300"),
    (("eval", "--field", "separable:alpha=1e300,beta=1", "--grid", "0:1:2,1:2:2"), "5e+299"),
    # k*(nu + k) of the series overflows too, and a negative order is named as given
    (("special", "bessel", "--nu=1e306", "--z=2"), "1e+306"),
    (("special", "bessel", "--nu=-1e308", "--z=2"), "-1e+308"),
    (("flow", "--field", "separable:alpha=1e308,beta=1", "--start", "0,1,0,0", "--dt", "0.1",
      "--horizon", "0.2"), "5e+307"),
], ids=["special-bessel", "eval-separable", "special-bessel-1e306", "special-bessel-neg-1e308",
        "flow-separable"])
def test_huge_order_names_it_in_a_short_line(argv, order):
    # Gamma(nu + 1) overflows: the leading term's error names the order as
    # a float, not its 301-digit integer, the same where a RuntimeWarning is an error
    r = run_cli(*argv)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert len(r.stderr) < 200 and f"overflows at nu = {order}," in r.stderr
    strict = run_cli(*argv, env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert (strict.returncode, strict.stdout, strict.stderr) == (3, "", r.stderr)


@pytest.mark.parametrize("argv", [
    ("special", "transform", "--kind", "ffc", "--original", "exp", "--at", "1,0.5,0,0",
     "--rate", "nan"),
    ("special", "transform", "--kind", "ffc", "--original", "exp", "--at", "1,0.5,0,0",
     "--rate", "inf"),
    ("eval", "--field", "transform:kind=ffc,original=exp,rate=2,tol=-1",
     "--grid", "0:1:2,1:1.5:2"),
    ("eval", "--field", "transform:kind=ffc,original=exp,rate=2,tol=0",
     "--grid", "0:1:2,1:1.5:2"),
], ids=["argv3", "argv4", "argv6", "argv7"])  # fixed ids: a case keeps its id when others go
def test_quadrature_settings_rejected_exit_2(argv):
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and ("tol" in r.stderr or "rate" in r.stderr)


def test_special_transform_exp_near_the_decay_rate():
    # e^(-2t) cos(z t) at rho = 1.95 once overflowed; the value is 2/(z^2 + 4)
    r = run_cli("special", "transform", "--kind", "ffc", "--original", "exp",
                "--rate", "2", "--at", "0.5,1.95,0,0")
    assert r.returncode == 0, r.stderr
    kv = _kv(r.stdout)
    z = complex(0.5, 1.95)
    got = complex(float(kv["x0"]), float(kv["x1"]))
    assert abs(got - 2.0 / (z * z + 4.0)) <= 1e-10


def test_special_besselq_real_axis():
    r = run_cli("special", "besselq", "--n", "0", "--at", "1,0,0,0")
    vals = _kv(r.stdout)
    assert abs(float(vals["x0"]) - 0.7651976865579666) < 1e-13
    assert float(vals["x1"]) == 0.0


def test_special_transform_laplace():
    r = run_cli("special", "transform", "--kind", "lf", "--original", "exp",
                "--at", "1,0,0,0")
    assert abs(float(_kv(r.stdout)["x0"]) - 0.5) < 1e-9


def test_special_besselrep_agrees_with_series():
    r = run_cli("special", "besselrep", "--n", "0", "--parity", "even",
                "--at", "1,0.6,0,0.8")
    assert r.returncode == 0
    assert float(_kv(r.stdout)["discrepancy"]) < 1e-9


def test_special_json():
    r = run_cli("special", "besselq", "--n", "0", "--at", "1,0,0,0",
                "--format", "json")
    data = json.loads(r.stdout)
    assert abs(data["x0"] - 0.7651976865579666) < 1e-13


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------

def test_log_level_goes_to_stderr_only():
    quiet = run_cli(*EVAL_ARGS)
    loud = run_cli(*EVAL_ARGS, env_extra={"MERIDIAN4_LOG": "info"})
    assert loud.returncode == 0
    assert loud.stdout == quiet.stdout
    assert quiet.stderr == ""
    assert "INFO meridian4.cli" in loud.stderr


def test_log_level_holds_on_each_call_in_one_process(monkeypatch):
    from meridian4 import cli

    def call(env):
        if env is None:
            monkeypatch.delenv("MERIDIAN4_LOG", raising=False)
        else:
            monkeypatch.setenv("MERIDIAN4_LOG", env)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(list(EVAL_ARGS)) == 0
        return out.getvalue(), err.getvalue()

    quiet_out, quiet_err = call(None)
    loud_out, loud_err = call("info")
    assert loud_out == quiet_out and quiet_err == ""
    # the second call's lines reach the second call's stderr
    assert loud_err == "INFO meridian4.cli: eval: 4 grid points on holo:name=qpow,n=2,coeff=0.5\n"
    assert call("error") == (quiet_out, "")
    assert call("debug")[1] == loud_err
    assert call(" Debug ")[1] == loud_err
    assert call("warning") == (quiet_out, "")


PROGRESS_LINES = [
    (["spectrum", "--field", "moebius:a=0.25,d=1.5", "--grid", "0:1:2,1:2:2", "--oracle"],
     "INFO meridian4.cli: spectrum: 4 grid points on moebius:a=0.25,d=1.5 (oracle=True)\n"),
    (["verify", "epd", "--field", "holo:name=qexp", "--samples", "3"],
     "INFO meridian4.cli: verify epd: 3 samples, seed 0\n"),
    (["flow", "--field", "holo:name=qexp", "--start=-2,0.5,0.3,-0.2", "--dt", "0.01",
      "--horizon", "0.03"],
     "INFO meridian4.cli: flow: 3 steps, termination horizon\ntermination: horizon\n"),
]


@pytest.mark.parametrize("argv,info", PROGRESS_LINES, ids=["spectrum", "verify", "flow"])
def test_progress_lines_keep_their_text(monkeypatch, argv, info):
    from meridian4 import cli

    def stderr(level):
        monkeypatch.setenv("MERIDIAN4_LOG", level)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(argv) == 0
        return err.getvalue()

    quiet = info.partition("\n")[2]
    assert stderr("info") == info
    assert stderr(" Debug ") == info
    assert stderr("warning") == quiet
    assert stderr("error") == quiet


def test_main_leaves_the_logging_configuration_alone(monkeypatch):
    import logging

    from meridian4 import cli

    logger = logging.getLogger("meridian4")
    before = (list(logger.handlers), logger.propagate, logger.level)
    monkeypatch.setenv("MERIDIAN4_LOG", "info")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(EVAL_ARGS)) == 0
    assert (list(logger.handlers), logger.propagate, logger.level) == before


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

REUSE_ARGVS = [
    ["eval", "--field", "transform:kind=ffc,original=exp,rate=2.2", "--grid", "-1:1:3,0.1:0.8:3"],
    ["eval", "--field", "holo:name=qexp", "--grid", "0:1:2,1:2:2", "--bogus"],
    ["spectrum", "--field", "transform:kind=ffs,original=kernel3", "--grid=-1:1:3,0.1:0.8:2",
     "--format", "json", "--oracle"],
    ["--help"],
    ["verify", "epd", "--field", "transform:kind=ffc,original=unit", "--samples", "3"],
    ["spectrum", "--help"],
    ["flow", "--field", "holo:name=qexp", "--start=-2,0.5,0.3,-0.2", "--dt", "0.01",
     "--horizon", "0.1"],
    ["special", "transform", "--kind", "lf"],
    ["special", "transform", "--kind", "ffs", "--original", "cheb2", "--at", "0.4,0.2,0.1,0"],
    ["special", "besselrep", "--n", "1", "--parity", "odd", "--at", "0.5,0.3,0,0.1",
     "--format", "json"],
    ["special", "besselrep", "--n", "1", "--parity", "odd", "--at", "0.5,0.3,0,0.1"],
]


def test_main_reuses_one_parser_with_fresh_process_output(monkeypatch):
    import functools

    from meridian4 import cli

    builds, build = [], cli.build_parser.__wrapped__

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(maxsize=None)(counting))
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
    for argv in REUSE_ARGVS:
        fresh = run_cli(*argv, env_extra={"COLUMNS": "80"})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert (code, out.getvalue()) == (fresh.returncode, fresh.stdout), argv
        assert err.getvalue() == fresh.stderr, argv
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

def _readme_blocks(lang):
    """The bodies of README's fenced code blocks in language lang."""
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def _readme_commands():
    """(argv, expected exit code) of each meridian4 line in README's sh blocks;
    the code is the line's "# exits N" note, 0 when it has none."""
    import re
    import shlex

    commands = []
    for block in _readme_blocks("sh"):
        for line in block.splitlines():
            command, _, note = line.partition("#")
            if command.startswith("meridian4 "):
                code = re.match(r"\s*exits (\d+)", note)
                commands.append((shlex.split(command)[1:], int(code.group(1)) if code else 0))
    return commands


def test_readme_examples_exit_as_noted():
    commands = _readme_commands()
    assert len(commands) >= 5
    for argv, want in commands:
        code, out, _ = _main(argv)
        assert code == want, argv
        assert out


def test_readme_quick_start_runs(capsys):
    block, = _readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})  # the block asserts the oracle's agreement
    epd, flow_end = capsys.readouterr().out.splitlines()
    assert float(epd) < 1e-12
    assert flow_end.startswith("horizon ")
