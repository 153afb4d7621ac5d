"""Command-line surface: evaluate fields on grids, scan spectra, run PDE
verification suites, integrate gradient flows, and query the special-function
machinery.

Output goes to stdout as CSV (comma, LF, header row) or JSON (array of row
objects with the same columns); diagnostics and logging go to stderr only.
Exit codes: 0 success, 2 bad usage/spec, 3 domain error, 4 verification
failure.  Identical invocations produce byte-identical output.
"""

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import random
import sys

import numpy as np

from .errors import DomainError, MeridianError
from .quaternion import Quaternion
from .holomorphic import elementary, moebius_potential
from .fields import (
    RHO_MIN,
    SeparableParams,
    from_holomorphic_potential,
    from_separable,
    lift_to_r4,
    verify_epd,
    verify_stokes_beltrami,
    verify_weinstein,
    verify_axial_hyperbolic,
    verify_general_system,
    criterion_check,
    axial_symmetry_check,
)
# eigen_closed and jacobian stay bound here for bench/tracing.py, which wraps
# the spectral layer at the names the CLI binds
from .spectral import (closed_spectrum, eigen_closed, eigen_numeric,  # noqa: F401
                       jacobian, jacobian_stack)
from .dynsys import flow
from .specfun import bessel_j, bessel_y, bessel_j_quat
from .transforms import (
    DEFAULT_TOL,
    bessel_integral_rep,
    cheb_original,
    chebyshev_kernel,
    exp_decay_original,
    ff_cos,
    ff_sin,
    laplace_fueter,
    transform_field,
    unit_original,
)

log = logging.getLogger("meridian4.cli")

EVAL_HEADER = "x0,rho,V0,Vrho,dVrho_dx0,dVrho_drho"
FLOW_HEADER = "t,x0,x1,x2,x3,h"

SUITE_TOL = {
    "epd": 1e-10,
    "stokes": 1e-7,
    "system": 1e-6,
    "criterion": 1e-7,
    "symmetry": 1e-12,
    "weinstein": 2e-6,
    "axial": 1e-6,
}


class SpecError(ValueError):
    """A field/grid/potential spec string that does not parse."""


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _norm(v):
    """Plain float with negative zero flushed, for stable shortest-round-trip repr."""
    return float(v) + 0.0


def _fmt(v) -> str:
    return repr(_norm(v))


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


_BLOCK_ROWS = 4096


def _emit_table(fmt: str, columns: dict):
    """Write named columns as CSV (header row) or as a JSON array of row objects.

    A column is a float array (shortest repr, -0.0 flushed to 0.0), a boolean
    array (true/false) or a string repeated on every row.  Cells are formatted
    for one block of rows at a time, and each block is written before the
    next is formatted, so only one block of cell strings is alive at a time.
    Within a block the float columns are formatted together: each distinct
    value is formatted once (its magnitude passed to repr, a negative one
    prefixed with '-') and the string is shared by every cell that holds it.
    JSON has no NaN or infinity: a non-finite float cell in fmt 'json'
    raises DomainError before anything is written.
    """
    rows = len(next(c for c in columns.values() if not isinstance(c, str)))
    floats = [k for k, c in columns.items() if not isinstance(c, str) and c.dtype != bool]
    if fmt == "json":
        for k in floats:
            bad = np.flatnonzero(~np.isfinite(columns[k]))
            if bad.size:
                raise DomainError(f"{k} = {float(columns[k][bad[0]])!r} in row {bad[0]} "
                                  "has no JSON form")

    def float_cells(lo, hi):
        vals = np.stack([columns[k][lo:hi] for k in floats]) + 0.0
        uniq, inv = np.unique(vals, return_inverse=True)  # inv's shape varies by numpy
        # v and -v share one repr; NaN is never < 0, and repr drops its sign
        mag, back = np.unique(np.abs(uniq), return_inverse=True)
        text = np.array(list(map(repr, mag.tolist())), dtype=object)[back.reshape(-1)]
        neg = uniq < 0
        text[neg] = "-" + text[neg]
        return dict(zip(floats, text[inv.reshape(vals.shape)].tolist()))

    def cells(col, lo, hi):
        if isinstance(col, str):
            return [json.dumps(col) if fmt == "json" else col] * (hi - lo)
        return np.where(col[lo:hi], "true", "false").tolist()

    if fmt == "json":
        head, sep, tail = "[", ", ", "]\n"
        line = ("{" + ", ".join(f'"{name}": %s' for name in columns) + "}").__mod__
    else:
        head, sep, tail = ",".join(columns) + "\n", "\n", "\n"
        line = ",".join
    sys.stdout.write(head)
    for lo in range(0, rows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, rows)
        done = float_cells(lo, hi)
        block = zip(*(done[k] if k in done else cells(col, lo, hi)
                      for k, col in columns.items()))
        sys.stdout.write((sep if lo else "") + sep.join(map(line, block)))
    sys.stdout.write(tail)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def _kv_pairs(body: str) -> dict:
    out = {}
    if not body:
        return out
    for chunk in body.split(","):
        key, eq, val = chunk.partition("=")
        key = key.strip()
        if not eq or not key or not val.strip():
            raise SpecError(f"malformed parameter {chunk!r} (want key=value)")
        if key in out:
            raise SpecError(f"duplicate parameter {key!r}")
        out[key] = val.strip()
    return out


def _take(params: dict, key: str, conv, default=None, required=False):
    if key not in params:
        if required:
            raise SpecError(f"missing required parameter {key!r}")
        return default
    raw = params.pop(key)
    try:
        val = conv(raw)
    except (TypeError, ValueError):
        raise SpecError(f"parameter {key}={raw!r} is not a valid {conv.__name__}")
    if conv is float and not math.isfinite(val):
        raise SpecError(f"parameter {key}={raw!r} must be finite")
    return val


def _reject_extras(params: dict, kind: str):
    if params:
        raise SpecError(f"unknown parameter(s) for {kind}: {', '.join(sorted(params))}")


def _check_quadrature(tol: float, rate: float = 1.0) -> None:
    """A tol that can never be met would run every panel count up to the cap."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise SpecError(f"tol = {tol!r} must be finite and > 0")
    if not math.isfinite(rate):
        raise SpecError(f"rate = {rate!r} must be finite")


def parse_original(name: str, rate: float):
    """Original-function registry: unit | exp | cheb<n> | kernel<k>."""
    if name == "unit":
        return unit_original()
    if name == "exp":
        return exp_decay_original(rate)
    if name.startswith("cheb"):
        try:
            return cheb_original(int(name[4:]))
        except ValueError:
            raise SpecError(f"bad Chebyshev original {name!r} (want cheb<n>)")
    if name.startswith("kernel"):
        try:
            return chebyshev_kernel(int(name[6:]))
        except ValueError:
            raise SpecError(f"bad Chebyshev kernel {name!r} (want kernel<k>)")
    raise SpecError(f"unknown original {name!r} (unit, exp, cheb<n>, kernel<k>)")


def parse_field_spec(text: str):
    """Build a MeridionalField from a kind:key=val,... spec string."""
    kind, _, body = text.partition(":")
    params = _kv_pairs(body)

    if kind == "holo":
        name = _take(params, "name", str, required=True)
        n = _take(params, "n", float)
        coeff = _take(params, "coeff", float, default=1.0)
        _reject_extras(params, kind)
        pot = elementary(name, n)
        if coeff != 1.0:
            pot = coeff * pot
        return from_holomorphic_potential(pot)

    if kind == "moebius":
        a = _take(params, "a", float, default=0.0)
        d = _take(params, "d", float, default=0.0)
        _reject_extras(params, kind)
        return from_holomorphic_potential(moebius_potential(a, d))

    if kind == "separable":
        alpha = _take(params, "alpha", float, required=True)
        beta = _take(params, "beta", float, required=True)
        a1 = _take(params, "a1", float, default=1.0)
        a2 = _take(params, "a2", float, default=0.0)
        b1 = _take(params, "b1", float, default=1.0)
        b2 = _take(params, "b2", float, default=0.0)
        _reject_extras(params, kind)
        return from_separable(SeparableParams(alpha, beta, a1, a2, b1, b2))

    if kind == "transform":
        tkind = _take(params, "kind", str, required=True)
        original = _take(params, "original", str, required=True)
        rate = _take(params, "rate", float, default=1.0)
        tol = _take(params, "tol", float, default=DEFAULT_TOL)
        _reject_extras(params, kind)
        _check_quadrature(tol, rate)
        if tkind not in ("ffc", "ffs"):
            raise SpecError(f"transform kind must be ffc or ffs, got {tkind!r}")
        return transform_field(tkind, parse_original(original, rate), tol)

    raise SpecError(
        f"unknown field kind {kind!r} (holo, separable, transform, moebius)")


def _each(fn, *arrays) -> np.ndarray:
    """fn at the floats of each point of flat float arrays, one call per
    point: libm's bits, and fn's own errors."""
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, len(arrays[0]))


def parse_potential_spec(text: str, default_alpha: float):
    """Scalar potentials h: R^4 -> R for the verification suites.

    x3pow[:alpha=A] -> x3^(1+A); rhopow:e=E -> rho^E;
    rho3 -> (x1^2+x2^2+x3^2)^{3/2}; x0sq-x3sq -> x0^2 - x3^2.
    h maps a Quaternion whose components are flat float arrays to an array.
    """
    name, _, body = text.partition(":")
    params = _kv_pairs(body)

    if name == "x3pow":
        alpha = _take(params, "alpha", float, default=default_alpha)
        _reject_extras(params, name)
        expo = 1.0 + alpha

        def h(x0, x1, x2, x3, _e=expo):
            try:
                return math.pow(x3, _e)
            except ValueError:
                raise MeridianError(
                    f"x3^{_e:g} needs x3 >= 0 at non-integer exponents")

    elif name == "rhopow":
        expo = _take(params, "e", float, required=True)
        _reject_extras(params, name)

        def h(x0, x1, x2, x3, _e=expo):
            return (x1 ** 2 + x2 ** 2 + x3 ** 2) ** (0.5 * _e)

    elif name == "rho3":
        _reject_extras(params, name)

        def h(x0, x1, x2, x3):
            return (x1 ** 2 + x2 ** 2 + x3 ** 2) ** 1.5

    elif name == "x0sq-x3sq":
        _reject_extras(params, name)

        def h(x0, x1, x2, x3):
            return x0 ** 2 - x3 ** 2

    else:
        raise SpecError(f"unknown potential {name!r} (x3pow, rhopow, rho3, x0sq-x3sq)")
    return lambda x: _each(h, *x.components())


def parse_grid(text: str):
    """Grid spec x0lo:x0hi:nx,rholo:rhohi:nr -> (x0 samples, rho samples)."""
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError("grid wants x0lo:x0hi:nx,rholo:rhohi:nr")

    def axis(part, label):
        bits = part.split(":")
        if len(bits) != 3:
            raise SpecError(f"{label} axis wants lo:hi:n, got {part!r}")
        try:
            lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError:
            raise SpecError(f"{label} axis {part!r} has non-numeric entries")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SpecError(f"{label} axis bounds must be finite")
        if n < 2:
            raise SpecError(f"{label} axis needs n >= 2, got {n}")
        if not lo < hi:
            raise SpecError(f"{label} axis needs lo < hi")
        return [lo + i * (hi - lo) / (n - 1) for i in range(n)]

    x0s = axis(parts[0], "x0")
    rhos = axis(parts[1], "rho")
    if rhos[0] < RHO_MIN:
        raise SpecError(f"rho axis starts below the domain floor {RHO_MIN:g}")
    return x0s, rhos


def _parse_point(text: str, count: int, label: str):
    bits = text.split(",")
    if len(bits) != count:
        raise SpecError(f"{label} wants {count} comma-separated reals")
    try:
        vals = [float(b) for b in bits]
    except ValueError:
        raise SpecError(f"{label} has non-numeric entries: {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise SpecError(f"{label} must be finite")
    return vals


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _grid_points(text: str):
    """Flat (x0, rho) arrays of a grid spec, x0-major."""
    x0s, rhos = parse_grid(text)
    return np.repeat(np.array(x0s), len(rhos)), np.tile(np.array(rhos), len(x0s))


def cmd_eval(args) -> int:
    field = parse_field_spec(args.field)
    x0, rho = _grid_points(args.grid)
    log.info("eval: %d grid points on %s", len(x0), args.field)

    names = EVAL_HEADER.split(",")[2:]
    columns = {"x0": x0, "rho": rho}
    columns.update(zip(names, field.evaluate(names, x0, rho)))
    _emit_table(args.format, columns)
    return 0


def cmd_spectrum(args) -> int:
    field = parse_field_spec(args.field)
    x0, rho = _grid_points(args.grid)
    log.info("spectrum: %d grid points on %s (oracle=%s)",
             len(x0), args.field, args.oracle)

    vrho, p01, p11 = field.evaluate(("Vrho", "dVrho_dx0", "dVrho_drho"), x0, rho)
    q = vrho / rho
    lams, inv, degenerate = closed_spectrum(field.alpha, q, p01, p11)
    columns = {"x0": x0, "rho": rho}
    columns.update((f"l{i}", lams[:, i]) for i in range(4))
    columns.update(zip(("I", "II", "III", "IV"), inv.T))
    columns["degenerate"] = degenerate
    columns["method"] = "closed"
    if args.oracle:
        # grid points lie on the e1 axis of R^4: x = (x0, rho, 0, 0)
        num = eigen_numeric(jacobian_stack(field.alpha, q, p01, p11, (1.0, 0.0, 0.0)))
        columns.update((f"n{i}", num.lambdas[:, i]) for i in range(4))
        columns["deviation"] = np.max(np.abs(lams - num.lambdas), axis=1)
    _emit_table(args.format, columns)
    return 0


def _sample_plane(rng):
    return rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)


def _sample_space(rng, min_rho=0.1, x3_window=None, min_s2=0.0):
    while True:
        x0 = rng.uniform(-2.0, 2.0)
        x1 = rng.uniform(-1.5, 1.5)
        x2 = rng.uniform(-1.5, 1.5)
        if x3_window is not None:
            x3 = rng.uniform(*x3_window)
        else:
            x3 = rng.uniform(-1.5, 1.5)
        x = Quaternion(x0, x1, x2, x3)
        if x.rho() < min_rho:
            continue
        if x2 * x2 + x3 * x3 < min_s2:
            continue
        return x


def _suite(args):
    """The suite's check names, sampler, check (the residuals, one per name,
    at one sample of floats or a cloud of arrays) and field (or None)."""
    suite = args.suite
    if args.samples < 1:
        raise SpecError(f"--samples must be at least 1, got {args.samples}")

    field_suites = {"epd", "stokes", "system", "symmetry"}
    if suite in field_suites and args.field is None:
        raise SpecError(f"suite {suite!r} needs --field")
    if suite in ("weinstein", "axial") and args.potential is None:
        raise SpecError(f"suite {suite!r} needs --potential")
    if suite == "criterion" and args.field is None and args.potential is None:
        raise SpecError("suite 'criterion' needs --field or --potential")

    if not math.isfinite(args.alpha):
        raise SpecError(f"--alpha must be finite, got {args.alpha!r}")
    field = parse_field_spec(args.field) if args.field is not None else None
    if suite in ("weinstein", "axial") or field is None:
        field, h = None, parse_potential_spec(args.potential, args.alpha)
    else:
        def h(x):
            return field.evaluate(("g",), x.x0, x.rho(), check=False)[0]

    def u(x):
        v = lift_to_r4(field, x)
        return (v.x0, -v.x1, -v.x2, -v.x3)

    def phi(x):
        return _each((-field.alpha).__rpow__, x.rho())

    def window(rng):
        return _sample_space(rng, x3_window=(0.1, 2.0))

    # suite -> (check names, sampler, residuals at the samples)
    return *{
        "epd": (["epd"], _sample_plane, lambda p: (verify_epd(field, *p),)),
        "stokes": (["r1", "r2"], _sample_plane, lambda p: verify_stokes_beltrami(field, *p)),
        "system": (["continuity", "sym1", "sym2", "sym3", "curl12", "curl13", "curl23"],
                   _sample_space, lambda x: verify_general_system(u, phi, x)),
        "symmetry": (["pair12", "pair13", "pair23"], _sample_space,
                     lambda x: axial_symmetry_check(
                         lambda q: lift_to_r4(field, q).components(), x)),
        "criterion": (["cart12", "cart13", "cart23", "dtheta", "dpsi"],
                      lambda rng: _sample_space(rng, min_s2=0.01),
                      lambda x: sum(criterion_check(h, x), ())),
        "weinstein": (["weinstein"], window, lambda x: (verify_weinstein(h, args.alpha, x),)),
        "axial": (["axial"], window, lambda x: (verify_axial_hyperbolic(h, args.alpha, x),)),
    }[suite], field


def _cloud_pass(check, points) -> np.ndarray:
    """check over the samples points at once: (checks, samples) residuals."""
    if isinstance(points[0], Quaternion):
        cloud = Quaternion(*map(np.array, zip(*(p.components() for p in points))))
    else:
        cloud = tuple(map(np.array, zip(*points)))
    return np.array([np.broadcast_to(r, len(points)) for r in check(cloud)], dtype=float)


def _check_finite(names, residuals: np.ndarray, points, field) -> None:
    """NaN would drop out of max(): the first non-finite residual, sample by
    sample and then in check order, stops the suite instead, after the error
    (not a float error) that the field, if any, raises at that sample."""
    bad = np.argwhere(~np.isfinite(residuals.T))
    if bad.size:
        i, k = bad[0]
        p = points[i]
        if field is not None:
            with contextlib.suppress(ArithmeticError):
                field.at(("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho"),
                         *((p.x0, p.rho()) if isinstance(p, Quaternion) else p))
        where = p.components() if isinstance(p, Quaternion) else p
        raise DomainError(f"{names[k]} residual {float(residuals[k, i])!r} "
                          f"at sample point {where}")


def _run_suite(args):
    """Max residual per named check over the seeded sample cloud.

    The cloud is drawn first, in the rng order of drawing one sample per
    check (no check reads the rng), and goes through the suite's check in
    one pass, each sample with its own default_fd_step.  A suite stops as a
    sample-by-sample run would.  When the pass raises, the first sample
    that raises is found by bisecting the cloud; the samples before it are
    checked for a non-finite residual, and then its error propagates.
    """
    names, sample, check, field = _suite(args)
    rng = random.Random(args.seed)
    points = [sample(rng) for _ in range(args.samples)]
    try:
        residuals = _cloud_pass(check, points)
    except Exception as exc:
        error = exc
        # the pass over points[:lo] does not raise, the one over points[:hi] does
        lo, hi = 0, len(points)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _cloud_pass(check, points[:mid])
            except Exception as err:
                hi, error = mid, err
            else:
                lo = mid
        if lo:
            _check_finite(names, _cloud_pass(check, points[:lo]), points, field)
        raise error
    _check_finite(names, residuals, points, field)
    return list(zip(names, residuals.max(axis=1).tolist()))


def cmd_verify(args) -> int:
    tol = SUITE_TOL[args.suite]
    results = _run_suite(args)
    log.info("verify %s: %d samples, seed %d", args.suite, args.samples, args.seed)

    checks = [{"check": name, "max": _norm(worst), "tol": tol,
               "status": "pass" if worst <= tol else "fail"}
              for name, worst in results]
    ok = all(c["status"] == "pass" for c in checks)

    target = args.field if args.field is not None else args.potential
    if args.format == "json":
        _emit_json({"suite": args.suite, "target": target,
                    "samples": args.samples, "seed": args.seed,
                    "checks": checks, "result": "pass" if ok else "fail"})
    else:
        lines = [f"suite={args.suite}", f"target={target}",
                 f"samples={args.samples}", f"seed={args.seed}"]
        for c in checks:
            lines.append(f"check={c['check']} max={_fmt(c['max'])} "
                         f"tol={_fmt(c['tol'])} status={c['status']}")
        lines.append(f"result={'pass' if ok else 'fail'}")
        _emit(lines)
    return 0 if ok else 4


def cmd_flow(args) -> int:
    field = parse_field_spec(args.field)
    start = _parse_point(args.start, 4, "--start")
    traj = flow(field, Quaternion(*start), args.dt, args.horizon)
    log.info("flow: %d steps, termination %s", len(traj.times) - 1, traj.termination)

    names = FLOW_HEADER.split(",")
    samples = [(t, p.x0, p.x1, p.x2, p.x3, h) for t, p, h in traj.samples()]

    if args.format == "json":
        rows = [dict(zip(names, map(_norm, s))) for s in samples]
        _emit_json({"rows": rows, "termination": traj.termination})
    else:
        _emit_table("csv", dict(zip(names, np.array(samples, dtype=float).T)))
        print(f"termination: {traj.termination}", file=sys.stderr)
    return 0


def _quat_kv(x: Quaternion):
    return [("x0", x.x0), ("x1", x.x1), ("x2", x.x2), ("x3", x.x3)]


def cmd_special(args) -> int:
    pairs = []
    if args.query == "bessel":
        if not (math.isfinite(args.nu) and math.isfinite(args.z)):
            raise SpecError(f"--nu = {args.nu!r} and --z = {args.z!r} must be finite")
        fn = bessel_y if args.kind == "y" else bessel_j
        pairs = [("value", fn(args.nu, args.z))]
    elif args.query == "besselq":
        x = Quaternion(*_parse_point(args.at, 4, "--at"))
        pairs = _quat_kv(bessel_j_quat(args.n, x))
    elif args.query == "transform":
        _check_quadrature(args.tol, args.rate)
        x = Quaternion(*_parse_point(args.at, 4, "--at"))
        eta = parse_original(args.original, args.rate)
        op = {"lf": laplace_fueter, "ffc": ff_cos, "ffs": ff_sin}[args.kind]
        pairs = _quat_kv(op(eta, x, args.tol))
    elif args.query == "besselrep":
        _check_quadrature(args.tol)
        x = Quaternion(*_parse_point(args.at, 4, "--at"))
        rep = bessel_integral_rep(args.n, args.parity, x, args.tol)
        order = 2 * args.n if args.parity == "even" else 2 * args.n + 1
        series = bessel_j_quat(order, x)
        pairs = _quat_kv(rep)
        pairs.append(("discrepancy", (rep - series).norm()))

    if args.format == "json":
        _emit_json({k: _norm(v) for k, v in pairs})
    else:
        _emit([f"{k}={_fmt(v)}" for k, v in pairs])
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and shared after that:
    parse_args leaves it as it was, so main may run any number of times in
    one process."""
    parser = argparse.ArgumentParser(
        prog="meridian4",
        description="Meridional vector fields in R^4 from quaternionic "
                    "function theory: evaluation, spectra, verification, flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("eval", help="evaluate a field on a meridian half-plane grid")
    p.add_argument("--field", required=True,
                   help="kind:key=val,... e.g. holo:name=qpow,n=2,coeff=0.5")
    p.add_argument("--grid", required=True, help="x0lo:x0hi:nx,rholo:rhohi:nr")
    add_format(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("spectrum", help="closed-form Jacobian spectrum on a grid")
    p.add_argument("--field", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="add LAPACK eigvalsh columns and max deviation")
    add_format(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="seeded residual suites; exit 4 on failure")
    p.add_argument("suite", choices=sorted(SUITE_TOL))
    p.add_argument("--field", help="field spec (epd, stokes, system, symmetry, criterion)")
    p.add_argument("--potential",
                   help="scalar potential spec (weinstein, axial, criterion): "
                        "x3pow[:alpha=A] | rhopow:e=E | rho3 | x0sq-x3sq")
    p.add_argument("--alpha", type=float, default=2.0,
                   help="operator parameter for weinstein/axial (default 2)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("flow", help="integrate the gradient flow from a start point")
    p.add_argument("--field", required=True)
    p.add_argument("--start", required=True, help="x0,x1,x2,x3")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("special", help="Bessel and transform queries")
    q = p.add_subparsers(dest="query", required=True)

    b = q.add_parser("bessel", help="J_nu(z) or Y_nu(z) on the real half-line")
    b.add_argument("--nu", type=float, required=True)
    b.add_argument("--z", type=float, required=True)
    b.add_argument("--kind", choices=("j", "y"), default="j")
    add_format(b)

    b = q.add_parser("besselq", help="J_n at a quaternion argument")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--at", required=True, help="x0,x1,x2,x3")
    add_format(b)

    b = q.add_parser("transform", help="Laplace/Fourier-Fueter transform values")
    b.add_argument("--kind", choices=("lf", "ffc", "ffs"), required=True)
    b.add_argument("--original", required=True,
                   help="unit | exp | cheb<n> | kernel<k>")
    b.add_argument("--rate", type=float, default=1.0)
    b.add_argument("--at", required=True, help="x0,x1,x2,x3")
    b.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_format(b)

    b = q.add_parser("besselrep", help="integral representation vs series")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--parity", choices=("even", "odd"), required=True)
    b.add_argument("--at", required=True, help="x0,x1,x2,x3")
    b.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_format(b)

    p.set_defaults(fn=cmd_special)
    return parser


class _StderrHandler(logging.Handler):
    """Writes each record to sys.stderr as it is when the record comes."""

    def emit(self, record):
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


_HANDLER = _StderrHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _setup_logging():
    """Set the meridian4 logger's level from MERIDIAN4_LOG, on every call.

    Its records go to the current sys.stderr and not on to the root logger,
    which is left as it is.
    """
    name = os.environ.get("MERIDIAN4_LOG", "error").strip().lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(name, logging.ERROR)
    logger = logging.getLogger("meridian4")
    logger.setLevel(level)
    logger.propagate = False
    if _HANDLER not in logger.handlers:
        logger.addHandler(_HANDLER)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeridianError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer (head, ...) closed stdout; not our error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
