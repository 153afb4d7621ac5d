"""Independent correctness oracles for the benchmark.

Nothing here imports meridian4.  Every expected value is computed from a
closed form in numpy, from scipy.special, or from a property the output
must have.  Each ``check_*`` function returns ``None`` when the output is
right and a one-line reason when it is not.

scipy.special is reached through ``special()``: in the benchmark that is a
``SpecialClient`` talking to ``special_server.py``, a helper process, so
that the process whose peak resident set is reported never holds scipy.
"""

from __future__ import annotations

import io
import json
import math
import subprocess

import numpy as np

# The suite tolerances of ``meridian4 verify``, restated so that a change
# that loosened them in the program would not loosen the check.
SUITE_TOL = {
    "epd": 1e-10,
    "stokes": 1e-7,
    "system": 1e-6,
    "criterion": 1e-7,
    "symmetry": 1e-12,
    "weinstein": 2e-6,
    "axial": 1e-6,
}

# Closed-form lifts agree with cmath to a few ulps; 1e-10 relative leaves
# five orders of margin without hiding a wrong branch or sign.
VALUE_RTOL = 1e-10
# eigvalsh of a 4x4 symmetric matrix is backward stable: errors ~1e-15 ||J||.
EIG_RTOL = 1e-9
# The adaptive quadrature stops when two refinements differ by < tol; the
# error of the finer one is far below that.  100 * tol covers the t-weighted
# derivative integrands and the cosh(rho t) growth of the field integrals.
QUAD_FACTOR = 100.0
# RK4 with dt = 1e-3 over t <= 1 on x' = -x, rho' = rho: global error ~1e-13.
FLOW_RTOL = 1e-9
# Ascending-series Bessel values at beta*rho <= 10 against scipy's AMOS.
BESSEL_RTOL = 1e-9


def encode(a):
    """A number as is, an array as ``{"re": [...], "im": [...] or None}``."""
    if isinstance(a, (int, float)):
        return a
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return {"re": a.astype(float).tolist(), "im": None}


def decode(a):
    if not isinstance(a, dict):
        return a
    re = np.asarray(a["re"], dtype=float)
    return re if a["im"] is None else re + 1j * np.asarray(a["im"], dtype=float)


class SpecialClient:
    """Calls scipy.special functions in a ``special_server.py`` process."""

    def __init__(self, argv, **popen_kwargs):
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, **popen_kwargs)

    def _call(self, name, args):
        request = {"f": name, "args": [encode(a) for a in args]}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("scipy helper process ended")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return decode(reply["value"])

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return lambda *args: self._call(name, args)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


_special = None


def use_special(module):
    """Route the oracles' scipy.special calls to ``module``."""
    global _special
    _special = module


def special():
    if _special is None:
        import scipy.special
        use_special(scipy.special)
    return _special


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def parse_csv(text: str):
    """Header and rows of a CSV table, cells left as strings."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def numeric_columns(header, rows, names):
    idx = [header.index(n) for n in names]
    return np.array([[float(r[i]) for i in idx] for r in rows], dtype=float)


def table_from_output(text: str, fmt: str, names):
    """Numeric columns ``names`` of a CSV or JSON table, plus the raw rows."""
    if fmt == "json":
        rows = json.loads(text)
        data = np.array([[float(r[n]) for n in names] for r in rows], dtype=float)
        return data, rows
    if all(n in ("x0", "rho", "V0", "Vrho", "dVrho_dx0", "dVrho_drho") for n in names):
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        header = text[:text.index("\n")].split(",")
        return data[:, [header.index(n) for n in names]], None
    header, rows = parse_csv(text)
    return numeric_columns(header, rows, names), [dict(zip(header, r)) for r in rows]


def grid_axes(spec: str):
    """The node coordinates a ``lo:hi:n,lo:hi:n`` grid spec denotes."""
    out = []
    for part in spec.split(","):
        lo, hi, n = part.split(":")
        out.append(np.linspace(float(lo), float(hi), int(n)))
    x0, rho = np.meshgrid(out[0], out[1], indexing="ij")
    return x0.ravel(), rho.ravel()


def _worst_rel(got, want, floor=1.0):
    return float(np.max(np.abs(got - want) / np.maximum(floor, np.abs(want))))


# ---------------------------------------------------------------------------
# meridian-plane closed forms: F = G' and F' as functions of z = x0 + i rho
# ---------------------------------------------------------------------------

def holo_derivatives(params: dict):
    """(F, F') of a ``holo`` or ``moebius`` spec's potential G."""
    kind = params["kind"]
    if kind == "moebius":
        a, d = params["a"], params["d"]
        return (lambda z: -1.0 / (z + d) + a), (lambda z: 1.0 / (z + d) ** 2)
    name = params["name"]
    if name == "qexp":
        return np.exp, np.exp
    if name == "qln":
        return (lambda z: 1.0 / z), (lambda z: -1.0 / z ** 2)
    if name == "qpow":
        n, c = int(params["n"]), params["coeff"]
        return (lambda z: c * n * z ** (n - 1)), (lambda z: c * n * (n - 1) * z ** (n - 2))
    raise ValueError(f"no closed form for {name}")


def transform_derivatives(kind: str, original: str, rate: float):
    """(F, F') of a transform field: V0 + i Vrho is F evaluated at conj(z)."""
    a = rate
    if original == "exp":
        if kind == "ffc":
            return (lambda z: a / (a * a + z * z)), (lambda z: -2 * a * z / (a * a + z * z) ** 2)
        return (lambda z: z / (a * a + z * z)), (lambda z: (a * a - z * z) / (a * a + z * z) ** 2)
    if original == "unit":
        if kind == "ffc":
            return (lambda z: np.sin(z) / z), (lambda z: np.cos(z) / z - np.sin(z) / z ** 2)
        return ((lambda z: (1 - np.cos(z)) / z),
                (lambda z: np.sin(z) / z - (1 - np.cos(z)) / z ** 2))
    sp = special()
    if kind == "ffc" and original.startswith("cheb"):
        n = int(original[4:])
        order, c = 2 * n, 0.5 * math.pi * (-1) ** n
    elif kind == "ffs" and original.startswith("kernel") and int(original[6:]) % 2:
        n = (int(original[6:]) - 1) // 2
        order, c = 2 * n + 1, 0.5 * math.pi * (-1) ** n
    else:
        raise ValueError(f"no closed form for {kind} of {original}")
    return (lambda z: c * sp.jv(order, z)), (lambda z: c * sp.jvp(order, z))


def laplace_closed(original: str, rate: float):
    if original == "exp":
        return lambda z: 1.0 / (z + rate)
    if original == "unit":
        return lambda z: (1 - np.exp(-z)) / z
    raise ValueError(f"no closed form for lf of {original}")


def meridian_values(F, dF, x0, rho):
    """V0, Vrho, dVrho/dx0, dVrho/drho of the field with V0 - i Vrho = F(z)."""
    z = x0 + 1j * rho
    f, df = F(z), dF(z)
    return np.stack([f.real, -f.imag, -df.imag, -df.real], axis=1)


def jacobians(alpha, q, p01, p11, x):
    """Symmetric 4x4 Jacobians from the formula in the spectral docstring.

    ``x`` is (N, 4); q = Vrho/rho, p01 = dVrho/dx0, p11 = dVrho/drho.
    """
    rho = np.sqrt(x[:, 1] ** 2 + x[:, 2] ** 2 + x[:, 3] ** 2)
    J = np.empty((len(q), 4, 4))
    J[:, 0, 0] = -p11 + (alpha - 2.0) * q
    for m in range(3):
        xm = x[:, m + 1]
        J[:, 0, m + 1] = J[:, m + 1, 0] = p01 * xm / rho
        for n in range(3):
            xn = x[:, n + 1]
            if m == n:
                J[:, m + 1, m + 1] = p11 * xm ** 2 / rho ** 2 + q * (rho ** 2 - xm ** 2) / rho ** 2
            else:
                J[:, m + 1, n + 1] = (p11 - q) * xm * xn / rho ** 2
    return J


def elementary_symmetric(lams):
    l0, l1, l2, l3 = lams.T
    return np.stack([
        l0 + l1 + l2 + l3,
        l0 * l1 + l0 * l2 + l0 * l3 + l1 * l2 + l1 * l3 + l2 * l3,
        l0 * l1 * l2 + l0 * l1 * l3 + l0 * l2 * l3 + l1 * l2 * l3,
        l0 * l1 * l2 * l3], axis=1)


# ---------------------------------------------------------------------------
# table checks
# ---------------------------------------------------------------------------

EVAL_COLS = ["x0", "rho", "V0", "Vrho", "dVrho_dx0", "dVrho_drho"]
LAMBDA_COLS = ["l0", "l1", "l2", "l3"]
INV_COLS = ["I", "II", "III", "IV"]
ORACLE_COLS = ["n0", "n1", "n2", "n3", "deviation"]


def _check_nodes(data, grid):
    x0, rho = grid_axes(grid)
    if data.shape[0] != x0.size:
        return None, None, f"{data.shape[0]} rows for {x0.size} grid nodes"
    if _worst_rel(data[:, 0], x0) > 1e-12 or _worst_rel(data[:, 1], rho) > 1e-12:
        return None, None, "grid coordinates differ from the requested grid"
    return x0, rho, None


def check_eval(text, fmt, grid, F, dF, rtol=VALUE_RTOL):
    data, _ = table_from_output(text, fmt, EVAL_COLS)
    x0, rho, err = _check_nodes(data, grid)
    if err:
        return err
    want = meridian_values(F, dF, x0, rho)
    worst = _worst_rel(data[:, 2:], want)
    if not worst <= rtol:
        return f"field values off by {worst:.3g} (relative) > {rtol:g}"
    return None


def check_spectrum(text, fmt, grid, F, dF, oracle, eig_rtol=EIG_RTOL):
    names = EVAL_COLS[:2] + LAMBDA_COLS + INV_COLS + (ORACLE_COLS if oracle else [])
    data, rows = table_from_output(text, fmt, names)
    x0, rho, err = _check_nodes(data, grid)
    if err:
        return err
    vals = meridian_values(F, dF, x0, rho)
    x = np.stack([x0, rho, np.zeros_like(x0), np.zeros_like(x0)], axis=1)
    J = jacobians(2.0, vals[:, 1] / rho, vals[:, 2], vals[:, 3], x)
    want = np.linalg.eigvalsh(J)
    scale = np.maximum(1.0, np.sqrt(np.sum(J * J, axis=(1, 2))))
    got = data[:, 2:6]
    worst = float(np.max(np.abs(got - want).max(axis=1) / scale))
    if not worst <= eig_rtol:
        return f"eigenvalues off by {worst:.3g} ||J|| > {eig_rtol:g}"
    e = elementary_symmetric(got)
    inv = data[:, 6:10]
    powers = np.stack([scale ** k for k in (1, 2, 3, 4)], axis=1)
    worst = float(np.max(np.abs(inv - e) / powers))
    if not worst <= eig_rtol:
        return f"invariants differ from e_k(eigenvalues) by {worst:.3g} ||J||^k"
    if oracle:
        worst = float(np.max(np.abs(data[:, 10:14] - want).max(axis=1) / scale))
        if not worst <= eig_rtol:
            return f"oracle eigenvalues off by {worst:.3g} ||J||"
        dev = data[:, 14]
        if not float(np.max(dev / scale)) <= eig_rtol:
            return f"deviation column reaches {float(np.max(dev / scale)):.3g} ||J||"
        if not np.array_equal(dev, np.abs(got - data[:, 10:14]).max(axis=1)):
            return "deviation column is not max |closed - oracle|"
    if rows is not None:
        for r in rows:
            if r["method"] != "closed":
                return f"method {r['method']!r}, expected 'closed'"
        degenerate = np.array([r["degenerate"] in (True, "true") for r in rows])
        minabs = np.abs(want).min(axis=1)
        frob = np.sqrt(np.sum(want * want, axis=1))
        if np.any(degenerate & (minabs > 1e-6 * np.maximum(1.0, frob))):
            return "a clearly non-degenerate node is flagged degenerate"
        if np.any(~degenerate & (minabs < 1e-12 * np.maximum(1.0, frob))):
            return "a degenerate node is not flagged"
    return None


def check_same_numbers(text_a, fmt_a, text_b, fmt_b, names):
    a, _ = table_from_output(text_a, fmt_a, names)
    b, _ = table_from_output(text_b, fmt_b, names)
    if a.shape != b.shape or not np.array_equal(a, b):
        return f"{fmt_a} and {fmt_b} outputs parse to different numbers"
    return None


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def parse_verify(text):
    checks, result = [], None
    for line in text.splitlines():
        if line.startswith("check="):
            kv = dict(item.split("=", 1) for item in line.split())
            checks.append((kv["check"], float(kv["max"]), kv["status"]))
        elif line.startswith("result="):
            result = line.split("=", 1)[1]
    return checks, result


def check_verify(rc, text, suite, samples):
    checks, result = parse_verify(text)
    tol = SUITE_TOL[suite]
    if f"samples={samples}" not in text.splitlines():
        return "sample count not echoed"
    if not checks:
        return "no checks reported"
    bad = [f"{name} {worst:.3g} > {tol:g}" for name, worst, _ in checks
           if not worst <= tol]
    if bad:
        return "suite residual over tolerance: " + ", ".join(bad)
    if result != "pass" or rc != 0 or any(s != "pass" for _, _, s in checks):
        return f"residuals within tolerance but result={result}, exit {rc}"
    return None


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def flow_table(text):
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return data


def check_flow_shape(data, start, dt, steps):
    if data.shape[0] != steps + 1:
        return f"{data.shape[0] - 1} steps for {steps} requested"
    if not np.allclose(data[:, 0], dt * np.arange(steps + 1), rtol=1e-12, atol=1e-12):
        return "time column is not the requested step sequence"
    if not np.array_equal(data[0, 1:5], np.asarray(start, dtype=float)):
        return "first row is not the start point"
    h = data[:, 5]
    drop = float(np.max(h[:-1] - h[1:]))
    if drop > 1e-13 * max(1.0, float(np.max(np.abs(h)))):
        return f"h decreases by {drop:.3g} along the flow"
    imag = data[:, 2:5]
    axis = imag / np.linalg.norm(imag, axis=1, keepdims=True)
    drift = float(np.max(np.abs(axis - axis[0])))
    if drift > 1e-10:
        return f"axis drifts by {drift:.3g}"
    return None


def check_flow_exact_qpow2(data, coeff):
    """x' = grad(coeff * Re z^2) = 2 coeff (x0, -x_m): exact exponentials."""
    t = data[:, 0]
    start = data[0, 1:5]
    want = np.empty_like(data[:, 1:5])
    want[:, 0] = start[0] * np.exp(2 * coeff * t)
    for m in range(1, 4):
        want[:, m] = start[m] * np.exp(-2 * coeff * t)
    worst = _worst_rel(data[:, 1:5], want)
    if not worst <= FLOW_RTOL:
        return f"trajectory off the exact solution by {worst:.3g}"
    h = coeff * (want[:, 0] ** 2 - np.sum(want[:, 1:] ** 2, axis=1))
    if _worst_rel(data[:, 5], h) > FLOW_RTOL:
        return "h column is not coeff*(x0^2 - rho^2)"
    return None


def check_flow_h(data, g):
    """h column against the potential g(x0, rho) computed apart."""
    x0 = data[:, 1]
    rho = np.linalg.norm(data[:, 2:5], axis=1)
    want = g(x0, rho)
    worst = _worst_rel(data[:, 5], want)
    if not worst <= BESSEL_RTOL:
        return f"h off the independent potential by {worst:.3g}"
    return None


# ---------------------------------------------------------------------------
# separable profiles through scipy
# ---------------------------------------------------------------------------

class Separable:
    """g = xi(x0) * rho^nu * (a1 J_nu + a2 Y_nu)(beta rho), nu = (alpha-1)/2."""

    def __init__(self, alpha, beta, a1=1.0, a2=0.0, b1=1.0, b2=0.0):
        self.alpha, self.beta = alpha, beta
        self.a1, self.a2, self.b1, self.b2 = a1, a2, b1, b2
        self.nu = 0.5 * (alpha - 1.0)

    def _c(self, z, n=0):
        sp = special()
        if n == 0:
            v = self.a1 * sp.jv(self.nu, z)
            if self.a2:
                v = v + self.a2 * sp.yv(self.nu, z)
            return v
        v = self.a1 * sp.jvp(self.nu, z, n)
        if self.a2:
            v = v + self.a2 * sp.yvp(self.nu, z, n)
        return v

    def xi(self, x0):
        b = self.beta
        return self.b1 * np.cosh(b * x0) + self.b2 * np.sinh(b * x0)

    def xi_p(self, x0):
        b = self.beta
        return b * (self.b1 * np.sinh(b * x0) + self.b2 * np.cosh(b * x0))

    def ups(self, rho):
        return rho ** self.nu * self._c(self.beta * rho)

    def ups_p(self, rho):
        nu, b, z = self.nu, self.beta, self.beta * rho
        return nu * rho ** (nu - 1) * self._c(z) + b * rho ** nu * self._c(z, 1)

    def ups_pp(self, rho):
        nu, b, z = self.nu, self.beta, self.beta * rho
        return (nu * (nu - 1) * rho ** (nu - 2) * self._c(z)
                + 2 * nu * b * rho ** (nu - 1) * self._c(z, 1)
                + b * b * rho ** nu * self._c(z, 2))

    def g(self, x0, rho):
        return self.xi(x0) * self.ups(rho)

    def vrho(self, x0, rho):
        return self.xi(x0) * self.ups_p(rho)

    def e2(self, x0, rho):
        q = self.vrho(x0, rho) / rho
        p01 = self.xi_p(x0) * self.ups_p(rho)
        p11 = self.xi(x0) * self.ups_pp(rho)
        return p01 ** 2 + p11 ** 2 - (self.alpha - 2.0) * q * p11


def window_scale(fn, window, n=12):
    x0 = np.linspace(window[0], window[1], n)
    rho = np.linspace(window[2], window[3], n)
    X, R = np.meshgrid(x0, rho, indexing="ij")
    return max(1.0, float(np.max(np.abs(fn(X.ravel(), R.ravel())))))


def check_critical_points(points, sep, window):
    """Critical points of the J-only alpha = 3 profile: x0 = 0, J0(beta rho) = 0."""
    sp = special()
    zeros = sp.jn_zeros(0, 12) / sep.beta
    want = [r for r in zeros if window[2] < r < window[3]]
    got = sorted(points, key=lambda p: p[1])
    if len(got) != len(want):
        return f"{len(got)} critical points, expected {len(want)} (J0 zeros in window)"
    for (x0, rho), r in zip(got, want):
        if abs(x0) > 1e-9 or abs(rho - r) > 1e-9 * max(1.0, r):
            return f"critical point ({x0:.12g}, {rho:.12g}) is not (0, {r:.12g})"
    return None


def check_level_points(chains, sep, window):
    """Each traced point zeroes the equation its chain is tagged with."""
    fns = {"Vrho": sep.vrho, "E2": sep.e2}
    if not chains:
        return "no degenerate set found"
    for tag, fn in fns.items():
        pts = np.array([p for t, chain in chains if t == tag for p in chain], dtype=float)
        if pts.size == 0:
            continue
        tol = 1e-8 * window_scale(fn, window)
        worst = float(np.max(np.abs(fn(pts[:, 0], pts[:, 1]))))
        if not worst <= tol:
            return f"{tag} chain point with |{tag}| = {worst:.3g} > {tol:.3g}"
    return None


def check_zero_divergence(points, sep, window):
    if not points:
        return "no zero of the divergence found"
    if not all(ok for _, _, ok in points):
        return "a divergence zero fails its determinant check"
    pts = np.array([(x0, rho) for x0, rho, _ in points], dtype=float)
    tol = 1e-8 * window_scale(sep.vrho, window)
    worst = float(np.max(np.abs(sep.vrho(pts[:, 0], pts[:, 1]))))
    if not worst <= tol:
        return f"|Vrho| = {worst:.3g} at a reported divergence zero"
    return None


# ---------------------------------------------------------------------------
# special queries
# ---------------------------------------------------------------------------

def quat_from_lift(w, at):
    """Re-embed the meridian value w along the axis of the quaternion ``at``."""
    x0, x1, x2, x3 = at
    rho = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    return np.array([w.real, w.imag * x1 / rho, w.imag * x2 / rho, w.imag * x3 / rho])


def parse_kv(text):
    return {k: float(v) for k, v in (line.split("=", 1) for line in text.splitlines())}


def check_quat(kv, want, tol):
    """Quaternion components x0..x3 of a ``special`` query against ``want``."""
    got = np.array([kv["x0"], kv["x1"], kv["x2"], kv["x3"]])
    err = float(np.max(np.abs(got - want)))
    if not err <= tol * max(1.0, float(np.max(np.abs(want)))):
        return f"value off by {err:.3g}"
    return None
