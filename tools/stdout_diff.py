"""Compare the CLI's stdout, stderr and exit code between the working tree and REV.

    python tools/stdout_diff.py REV

REV is checked out with `git worktree` into a temporary directory, and each
argv of ARGVS and REFUSALS runs as `python -m meridian4 ...` on both trees,
each with its own src/ on PYTHONPATH.  Prints "N argv, M differ" and each differing argv;
exits 1 on any difference.  Standard library only.
"""

import os
import subprocess
import sys
import tempfile

FIELDS = ["holo:name=qexp", "holo:name=qpow,n=3,coeff=0.7", "holo:name=qln",
          "moebius:a=0.25,d=1.5", "separable:alpha=3,beta=1.1,b1=0.5,b2=0.5",
          "separable:alpha=2.5,beta=1.1,a1=0.3,a2=1,b1=0.5,b2=0.5",
          "separable:alpha=-1.5,beta=0.7,a1=0.3,a2=1,b1=0.5,b2=0.5",
          "separable:alpha=7,beta=1.1,b1=0.5,b2=0.5",
          "separable:alpha=3,beta=20,b1=0.5,b2=0.5",  # past the series cap: exits 3
          "transform:kind=ffc,original=exp,rate=2", "transform:kind=ffc,original=exp,rate=3",
          "transform:kind=ffs,original=unit", "transform:kind=ffc,original=cheb2",
          "transform:kind=ffs,original=kernel3"]
AT = ["--at", "0.3,0.4,-0.2,0.5"]
ARGVS = [cmd + ["--field", f, "--grid=-1:1:4,0.5:1.9:3", "--format", fmt] for f in FIELDS
         for cmd in (["eval"], ["spectrum", "--oracle"]) for fmt in ("csv", "json")]
# the Fourier kernels' edges: near the axis, and up to 0.99 of the decay rate
ARGVS += [cmd + ["--field", f, g] for f, g in (
              ("transform:kind=ffc,original=exp,rate=2", "--grid=-1:1:4,1e-06:0.3:3"),
              ("transform:kind=ffs,original=kernel3", "--grid=-1:1:4,1e-06:0.3:3"),
              ("transform:kind=ffc,original=exp,rate=2", "--grid=-1:1:4,1.5:1.98:3"))
          for cmd in (["eval"], ["spectrum", "--oracle"])]
ARGVS += [["verify", s, "--field", f, "--samples", "12"] for f in FIELDS
          for s in ("epd", "stokes", "system", "symmetry", "criterion")]
ARGVS += [["verify", s, "--potential", p, "--alpha", "1.5", "--samples", "12"]
          for s in ("weinstein", "axial", "criterion")
          for p in ("x3pow", "x3pow:alpha=1.5", "rhopow:e=-0.5", "rho3", "x0sq-x3sq")]
ARGVS += [["verify", s, "--potential", p, "--samples", "12"]  # --alpha left at its default
          for s in ("weinstein", "axial", "criterion") for p in ("x3pow", "rho3")]
ARGVS += [["flow", "--field", f, "--start", "0.1,0.9,0.2,0", "--dt", "0.01", "--horizon", "0.3"]
          for f in FIELDS]
ARGVS += [["flow", "--field", "holo:name=qcos", "--start", "0.5,0.3,0,0", "--dt", "0.001",
           "--horizon", "2"]]
ARGVS += [["flow", "--field", "holo:name=qexp", "--start", "0.1,0.8,-0.4,0.6", "--dt", "0.01",
           "--horizon", "0.3"]]  # x3 != 0: rho rounds through all three components
ARGVS += [["special", "bessel", "--nu", nu, "--z", z, "--kind", k, "--format", fmt]
          for nu, z in (("0.5", "29"), ("2", "5"), ("-1.25", "3.7"))
          for k in ("j", "y") for fmt in ("csv", "json")]
ARGVS += [["special", "besselq", "--n", n] + AT for n in ("0", "3", "-2")]
ARGVS += [["special", "besselq", "--n", "5", "--at=-4,0.1,0.2,0.3"]]
ARGVS += [["special", "besselrep", "--n", "2", "--parity", p] + AT for p in ("even", "odd")]
ARGVS += [["special", "transform", "--kind", k, "--original", o]
          + (["--rate", "2"] if o == "exp" else []) + AT
          for k in ("lf", "ffc", "ffs") for o in ("unit", "exp", "cheb1", "kernel1")]
ARGVS += [["special", "transform", "--kind", "lf", "--original", "exp", "--rate", "2", at]
          for at in ("--at=-0.5,0.4,0,0", "--at=-2.5,0.4,0,0")]  # right of, left of s0 = -2
# negative orders, refused with exit 3
ARGVS += [["special", "besselrep", "--n", "-1", "--parity", "even"] + AT,
          ["eval", "--field", "transform:kind=ffc,original=cheb-1", "--grid=-1:1:4,0.5:1.9:3"]]
ARGVS += [["eval", "--field", "holo:name=qexp,coeff=1e308", "--grid=-1:1:4,0.5:1.9:3"],
          ["special", "transform", "--kind", "ffc", "--original", "unit", "--at=1,1e308,1e308,0"],
          # e^(rho t) overflows in the sums: "quadrature sum not finite", exit 3
          ["special", "transform", "--kind", "ffc", "--original", "unit", "--at=0.1,713.9,0,0"],
          ["special", "besselrep", "--n", "2", "--parity", "even", "--at=0.3,1e308,-1e308,0.5"]]
ARGVS += [["special", "besselq", "--n", "2", at]
          for at in ("--at=2,0,0,0", "--at=-1,1e-320,0,0")]  # on the axis, a subnormal rho
# overflows that once warned: V_rho / rho (exit 3) and the lf tail gap Re z + rate (exit 0)
ARGVS += [["spectrum", "--field=separable:alpha=2.5,beta=1.0,a1=1.0,a2=1.0,b1=1e+308,b2=0.5",
           "--grid=1e-06:1.0:3,0.5:1.9:3", "--format=json"]]
ARGVS += [["special", "transform", "--kind=lf", "--original=exp", rate, at]
          for rate, at in (("--rate=1.7e+308", "--at=1e+308,1e+306,0.5,0.5"),
                           ("--rate=1e+308", "--at=1.7e+308,1e-300,0.5,1.7e+308"))]
# orders whose series denominators k*(nu + k) overflow: exit 3 with one line
ARGVS += [["special", "bessel", "--nu=1e306", "--z=2"],
          ["flow", "--field", "separable:alpha=1e308,beta=1", "--start", "0,1,0,0", "--dt", "0.1",
           "--horizon", "0.2"]]
# runs refused with exit 2, kept apart from ARGVS, whose runs all get past the parsing:
# an axis whose (hi - lo)*(n - 1) overflows, node counts no array can address, a
# quadrature tolerance, which no option sets, and a name too long to echo whole
REFUSALS = [["eval", "--field", "holo:name=qexp", f"--grid={grid}"]
            for grid in ("0:1:2,1:1e308:3", "0:1:9223372036854775807,0.1:1:2",
                         "0:1:4611686018427387904,0.1:1:2", "0:1:99999999999999999999,0.1:1:2")]
REFUSALS += [["eval", "--field", "transform:kind=ffc,original=unit,tol=1e-8",
              "--grid=-1:1:4,0.5:1.9:3"],
             ["special", "transform", "--kind", "ffc", "--original", "unit", *AT, "--tol", "1e-8"],
             ["eval", "--field", "holo:name=" + "a" * 5000, "--grid=-1:1:4,0.5:1.9:3"]]


def outcomes(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    runs = (subprocess.run([sys.executable, "-m", "meridian4", *argv], capture_output=True,
                           text=True, env=env, cwd=tree) for argv in ARGVS + REFUSALS)
    return [(r.returncode, r.stdout, r.stderr) for r in runs]


def main(rev):
    git = ["git", "-C", os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    here = subprocess.run(git + ["rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        there = os.path.join(tmp, "rev")
        subprocess.run(git + ["worktree", "add", "--detach", "-q", there, rev], check=True)
        try:
            old = outcomes(there)
        finally:
            subprocess.run(git + ["worktree", "remove", "--force", there], check=True)
    differ = [argv for argv, a, b in zip(ARGVS + REFUSALS, old, outcomes(here)) if a != b]
    print(f"{len(ARGVS + REFUSALS)} argv, {len(differ)} differ")
    for argv in differ:
        print("  " + " ".join(argv))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]) if len(sys.argv) == 2 else __doc__)
