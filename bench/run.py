"""meridian4 benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload grid|pointwise|transform --seed N \\
        --seconds S --trace 0|1

Run from anywhere; the program under test is the ``src`` directory next to
this one.  A run

1. repeats rounds of the workload's tasks in this process, one task at a
   time, until ``--seconds`` of wall time have passed, timing each task
   alone with garbage collected between tasks, and checks every output
   against the oracles in ``oracles.py`` right after the task;
2. between rounds, times cold starts (fresh interpreters that import
   meridian4.cli and build the workload's fields), spread over the run;
3. prints each metric with its unit, the operations attempted and failed,
   and, as the last line, one JSON object.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the first round runs untraced and then again traced, the tracer stays on
for the remaining rounds, the metrics are per layer, and the spans are
written to bench/results/.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
COLD_STARTS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="meridian4 benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=("grid", "pointwise", "transform"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env.update({k: "1" for k in THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# set-up: cold starts
# ---------------------------------------------------------------------------

def _import_self_s(stderr, package):
    """Summed self time of ``package`` and its submodules from -X importtime."""
    total_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        name = parts[2].strip()
        if name == package or name.startswith(package + "."):
            total_us += int(parts[0].split(":")[1])
    return total_us * 1e-6


class ColdStarts:
    """Cold starts of the program: import meridian4.cli, build the fields."""

    def __init__(self, specs):
        self.specs, self.env = specs, child_env()
        self.samples = []

    def one(self):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(BENCH / "coldstart.py"), *self.specs],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"cold start failed: {proc.stderr.strip().splitlines()[-1:]}")
        ready, build_s, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            fail(f"meridian4 imported from {path}, not from {SRC}")
        return {"setup_s": float(ready) - t0, "build_s": float(build_s),
                "import_meridian4_s": _import_self_s(proc.stderr, "meridian4"),
                "import_numpy_s": _import_self_s(proc.stderr, "numpy")}

    def keep_pace(self, fraction):
        """Take starts until ``fraction`` of COLD_STARTS are done."""
        while len(self.samples) < min(COLD_STARTS, COLD_STARTS * fraction):
            self.samples.append(self.one())

    def medians(self):
        return {k: statistics.median(s[k] for s in self.samples) for k in self.samples[0]}


# ---------------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------------

class Run:
    """Task timings, point counts and check outcomes of one run."""

    def __init__(self, m4, workloads):
        self.m4, self.wl = m4, workloads
        self.tracer = None
        self.repeats = []  # per task position: the wall time of each repeat
        self.points = []   # per task position
        self.attempted = self.failed = self.unexpected = 0
        self.reasons = {}  # task label -> first failure reason

    def round(self, tasks):
        """Run one round; returns its summed task time."""
        if not self.repeats:
            self.repeats = [[] for _ in tasks]
            self.points = [t.points for t in tasks]
        total = 0.0
        for pos, task in enumerate(tasks):
            elapsed = self.execute(task, pos)
            self.repeats[pos].append(elapsed)
            total += elapsed
        return total

    def execute(self, task, pos):
        if self.tracer is not None:
            self.tracer.task = (len(self.repeats[pos]), pos)
        gc.collect()
        if task.argv is not None:
            elapsed, result = self._run_cli(task.argv)
        else:
            t0 = time.perf_counter()
            try:
                result = task.call(self.m4.spectral)
            except Exception as exc:  # a crash is a failed operation, not a bench error
                result = exc
            elapsed = time.perf_counter() - t0
        self.attempted += 1
        if isinstance(result, Exception):
            reason = f"{type(result).__name__}: {result}"
        else:
            try:
                reason = task.check(result)
            except Exception as exc:  # unparsable output
                reason = f"output check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            self.unexpected += not task.known_fault
            self.reasons.setdefault(task.label, reason)
        return elapsed

    def _run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.m4.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not a bench error
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["bytes_out"] += len(text.encode())
        return elapsed, self.wl.CliOutcome(rc, text)

    def mean_times(self):
        """Each task's mean time over its repeats in the run."""
        return [statistics.fmean(r) for r in self.repeats]


def import_program():
    sys.path.insert(0, str(SRC))
    import meridian4.cli
    import meridian4.dynsys
    import meridian4.fields
    import meridian4.spectral
    import meridian4.transforms
    m4 = sys.modules["meridian4"]
    if not Path(m4.__file__).resolve().is_relative_to(SRC):
        fail(f"meridian4 imported from {m4.__file__}, not from {SRC}")
    return m4


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "meridian4" / "cli.py").is_file():
        fail(f"no meridian4 sources under {SRC}")
    for k in THREAD_VARS:
        os.environ[k] = "1"

    import resource

    import oracles
    import workloads as wl

    cold = ColdStarts(wl.make_round(args.workload, args.seed, 0, build=lambda spec: None)[1])
    cold.one()  # writes the bytecode caches; not counted
    m4 = import_program()

    def make(index):
        return wl.make_round(args.workload, args.seed, index, m4.cli.parse_field_spec)[0]

    special = oracles.SpecialClient([sys.executable, str(BENCH / "special_server.py")],
                                    env=child_env(), cwd=ROOT)
    oracles.use_special(special)
    special.jv(0, 0.0)  # wait until scipy is loaded before timing anything
    run = Run(m4, wl)
    rounds, tracer = 0, None
    start = time.perf_counter()
    try:
        if args.trace:
            import tracing
            plain = run.round(make(0))
            tracer = run.tracer = tracing.Tracer()
            tracer.install(m4)
            try:
                traced = run.round(make(0))
                first = tracer.snapshot()
                rounds = 1
                while time.perf_counter() - start < args.seconds:
                    run.round(make(rounds))
                    rounds += 1
            finally:
                tracer.uninstall()
        else:
            while rounds == 0 or time.perf_counter() - start < args.seconds:
                run.round(make(rounds))
                rounds += 1
                cold.keep_pace((time.perf_counter() - start) / args.seconds)
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        special.close()
    cold.keep_pace(1.0)
    setup = cold.medians()
    correct = run.unexpected == 0

    if args.trace:
        metrics = tracing.layer_metrics(tracer, first, rounds)
        metrics["setup.import_meridian4_s"] = (setup["import_meridian4_s"], "s")
        metrics["setup.import_numpy_s"] = (setup["import_numpy_s"], "s")
        metrics["setup.build_s"] = (setup["build_s"], "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed,
                                        "traced_rounds": rounds})
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        mean = run.mean_times()
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "points_per_s": (sum(run.points) / sum(mean), "points/s"),
            "task_p50_ms": (1e3 * statistics.median(mean), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"points/round={sum(run.points)} wall_s={wall:.2f}")
    for label, reason in run.reasons.items():
        print(f"failed: {label}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {run.attempted}, failed = {run.failed}, correct = {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
