"""Per-layer tracing for the benchmark's traced run.

The tracer replaces public functions of meridian4 with wrappers at the
names their consumers bound (``meridian4.fields.bessel_j``, not
``meridian4.specfun.bessel_j``), so it measures each layer where another
layer calls it.  Nothing in the package changes; ``uninstall`` restores
every name.

Each wrapper opens a span.  Self time is kept online: a span's children
add their duration to it, and on exit its self time is its duration minus
that.  Coarse spans (a CLI call, a scan, a flow, a verifier call) are kept
in memory with name, start, end, parent and task id and written out once
the run ends.  Fine-grained spans (field quantities, Bessel calls,
eigen_closed, transform-field integrals) run hundreds of thousands of times
per round, so they are only aggregated per layer.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from time import perf_counter

# layer span names
CLI = "cli.main"
BUILD = "setup.build"
QUANTITY = "fields.quantity"
VERIFY = "fields.verify"
SPECFUN = "specfun"
TRANSFORMS = "transforms"
CLOSED = "spectral.closed"
ORACLE = "spectral.oracle"
SCAN = "spectral.scan"
FLOW = "dynsys.flow"

KEPT = {CLI, BUILD, VERIFY, SCAN, FLOW}

FIELD_METHODS = ("g", "V0", "Vrho", "dV0_dx0", "dVrho_dx0", "dVrho_drho", "stream_value")
PROFILE_CALLABLES = ("g", "dg_dx0", "dg_drho", "d2g_dx0x0", "d2g_dx0rho", "d2g_drhorho",
                     "stream")


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [child_time, kept_id]
        self.calls = Counter()   # spans closed, per name
        self.self_s = Counter()  # self time, per name
        self.outer_s = Counter()  # time of spans with no open span of the same name
        self.open = Counter()    # open spans per name
        self.counts = Counter()  # integrand_evals, scan_field_calls, rk4_steps, bytes_out
        self.spans = []          # kept spans: (name, start, end, parent, task)
        self.task = None
        self._patches = []
        self._t0 = perf_counter()

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn):
        stack, calls, self_s, outer_s, open_ = (
            self.stack, self.calls, self.self_s, self.outer_s, self.open)
        kept = name in KEPT
        counts_scan = name == QUANTITY

        def wrapper(*args, **kwargs):
            if counts_scan and open_[SCAN]:
                self.counts["scan_field_calls"] += 1
            span_id = None
            if kept:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                span_id = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.task])
            frame = [0.0, span_id]
            stack.append(frame)
            open_[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_[name] -= 1
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if not open_[name]:
                    outer_s[name] += dur
                if stack:
                    stack[-1][0] += dur
                if span_id is not None:
                    self.spans[span_id][1] = start - self._t0
                    self.spans[span_id][2] = end - self._t0
        return wrapper

    def _patch(self, obj, attr, replacement):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def _span_patch(self, obj, attr, name):
        self._patch(obj, attr, self.wrap(name, getattr(obj, attr)))

    # -- counted originals and transform fields ----------------------------

    def _counted(self, fn):
        counts = self.counts

        def counted(t):
            counts["integrand_evals"] += 1
            return fn(t)
        return counted

    def _counting_original(self, make):
        def wrapped(*args, **kwargs):
            eta = make(*args, **kwargs)
            num = eta.smooth_numerator
            return dataclasses.replace(
                eta, evaluator=self._counted(eta.evaluator),
                smooth_numerator=None if num is None else self._counted(num))
        return wrapped

    def _traced_transform_field(self, make):
        def wrapped(*args, **kwargs):
            field = make(*args, **kwargs)
            prof = field.profile
            for attr in PROFILE_CALLABLES:
                setattr(prof, attr, self.wrap(TRANSFORMS, getattr(prof, attr)))
            return field
        return wrapped

    def _counting_flow(self, fn):
        def wrapped(*args, **kwargs):
            traj = fn(*args, **kwargs)
            self.counts["rk4_steps"] += len(traj.times) - 1
            return traj
        return wrapped

    # -- install -----------------------------------------------------------

    def install(self, m4):
        """Wrap the public surface at the names each consumer bound."""
        cli, fields, dynsys, spectral, transforms = (
            m4.cli, m4.fields, m4.dynsys, m4.spectral, m4.transforms)
        self._span_patch(cli, "main", CLI)
        self._span_patch(cli, "parse_field_spec", BUILD)
        for attr in FIELD_METHODS:
            self._span_patch(fields.MeridionalField, attr, QUANTITY)
        self._span_patch(cli, "lift_to_r4", QUANTITY)
        self._span_patch(dynsys, "lift_to_r4", QUANTITY)
        for attr in ("verify_epd", "verify_stokes_beltrami", "verify_weinstein",
                     "verify_axial_hyperbolic", "verify_general_system",
                     "criterion_check", "axial_symmetry_check"):
            self._span_patch(cli, attr, VERIFY)
        for obj, attr in ((fields, "bessel_j"), (fields, "bessel_y"), (cli, "bessel_j"),
                          (cli, "bessel_y"), (cli, "bessel_j_quat")):
            self._span_patch(obj, attr, SPECFUN)
        for attr in ("laplace_fueter", "ff_cos", "ff_sin", "bessel_integral_rep"):
            self._span_patch(cli, attr, TRANSFORMS)
        self._patch(cli, "transform_field", self._traced_transform_field(cli.transform_field))
        # cli.cheb_original reaches transforms.chebyshev_kernel; the other
        # constructors are called directly, so each original is counted once
        for obj, attr in ((cli, "unit_original"), (cli, "exp_decay_original"),
                          (cli, "chebyshev_kernel"), (transforms, "chebyshev_kernel")):
            self._patch(obj, attr, self._counting_original(getattr(obj, attr)))
        self._span_patch(cli, "eigen_closed", CLOSED)
        self._span_patch(dynsys, "eigen_closed", CLOSED)
        self._span_patch(cli, "jacobian", ORACLE)
        self._span_patch(cli, "eigen_numeric", ORACLE)
        for attr in ("degenerate_set", "critical_points", "zero_divergence_scan"):
            self._span_patch(spectral, attr, SCAN)
        self._patch(cli, "flow", self.wrap(FLOW, self._counting_flow(cli.flow)))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results -----------------------------------------------------------

    def snapshot(self):
        return {"calls": Counter(self.calls), "counts": Counter(self.counts)}

    def write_spans(self, path, meta):
        names = ("task", "name", "start_s", "end_s", "parent")
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "fields": names,
                "spans": [[s[4], s[0], s[1], s[2], s[3]] for s in self.spans],
                "aggregate": {n: {"calls": self.calls[n], "self_s": self.self_s[n],
                                  "outer_s": self.outer_s[n]} for n in sorted(self.calls)},
            }, fh)


def layer_metrics(tracer, first, rounds):
    """Per-layer metrics: counts for the first traced round, times per round.

    ``first`` is the snapshot taken after the first traced round; its counts
    depend only on the seed, so they repeat exactly between runs.
    """
    calls, counts = first["calls"], first["counts"]
    per = 1.0 / rounds
    s = tracer.self_s
    return {
        "cli.self_s": (s[CLI] * per, "s"),
        "cli.bytes_out": (counts["bytes_out"], "bytes"),
        "fields.quantity_calls": (calls[QUANTITY], "count"),
        "fields.quantity_self_s": (s[QUANTITY] * per, "s"),
        "fields.verify_s": (s[VERIFY] * per, "s"),
        "specfun.calls": (calls[SPECFUN], "count"),
        "specfun.s": (tracer.outer_s[SPECFUN] * per, "s"),
        "transforms.s": (tracer.outer_s[TRANSFORMS] * per, "s"),
        "transforms.integrand_evals": (counts["integrand_evals"], "count"),
        "spectral.closed_calls": (calls[CLOSED], "count"),
        "spectral.closed_self_s": (s[CLOSED] * per, "s"),
        "spectral.oracle_s": (s[ORACLE] * per, "s"),
        "spectral.scan_s": (s[SCAN] * per, "s"),
        "spectral.scan_field_calls": (counts["scan_field_calls"], "count"),
        "dynsys.flow_self_s": (s[FLOW] * per, "s"),
        "dynsys.rk4_steps": (counts["rk4_steps"], "count"),
    }
