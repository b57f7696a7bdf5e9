"""Spans around the calls into each sgadmem layer, recorded from outside.

The tracer replaces module-level bindings of the package's public functions
with wrappers that record a span (name, layer, start, end, parent). A
function is wrapped under every name the package binds it to, so calls made
through `from .witness import gmn` in the CLI are seen as well as direct
ones. Spans stay in memory; `write` saves them when the run ends. `install`
and `uninstall` bracket exactly the code that is traced, so untraced rounds
run the package's own functions with no wrapper in between.
"""

import functools
import json
import math
import statistics
from time import perf_counter

import numpy as np

# layer -> public functions whose calls are recorded
BINDINGS = {
    "cli": ("main",),
    "channel": ("asymptotic_state", "apply_memory", "apply_correlated",
                "apply_uncorrelated", "kraus_single", "choi_matrix",
                "integrate_master"),
    "witness": ("gmn", "threshold_scan", "xstate_criterion"),
    "sdp": ("solve",),
    "linalg": ("partial_transpose", "hermitian_eigenvalues", "trace_norm"),
    "states": ("validate",),
}
MODULES = ("cli", "channel", "witness", "sdp", "linalg", "states")


def _solve_info(args, kwargs, sol):
    problem = args[0] if args else kwargs["problem"]
    return {"iterations": int(sol.iterations), "rows": int(sol.y.size),
            "block_dims": [int(d) for d in problem.block_dims],
            "status": sol.status}


def _gmn_info(args, kwargs, report):
    return {"value": float(report.value), "status": report.status}


def _scan_info(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


def _integrate_info(args, kwargs, out):
    rho, _spec, t_final, dt = args[:4]
    states = int(math.prod(rho.shape[:-2])) if rho.ndim > 2 else 1
    steps = 0 if t_final == 0 else max(1, math.ceil(t_final / dt))
    return {"states": states, "steps": steps}


INFO = {
    "sdp.solve": _solve_info,
    "witness.gmn": _gmn_info,
    "witness.threshold_scan": _scan_info,
    "channel.integrate_master": _integrate_info,
}


class Tracer:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self, package):
        self.package = package
        self.t0 = perf_counter()
        self.spans = []
        self.gmn_inputs = []  # (phase, copy of the state passed to gmn)
        self.phase = "setup"
        self._stack = []
        self._saved = []

    def _wrap(self, name, layer, fn):
        tracer = self
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name, "layer": layer,
                    "phase": tracer.phase,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "start": perf_counter(), "end": None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if info is not None:
                span["info"] = info(args, kwargs, result)
            if name == "witness.gmn":
                rho = args[0] if args else kwargs["rho"]
                tracer.gmn_inputs.append((tracer.phase, np.array(rho, dtype=complex)))
            return result

        return wrapper

    def install(self):
        modules = [self.package] + [getattr(self.package, m) for m in MODULES]
        for layer, names in BINDINGS.items():
            home = getattr(self.package, layer)
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", layer, original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved = []

    def write(self, path):
        rows = [dict(s, start=s["start"] - self.t0, end=s["end"] - self.t0)
                for s in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f)
            f.write("\n")


def self_times(spans):
    """Span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def layer_metrics(spans):
    """Per-layer counts and times from the spans of one traced run."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum((s["end"] - s["start"] for s in named(name)), 0.0)

    def layer_self(layer):
        return sum((t for s, t in zip(spans, selfs) if s["layer"] == layer), 0.0)

    solves = [s["info"] for s in named("sdp.solve")]
    iters = sorted(i["iterations"] for i in solves)
    # Schur complement build, 2 m^2 sum_b d_b^2 flops per iteration (computed)
    gflop = sum(2.0 * i["rows"] ** 2 * sum(d * d for d in i["block_dims"]) * i["iterations"]
                for i in solves) / 1e9
    solve_s = total("sdp.solve")
    runs = [s["info"] for s in named("channel.integrate_master")]
    rk4_steps = sum(r["states"] * r["steps"] for r in runs)
    integrate_s = total("channel.integrate_master")
    gmns = [s["info"] for s in named("witness.gmn")]
    return {
        "cli.main.s": (total("cli.main"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "channel.asymptotic_state.calls": (len(named("channel.asymptotic_state")), "count"),
        "channel.asymptotic_state.s": (total("channel.asymptotic_state"), "s"),
        "channel.apply_memory.s": (total("channel.apply_memory"), "s"),
        "channel.closed_form.s": (total("channel.apply_correlated")
                                  + total("channel.apply_uncorrelated"), "s"),
        "channel.kraus_single.s": (total("channel.kraus_single"), "s"),
        "channel.choi_matrix.s": (total("channel.choi_matrix"), "s"),
        "channel.integrate_master.calls": (len(runs), "count"),
        "channel.integrate_master.s": (integrate_s, "s"),
        "channel.rk4_steps": (rk4_steps, "count"),
        "channel.rk4_step_us": (1e6 * integrate_s / rk4_steps if rk4_steps else 0.0, "us"),
        "witness.gmn.calls": (len(gmns), "count"),
        "witness.gmn.s": (total("witness.gmn"), "s"),
        "witness.self_s": (layer_self("witness"), "s"),
        "witness.detected": (sum(g["value"] > 1e-6 for g in gmns), "count"),
        "witness.scan.evaluations": (sum(s["info"]["evaluations"]
                                         for s in named("witness.threshold_scan")), "count"),
        "witness.xstate_criterion.s": (total("witness.xstate_criterion"), "s"),
        "sdp.solve.calls": (len(solves), "count"),
        "sdp.solve.s": (solve_s, "s"),
        "sdp.iterations": (sum(iters), "count"),
        "sdp.iterations_p50": (statistics.median(iters) if iters else 0, "count"),
        "sdp.iter_ms": (1e3 * solve_s / sum(iters) if iters else 0.0, "ms"),
        "sdp.schur_rows": (statistics.median(i["rows"] for i in solves) if solves else 0, "count"),
        "sdp.schur_gflop": (gflop, "GFLOP"),
        "sdp.gflop_per_s": (gflop / solve_s if solve_s else 0.0, "GFLOP/s"),
        "linalg.calls": (sum(s["layer"] == "linalg" for s in spans), "count"),
        "linalg.s": (layer_self("linalg"), "s"),
        "states.validate.calls": (len(named("states.validate")), "count"),
        "states.validate.s": (total("states.validate"), "s"),
    }

