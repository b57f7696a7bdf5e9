"""Command-line harness.

Subcommands:
  validate    channel self-checks (completeness, complete positivity,
              closed form vs integrator) over a time grid
  evolve      time-resolved measures for one initial state
  asymptotic  t -> inf parameter sweeps, one CSV row per grid point
  gmn         genuine negativity of one state (family or JSON file)
  scan        bisection for a gmn > 0 threshold

main parses a named subcommand with that subcommand's own parser, so an
argv is parsed once; what the subcommand does not read is the root
parser's usage error.

An asymptotic sweep computes every row's state in the parent, as
apply_memory at t = inf; with n the outer loop, each n's two maps are
built once by the channel module's cached builders, and workers only
measure the states. A row validates its state once: one gmn call gives
the negativities, and its report carries the four X-state margins.
Sweep output is deterministic: tasks are enumerated in grid order,
results are collected by index regardless of worker scheduling, and
floats are rendered with a fixed 12-significant-digit format, so
identical configs produce byte-identical files at any --workers value.

A scan bisects a line of states that _run_scan builds, a family mixture
along its weight or its t -> inf state along the weight or mu, after
checking every scan option; the witness module sees only the line.

Exit codes: 0 success, 1 validation failure, 2 input error or an option
the subcommand does not read, 3 solver trouble (some emitted row has a
non-optimal solver status, or a scan probe's gmn bracket straddles the
threshold; rows are still written).
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .channel import (
    CpViolationError,
    LindbladSpec,
    SgadParams,
    apply_correlated,
    apply_memory,
    apply_uncorrelated,
    asymptotic_state,
    choi_matrix,
    integrate_master,
    kraus_single,
)
from .linalg import hermitian_eigenvalues
from .states import (FAMILIES, StateValidationError, load_state, make_noisy, save_state,
                     validate)
from .witness import gmn, threshold_scan

SWEEP_COLUMNS = ("family", "param", "n", "mu", "gmn", "neg_A_BC", "neg_B_AC",
                 "neg_C_AB", "xstate_margin", "status")
EVOLVE_COLUMNS = ("omega_t", "gmn", "neg_A_BC", "neg_B_AC", "neg_C_AB",
                  "xstate_margin", "trace_dev", "min_eig", "status")
GRID_MAX_POINTS = 10**6


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return format(float(v), ".12g")


def _emit(columns, rows, out, fmt):
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _floats(text, flag):
    """The numbers of a comma list; an empty list or token is an input error."""
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"{flag} takes a comma list of numbers, got {text!r}")
    return [float(tok) for tok in tokens]


def _grid_parts(text, counts, form):
    """The finite numbers of a colon-separated --grid with one of `counts`
    parts; `form` names the expected layout in the error message."""
    parts = text.split(":")
    if len(parts) not in counts:
        raise ValueError(f"grid must be {form}, got {text}")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {text}")
    return values


def _grid(text):
    """start:stop:step grid of the points start + k*step that do not pass
    stop; a point that passes it by rounding only is stop itself."""
    start, stop, step = _grid_parts(text, (3,), "start:stop:step")
    if step <= 0 or stop < start:
        raise ValueError("grid needs step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9  # in steps; inf if the division overflows
    if span >= GRID_MAX_POINTS:
        raise ValueError(f"grid {text} has more than {GRID_MAX_POINTS} points")
    vals = [start + k * step for k in range(math.floor(span) + 1)]
    vals[-1] = min(vals[-1], stop)
    return vals


def _single(values, option):
    """The value of an option that takes one value here; None if not given."""
    if values is None:
        return None
    if len(values) != 1:
        raise ValueError(f"--{option} takes a single value here, got {len(values)}")
    return values[0]


def _weights(args, family):
    """Name and values of the mixture weight of family (alpha for GHZ, beta
    for W). Giving the other family's weight is an input error."""
    weight, other = ("alpha", "beta") if family.startswith("ghz") else ("beta", "alpha")
    if getattr(args, other) is not None:
        raise ValueError(f"--{other} does not apply to {family}, which takes --{weight}")
    return weight, getattr(args, weight)


def _state_from_args(args):
    """Initial state from --family (+ --alpha/--beta) or a file path, not both."""
    if args.source:
        given = [flag for flag in STATE if getattr(args, flag[2:]) is not None]
        if given:
            raise ValueError(f"a state file replaces {', '.join(given)}; give one or the other")
        return load_state(args.source)
    if not args.family:
        raise ValueError("need --family or a state file")
    weight, values = _weights(args, args.family)
    return make_noisy(args.family, **{weight: _single(values, weight)})


def _measure_row(rho, tol):
    """gmn + negativities + worst antidiagonal margin for one state: the
    largest margin of the four X-state pairs that gmn's report carries."""
    report = gmn(rho, tol=tol)
    return (report.value, *report.negativities.values(),
            max(r.margin for r in report.xstate), report.status)


# -- validate ------------------------------------------------------------

# validate's checks with their tolerances, in report order; a check that
# compared nothing at every time is not listed
VALIDATE_CHECKS = {"kraus-completeness": 1e-10, "choi-positivity": 1e-10,
                   "correlated-vs-integrator": 1e-6,
                   "uncorrelated-populations-vs-integrator": 1e-6}


def _run_validate(args):
    params = SgadParams(1.0, _single(args.n, "n"), _single(args.m, "m"))
    rng = np.random.default_rng(7)
    probes = []
    for _ in range(5):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = g @ g.conj().T
        probes.append(h / np.trace(h).real)
    stack = np.array(probes)
    diags = np.array([np.diag(np.diag(r)) for r in probes])
    spec_c = LindbladSpec("correlated", params)
    spec_u = LindbladSpec("uncorrelated", params)
    dt = 0.01 / (params.omega * (2.0 * params.n + 1.0))
    failures, worst = [], {}
    for t in args.omega_t:
        # The single-qubit operator set exists only at admissible times: each
        # other time is one admissibility failure, and only the checks built
        # on that set skip it.
        at = {}
        try:
            ops = kraus_single(params, t)
            at["kraus-completeness"] = float(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(2)).max())
        except CpViolationError as exc:
            failures.append({"check": "admissibility", "error": str(exc), "pass": False})
            ops = None
        modes = ("correlated-3q",) if ops is None else ("uncorrelated-single", "correlated-3q")
        eigs = [hermitian_eigenvalues(choi_matrix(params, t, mode))[0] for mode in modes]
        at["choi-positivity"] = max(0.0, -float(min(eigs)))
        if 0.0 < t < math.inf:  # t = 0 has nothing to compare; the integrator takes finite t only
            ref = integrate_master(stack, spec_c, t, dt)
            at["correlated-vs-integrator"] = float(np.abs(apply_correlated(stack, params, t) - ref).max())
            if ops is not None:
                refd = integrate_master(diags, spec_u, t, dt)
                outd = apply_uncorrelated(diags, params, t)
                at["uncorrelated-populations-vs-integrator"] = float(np.abs(outd - refd).max())
        for name, residual in at.items():
            worst[name] = max(worst.get(name, 0.0), residual)

    checks = failures + [{"check": name, "worst": worst[name], "tol": tol, "pass": worst[name] <= tol}
                         for name, tol in VALIDATE_CHECKS.items() if name in worst]
    passed = all(c["pass"] for c in checks)
    if args.format == "json":
        print(json.dumps({"passed": passed, "checks": checks}, indent=2))
    else:
        for c in checks:
            if "error" in c:
                print(f"FAIL {c['check']}: {c['error']}")
            else:
                print(f"{'PASS' if c['pass'] else 'FAIL'} {c['check']}: "
                      f"worst residual {c['worst']:.3e} (tol {c['tol']:.1e})")
        print("validation " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1


# -- evolve --------------------------------------------------------------

def _run_evolve(args):
    rho0 = _state_from_args(args)
    params = SgadParams(1.0, _single(args.n, "n"), _single(args.m, "m"))
    mu = 0.0 if args.mu is None else _single(args.mu, "mu")
    validate(rho0)  # an input error before any row; the rows evolve rho0 as given
    rows = []
    solver_trouble = False
    for t in args.omega_t:
        try:
            rho = apply_memory(rho0, params, t, mu)
        except CpViolationError as exc:
            rows.append((t, None, None, None, None, None, None, None,
                         f"cp-violation({';'.join(exc.offenders)})"))
            continue
        trace_dev = abs(float(np.trace(rho).real) - 1.0)
        min_eig = float(hermitian_eigenvalues(rho)[0])
        vals = _measure_row(rho, args.tol)
        solver_trouble = solver_trouble or vals[-1] != "optimal"
        rows.append((t, *vals[:-1], trace_dev, min_eig, vals[-1]))
    _emit(EVOLVE_COLUMNS, rows, args.out, args.format)
    return 3 if solver_trouble else 0


# -- asymptotic sweep ------------------------------------------------------

def _run_asymptotic(args):
    if not args.family:
        raise ValueError("need --family")
    if args.mu is not None and args.grid is not None:
        raise ValueError("give --mu or --grid, not both")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    weight, values = _weights(args, args.family)
    # a bad weight, --n or mu is an input error (exit 2), not a sweep of error
    # rows: every row's state is computed here, before any row is measured
    # with no weight given, the pure state, built and printed with the weight that gives it
    weights = values or [1.0 if weight == "alpha" else 0.0]
    states = np.array([make_noisy(args.family, **{weight: w}) for w in weights])
    params = [SgadParams(1.0, n, 0.0) for n in args.n]
    mus = args.mu if args.mu is not None else _grid(args.grid or "0:1:0.01")
    # n is the outer loop, so each n's maps are built once however many the
    # cache holds; the rows go in the order weight, n, mu
    by_n = [[asymptotic_state(states, p, mu) for mu in mus] for p in params]
    rhos = np.array(by_n).transpose(2, 0, 1, 3, 4).reshape(-1, 8, 8)
    keys = [(args.family, w, n, mu) for w in weights for n in args.n for mu in mus]
    measure = functools.partial(_measure_row, tol=args.tol)
    # a fork-started pool forks every worker on the first submit, so it
    # starts at most one per row and one per CPU
    workers = min(args.workers, len(keys))
    if workers > 1:
        import concurrent.futures  # here, so that an in-line sweep does not pay its import

        workers = min(workers, os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            measured = list(pool.map(measure, rhos, chunksize=8))
    else:
        measured = [measure(rho) for rho in rhos]
    rows = [(*key, *values) for key, values in zip(keys, measured)]
    solver_trouble = any(r[-1] != "optimal" for r in rows)
    _emit(SWEEP_COLUMNS, rows, args.out, args.format)
    return 3 if solver_trouble else 0


# -- single-state gmn ------------------------------------------------------

def _run_gmn(args):
    rho = _state_from_args(args)
    report = gmn(rho, tol=args.tol)
    if args.format == "json":
        print(json.dumps({"value": report.value, "lower": report.lower,
                          "upper": report.upper, "status": report.status,
                          "iterations": report.iterations, "gap": report.gap,
                          "negativities": report.negativities}, indent=2))
    else:
        print(f"gmn = {report.value:.9f}")
        for label, v in report.negativities.items():
            print(f"negativity {label} = {v:.9f}")
        print(f"status = {report.status} (iterations {report.iterations}, "
              f"gap {report.gap:.2e})")
    if args.out:
        save_state(args.out, report.witness)
        if args.format != "json":
            print(f"witness written to {args.out}")
    return 0 if report.status == "optimal" else 3


# -- threshold scan ---------------------------------------------------------

def _run_scan(args):
    if not args.family:
        raise ValueError("need --family")
    if not args.grid:
        raise ValueError("need --grid LO:HI for the bracket")
    lo, hi, *rest = _grid_parts(args.grid, (2, 3), "LO:HI or LO:HI:RESOLUTION")
    resolution = rest[0] if rest else 1e-3
    weight, values = _weights(args, args.family)
    if args.scan not in (weight, "mu"):
        raise ValueError(f"--scan {args.scan} does not apply to {args.family}, which takes --{weight}")
    n, mu, fixed = _single(args.n, "n"), _single(args.mu, "mu"), _single(values, weight)
    if args.scan == "mu" and not args.asymptotic:
        raise ValueError("--scan mu requires --asymptotic")
    if not args.asymptotic and (n is not None or mu is not None):
        raise ValueError("n and mu apply only to asymptotic scans")
    if args.asymptotic and mu is None and args.scan != "mu":
        raise ValueError(f"an asymptotic scan of {args.scan} needs mu")
    if {weight: fixed, "mu": mu}[args.scan] is not None:
        raise ValueError(f"{args.scan} is the scanned variable and takes no fixed value")

    def state_at(v):
        at = {weight: fixed, "mu": mu, args.scan: v}
        rho = make_noisy(args.family, **{weight: at[weight]})
        if args.asymptotic:  # t -> inf maps carry no squeezing, so m is not an option
            rho = asymptotic_state(rho, SgadParams(1.0, 1.0 if n is None else n, 0.0), at["mu"])
        return rho

    result = threshold_scan(state_at, (lo, hi), resolution=resolution, tol=args.tol)
    if result.found:
        print(f"boundary {args.scan} = {result.boundary:.6f} "
              f"(bracket [{result.bracket[0]:.6f}, {result.bracket[1]:.6f}], "
              f"{result.evaluations} evaluations)")
    else:
        print(f"no gmn threshold in [{lo}, {hi}]: "
              f"gmn({lo}) = {result.lo_value:.3e}, gmn({hi}) = {result.hi_value:.3e}")
    print(f"status = {result.status}")
    return 0 if result.status == "optimal" else 3


# each argument once; a subcommand takes only the arguments it reads
OPTIONS = {
    "--n": dict(default=(1.0,), help="bath occupation (comma list where a sweep applies)"),
    "--m": dict(default=(0.0,), help="squeezing parameter (default 0)"),
    "--mu": dict(default=None, help="memory weight in [0,1]"),
    "--alpha": dict(default=None, help="GHZ-family mixture weight(s)"),
    "--beta": dict(default=None, help="W-family mixture weight(s)"),
    "--family": dict(choices=sorted(FAMILIES), default=None),
    "--omega-t": dict(default=(1.0, 10.0), help="dimensionless time grid (comma list)"),
    "--grid": dict(default=None, help="start:stop:step parameter grid (scan: LO:HI[:RES])"),
    "--out": dict(default=None, help="output file (default stdout)"),
    "--workers": dict(type=int, default=1),
    "--tol": dict(type=float, default=1e-8, help="solver tolerance"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "source": dict(nargs="?", default=None, help="JSON state file (alternative to --family)"),
    "--scan": dict(choices=("alpha", "beta", "mu"), required=True),
    "--asymptotic": dict(action="store_true", help="probe t -> inf states instead of initial mixtures"),
}
STATE = ("--family", "--alpha", "--beta")
# comma lists of numbers, read in main so that a malformed one is an input
# error like any other
FLOAT_LISTS = ("--n", "--m", "--mu", "--alpha", "--beta", "--omega-t")


@functools.cache
def build_parser():
    """The parser of main, built on first use and shared by every later call
    (so the list defaults in OPTIONS are tuples, which no call can change)."""
    p = argparse.ArgumentParser(
        prog="sgadmem",
        description="Three-qubit damping channels with memory and genuine "
                    "multipartite entanglement measures.")
    sub = p.add_subparsers(dest="command", required=True)

    def subcommand(name, help, run, flags):
        # no abbreviations: asymptotic has --mu but no --m, which would
        # otherwise be read as --mu
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(run=run)
        for flag in flags:
            sp.add_argument(flag, **OPTIONS[flag])
        return sp

    subcommand("validate", "channel self-checks", _run_validate,
               ("--n", "--m", "--omega-t", "--format"))
    subcommand("evolve", "time-resolved measures", _run_evolve,
               STATE + ("--n", "--m", "--mu", "--omega-t", "--tol", "--out", "--format", "source"))
    subcommand("asymptotic", "t -> inf parameter sweep", _run_asymptotic,
               STATE + ("--n", "--mu", "--grid", "--workers", "--tol", "--out", "--format"))
    subcommand("gmn", "genuine negativity of one state", _run_gmn,
               STATE + ("--tol", "--out", "--format", "source"))
    s = subcommand("scan", "bisect for a gmn threshold", _run_scan,
                   STATE + ("--n", "--mu", "--grid", "--tol", "--scan", "--asymptotic"))
    s.set_defaults(n=None)  # so that a --n without --asymptotic is seen
    p.subcommands = sub.choices  # name -> subparser, for main
    return p


def main(argv=None):
    """Run one subcommand. A named subcommand is parsed by its own parser,
    as the root parser would after a pass of its own; arguments it does not
    read get the root parser's usage error. Any other argv goes through the
    root parser."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
    else:
        args, extras = sub.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        for flag in FLOAT_LISTS:
            dest = flag[2:].replace("-", "_")
            if isinstance(getattr(args, dest, None), str):  # given, not the default
                setattr(args, dest, _floats(getattr(args, dest), flag))
        return args.run(args)
    except (StateValidationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
