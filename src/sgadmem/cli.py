"""Command-line harness.

Subcommands:
  validate    channel self-checks (completeness, complete positivity,
              closed form vs integrator) over a time grid
  evolve      time-resolved measures for one initial state
  asymptotic  t -> inf parameter sweeps, one CSV row per grid point
  gmn         genuine negativity of one state (family or JSON file)
  scan        bisection for a gmn > 0 threshold

Sweep output is deterministic: tasks are enumerated in grid order, results
are collected by index regardless of worker scheduling, and floats are
rendered with a fixed 12-significant-digit format, so identical configs
produce byte-identical files at any --workers value.

Exit codes: 0 success, 1 validation failure, 2 input error or an option
the subcommand does not read, 3 solver trouble (some emitted row has a
non-optimal solver status, or a scan probe's gmn bracket straddles the
threshold; rows are still written).
"""

import argparse
import concurrent.futures
import json
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
from .states import FAMILIES, StateValidationError, load_state, make_noisy, make_pure, save_state
from .witness import XSTATE_PAIRS, gmn, threshold_scan, xstate_criterion

SWEEP_COLUMNS = ("family", "param", "n", "mu", "gmn", "neg_A_BC", "neg_B_AC",
                 "neg_C_AB", "xstate_margin", "status")
EVOLVE_COLUMNS = ("omega_t", "gmn", "neg_A_BC", "neg_B_AC", "neg_C_AB",
                  "xstate_margin", "trace_dev", "min_eig", "status")


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


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _grid(text):
    """start:stop:step inclusive grid (endpoint kept within half a step)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError("grid needs step > 0 and stop >= start")
    count = int(round((stop - start) / step))
    vals = [start + k * step for k in range(count + 1)]
    if vals[-1] > stop + 0.5 * step:
        vals.pop()
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
    """Initial state from --family (+ --alpha/--beta) or a file path."""
    if getattr(args, "source", None):
        return load_state(args.source)
    if not args.family:
        raise ValueError("need --family or a state file")
    family = args.family.lower()
    weight, values = _weights(args, family)
    value = _single(values, weight)
    return make_pure(family) if value is None else make_noisy(family, **{weight: value})


def _measure_row(rho, tol):
    """gmn + negativities + worst antidiagonal margin for one state."""
    report = gmn(rho, tol=tol)
    margin = max(xstate_criterion(rho, pair).margin for pair in XSTATE_PAIRS)
    negs = report.negativities
    return (report.value, negs["A|BC"], negs["B|AC"], negs["C|AB"], margin,
            report.status)


# -- validate ------------------------------------------------------------

def _run_validate(args):
    params = SgadParams(1.0, _single(args.n, "n"), _single(args.m, "m"))
    tgrid = args.omega_t
    rng = np.random.default_rng(7)
    checks = []
    failures = []

    def record(name, worst, tol, detail=""):
        ok = worst <= tol
        checks.append({"check": name, "worst": worst, "tol": tol, "pass": ok})
        if not ok:
            failures.append(f"{name}: {worst:.3e} > {tol:.1e} {detail}".rstrip())

    # The single-qubit operator set exists only at admissible times: each
    # other time is one admissibility failure, and only the checks built on
    # that set skip it.
    kraus = {}
    for t in tgrid:
        try:
            kraus[t] = kraus_single(params, t)
        except CpViolationError as exc:
            failures.append(str(exc))
            checks.append({"check": "admissibility", "error": str(exc), "pass": False})

    if kraus:
        comp = 0.0
        for ops in kraus.values():
            s = sum(k.conj().T @ k for k in ops)
            comp = max(comp, float(np.abs(s - np.eye(2)).max()))
        record("kraus-completeness", comp, 1e-10)

    cp = 0.0
    for t in tgrid:
        modes = ("uncorrelated-single", "correlated-3q") if t in kraus else ("correlated-3q",)
        for mode in modes:
            eig = hermitian_eigenvalues(choi_matrix(params, t, mode))[0]
            cp = max(cp, max(0.0, -float(eig)))
    record("choi-positivity", cp, 1e-10)

    probes = []
    for _ in range(5):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = g @ g.conj().T
        probes.append(h / np.trace(h).real)
    spec_c = LindbladSpec("correlated", params)
    spec_u = LindbladSpec("uncorrelated", params)
    dt = 0.01 / (params.omega * (2.0 * params.n + 1.0))
    dev_c = 0.0
    dev_d = 0.0
    stack = np.array(probes)
    diags = np.array([np.diag(np.diag(r)) for r in probes])
    for t in tgrid:
        if t == 0.0:
            continue
        ref = integrate_master(stack, spec_c, t, dt)
        out = np.array([apply_correlated(r, params, t) for r in probes])
        dev_c = max(dev_c, float(np.abs(out - ref).max()))
        if t in kraus:
            refd = integrate_master(diags, spec_u, t, dt)
            outd = np.array([apply_uncorrelated(d, params, t) for d in diags])
            dev_d = max(dev_d, float(np.abs(outd - refd).max()))
    record("correlated-vs-integrator", dev_c, 1e-6)
    if kraus:
        record("uncorrelated-populations-vs-integrator", dev_d, 1e-6)

    passed = not failures
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
    mu = _single(args.mu or [0.0], "mu")
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

def _sweep_point(task):
    family, param, rho0, n, mu, tol = task
    rho = asymptotic_state(rho0, SgadParams(1.0, n, 0.0), mu)
    return (family, param, n, mu, *_measure_row(rho, tol))


def _run_asymptotic(args):
    if not args.family:
        raise ValueError("need --family")
    family = args.family.lower()
    weight, values = _weights(args, family)
    weights = values or [1.0 if weight == "alpha" else 0.0]  # the pure state
    # a bad weight, --n or mu is an input error (exit 2), not a sweep of error rows
    states = [make_noisy(family, **{weight: w}) for w in weights]
    for n in args.n:
        SgadParams(1.0, n, 0.0)
    mus = _grid(args.grid) if args.grid else (args.mu if args.mu else _grid("0:1:0.01"))
    for mu in mus:
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {mu}")
    tasks = [(family, w, rho0, n, mu, args.tol)
             for w, rho0 in zip(weights, states) for n in args.n for mu in mus]
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_point, tasks, chunksize=8))
    else:
        rows = [_sweep_point(t) for t in tasks]
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
    parts = args.grid.split(":")
    if len(parts) < 2:
        raise ValueError("bracket must be LO:HI or LO:HI:RESOLUTION")
    lo, hi = float(parts[0]), float(parts[1])
    resolution = float(parts[2]) if len(parts) > 2 else 1e-3
    result = threshold_scan(
        args.family.lower(), args.scan, (lo, hi),
        n=_single(args.n, "n"), mu=_single(args.mu, "mu"),
        alpha=_single(args.alpha, "alpha"), beta=_single(args.beta, "beta"),
        asymptotic=args.asymptotic, resolution=resolution, tol=args.tol,
    )
    if result.found:
        print(f"boundary {args.scan} = {result.boundary:.6f} "
              f"(bracket [{result.bracket[0]:.6f}, {result.bracket[1]:.6f}], "
              f"{result.evaluations} evaluations)")
    else:
        print(f"no gmn threshold in [{lo}, {hi}]: "
              f"gmn({lo}) = {result.lo_value:.3e}, gmn({hi}) = {result.hi_value:.3e}")
    print(f"status = {result.status}")
    return 0 if result.status == "optimal" else 3


# each option once; a subcommand takes only the options it reads
OPTIONS = {
    "--n": dict(type=_floats, default=[1.0],
                help="bath occupation (comma list where a sweep applies)"),
    "--m": dict(type=_floats, default=[0.0], help="squeezing parameter (default 0)"),
    "--mu": dict(type=_floats, default=None, help="memory weight in [0,1]"),
    "--alpha": dict(type=_floats, default=None, help="GHZ-family mixture weight(s)"),
    "--beta": dict(type=_floats, default=None, help="W-family mixture weight(s)"),
    "--family": dict(choices=sorted(FAMILIES), default=None),
    "--omega-t": dict(type=_floats, default=[0.1, 1.0, 10.0],
                      help="dimensionless time grid (comma list)"),
    "--grid": dict(default=None, help="start:stop:step parameter grid (scan: LO:HI[:RES])"),
    "--out": dict(default=None, help="output file (default stdout)"),
    "--workers": dict(type=int, default=1),
    "--tol": dict(type=float, default=1e-8, help="solver tolerance"),
    "--format": dict(choices=("csv", "json"), default="csv"),
}
STATE = ("--family", "--alpha", "--beta")


def build_parser():
    p = argparse.ArgumentParser(
        prog="sgadmem",
        description="Three-qubit damping channels with memory and genuine "
                    "multipartite entanglement measures.")
    sub = p.add_subparsers(dest="command", required=True)

    def subcommand(name, help, flags, source=False):
        # no abbreviations: asymptotic has --mu but no --m, which would
        # otherwise be read as --mu
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(flag, **OPTIONS[flag])
        if source:
            sp.add_argument("source", nargs="?", default=None,
                            help="JSON state file (alternative to --family)")
        return sp

    subcommand("validate", "channel self-checks", ("--n", "--m", "--omega-t", "--format"))
    subcommand("evolve", "time-resolved measures",
               STATE + ("--n", "--m", "--mu", "--omega-t", "--tol", "--out", "--format"),
               source=True)
    subcommand("asymptotic", "t -> inf parameter sweep",
               STATE + ("--n", "--mu", "--grid", "--workers", "--tol", "--out", "--format"))
    subcommand("gmn", "genuine negativity of one state",
               STATE + ("--tol", "--out", "--format"), source=True)
    s = subcommand("scan", "bisect for a gmn threshold",
                   STATE + ("--n", "--mu", "--grid", "--tol"))
    s.add_argument("--scan", choices=("alpha", "beta", "mu"), required=True)
    s.add_argument("--asymptotic", action="store_true",
                   help="probe t -> inf states instead of initial mixtures")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    runners = {
        "validate": _run_validate,
        "evolve": _run_evolve,
        "asymptotic": _run_asymptotic,
        "gmn": _run_gmn,
        "scan": _run_scan,
    }
    try:
        return runners[args.command](args)
    except (StateValidationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
