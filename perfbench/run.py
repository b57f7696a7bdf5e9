"""sgadmem benchmark: one workload per process, outputs checked, every
metric printed by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The lines before it give
the environment and a summary; the same record is written under
perfbench/out/, with the spans of a traced run beside it.

Set-up (importing the package plus the first gmn call, which builds the
constraint skeleton) is measured three times: in this process and in two
fresh interpreters started with --setup-probe. Only stdlib modules are
imported before it, so numpy's import is part of every sample.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("cli", "channel", "witness", "sdp", "linalg", "states")
SETUP_PROBES = 2
# workloads.py holds the classes; it imports numpy, so it is loaded after set-up
WORKLOAD_NAMES = ("asym-sweep-ghz1", "gme-threshold-scans", "generic-states", "channel-oracle")


def measure_setup(before_first_gmn=None):
    """Import every sgadmem module, then solve pure GHZ once."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import sgadmem
    import sgadmem.cli
    t1 = perf_counter()
    if not Path(sgadmem.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sgadmem imported from {sgadmem.__file__}, not from {SRC}")
    if before_first_gmn is not None:
        before_first_gmn(sgadmem)
    rho = sgadmem.states.make_pure("ghz1")
    t2 = perf_counter()
    report = sgadmem.witness.gmn(rho)
    t3 = perf_counter()
    return sgadmem, {"import_s": t1 - t0, "first_gmn_s": t3 - t2,
                     "status": report.status, "value": report.value}


def run_probe():
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout if it is a git work tree, read from .git alone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def src_lines():
    return {m: (SRC / "sgadmem" / f"{m}.py").read_bytes().count(b"\n") for m in MODULES}


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(times):
    """Highest whole percentile with at least ten samples above it, or None
    below forty samples."""
    if len(times) < 40:
        return None
    q = int(100 * (1 - 10 / len(times)))
    value = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    return {"name": f"op_s_p{q}", "value": value, "unit": "s", "samples": len(times)}


def run_rounds(workload, seconds):
    """Whole untraced rounds: at least one, then another while it is
    expected, at the median round time so far, to end within `seconds`."""
    import contextlib

    rounds = []
    t0 = perf_counter()
    while not rounds or (perf_counter() - t0
                         + statistics.median(r.wall_s for r in rounds) <= seconds):
        rounds.append(workload.round(contextlib.nullcontext))
    return rounds


def run(args):
    tracer = None

    def start_tracer(package):
        nonlocal tracer
        import tracing

        tracer = tracing.Tracer(package)
        tracer.install()

    sg, own = measure_setup(start_tracer if args.trace else None)
    if tracer is not None:
        tracer.uninstall()
    samples = [own] + [run_probe() for _ in range(SETUP_PROBES)]

    import contextlib

    import workloads

    problems = [f"set-up gmn of pure GHZ: status {s['status']}, value {s['value']}"
                for s in samples if s["status"] != "optimal" or abs(s["value"] - 1) > 1e-6]
    workload = workloads.WORKLOADS[args.workload](sg, args.seed, args.size == "tiny")

    if not args.trace:
        rounds = run_rounds(workload, args.seconds)
    else:
        # untraced rounds for half the time as the reference, then one traced round
        rounds = run_rounds(workload, args.seconds / 2)

        @contextlib.contextmanager
        def traced():
            tracer.phase = "round"
            tracer.install()
            try:
                yield
            finally:
                tracer.uninstall()

        rounds.append(workload.round(traced))

    ops = [op for r in rounds for op in r.ops]
    problems += [p for r in rounds for p in r.problems]
    times = [op.seconds for op in ops]
    setup_s = statistics.median(s["import_s"] + s["first_gmn_s"] for s in samples)
    if args.trace:
        metrics = per_layer(tracer, samples, rounds)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "inputs": workload.inputs(),
        "rounds": len(rounds), "round_wall_s": [r.wall_s for r in rounds],
        "ops_per_round": len(rounds[0].ops), "op_s_tail": tail_percentile(times),
        "last_round_ops": [[op.label, op.seconds, op.failed] for op in rounds[-1].ops],
        "setup_samples": samples, "details": rounds[-1].details, "problems": problems[:50],
    }
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"env": env, "summary": summary, "result": result}, f, indent=1)
        f.write("\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    print("env " + json.dumps(env))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


def per_layer(tracer, samples, rounds):
    import checks
    import tracing

    metrics = tracing.layer_metrics(tracer.spans)
    states = [rho for phase, rho in tracer.gmn_inputs if phase == "round"]

    def share(test):
        return sum(map(test, states)) / len(states) if states else 0.0

    metrics["witness.ppt_share"] = (share(checks.is_ppt_on_some_cut), "fraction")
    metrics["witness.zsym_share"] = (share(checks.has_z_symmetry), "fraction")
    metrics["witness.real_share"] = (share(checks.is_real), "fraction")
    metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in samples), "s")
    metrics["setup.first_gmn_s"] = (statistics.median(s["first_gmn_s"] for s in samples), "s")
    for module, lines in src_lines().items():
        metrics[f"{module}.src_lines"] = (lines, "lines")
    untraced = statistics.median(r.wall_s for r in rounds[:-1])
    overhead = rounds[-1].wall_s - untraced
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced, "fraction")
    return metrics


def main(argv=None):
    # before numpy is first imported; set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--setup-probe"]:
        print(json.dumps(measure_setup()[1]))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every round, for smoke tests")
    args = p.parse_args(argv)
    try:
        return run(args)
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
