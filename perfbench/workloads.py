"""The workloads. Each builds its inputs from the seed, runs one round
of operations inside a timed region, then checks every output outside it.

An operation fails when it raises, when its solve ends other than
"optimal", or when its output check fails. A failed check is also a
problem, which makes the run incorrect; group checks that belong to no
single operation (a located threshold, a local-unitary pair) only add
problems.
"""

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks

GMN_EPS = 1e-6


@dataclass
class Op:
    label: str
    seconds: float
    failed: bool = False


@dataclass
class Round:
    wall_s: float
    ops: list
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _fail(op, problems, message):
    op.failed = True
    problems.append(f"{op.label}: {message}")


def _cli(sg, argv):
    """Run sgadmem's CLI in-process; return (exit code, stdout, error)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = sg.cli.main(argv)
    except Exception as exc:  # the operation failed; the run goes on
        return None, buf.getvalue(), exc
    return code, buf.getvalue(), None


def _check_gmn(op, problems, rho, report):
    """Properties every genuine-negativity result must have."""
    if report.status != "optimal":
        _fail(op, problems, f"status {report.status}")
        return
    bound = min(checks.negativities(rho)) + 1e-6
    if report.value > bound:
        _fail(op, problems, f"gmn {report.value:.9f} above smallest negativity {bound:.9f}")
    if report.value > 0:
        expect = -0.5 * report.value
        got = float(np.real(np.trace(report.witness @ rho)))
        if abs(got - expect) > 1e-6:
            _fail(op, problems, f"tr(W rho) = {got:.9f}, expected -E/2 = {expect:.9f}")


class AsymSweepGhz1:
    """The README sweep `asymptotic --family ghz1 --n 1` on the grid
    0:1:0.1, one `--mu` grid point per CLI call. The grid is the same for
    every seed, because the solve's iteration count changes from one grid
    point to the next (7 to 20 on the 0.01 grid), so a seeded sample of
    points would change the work and the median operation with the seed;
    the seed sets the order in which a round visits the points."""

    name = "asym-sweep-ghz1"
    COLUMNS = ["family", "param", "n", "mu", "gmn", "neg_A_BC", "neg_B_AC",
               "neg_C_AB", "xstate_margin", "status"]
    LONG_TIME = 80.0  # Omega t at which every transient at n = 1 is below 1e-17

    def __init__(self, sg, seed, tiny):
        rng = np.random.default_rng(seed)
        grid = [int(k) for k in rng.permutation(range(0, 101, 10))]
        self.grid = grid[:2] if tiny else grid
        self.sg = sg
        self.params = sg.channel.SgadParams(1.0, 1.0, 0.0)
        self.rho0 = sg.states.make_pure("ghz1")

    def inputs(self):
        return {"mu": [k / 100 for k in self.grid]}

    def round(self, timed):
        runs, ops = [], []
        with timed():
            t0 = perf_counter()
            for k in self.grid:
                argv = ["asymptotic", "--family", "ghz1", "--n", "1",
                        "--mu", f"{k / 100:.2f}", "--workers", "1"]
                t = perf_counter()
                runs.append(_cli(self.sg, argv))
                ops.append(Op(f"mu={k / 100:.2f}", perf_counter() - t))
            wall = perf_counter() - t0
        problems = []
        for k, op, (code, out, err) in zip(self.grid, ops, runs):
            if err is not None or code != 0:
                _fail(op, problems, f"exit {code}, error {err!r}")
                continue
            self._check_row(k / 100, op, out, problems)
        return Round(wall, ops, problems)

    def _check_row(self, mu, op, out, problems):
        lines = out.strip().splitlines()
        if len(lines) != 2 or lines[0].split(",") != self.COLUMNS:
            _fail(op, problems, f"expected the header and one row, got {lines!r}")
            return
        row = dict(zip(self.COLUMNS, lines[1].split(",")))
        if row["status"] != "optimal":
            _fail(op, problems, f"status {row['status']}")
            return
        if (row["family"], float(row["param"]), float(row["n"]), float(row["mu"])) != \
                ("ghz1", 1.0, 1.0, mu):
            _fail(op, problems, f"row keys {row!r}")
            return
        rho = self.sg.channel.asymptotic_state(self.rho0, self.params, mu)
        late = self.sg.channel.apply_memory(self.rho0, self.params, self.LONG_TIME, mu)
        drift = float(np.abs(rho - late).max())
        if drift > 1e-10:
            _fail(op, problems, f"asymptotic_state differs from apply_memory by {drift:.3e}")
        own = checks.negativities(rho) + [checks.xstate_margin(rho)]
        cols = ("neg_A_BC", "neg_B_AC", "neg_C_AB", "xstate_margin")
        for col, value in zip(cols, own):
            if abs(float(row[col]) - value) > 1e-9:
                _fail(op, problems, f"{col} {row[col]} but the benchmark computes {value:.12g}")
        if min(checks.min_pt_eigenvalues(rho)) >= -checks.PSD_TOL and float(row["gmn"]) > GMN_EPS:
            _fail(op, problems, f"PPT on every cut but gmn = {row['gmn']}")


class GmeThresholdScans:
    """`sgadmem scan` bisections for the paper's biseparable-to-GME
    thresholds, at the default resolution 1e-3. The seed shifts each
    bracket without changing its width, so every round probes the same
    number of states."""

    name = "gme-threshold-scans"
    RESOLUTION = 1e-3
    PATTERN = re.compile(r"boundary \w+ = (\S+) \(bracket \[\S+, \S+\], (\d+) evaluations\)")
    MU_SCAN = {"alpha": 0.398, "n": 0.1}

    def __init__(self, sg, seed, tiny):
        rng = np.random.default_rng(seed)
        self.sg = sg
        if tiny:
            spec = [("ghz1", "alpha", 0.425, 0.433, 0.001), ("w", "beta", 0.517, 0.525, 0.001),
                    ("ghz2", "mu", 0.959, 0.967, 0.0005)]
            self.resolution = 5e-3
        else:
            spec = [("ghz1", "alpha", 0.3, 0.6, 0.01), ("w", "beta", 0.3, 0.7, 0.005),
                    ("ghz2", "mu", 0.93, 0.995, 0.002)]
            self.resolution = self.RESOLUTION
        self.scans = []
        for family, var, lo, hi, jitter in spec:
            shift = float(rng.uniform(-jitter, jitter))
            self.scans.append((family, var, lo + shift, hi + shift))
        self.mu_star = self._xstate_mu_threshold()

    def inputs(self):
        return {"brackets": [s[:2] + (round(s[2], 12), round(s[3], 12)) for s in self.scans],
                "resolution": self.resolution}

    def _asymptote(self, mu):
        rho0 = self.sg.states.make_noisy("ghz2", alpha=self.MU_SCAN["alpha"])
        return self.sg.channel.asymptotic_state(
            rho0, self.sg.channel.SgadParams(1.0, self.MU_SCAN["n"], 0.0), mu)

    def _xstate_mu_threshold(self):
        """The benchmark's own bisection of the antidiagonal criterion on the
        ghz2 asymptote, over the full bracket [0.93, 0.995]."""
        lo, hi = 0.93, 0.995
        if not (checks.xstate_margin(self._asymptote(lo)) <= 0 < checks.xstate_margin(self._asymptote(hi))):
            raise RuntimeError("antidiagonal criterion does not change sign on [0.93, 0.995]")
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if checks.xstate_margin(self._asymptote(mid)) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def _argv(self, family, var, lo, hi):
        argv = ["scan", "--family", family, "--scan", var,
                "--grid", f"{lo!r}:{hi!r}:{self.resolution!r}"]
        if var == "mu":
            argv += ["--asymptotic", "--alpha", str(self.MU_SCAN["alpha"]),
                     "--n", str(self.MU_SCAN["n"])]
        return argv

    def round(self, timed):
        # witness.threshold_scan keeps only the value of each probe, so the
        # probes are recorded here to see their solver status.
        witness = self.sg.witness
        probes, outputs, starts = [], [], []
        with timed():
            inner = witness.gmn

            def recording_gmn(rho, **kwargs):
                t = perf_counter()
                report = inner(rho, **kwargs)
                probes.append((rho, report, perf_counter() - t))
                return report

            witness.gmn = recording_gmn
            try:
                t0 = perf_counter()
                for family, var, lo, hi in self.scans:
                    starts.append(len(probes))
                    outputs.append(_cli(self.sg, self._argv(family, var, lo, hi)))
                wall = perf_counter() - t0
            finally:
                witness.gmn = inner
        ops, problems = [], []
        for i, (rho, report, seconds) in enumerate(probes):
            op = Op(f"probe {i}", seconds)
            ops.append(op)
            _check_gmn(op, problems, rho, report)
        starts.append(len(probes))
        boundaries = {}
        for i, ((family, var, _, _), (code, out, err)) in enumerate(zip(self.scans, outputs)):
            found = self.PATTERN.search(out)
            if err is not None or code != 0 or not found:
                problems.append(f"scan {family} {var}: exit {code}, error {err!r}, output {out!r}")
                continue
            boundary, evaluations = float(found.group(1)), int(found.group(2))
            boundaries[f"{family}.{var}"] = boundary
            problems += self._check_boundary(family, var, boundary)
            solved = starts[i + 1] - starts[i]
            if evaluations != solved:
                problems.append(f"scan {family} {var}: reports {evaluations} evaluations, "
                                f"{solved} probes solved")
        return Round(wall, ops, problems, {"boundaries": boundaries,
                                           "xstate_mu_threshold": self.mu_star})

    def _check_boundary(self, family, var, boundary):
        res = self.resolution
        if var == "alpha":
            target, tol = 3.0 / 7.0, res
        elif var == "beta":
            target, tol = 0.521, 5e-3
        else:
            target, tol = self.mu_star, res + 5e-4
        if abs(boundary - target) > tol:
            return [f"scan {family} {var}: boundary {boundary:.6f}, expected {target:.6f} +- {tol:.1e}"]
        return []


def _haar_unitary(rng, d):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _ginibre_state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    s = g @ g.conj().T
    return s / np.trace(s).real


def _family_state(family, weight):
    """GHZ family: weight * pure + (1 - weight) I/8; W family:
    (1 - weight) * pure + weight I/8 (the package's conventions)."""
    support = {"ghz1": (0, 7), "ghz2": (1, 6), "ghz3": (2, 5), "ghz4": (3, 4),
               "w": (1, 2, 4), "wtilde": (3, 5, 6)}[family]
    v = np.zeros(8, dtype=complex)
    v[list(support)] = 1 / math.sqrt(len(support))
    pure = np.outer(v, v.conj())
    keep = weight if family.startswith("ghz") else 1 - weight
    return keep * pure + (1 - keep) * np.eye(8) / 8


def _local_rotation(rng):
    return np.kron(_haar_unitary(rng, 2), np.kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2)))


def _rotate(rho, rng):
    u = _local_rotation(rng)
    return u @ rho @ u.conj().T


def _draw(rng, make):
    """First state from `make` that is NPT on every cut by a clear margin,
    has no Z-symmetry and is not real."""
    while True:
        rho = make(rng)
        if (max(checks.min_pt_eigenvalues(rho)) < -1e-3
                and not checks.has_z_symmetry(rho) and not checks.is_real(rho)):
            return rho


class GenericStates:
    """States with no structure to exploit: random pure states mixed with
    white noise, noisy GHZ- and W-family states (two local frames each),
    and noisy random biseparable mixtures. The states themselves are drawn
    once, from BASE_SEED; the seed draws the random local unitary that
    places each in its frame. Iteration counts are invariant under local
    unitaries but differ from state to state (8 to 11), so this keeps the
    work, and the median operation, the same for every seed while the
    inputs change. Every state is kept only if it is NPT on all three
    cuts, commutes with no Z-string and has complex entries."""

    name = "generic-states"
    RANDOM_NOISE = 0.6
    BISEPARABLE_NOISE = 0.2
    BASE_SEED = 20240128

    def __init__(self, sg, seed, tiny):
        base = np.random.default_rng(self.BASE_SEED)
        rng = np.random.default_rng(seed)
        self.sg = sg
        randoms, pairs, biseparables = (1, 1, 1) if tiny else (4, 2, 3)
        self.states = []  # (kind, label, rho)
        self.pairs = []  # (index, index, family, weight)

        def add(kind, label, rho):
            self.states.append((kind, label, _draw(rng, lambda r: _rotate(rho, r))))

        for i in range(randoms):
            add("random", f"random {i}", _draw(base, self._random))
        for family in ("ghz", "w", "ghz", "w")[:pairs]:
            if family == "ghz":
                family = f"ghz{base.integers(1, 5)}"
                weight = float(base.uniform(0.5, 0.95))
            else:
                family = ("w", "wtilde")[base.integers(0, 2)]
                weight = float(base.uniform(0.15, 0.25))
            first = len(self.states)
            for j in range(2):
                add("lu", f"{family} w={weight:.4f} frame {j}", _family_state(family, weight))
            self.pairs.append((first, first + 1, family, weight))
        for i in range(biseparables):
            add("biseparable", f"biseparable {i}", _draw(base, self._biseparable))

    def _random(self, rng):
        v = _ket(rng, 8)
        return (1 - self.RANDOM_NOISE) * np.outer(v, v.conj()) + self.RANDOM_NOISE * np.eye(8) / 8

    def _biseparable(self, rng):
        """sum_M w_M |a><a|_M (x) |psi><psi|_rest over the three cuts, with
        white noise: a convex mix of states separable across one cut each."""
        weights = rng.dirichlet([5.0, 5.0, 5.0])
        rho = np.zeros((8, 8), dtype=complex)
        for q, order in enumerate(([0, 1, 2], [1, 0, 2], [1, 2, 0])):
            a, v = _ket(rng, 2), _ket(rng, 4)
            part = np.kron(np.outer(a, a.conj()), np.outer(v, v.conj())).reshape((2,) * 6)
            rho += weights[q] * part.transpose(order + [o + 3 for o in order]).reshape(8, 8)
        return (1 - self.BISEPARABLE_NOISE) * rho + self.BISEPARABLE_NOISE * np.eye(8) / 8

    def inputs(self):
        return {"states": [label for _, label, _ in self.states]}

    def round(self, timed):
        reports, ops = [], []
        with timed():
            t0 = perf_counter()
            for _, label, rho in self.states:
                t = perf_counter()
                try:
                    reports.append(self.sg.witness.gmn(rho))
                except Exception as exc:  # the operation failed; the run goes on
                    reports.append(exc)
                ops.append(Op(label, perf_counter() - t))
            wall = perf_counter() - t0
        problems = []
        for (kind, _, rho), op, report in zip(self.states, ops, reports):
            if isinstance(report, Exception):
                _fail(op, problems, f"raised {report!r}")
                continue
            _check_gmn(op, problems, rho, report)
            if kind == "biseparable" and report.value > GMN_EPS:
                _fail(op, problems, f"biseparable state scores {report.value:.3e}")
        for first, second, family, weight in self.pairs:
            a, b = reports[first], reports[second]
            if isinstance(a, Exception) or isinstance(b, Exception):
                continue
            if abs(a.value - b.value) > 1e-5:
                _fail(ops[second], problems,
                      f"local-unitary pair disagrees: {a.value:.9f} vs {b.value:.9f}")
            if family.startswith("ghz"):
                # GHZ plus white noise: E = max(0, (7 alpha - 3) / 4)
                exact = max(0.0, (7 * weight - 3) / 4)
                if abs(a.value - exact) > 1e-6:
                    _fail(ops[first], problems, f"gmn {a.value:.9f}, exact value {exact:.9f}")
        return Round(wall, ops, problems)


class ChannelOracle:
    """The RK4 master-equation oracle at both generators against the closed
    forms, plus Kraus completeness and Choi positivity, on a seeded
    (n, m, Omega t) grid. Each point fixes (2n+1) Omega t, so every point
    integrates the same number of RK4 steps whatever the seed. A round is
    short, three points, so that a run holds many rounds to take the
    median of; an odd number of point costs keeps the median operation on
    one of them."""

    name = "channel-oracle"
    RELAXATION = (3.0, 4.0, 5.0)  # (2n+1) Omega t per grid point
    BATCH = 8
    CHOI_MODES = ("uncorrelated-single", "correlated-3q", "memory-3q")

    def __init__(self, sg, seed, tiny):
        rng = np.random.default_rng(seed)
        self.sg = sg
        relaxation = self.RELAXATION[:1] if tiny else self.RELAXATION
        batch = 2 if tiny else self.BATCH
        self.batch = np.array([_ginibre_state(rng, 8) for _ in range(batch)])
        self.grid = []
        for scaled_time in relaxation:
            while True:
                n = float(rng.uniform(0.5, 2.0))
                m = 0.5 * float(rng.uniform()) * math.sqrt(n * (n + 1))
                omega_t = scaled_time / (2 * n + 1)
                if checks.kraus_admissible(n, m, omega_t):
                    break
            self.grid.append((n, m, omega_t, float(rng.uniform(0.1, 0.9))))

    def inputs(self):
        return {"grid": [[round(v, 12) for v in point] for point in self.grid],
                "batch": len(self.batch)}

    def _point(self, n, m, omega_t, mu):
        ch = self.sg.channel
        p = ch.SgadParams(1.0, n, m)
        dt = 0.01 / (2 * n + 1)
        return {
            "rk4_correlated": ch.integrate_master(self.batch, ch.LindbladSpec("correlated", p), omega_t, dt),
            "rk4_uncorrelated": ch.integrate_master(self.batch, ch.LindbladSpec("uncorrelated", p), omega_t, dt),
            "correlated": np.array([ch.apply_correlated(r, p, omega_t) for r in self.batch]),
            "uncorrelated": np.array([ch.apply_uncorrelated(r, p, omega_t) for r in self.batch]),
            "memory": np.array([ch.apply_memory(r, p, omega_t, mu) for r in self.batch]),
            "kraus": ch.kraus_single(p, omega_t),
            "choi": [ch.choi_matrix(p, omega_t, mode, mu) for mode in self.CHOI_MODES],
        }

    def round(self, timed):
        outs, ops = [], []
        with timed():
            t0 = perf_counter()
            for n, m, omega_t, mu in self.grid:
                t = perf_counter()
                try:
                    outs.append(self._point(n, m, omega_t, mu))
                except Exception as exc:  # the operation failed; the run goes on
                    outs.append(exc)
                ops.append(Op(f"n={n:.4f} m={m:.4f} wt={omega_t:.4f}", perf_counter() - t))
            wall = perf_counter() - t0
        problems = []
        for (_, _, _, mu), op, out in zip(self.grid, ops, outs):
            if isinstance(out, Exception):
                _fail(op, problems, f"raised {out!r}")
                continue
            dev = float(np.abs(out["correlated"] - out["rk4_correlated"]).max())
            if dev > 1e-6:
                _fail(op, problems, f"correlated closed form off the integrator by {dev:.3e}")
            pops = {k: np.diagonal(out[k], axis1=1, axis2=2) for k in
                    ("uncorrelated", "rk4_uncorrelated", "memory", "rk4_correlated")}
            dev = float(np.abs(pops["uncorrelated"] - pops["rk4_uncorrelated"]).max())
            if dev > 1e-6:
                _fail(op, problems, f"uncorrelated populations off the integrator by {dev:.3e}")
            mixed = mu * pops["rk4_correlated"] + (1 - mu) * pops["rk4_uncorrelated"]
            dev = float(np.abs(pops["memory"] - mixed).max())
            if dev > 1e-6:
                _fail(op, problems, f"memory-channel populations off the mixed integrators by {dev:.3e}")
            completeness = sum(k.conj().T @ k for k in out["kraus"])
            dev = float(np.abs(completeness - np.eye(2)).max())
            if dev > 1e-10:
                _fail(op, problems, f"Kraus completeness off by {dev:.3e}")
            for mode, choi in zip(self.CHOI_MODES, out["choi"]):
                low = float(checks.eigenvalues(choi)[0])
                if low < -1e-10:
                    _fail(op, problems, f"Choi matrix ({mode}) has eigenvalue {low:.3e}")
        return Round(wall, ops, problems)


WORKLOADS = {w.name: w for w in (AsymSweepGhz1, GmeThresholdScans, GenericStates, ChannelOracle)}
