"""Acceptance gate: one test per criterion, C1 through C12.

Each test asserts the stated tolerance directly, so the pytest verdict line
is the pass/fail record for that criterion. Two criteria encode target
behavior the implemented dynamics provably cannot produce; they are kept
red on purpose and their assertion messages carry the measured numbers and
the structural reason. See the README acceptance section.
"""

import csv
import time

import numpy as np
import pytest
from asymptotic_criterion import asymptotic_ghz1_criterion
from dense_sdp import SdpProblem

from sgadmem import cli
from sgadmem.channel import (
    CpViolationError,
    LindbladSpec,
    SgadParams,
    apply_correlated,
    apply_uncorrelated,
    asymptotic_state,
    integrate_master,
    kraus_single,
)
from sgadmem.linalg import BIPARTITIONS, partial_transpose, trace_norm
from sgadmem.sdp import solve
from sgadmem.states import make_noisy, make_pure, validate
from sgadmem.witness import gmn, negativity, threshold_scan, xstate_criterion


def random_density(rng, dim=8):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g @ g.conj().T
    return h / np.trace(h).real


def permute_qubits(rho, perm):
    t = rho.reshape((2,) * 6)
    axes = tuple(perm) + tuple(p + 3 for p in perm)
    return t.transpose(axes).reshape(8, 8)


def ghz_family_state(alpha):
    if alpha == 1.0:
        return make_pure("ghz1")
    return make_noisy("ghz1", alpha=alpha)


def test_c01_pure_state_gmn():
    # GHZ-type basis states reach the ceiling, the two W-type states 0.886
    for j in (1, 2, 3, 4):
        tic = time.perf_counter()
        report = gmn(make_pure(f"ghz{j}"))
        took = time.perf_counter() - tic
        assert report.status == "optimal"
        assert abs(report.value - 1.0) <= 1e-3, f"ghz{j}: {report.value}"
        assert took < 5.0, f"ghz{j} took {took:.1f}s"
    for fam in ("w", "wtilde"):
        tic = time.perf_counter()
        report = gmn(make_pure(fam))
        took = time.perf_counter() - tic
        assert report.status == "optimal"
        assert abs(report.value - 0.886) <= 2e-3, f"{fam}: {report.value}"
        assert took < 5.0, f"{fam} took {took:.1f}s"


def test_c02_initial_state_thresholds():
    tic = time.perf_counter()
    res = threshold_scan(lambda alpha: make_noisy("ghz1", alpha=alpha), (0.3, 0.6))
    took = time.perf_counter() - tic
    assert res.found
    assert abs(res.boundary - 0.429) <= 5e-3, f"alpha* = {res.boundary:.4f}"
    assert took < 120.0, f"alpha scan took {took:.0f}s"

    tic = time.perf_counter()
    res = threshold_scan(lambda beta: make_noisy("w", beta=beta), (0.3, 0.7))
    took = time.perf_counter() - tic
    assert res.found
    assert abs(res.boundary - 0.521) <= 5e-3, f"beta* = {res.boundary:.4f}"
    assert took < 120.0, f"beta scan took {took:.0f}s"


def test_c03_kraus_completeness():
    worst = 0.0
    tested = 0
    for n in np.linspace(0.0, 5.0, 20):
        cap = np.sqrt(n * (n + 1.0))
        for mf in (0.0, 0.9):
            params = SgadParams(1.0, float(n), float(mf * cap))
            for t in np.geomspace(0.01, 10.0, 20):
                try:
                    ops = kraus_single(params, float(t))
                except CpViolationError:
                    continue
                s = sum(k.conj().T @ k for k in ops)
                worst = max(worst, float(np.abs(s - np.eye(2)).max()))
                tested += 1
    assert tested >= 350, f"only {tested} admissible grid points"
    assert worst <= 1e-10, f"completeness residual {worst:.3e}"


def test_c04_closed_forms_match_integrator():
    tic = time.perf_counter()
    rng = np.random.default_rng(11)
    stack = np.array([random_density(rng) for _ in range(50)])
    corr_dev = 0.0
    unc_dev = 0.0
    pop_dev = 0.0
    admissible = 0
    points = 0
    for n in (0.1, 1.0, 5.0):
        cap = np.sqrt(n * (n + 1.0))
        dt = 0.01 / (2.0 * n + 1.0)
        for mf in (0.0, 0.9):
            params = SgadParams(1.0, n, mf * cap)
            for t in (0.1, 1.0, 5.0):
                points += 1
                ref = integrate_master(stack, LindbladSpec("correlated", params), t, dt)
                out = np.array([apply_correlated(r, params, t) for r in stack])
                corr_dev = max(corr_dev, float(np.abs(out - ref).max()))
                try:
                    out = np.array([apply_uncorrelated(r, params, t) for r in stack])
                except CpViolationError:
                    continue
                admissible += 1
                ref = integrate_master(stack, LindbladSpec("uncorrelated", params), t, dt)
                unc_dev = max(unc_dev, float(np.abs(out - ref).max()))
                didx = np.arange(8)
                pop_dev = max(pop_dev, float(
                    np.abs(out[:, didx, didx] - ref[:, didx, didx]).max()))
    took = time.perf_counter() - tic
    assert took < 300.0, f"took {took:.0f}s"
    assert corr_dev <= 1e-6, f"correlated closed form off by {corr_dev:.3e}"
    assert admissible >= 9, f"only {admissible}/{points} admissible points"
    assert unc_dev <= 1e-6, (
        f"independent-qubit operator-sum map deviates from the generator by "
        f"{unc_dev:.3e} entrywise over {admissible} admissible grid points "
        f"(populations agree to {pop_dev:.1e}, correlated closed form agrees "
        f"to {corr_dev:.1e}). The deviation sits on the coherences: the "
        f"operator-sum map couples each off-diagonal entry to its conjugate "
        f"through the k3 k4 and squeezing cross terms, while the generator "
        f"evolves every coherence uncoupled, so the two single-qubit "
        f"dynamics differ and no implementation choice can close the gap.")


def test_c05_decoherence_free_invariance(tmp_path):
    p2 = make_pure("ghz2")
    worst = 0.0
    for n in (0.1, 1.0, 5.0):
        cap = np.sqrt(n * (n + 1.0))
        for m in (0.0, 0.9 * cap):
            params = SgadParams(1.0, n, m)
            for t in (0.1, 1.0, 5.0, 60.0):
                out = apply_correlated(p2, params, t)
                worst = max(worst, float(np.abs(out - p2).max()))
    assert worst <= 1e-12, f"collective map moved the invariant state by {worst:.3e}"

    out = tmp_path / "dfs.csv"
    code = cli.main(["evolve", "--family", "ghz2", "--mu", "1", "--n", "1",
                     "--omega-t", "0,0.5,1,2,5,10", "--out", str(out)])
    assert code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6
    for row in rows:
        assert abs(float(row["gmn"]) - 1.0) <= 1e-3, row


def test_c06_memory_sweep_ghz1():
    # target: gmn > 0 for all mu >= 0.02 at alpha=1, monotone in mu, and
    # finite ordered thresholds for alpha 0.95 / 0.9
    params = SgadParams(1.0, 1.0, 0.0)
    ghz = make_pure("ghz1")
    mus = np.arange(0.02, 1.0001, 0.02)
    curve = np.array([gmn(asymptotic_state(ghz, params, float(mu))).value
                      for mu in mus])
    assert np.all(curve > 0.0), (
        f"asymptotic gmn at alpha=1 is zero on the whole memory sweep "
        f"(max over {len(mus)} grid points: {curve.max():.3e}). Structural: "
        f"for every (n, mu) the asymptote is an X state whose corner obeys "
        f"|rho_18|^2 = rho_22 rho_77 = rho_33 rho_66 = rho_44 rho_55 "
        f"exactly, so all three partial transposes are PSD and a "
        f"PPT-relaxation measure cannot be positive.")
    assert np.all(np.diff(curve) > -1e-6)

    boundaries = {}
    for alpha in (0.95, 0.9):
        rho0 = make_noisy("ghz1", alpha=alpha)
        res = threshold_scan(lambda mu: asymptotic_state(rho0, params, mu), (0.02, 0.98))
        assert res.found, f"no memory threshold for alpha={alpha}"
        boundaries[alpha] = res.boundary
    assert boundaries[0.9] > boundaries[0.95]


def test_c07_biseparable_mixtures_regain_gme():
    params = SgadParams(1.0, 0.1, 0.0)
    tic = time.perf_counter()
    for alpha in (0.395, 0.398, 0.400):
        rho0 = make_noisy("ghz2", alpha=alpha)
        res = threshold_scan(lambda mu: asymptotic_state(rho0, params, mu), (0.93, 0.995))
        assert res.found, f"no memory threshold at alpha={alpha}"
        assert 0.95 <= res.boundary <= 0.99, (
            f"alpha={alpha}: mu* = {res.boundary:.4f}")
    took = time.perf_counter() - tic
    assert took < 600.0, f"took {took:.0f}s"


def test_c08_w_family_asymptotic_gme():
    rho0 = make_noisy("w", beta=0.522)
    assert gmn(rho0).value <= 1e-6  # starts biseparable
    params = SgadParams(1.0, 1.0, 0.0)
    for mu in (0.95, 0.98):
        value = gmn(asymptotic_state(rho0, params, mu)).value
        assert value > 1e-6, f"mu={mu}: gmn = {value:.3e}"


def test_c09_asymptote_independent_of_squeezing():
    states = (make_pure("ghz1"), make_noisy("w", beta=0.3))
    worst = 0.0
    for n in (0.1, 1.0, 5.0):
        cap = np.sqrt(n * (n + 1.0))
        plain = SgadParams(1.0, n, 0.0)
        squeezed = SgadParams(1.0, n, 0.9 * cap)
        for rho in states:
            for mu in (0.0, 0.5, 1.0):
                diff = np.abs(asymptotic_state(rho, plain, mu)
                              - asymptotic_state(rho, squeezed, mu)).max()
                worst = max(worst, float(diff))
    assert worst <= 1e-12, f"squeezing leaked into the asymptote: {worst:.3e}"


def test_c10_corner_criterion_matches_pipeline():
    mismatches = []
    for alpha in np.linspace(0.0, 1.0, 10):
        rho0 = ghz_family_state(float(alpha))
        for n in np.geomspace(0.05, 5.0, 10):
            params = SgadParams(1.0, float(n), 0.0)
            for mu in np.linspace(0.0, 1.0, 10):
                closed = asymptotic_ghz1_criterion(float(alpha), float(n), float(mu))
                rho = asymptotic_state(rho0, params, float(mu))
                report = xstate_criterion(rho)[0]  # the pair (1, 8)
                if closed.violated != report.violated:
                    mismatches.append((float(alpha), float(n), float(mu)))
    assert not mismatches, f"{len(mismatches)} verdict mismatches: {mismatches[:5]}"

    # large-n limit: the bound (3 - alpha)/(2 alpha) is >= 1 for alpha <= 1,
    # so no memory weight in [0, 1] can produce a violation
    for alpha in (0.6, 0.8, 1.0):
        assert (3.0 - alpha) / (2.0 * alpha) >= 1.0
        verdicts = [not asymptotic_ghz1_criterion(alpha, 1e6, float(mu)).violated
                    for mu in np.linspace(0.0, 1.0, 101)]
        assert all(verdicts), f"alpha={alpha}: unexpected large-n violation"


def test_c11_large_n_no_gme():
    params = SgadParams(1.0, 100.0, 0.0)
    counterexamples = []
    for alpha in (0.5, 0.9, 1.0):
        rho0 = ghz_family_state(alpha)
        for mu in (0.3, 0.6, 0.9):
            value = gmn(asymptotic_state(rho0, params, mu)).value
            if value > 1e-5:
                counterexamples.append((alpha, mu, value))
    assert not counterexamples, f"GME survived at n=100: {counterexamples}"


def test_c12_property_suites():
    tic = time.perf_counter()
    rng = np.random.default_rng(23)

    # solver duality and complementarity on minimum-eigenvalue programs
    for _ in range(3):
        g = rng.normal(size=(6, 6))
        a = (g + g.T) / 2.0
        lam = float(np.linalg.eigvalsh(a)[0])
        prob = SdpProblem([a], [np.eye(6)[None]], [1.0])
        start = ([np.eye(6) / 6.0], np.array([lam - 1.0]),
                 [a - (lam - 1.0) * np.eye(6)])
        sol = solve(prob, start=start)
        assert sol.status == "optimal"
        assert abs(sol.primal_obj - lam) <= 1e-6
        for pobj, dobj, _, pinf, dinf in sol.history:
            assert pobj - dobj >= -1e-9
            assert pinf <= 1e-7 and dinf <= 1e-7
        assert float(np.abs(sol.X[0] @ sol.S[0]).max()) <= 1e-6

    # biseparable mixtures carry no genuine negativity
    perms = {"A|BC": (0, 1, 2), "B|AC": (1, 0, 2), "C|AB": (1, 2, 0)}
    for _ in range(20):
        rho = np.zeros((8, 8), dtype=complex)
        weights = rng.dirichlet(np.ones(3))
        for w, cut in zip(weights, BIPARTITIONS):
            term = np.kron(random_density(rng, 2), random_density(rng, 4))
            rho += w * permute_qubits(term, perms[cut.label])
        validate(rho)
        value = gmn(rho).value
        assert value <= 1e-6, f"biseparable state scored {value:.3e}"

    # bounded by every bipartite negativity
    probes = [make_pure("ghz1"), make_pure("w"),
              make_noisy("ghz1", alpha=0.5), make_noisy("w", beta=0.5),
              make_noisy("ghz3", alpha=0.7),
              asymptotic_state(make_pure("ghz2"), SgadParams(1.0, 1.0, 0.0), 0.8),
              random_density(rng), random_density(rng)]
    for rho in probes:
        value = gmn(rho).value
        floor = min(negativity(rho, cut) for cut in BIPARTITIONS)
        assert value <= floor + 1e-6, f"{value} > min negativity {floor}"

    # convex under mixing
    pairs = [(make_pure("ghz1"), np.eye(8) / 8.0),
             (make_pure("w"), make_noisy("ghz2", alpha=0.6)),
             (random_density(rng), random_density(rng))]
    for rho, sigma in pairs:
        mix = 0.4 * rho + 0.6 * sigma
        bound = 0.4 * gmn(rho).value + 0.6 * gmn(sigma).value
        assert gmn(mix).value <= bound + 1e-6

    # invariant under local unitaries
    for rho in (make_pure("ghz1"), make_noisy("w", beta=0.4),
                random_density(rng)):
        locals_ = []
        for _ in range(3):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            locals_.append(q * (np.diag(r) / np.abs(np.diag(r))))
        u = np.kron(np.kron(locals_[0], locals_[1]), locals_[2])
        rotated = u @ rho @ u.conj().T
        assert abs(gmn(rotated).value - gmn(rho).value) <= 1e-5

    # transpose-map basics
    h = random_density(rng)
    for cut in BIPARTITIONS:
        pt = partial_transpose(h, cut)
        assert np.abs(partial_transpose(pt, cut) - h).max() <= 1e-14
        assert abs(np.trace(pt) - np.trace(h)) <= 1e-14
        assert np.abs(pt - pt.conj().T).max() <= 1e-14
    assert abs(trace_norm(h) - 1.0) <= 1e-12

    took = time.perf_counter() - tic
    assert took < 1200.0, f"took {took:.0f}s"
