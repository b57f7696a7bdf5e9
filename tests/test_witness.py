import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import corpus
import numpy as np
import pytest
from asymptotic_criterion import asymptotic_ghz1_criterion

import sgadmem
from sgadmem.channel import SgadParams, asymptotic_state
from sgadmem.linalg import BIPARTITIONS, CUT_A, hermitian_eigenvalues, partial_transpose, tensor
from sgadmem.sdp import solve
from sgadmem.states import StateValidationError, make_noisy, make_pure, validate
from sgadmem.witness import (
    _PT_INDEX,
    _Y0,
    GMN_EPS,
    XSTATE_PAIRS,
    _bracket,
    _witness_program,
    gmn,
    negativity,
    threshold_scan,
    xstate_criterion,
)

PAIRS0 = ((0, 7), (1, 6), (2, 5), (3, 4))


def random_qubit_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g @ g.conj().T
    return h / np.trace(h).real


def permute_qubits(rho, order):
    # rho given with qubit factors in `order`; return computational A,B,C order
    t = rho.reshape((2,) * 6)
    axes = [order.index(q) for q in range(3)]
    return t.transpose(axes + [a + 3 for a in axes]).reshape(8, 8)


def random_x_state(rng, spiky=False):
    conc = 0.3 if spiky else 1.0
    d = rng.dirichlet(conc * np.ones(8))
    rho = np.diag(d).astype(complex)
    for i, j in PAIRS0:
        cap = math.sqrt(d[i] * d[j])
        z = cap * rng.random() * np.exp(2j * np.pi * rng.random())
        rho[i, j] = z
        rho[j, i] = np.conj(z)
    return rho


def ghz_diagonal_state(rng):
    # random mixture of the eight GHZ-type eigenvectors (|k> +/- |7-k>)/sqrt(2)
    w = rng.dirichlet(0.5 * np.ones(8))
    rho = np.zeros((8, 8), dtype=complex)
    idx = 0
    for i, j in PAIRS0:
        for sign in (1.0, -1.0):
            v = np.zeros(8)
            v[i] = 1.0 / math.sqrt(2.0)
            v[j] = sign / math.sqrt(2.0)
            rho += w[idx] * np.outer(v, v)
            idx += 1
    return rho


# -- negativity and PPT -----------------------------------------------------

def test_negativity_examples():
    assert negativity(np.eye(8) / 8, CUT_A) == 0.0
    assert abs(negativity(make_pure("ghz1"), CUT_A) - 1.0) < 1e-12
    assert abs(negativity(make_pure("w"), CUT_A) - 2.0 * math.sqrt(2.0) / 3.0) < 1e-12


def test_ghz_white_noise_ppt_boundary():
    # direct eigensolve: the partial transpose at alpha = 1/5 is exactly on
    # the boundary, negative just above
    rho = make_noisy("ghz1", alpha=0.2)
    for cut in BIPARTITIONS:
        assert abs(hermitian_eigenvalues(partial_transpose(rho, cut))[0]) < 1e-15
    above = make_noisy("ghz1", alpha=0.21)
    assert hermitian_eigenvalues(partial_transpose(above, CUT_A))[0] < -1e-4


# -- the witness program -----------------------------------------------------

def test_gmn_pure_ghz_anchor():
    report = gmn(make_pure("ghz1"))
    assert report.status == "optimal"
    assert abs(report.value - 1.0) <= 1e-3
    assert all(abs(v - 1.0) < 1e-9 for v in report.negativities.values())


def test_gmn_pure_w_anchor():
    report = gmn(make_pure("w"))
    assert report.status == "optimal"
    assert abs(report.value - 0.886) <= 2e-3
    assert abs(report.value - 0.885618) <= 5e-4


def test_gmn_product_state_zero():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    report = gmn(rho)
    assert report.status == "optimal"
    assert report.value <= 1e-8


def test_schur_build_allocates_no_large_temporaries():
    # One arrow call plus factor(0) at a random point of twelve 8x8 blocks.
    # Their peak traced allocation was 877 KB when arrow gathered both P and
    # Q sides of every cut at once, two 442 KB arrays: freed, they handed the
    # heap back to the OS, which then paged it in again on every iteration.
    # It measures 227 KB now, with the program (and its reused arrays) built
    # before tracing.
    rng = np.random.default_rng(21)
    g = rng.normal(size=(12, 8, 8)) + 1j * rng.normal(size=(12, 8, 8))
    W = g @ g.conj().swapaxes(1, 2) / 8
    problem, _ = _witness_program(np.eye(8) / 8)
    problem.schur(W)[1](0.0)  # a first call, outside the traced window
    tracemalloc.start()
    try:
        problem.schur(W)[1](0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def test_gmn_report_invariants():
    for rho in (make_pure("ghz1"), make_noisy("ghz1", alpha=0.5), make_pure("w")):
        report = gmn(rho)
        assert report.status == "optimal"
        assert report.value <= min(report.negativities.values()) + 1e-6
        assert report.value <= 1.0 + 1e-6
        w = report.witness
        assert np.abs(w - w.conj().T).max() < 1e-9
        expect = np.trace(w @ rho).real
        assert abs(expect - (-report.value / 2.0)) <= 1e-6


# Solves pure W, pure W-tilde, the n = 1, mu = 1 asymptote of W (the
# correlated map leaves W's inner block alone, so it is the same program),
# the same asymptote of W at beta = 0.3 (which lost primal feasibility in
# the end game when its Schur system was solved dense) and ghz2 at
# alpha = 0.7091 in a fixed random local frame (complex, no Z-symmetry, NPT
# on every cut), and prints {name: [status, value]} as JSON.
W_FAMILY_PROBE = """
import json
import numpy as np
from sgadmem.channel import SgadParams, asymptotic_state
from sgadmem.states import make_noisy, make_pure, validate
from sgadmem.witness import gmn
rng = np.random.default_rng(2011)
us = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(3)]
u = np.kron(np.kron(us[0], us[1]), us[2])
states = {
    "w": make_pure("w"),
    "wtilde": make_pure("wtilde"),
    "w_asymptotic": asymptotic_state(make_pure("w"), SgadParams(1.0, 1.0, 0.0), 1.0),
    "w_beta_0.3_asymptotic": asymptotic_state(make_noisy("w", beta=0.3),
                                              SgadParams(1.0, 1.0, 0.0), 1.0),
    "ghz2_frame": u @ make_noisy("ghz2", alpha=0.7091) @ u.conj().T,
}
reports = {name: gmn(rho) for name, rho in states.items()}
print(json.dumps({name: [r.status, r.value] for name, r in reports.items()}))
"""
# name -> (expected value, tolerance)
W_FAMILY_EXPECTED = {
    "w": (0.885618, 5e-4),
    "wtilde": (0.885618, 5e-4),
    "w_asymptotic": (0.885618, 5e-4),
    "w_beta_0.3_asymptotic": (0.348794, 1e-6),
    "ghz2_frame": ((7 * 0.7091 - 3) / 4, 1e-6),  # GHZ-diagonal: twice the antidiagonal margin
}


def test_w_family_solves_independent_of_blas_threads():
    # The BLAS thread count changes OpenBLAS's summation order. An iterate
    # that drifts off the central path is ill-conditioned enough for that
    # rounding to decide between convergence and overflow, so each count
    # runs in its own process.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgadmem.__file__)))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-c", W_FAMILY_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results[threads] = json.loads(proc.stdout)
    assert set(results["1"]) == set(W_FAMILY_EXPECTED)
    for name, (expected, tol) in W_FAMILY_EXPECTED.items():
        for threads, res in results.items():
            status, value = res[name]
            assert status == "optimal", f"{name} at {threads} BLAS threads: {status}"
            assert abs(value - expected) <= tol, f"{name} at {threads} BLAS threads: {value}"
        assert abs(results["1"][name][1] - results["2"][name][1]) <= 1e-7, (
            f"{name}: {results['1'][name][1]!r} (1 thread) vs "
            f"{results['2'][name][1]!r} (2 threads)")


def test_pure_w_asymptote_solves_optimal():
    # the mu = 0.99 row of `asymptotic --family w --n 0.1`, far from any
    # threshold (gmn 0.8747); with every step at 0.98 it ended
    # numerical-failure after 31 iterations at 1 and 2 BLAS threads
    rho = asymptotic_state(make_pure("w"), SgadParams(1.0, 0.1, 0.0), 0.99)
    assert gmn(rho).status == "optimal"


# The four states of ROADMAP item 13's corpus that end non-optimal, at 1 and
# 2 BLAS threads, each numerical-failure when rounding takes an X or S block
# of the iterate out of the cone: two W betas next to the W threshold (after
# 39 and 22 iterations) and two GHZ1 alphas next to 3/7 (after 12 and 15)
NEAR_THRESHOLDS = {**corpus.wbeta(), **corpus.ghz1()}
HARD_STATES = {name: NEAR_THRESHOLDS[name]
               for name in ("w-101", "w-103", "ghz1-plus-8", "ghz1-minus-7")}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the solve ends numerical-failure")
@pytest.mark.parametrize("name", HARD_STATES)
def test_hard_corpus_state_solves_optimal(name):
    assert gmn(HARD_STATES[name]).status == "optimal"


@pytest.mark.parametrize("name", HARD_STATES)
def test_hard_corpus_state_stops_early_inside_its_bracket(name):
    # a failed solve stops before solve's iteration cap, and its bracket
    # still holds its value; for the W states lower > GMN_EPS, so a scan
    # probe there is decided above the threshold all the same
    report = gmn(HARD_STATES[name])
    assert report.iterations < inspect.signature(solve).parameters["max_iter"].default
    assert report.lower <= report.value <= report.upper
    assert report.lower > GMN_EPS or name.startswith("ghz1")


def test_corpus_near_the_thresholds_fails_only_on_its_hard_states():
    # corpus parts (b), GHZ1 next to 3/7 (34 states, 247 iterations), and
    # (d), the pure-W asymptotes at n = 0.1 and mu in [0.9, 1] (11 states,
    # 187 iterations): no state outside HARD_STATES ends non-optimal, and
    # every bracket holds its value
    states = {**corpus.ghz1(), **corpus.purew()}
    assert len(states) == 45
    failed = set()
    for name, rho in states.items():
        report = gmn(rho)
        assert report.lower <= report.value <= report.upper, name
        if report.status != "optimal":
            failed.add(name)
    assert failed <= {name for name in HARD_STATES if name.startswith("ghz1")}, failed


def test_gmn_ghz_werner_values():
    assert gmn(make_noisy("ghz1", alpha=0.2)).value <= 1e-8
    report = gmn(make_noisy("ghz1", alpha=0.5))
    # twice the antidiagonal margin: 2 (alpha/2 - 3(1-alpha)/8)
    assert abs(report.value - 0.125) <= 1e-6


def test_gmn_bracket_contains_analytic_values():
    cases = [(make_pure("ghz1"), 1.0, 0.0)]
    for alpha in (0.5, 0.7091, 0.9):
        # twice the antidiagonal margin of the GHZ-noise mixture
        cases.append((make_noisy("ghz1", alpha=alpha), (7 * alpha - 3) / 4, 0.0))
    # the W anchor is rounded to 6 decimals: the bracket must meet its window
    cases.append((make_pure("w"), 0.885618, 5e-7))
    for rho, exact, rounding in cases:
        report = gmn(rho)
        assert report.status == "optimal"
        assert report.lower <= report.value <= report.upper
        assert report.lower - rounding <= exact <= report.upper + rounding, (
            f"{exact} outside [{report.lower!r}, {report.upper!r}]")


def test_gmn_bracket_width():
    rng = np.random.default_rng(2011)
    u = tensor(*[np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                 for _ in range(3)])
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    states = {
        "ghz1": make_pure("ghz1"),
        "w": make_pure("w"),
        "w_beta_0.5": make_noisy("w", beta=0.5),
        "ghz2_frame": u @ make_noisy("ghz2", alpha=0.7091) @ u.conj().T,
        "random_60_noise": 0.4 * np.outer(v, v.conj()) + 0.6 * np.eye(8) / 8,
    }
    for name, rho in states.items():
        report = gmn(rho)
        assert report.status == "optimal" and report.iterations > 0, name
        assert 0.0 <= report.upper - report.lower <= 1e-6, (
            f"{name}: [{report.lower!r}, {report.upper!r}]")


def test_ppt_short_circuit_agrees_with_full_solve():
    product = np.zeros((8, 8), dtype=complex)
    product[0, 0] = 1.0
    states = [product, make_noisy("ghz1", alpha=0.2)]
    states += [asymptotic_state(make_pure("ghz1"), SgadParams(1.0, 1.0, 0.0), mu)
               for mu in (0.0, 0.5, 1.0)]  # the README sweep
    states.append(asymptotic_state(make_pure("ghz1"), SgadParams(1.0, 100.0, 0.0), 0.6))
    for rho in states:
        report = gmn(rho)
        assert report.value == 0.0 and report.iterations == 0
        assert report.status == "optimal" and report.lower == 0.0
        assert report.upper <= 1e-8
        assert not report.witness.any()
        problem, start = _witness_program(rho)
        sol = solve(problem, start=start)
        assert sol.status == "optimal"
        assert max(0.0, 2.0 * sol.dual_obj) <= 1e-8


def reference_bracket(problem, sol, rho, ppt_upper):
    # _bracket with its X3 repair made cut by cut by partial_transpose
    lower, upper = 0.0, ppt_upper
    slacks = problem.C - problem.adjoint(sol.y)
    if np.isfinite(slacks).all():
        delta = max(0.0, -float(np.linalg.eigvalsh(slacks)[:, 0].min()))
        theta = delta / (delta + 0.25)
        dual = (1.0 - theta) * float(problem.b @ sol.y) + theta * float(problem.b @ _Y0)
        lower = max(0.0, 2.0 * dual)
    X = sol.X.reshape(3, 4, 8, 8).transpose(1, 0, 2, 3).copy()
    X1, X2, X3, X4 = X
    X1[0] += rho - (X1 - X2).sum(axis=0)
    for k, cut in enumerate(BIPARTITIONS):
        X3[k] = partial_transpose(X1[k] - X2[k], cut) + X4[k]
    if np.isfinite(X).all():
        lam = np.linalg.eigvalsh(X)[..., 0]
        shift = np.maximum(0.0, -np.minimum(lam[0::2], lam[1::2]))
        pobj = float(np.trace(X2 + X4, axis1=1, axis2=2).real.sum()) + 8.0 * float(shift.sum())
        upper = min(upper, max(0.0, 2.0 * pobj))
    return lower, upper


def test_gathered_partial_transposes_match_partial_transpose():
    # the gather against partial_transpose, and the start's X0 and the
    # bracket's repair, which use it, against their per-cut constructions
    rng = np.random.default_rng(21)
    eye = np.eye(8)
    for _ in range(5):
        rho = validate(random_qubit_state(rng, 8))
        expect = np.array([partial_transpose(rho, cut) for cut in BIPARTITIONS])
        assert rho.reshape(64)[_PT_INDEX].tobytes() == expect.tobytes()
        problem, start = _witness_program(rho)
        X0 = np.array([[rho / 3 + eye / 2, eye / 2, partial_transpose(rho, cut) / 3 + eye / 2,
                        eye / 2] for cut in BIPARTITIONS]).reshape(12, 8, 8)
        assert start[0].dtype == X0.dtype and start[0].tobytes() == X0.tobytes()
        for max_iter in (2, 5):
            sol = solve(problem, start=start, max_iter=max_iter)
            assert sol.iterations == max_iter
            got = _bracket(problem, sol, rho, math.inf)
            want = reference_bracket(problem, sol, rho, math.inf)
            assert math.isfinite(got[1])
            assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)


def test_gmn_xstate_reports_match_xstate_criterion():
    rng = np.random.default_rng(22)
    shortcut = [asymptotic_state(make_pure("ghz1"), SgadParams(1.0, 1.0, 0.0), mu)
                for mu in (0.0, 0.3, 1.0)]
    # the last is a random complex state, not X-shaped
    solved = [make_pure("ghz1"), make_noisy("ghz2", alpha=0.6), random_qubit_state(rng, 8)]
    for rho, solves in [(rho, False) for rho in shortcut] + [(rho, True) for rho in solved]:
        report = gmn(rho)
        assert (report.iterations > 0) == solves
        assert report.xstate == xstate_criterion(rho)


def test_npt_state_runs_the_solver():
    rho = make_noisy("ghz1", alpha=0.25)
    eps = 1e-8 / 16  # the short-circuit's threshold at the default tol
    for cut in BIPARTITIONS:
        assert hermitian_eigenvalues(partial_transpose(rho, cut))[0] < -eps
    report = gmn(rho)
    assert report.status == "optimal" and report.iterations > 0
    assert report.lower <= 1e-8  # (7 alpha - 3)/4 < 0: not detected


def test_bracket_of_a_non_finite_iterate():
    # a solve that breaks on a non-finite objective returns its last iterate;
    # each side of the bracket then falls back on its closed-form point
    rho = validate(make_noisy("ghz1", alpha=0.5))
    problem, start = _witness_program(rho)
    sol = solve(problem, start=start, max_iter=2)
    sol.X[5][0, 0] = np.nan
    sol.y[70] = np.nan
    assert _bracket(problem, sol, rho, 0.7) == (0.0, 0.7)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(tol):
    # a PPT state, which needs no solve, and an NPT one
    for rho in (make_noisy("ghz1", alpha=0.2), make_pure("w")):
        with pytest.raises(ValueError, match="tol"):
            gmn(rho, tol=tol)


def test_unreachable_tolerance_raises_no_warning():
    # tol = 1e-16 is below rounding: the solve ends non-optimal, but without
    # overflow or invalid values, and its bracket still holds
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = gmn(make_noisy("ghz1", alpha=0.45), tol=1e-16)
    assert report.status != "optimal"
    assert report.lower <= (7 * 0.45 - 3) / 4 <= report.upper


# -- X-state criterion --------------------------------------------------------

def test_xstate_examples():
    # the reports come in XSTATE_PAIRS order, so [0] is the pair (1, 8)
    assert XSTATE_PAIRS[0] == (1, 8)
    rep = xstate_criterion(make_noisy("ghz1", alpha=0.5))[0]
    assert abs(rep.lhs - 0.25) < 1e-14
    assert abs(rep.rhs - 0.1875) < 1e-14
    assert rep.violated
    rep = xstate_criterion(make_noisy("ghz1", alpha=3.0 / 7.0))[0]
    assert abs(rep.margin) < 1e-15
    assert not rep.violated
    rep = xstate_criterion(np.eye(8) / 8)[0]
    assert rep.lhs == 0.0 and not rep.violated


def test_xstate_and_gmn_reject_other_shapes():
    # both validate first, so a matrix of another size is named, not indexed
    for rho in (np.eye(2) / 2, np.eye(4) / 4, np.eye(16) / 16):
        for measure in (xstate_criterion, gmn):
            with pytest.raises(StateValidationError, match=r"not an 8x8 matrix: shape \((\d+), \1\)"):
                measure(rho)


def test_xstate_other_pairs():
    reports = xstate_criterion(make_noisy("ghz2", alpha=0.5))
    assert len(reports) == len(XSTATE_PAIRS)
    rep = reports[XSTATE_PAIRS.index((2, 7))]
    assert abs(rep.lhs - 0.25) < 1e-14 and rep.violated
    # wrong coherence for the family: nothing at (1,8)
    rep = reports[XSTATE_PAIRS.index((1, 8))]
    assert not rep.violated


def test_xstate_violation_implies_gmn_positive():
    rng = np.random.default_rng(10)
    margins = []
    states = []
    for k in range(200):
        rho = random_x_state(rng, spiky=(k % 2 == 0))
        margin = max(r.margin for r in xstate_criterion(rho))
        margins.append(margin)
        states.append(rho)
    violated = [(m, r) for m, r in zip(margins, states) if m > 1e-4]
    assert len(violated) >= 12  # sampling sanity
    for m, rho in violated[:12]:
        assert gmn(rho).value > 1e-6, f"margin {m:.3e} but gmn zero"


def test_ghz_diagonal_criterion_iff_gmn():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 8:
        rho = ghz_diagonal_state(rng)
        margin = max(r.margin for r in xstate_criterion(rho))
        if abs(margin) <= 1e-5:
            continue  # boundary band excluded
        value = gmn(rho).value
        if margin > 0:
            assert value > 1e-6
        else:
            assert value < 1e-5
        checked += 1


# -- biseparable mixtures ------------------------------------------------------

def test_gmn_zero_on_biseparable_mixtures():
    rng = np.random.default_rng(12)
    for k in range(6):
        terms = []
        weights = rng.dirichlet(np.ones(3))
        for w in weights:
            cut = rng.integers(0, 3)
            q2 = random_qubit_state(rng, 2)
            q4 = random_qubit_state(rng, 4)
            order = [[0, 1, 2], [1, 0, 2], [2, 0, 1]][cut]
            terms.append(w * permute_qubits(tensor(q2, q4), order))
        rho = sum(terms)
        report = gmn(rho)
        assert report.status == "optimal"
        assert report.value <= 1e-6


# -- convexity and local unitaries ---------------------------------------------

def test_gmn_convexity():
    rng = np.random.default_rng(13)
    pairs = [
        (make_noisy("ghz1", alpha=0.7), make_pure("w")),
        (random_x_state(rng), make_noisy("ghz2", alpha=0.6)),
    ]
    for rho1, rho2 in pairs:
        lam = 0.4
        mix = lam * rho1 + (1.0 - lam) * rho2
        v = gmn(mix).value
        bound = lam * gmn(rho1).value + (1.0 - lam) * gmn(rho2).value
        assert v <= bound + 1e-6


def test_gmn_local_unitary_invariance():
    rng = np.random.default_rng(14)
    for rho in (make_noisy("ghz1", alpha=0.6), make_pure("w")):
        base = gmn(rho).value
        us = []
        for _ in range(3):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(g)
            us.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        u = tensor(*us)
        assert abs(gmn(u @ rho @ u.conj().T).value - base) <= 1e-5


# -- closed-form asymptotic criterion --------------------------------------------

def test_asymptotic_criterion_frozen_example():
    # oriented like the pair (1, 8): lhs is the coherence, rhs 3 sqrt(u v)
    out = asymptotic_ghz1_criterion(1.0, 1.0, 0.5)
    assert not out.violated
    assert abs(out.rhs - 0.15713) < 5e-6
    assert abs(out.lhs - 0.05238) < 5e-6
    assert abs(out.rhs - 3.0 * math.sqrt(2.0) / 27.0) < 1e-12
    assert out.margin == out.lhs - out.rhs


def test_asymptotic_criterion_large_n():
    out = asymptotic_ghz1_criterion(1.0, 1e6, 0.9)
    assert not out.violated


def test_asymptotic_criterion_domain():
    with pytest.raises(ValueError):
        asymptotic_ghz1_criterion(1.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        asymptotic_ghz1_criterion(0.5, -1.0, 0.5)
    with pytest.raises(ValueError):
        asymptotic_ghz1_criterion(0.5, 1.0, 2.0)


def test_asymptotic_criterion_matches_pipeline_spots():
    for alpha, n, mu in ((0.8, 0.4, 0.3), (0.3, 1.5, 0.9), (1.0, 0.1, 0.6)):
        closed = asymptotic_ghz1_criterion(alpha, n, mu)
        rho0 = make_pure("ghz1") if alpha == 1.0 else make_noisy("ghz1", alpha=alpha)
        rho = asymptotic_state(rho0, SgadParams(1.0, n, 0.0), mu)
        pipe = xstate_criterion(rho)[0]
        assert closed.violated == pipe.violated


def test_asymptotic_criterion_sides_match_pipeline():
    # on the grid of acceptance test c10, each side of the closed form is
    # the pipeline's pair (1, 8), not only its verdict
    worst = 0.0
    for alpha in np.linspace(0.0, 1.0, 10):
        rho0 = make_pure("ghz1") if alpha == 1.0 else make_noisy("ghz1", alpha=float(alpha))
        for n in np.geomspace(0.05, 5.0, 10):
            params = SgadParams(1.0, float(n), 0.0)
            for mu in np.linspace(0.0, 1.0, 10):
                closed = asymptotic_ghz1_criterion(float(alpha), float(n), float(mu))
                pipe = xstate_criterion(asymptotic_state(rho0, params, float(mu)))[0]
                worst = max(worst, abs(closed.lhs - pipe.lhs), abs(closed.rhs - pipe.rhs),
                            abs(closed.margin - pipe.margin))
    assert worst <= 1e-14, f"closed form and pipeline sides differ by {worst:.3e}"


# -- threshold scans ----------------------------------------------------------

def noisy_ghz1(alpha):
    return make_noisy("ghz1", alpha=alpha)


def test_threshold_scan_validation():
    # the options that pick the line are checked where it is built, in the CLI
    with pytest.raises(ValueError):
        threshold_scan(noisy_ghz1, (0.9, 0.3))
    for resolution in (0.0, -1.0, math.nan):
        # (0.6, 0.9) has no sign change, so a scan that probed would return
        with pytest.raises(ValueError, match="resolution"):
            threshold_scan(noisy_ghz1, (0.6, 0.9), resolution=resolution)


def test_threshold_scan_no_sign_change():
    result = threshold_scan(noisy_ghz1, (0.6, 0.9))
    assert not result.found
    assert math.isnan(result.boundary)
    assert result.lo_value > 1e-6 and result.hi_value > 1e-6


def test_threshold_scan_memory_boundary():
    rho0, bath = make_noisy("ghz2", alpha=0.398), SgadParams(1.0, 0.1, 0.0)
    result = threshold_scan(lambda mu: asymptotic_state(rho0, bath, mu), (0.94, 0.98))
    assert result.found
    assert abs(result.boundary - 0.9628) <= 2e-3
    assert result.hi_value > 1e-6 and result.lo_value <= 1e-6


def test_threshold_scan_finer_than_float_spacing_ends(monkeypatch):
    # below the spacing of the floats in the bracket the midpoint of two
    # adjacent ends is one of them; the scan keeps that pair as its bracket
    probes = []

    def counted(rho, tol):
        probes.append(rho)
        assert len(probes) <= 64, "the scan is still bisecting"
        return gmn(rho, tol=tol)

    monkeypatch.setattr(sgadmem.witness, "gmn", counted)
    result = threshold_scan(noisy_ghz1, (0.3, 0.6), resolution=1e-20)
    lo, hi = result.bracket
    assert result.found
    assert np.nextafter(lo, hi) == hi
    assert result.evaluations <= 64
    # E = (7 alpha - 3)/4 on noisy GHZ, so gmn > eps from alpha = (3 + 4 eps)/7
    assert abs(result.boundary - (3 + 4 * GMN_EPS) / 7) < 1e-7


def test_threshold_scan_undecided_probe():
    # the first probe has E = (7 alpha - 3)/4 = GMN_EPS up to rounding, so its
    # certified bracket straddles GMN_EPS
    result = threshold_scan(noisy_ghz1, ((3 + 4 * GMN_EPS) / 7, 0.7))
    assert result.status == "undecided"
