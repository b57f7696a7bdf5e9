import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sgadmem
from sgadmem.channel import SgadParams, asymptotic_state
from sgadmem.linalg import BIPARTITIONS, CUT_A, hermitian_eigenvalues, partial_transpose, tensor
from sgadmem.sdp import solve
from sgadmem.states import make_noisy, make_pure, validate
from sgadmem.witness import (
    XSTATE_PAIRS,
    _bracket,
    _witness_program,
    asymptotic_ghz1_criterion,
    gmn,
    is_ppt,
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


def test_is_ppt_examples():
    for cut in BIPARTITIONS:
        assert is_ppt(np.eye(8) / 8, cut)
        assert not is_ppt(make_pure("ghz1"), cut)
        assert is_ppt(make_noisy("ghz1", alpha=0.2), cut)


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
# correlated map leaves W's inner block alone, so it is the same program) and
# ghz2 at alpha = 0.7091 in a fixed random local frame (complex, no
# Z-symmetry, NPT on every cut), and prints {name: [status, value]} as JSON.
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
    assert _bracket(problem, sol, start[1], rho, 0.7) == (0.0, 0.7)


def test_unreachable_tolerance_raises_no_warning():
    # tol = 1e-16 is below rounding: the solve ends non-optimal, but without
    # overflow or invalid values, and its bracket still holds
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = gmn(make_noisy("ghz1", alpha=0.45), tol=1e-16)
    assert report.status != "optimal"
    assert report.lower <= (7 * 0.45 - 3) / 4 <= report.upper


def test_gmn_status_propagation():
    report = gmn(make_pure("w"), max_iter=3)
    assert report.status == "max-iterations"


# -- X-state criterion --------------------------------------------------------

def test_xstate_examples():
    rep = xstate_criterion(make_noisy("ghz1", alpha=0.5), (1, 8))
    assert abs(rep.lhs - 0.25) < 1e-14
    assert abs(rep.rhs - 0.1875) < 1e-14
    assert rep.violated
    rep = xstate_criterion(make_noisy("ghz1", alpha=3.0 / 7.0), (1, 8))
    assert abs(rep.margin) < 1e-15
    assert not rep.violated
    rep = xstate_criterion(np.eye(8) / 8, (1, 8))
    assert rep.lhs == 0.0 and not rep.violated


def test_xstate_other_pairs():
    rep = xstate_criterion(make_noisy("ghz2", alpha=0.5), (2, 7))
    assert abs(rep.lhs - 0.25) < 1e-14 and rep.violated
    # wrong coherence for the family: nothing at (1,8)
    rep = xstate_criterion(make_noisy("ghz2", alpha=0.5), (1, 8))
    assert not rep.violated
    with pytest.raises(ValueError):
        xstate_criterion(np.eye(8) / 8, (1, 7))


def test_xstate_violation_implies_gmn_positive():
    rng = np.random.default_rng(10)
    margins = []
    states = []
    for k in range(200):
        rho = random_x_state(rng, spiky=(k % 2 == 0))
        margin = max(xstate_criterion(rho, p).margin for p in XSTATE_PAIRS)
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
        margin = max(xstate_criterion(rho, p).margin for p in XSTATE_PAIRS)
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
    out = asymptotic_ghz1_criterion(1.0, 1.0, 0.5)
    assert out["satisfied"]
    assert abs(out["lhs"] - 0.15713) < 5e-6
    assert abs(out["rhs"] - 0.05238) < 5e-6
    assert abs(out["lhs"] - 3.0 * math.sqrt(2.0) / 27.0) < 1e-12


def test_asymptotic_criterion_large_n():
    out = asymptotic_ghz1_criterion(1.0, 1e6, 0.9)
    assert out["satisfied"]


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
        pipe = xstate_criterion(rho, (1, 8))
        assert (not closed["satisfied"]) == pipe.violated


# -- threshold scans ----------------------------------------------------------

def test_threshold_scan_validation():
    with pytest.raises(ValueError):
        threshold_scan("ghz1", "gamma", (0.0, 1.0))
    with pytest.raises(ValueError):
        threshold_scan("ghz1", "mu", (0.0, 1.0))  # mu needs asymptotic=True
    with pytest.raises(ValueError):
        threshold_scan("ghz1", "alpha", (0.9, 0.3))
    for resolution in (0.0, -1.0, math.nan):
        # (0.6, 0.9) has no sign change, so a scan that probed would return
        with pytest.raises(ValueError, match="resolution"):
            threshold_scan("ghz1", "alpha", (0.6, 0.9), resolution=resolution)


def test_threshold_scan_no_sign_change():
    result = threshold_scan("ghz1", "alpha", (0.6, 0.9))
    assert not result.found
    assert math.isnan(result.boundary)
    assert result.lo_value > 1e-6 and result.hi_value > 1e-6


def test_threshold_scan_memory_boundary():
    result = threshold_scan("ghz2", "mu", (0.94, 0.98), alpha=0.398, n=0.1,
                            asymptotic=True)
    assert result.found
    assert abs(result.boundary - 0.9628) <= 2e-3
    assert result.hi_value > 1e-6 and result.lo_value <= 1e-6


def test_threshold_scan_undecided_probe():
    # the first probe has E = (7 * 0.5 - 3)/4 = 0.125 exactly, so its bracket
    # straddles eps
    result = threshold_scan("ghz1", "alpha", (0.5, 0.7), eps=0.125)
    assert result.status == "undecided"
