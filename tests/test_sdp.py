import itertools

import numpy as np
import pytest
from dense_sdp import SdpProblem, identity_start

from sgadmem import sdp, witness
from sgadmem.channel import SgadParams, asymptotic_state
from sgadmem.linalg import BIPARTITIONS, partial_transpose, tensor
from sgadmem.sdp import CENTRALITY_MIN, FINAL_STEP, _predictor_steps, _scaling, _steps, solve
from sgadmem.states import make_noisy, make_pure
from sgadmem.witness import _S, _T, _witness_program


def sym(a):
    return 0.5 * (a + a.conj().T)


def rand_herm(rng, d):
    return sym(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def unit(d, i, j):
    e = np.zeros((d, d))
    e[i, j] = e[j, i] = 1.0
    return e


def random_local_frame(rng, rho):
    us = []
    for _ in range(3):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    u = np.kron(np.kron(us[0], us[1]), us[2])
    return u @ rho @ u.conj().T


def min_eig_problem(c):
    d = c.shape[0]
    return SdpProblem([c], [np.eye(d)[None]], [1.0])


# -- slow-path reference: the witness program as a generic SdpProblem with
# its dense coefficient arrays, and the interior-point loop one block at a
# time, with every product over all rows of those arrays

def dense_witness_program(rho):
    """The witness program of sgadmem.witness as an SdpProblem that holds
    every coefficient matrix, with the same start."""
    H = _T.T.reshape(64, 8, 8)
    eye = np.eye(8)
    # A[k, j, q]: block j of cut k, on the rows of W (q = 0) and of Q_A, Q_B, Q_C
    A = np.zeros((3, 4, 4, 64, 8, 8), dtype=complex)
    X0 = np.empty((3, 4, 8, 8), dtype=complex)
    for k, cut in enumerate(BIPARTITIONS):
        Ht = partial_transpose(H, cut)
        A[k, :2, 0] = -H, H
        A[k, :, k + 1] = Ht, -Ht, -H, H
        X0[k] = rho / 3 + eye / 2, eye / 2, partial_transpose(rho, cut) / 3 + eye / 2, eye / 2
    C = np.array([0 * eye, eye, 0 * eye, eye] * 3)

    def coords(h):
        # tr(H_k h) for a stack of matrices, by the contraction of witness._coords
        # on the same shapes, so that b and y0 round as they do there
        return (h.reshape(h.shape[:-2] + (64,)) @ _T.conj()).real

    b = np.concatenate([-coords(rho), np.zeros(192)])
    problem = SdpProblem(C, A.reshape(12, 256, 8, 8), b)
    y0 = coords(np.array([eye / 2, eye / 4, eye / 4, eye / 4])).ravel()
    return problem, (X0.reshape(12, 8, 8), y0, problem.C - problem.adjoint(y0))


def _ref_apply(problem, X):
    m = problem.b.size
    return sum((a.reshape(m, -1).conj() @ x.ravel()).real for a, x in zip(problem.A, X))


def _ref_adjoint(problem, y):
    return [sym((a.reshape(problem.b.size, -1).T @ y).reshape(c.shape))
            for a, c in zip(problem.A, problem.C)]


def _ref_tr2(a, b):
    return float(np.sum(a.conj() * b).real)


def _ref_nt_scaling(x, s):
    sv, U = np.linalg.eigh(s)
    sv = np.maximum(sv, 1e-300)
    Uh = U.conj().T
    Shalf = (U * np.sqrt(sv)) @ Uh
    Sinvhalf = (U / np.sqrt(sv)) @ Uh
    tv, V = np.linalg.eigh(sym(Shalf @ x @ Shalf))
    tv = np.maximum(tv, 1e-300)
    Thalf = (V * np.sqrt(tv)) @ V.conj().T
    return sym(Sinvhalf @ Thalf @ Sinvhalf), sym((U / sv) @ Uh)


def _ref_schur(problem, Ws):
    m = problem.b.size
    M = np.zeros((m, m))
    for w, a in zip(Ws, problem.A):
        WAW = np.einsum("ij,kjl,lm->kim", w, a, w, optimize=True)
        M += (a.reshape(m, -1).conj() @ WAW.reshape(m, -1).T).real
    return sym(M)


def _ref_centrality(X, S, mu):
    lam = np.inf
    for x, s in zip(X, S):
        L = np.linalg.cholesky(x)
        lam = min(lam, np.linalg.eigvalsh(L.conj().T @ s @ L)[0])
    return lam / mu


def _ref_max_step(v, dv):
    L = np.linalg.cholesky(v)
    Y = np.linalg.solve(L, dv)
    lam = np.linalg.eigvalsh(sym(np.linalg.solve(L, Y.conj().T)))[0]
    return np.inf if lam >= 0.0 else -1.0 / lam


def _ref_stops(problem, X, y, S, tol):
    # relgap, pinf and dinf at most tol, with gap >= 0
    pobj = sum(_ref_tr2(c, x) for c, x in zip(problem.C, X))
    dobj = float(problem.b @ y)
    gap = sum(_ref_tr2(x, s) for x, s in zip(X, S))
    rp = problem.b - _ref_apply(problem, X)
    Rd = [c - aj - s for c, aj, s in zip(problem.C, _ref_adjoint(problem, y), S)]
    pinf = np.linalg.norm(rp) / (1.0 + np.linalg.norm(problem.b))
    dinf = (np.sqrt(sum(_ref_tr2(r, r) for r in Rd))
            / (1.0 + np.sqrt(sum(_ref_tr2(c, c) for c in problem.C))))
    passed = (gap >= 0 and gap / (1.0 + abs(pobj) + abs(dobj)) <= tol
              and pinf <= tol and dinf <= tol)
    return passed, pobj, dobj, gap, rp, Rd


def _ref_steps(X, S, dX, dS, fraction):
    return tuple(min([1.0] + [fraction * _ref_max_step(v, dv) for v, dv in zip(V, D)])
                 for V, D in ((X, dX), (S, dS)))


def reference_solve(problem, tol=1e-8, max_iter=100, start=None):
    """Returns (status, dual objective, iterations)."""
    dims = [len(c) for c in problem.C]
    nb = len(dims)
    m = problem.b.size
    if start is None:
        X, S, y = [np.eye(d) for d in dims], [np.eye(d) for d in dims], np.zeros(m)
    else:
        X = [np.array(x) for x in start[0]]
        S = [np.array(s) for s in start[2]]
        y = np.asarray(start[1], dtype=float).copy()
    status = "max-iterations"
    for it in range(max_iter + 1):
        passed, pobj, dobj, gap, rp, Rd = _ref_stops(problem, X, y, S, tol)
        if passed:
            status = "optimal"
            break
        if it == max_iter:
            break
        if not (np.isfinite(pobj) and np.isfinite(dobj) and np.isfinite(gap)):
            status = "numerical-failure"
            break
        mu = gap / sum(dims)
        try:
            Ws, Sinvs = zip(*[_ref_nt_scaling(X[b], S[b]) for b in range(nb)])
            M = _ref_schur(problem, Ws)
            ridge = 0.0
            for _ in range(4):
                try:
                    L = np.linalg.cholesky(M + ridge * np.eye(m))
                    break
                except np.linalg.LinAlgError:
                    ridge = max(ridge * 100, 1e-12 * (np.trace(M) / m + 1.0))
            else:
                status = "numerical-failure"
                break

            def direction(V):
                base = [V[b] - sym(Ws[b] @ Rd[b] @ Ws[b]) for b in range(nb)]
                rhs = rp - _ref_apply(problem, base)
                dy = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
                Ady = _ref_adjoint(problem, dy)
                dS = [Rd[b] - Ady[b] for b in range(nb)]
                dX = [base[b] + sym(Ws[b] @ Ady[b] @ Ws[b]) for b in range(nb)]
                return dX, dy, dS

            if _ref_centrality(X, S, mu) < CENTRALITY_MIN:
                V = [mu * Sinvs[b] - X[b] for b in range(nb)]
            else:
                dXa, _, dSa = direction([-X[b] for b in range(nb)])
                ap, ad = _ref_steps(X, S, dXa, dSa, 0.98)
                gap_aff = sum(_ref_tr2(X[b] + ap * dXa[b], S[b] + ad * dSa[b])
                              for b in range(nb))
                sigma = min(1.0, max(0.0, gap_aff / gap) ** 3)
                V = [sigma * mu * Sinvs[b] - X[b] - sym(dXa[b] @ dSa[b] @ Sinvs[b])
                     for b in range(nb)]
            dX, dy, dS = direction(V)
            ap, ad = _ref_steps(X, S, dX, dS, 0.98)
            if ap < 1e-12 and ad < 1e-12:
                status = "numerical-failure"
                break
            # the final step, taken only if it passes the stopping test
            fp, fd = _ref_steps(X, S, dX, dS, FINAL_STEP)
            final = ([sym(X[b] + fp * dX[b]) for b in range(nb)], y + fd * dy,
                     [sym(S[b] + fd * dS[b]) for b in range(nb)])
            if _ref_stops(problem, *final, tol)[0]:
                X, y, S = final
                continue
            X = [sym(X[b] + ap * dX[b]) for b in range(nb)]
            S = [sym(S[b] + ad * dS[b]) for b in range(nb)]
            y = y + ad * dy
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break
    return status, dobj, it


def test_solve_matches_per_block_reference():
    # gmn's witness program and solver against the reference loop on the
    # dense program
    rng = np.random.default_rng(12)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    states = [
        make_pure("w"),
        make_pure("wtilde"),
        make_noisy("w", beta=0.2),
        make_noisy("w", beta=0.4),
        make_noisy("w", beta=0.5),
        random_local_frame(rng, make_noisy("ghz2", alpha=0.7091)),
        0.4 * np.outer(v, v.conj()) + 0.6 * np.eye(8) / 8,
        asymptotic_state(make_pure("ghz1"), SgadParams(1.0, 1.0, 0.0), 0.5),
        asymptotic_state(make_noisy("w", beta=0.3), SgadParams(1.0, 1.0, 0.0), 1.0),
    ]
    for rho in states:
        dense, dense_start = dense_witness_program(rho)
        problem, start = _witness_program(rho)
        sol = solve(problem, start=start)
        status, dual_obj, iterations = reference_solve(dense, start=dense_start)
        assert sol.status == status == "optimal"
        assert abs(sol.dual_obj - dual_obj) <= 1e-8
        # The counts agree on seven states. On the n = 1, mu = 0.5 asymptote
        # of pure GHZ1 (14 against 13) and the n = 1, mu = 1 asymptote of W
        # at beta = 0.3 (16 against 15) solve takes one more: in their end
        # games the Schur system is near-singular, often ridged, and the
        # primal residual a step leaves is set by rounding, so rounding
        # decides which step first passes the stopping test.
        assert abs(sol.iterations - iterations) <= 1


def test_witness_schur_matches_generic(monkeypatch):
    # The witness program's sign flips and real Schur blocks against the
    # generic build on the dense program, at the NT points of every
    # iterate of three solves. Two backward-stable solves of one system
    # agree only to about cond(M) * 1e-16, and cond(M) reaches 1e16 near the
    # optimum, so the 1e-10 agreement is required at ridge 0 where
    # cond(M) <= 1e5, and everywhere at the ridge 1e-5 lambda_max(M).
    rng = np.random.default_rng(15)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    states = [
        0.4 * np.outer(v, v.conj()) + 0.6 * np.eye(8) / 8,
        random_local_frame(rng, make_noisy("ghz2", alpha=0.7091)),
        asymptotic_state(make_noisy("w", beta=0.3), SgadParams(1.0, 1.0, 0.0), 1.0),
    ]
    points = []

    def recording_scaling(X, S):
        out = _scaling(X, S)
        points.append(out[0])
        return out

    monkeypatch.setattr(sdp, "_scaling", recording_scaling)
    well_conditioned = reduced_decides = 0
    for rho in states:
        problem, start = _witness_program(rho)
        dense, dense_start = dense_witness_program(rho)
        assert np.array_equal(problem.b, dense.b)
        assert all(np.array_equal(a, b) for a, b in zip(start, dense_start))
        points.clear()
        sol = solve(problem, start=start)
        assert sol.status == "optimal" and len(points) == sol.iterations
        herm = np.array([rand_herm(rng, 8) for _ in range(12)])
        for X, y in ((start[0], start[1]), (sol.X, sol.y), (herm, rng.normal(size=256))):
            assert np.abs(problem.apply(X) - dense.apply(X)).max() <= 1e-14
            assert np.abs(problem.adjoint(y) - dense.adjoint(y)).max() <= 1e-14
        for W in points:
            M = _ref_schur(dense, W)
            KWW, KWQ, KQQ = problem.arrow(W)
            K = np.zeros((256, 256))
            K[:64, :64] = KWW
            for c in range(3):
                q = slice(64 * (c + 1), 64 * (c + 2))
                K[:64, q], K[q, :64], K[q, q] = KWQ[c], KWQ[c].T, KQQ[c]
            scale = np.abs(M).max()
            assert np.abs(K - M).max() <= 1e-12 * scale
            trace, factor = problem.schur(W)
            assert abs(trace - np.trace(M)) <= 1e-12 * np.trace(M)

            lam = np.linalg.eigvalsh(M)
            r = rng.normal(size=256)
            ridges = [1e-5 * lam[-1]]
            if lam[-1] <= 1e5 * lam[0]:
                ridges.append(0.0)
                well_conditioned += 1
            for ridge in ridges:
                x = factor(ridge)(r)
                ref = np.linalg.solve(M + ridge * np.eye(256), r)
                assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
            # forced ridges just either side of -lambda_min(M); at the lower
            # one the reduced complement decides wherever every K_{Q_M,Q_M}
            # + ridge I is still positive definite
            margin = 1e-8 * lam[-1]
            reduced_decides += np.linalg.eigvalsh(KQQ)[:, 0].min() - margin - lam[0] > 0
            for ridge, definite in ((margin - lam[0], True), (-margin - lam[0], False)):
                for test in (factor, lambda ridge: np.linalg.cholesky(M + ridge * np.eye(256))):
                    try:
                        test(ridge)
                        passed = True
                    except np.linalg.LinAlgError:
                        passed = False
                    assert passed == definite
    assert well_conditioned >= 10 and reduced_decides >= 5


def test_witness_tables_are_read_only():
    # built once at import and shared by every program
    for name in ("_T", "_S", "_PT_INDEX", "_LEFT", "_RIGHT", "_SRC", "_SIGN", "_SS", "_C", "_Y0",
                 "_S0"):
        table = getattr(witness, name)
        assert not table.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0


def test_pauli_basis_and_walsh_hadamard_blocks():
    # The basis against Pauli strings built by Kronecker products, each
    # partial transpose against the sign table, and arrow's Walsh-Hadamard
    # blocks against the Kronecker form Re(T^H (W_b (x) W_b^T) T) of the
    # Schur complement, summed over the P and the Q pair of each cut
    T, s = _T, _S
    H = T.T.reshape(64, 8, 8)
    X, Z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    factor = {(0, 0): np.eye(2), (1, 0): X, (0, 1): Z, (1, 1): 1j * X @ Z}  # i XZ = Y
    for k in range(64):
        x, z = divmod(k, 8)
        string = tensor(*[factor[x >> q & 1, z >> q & 1] for q in (2, 1, 0)])  # qubit A is the top bit
        assert np.abs(H[k] - string / np.sqrt(8)).max() <= 1e-16
    assert np.abs(T.conj().T @ T - np.eye(64)).max() <= 1e-15
    assert np.array_equal(H, H.conj().swapaxes(1, 2))
    for c, cut in enumerate(BIPARTITIONS):
        assert np.array_equal(partial_transpose(H, cut), s[c][:, None, None] * H)

    rng = np.random.default_rng(16)
    problem = _witness_program(np.eye(8) / 8)[0]
    herm = np.array([rand_herm(rng, 8) for _ in range(12)])
    for W in (herm, random_pd_stack(rng, 12, 8, 1e6), random_pd_stack(rng, 12, 8, 1e12)):
        B = np.array([(T.conj().T @ np.kron(w, w.T) @ T).real for w in W]).reshape(3, 2, 2, 64, 64)
        P, Q = B[:, 0].sum(axis=1), B[:, 1].sum(axis=1)
        S = s[:, :, None] * np.eye(64)
        expected = P.sum(axis=0), -P @ S, S @ P @ S + Q
        scale = np.abs(P).max()
        for got, want in zip(problem.arrow(W), expected):
            assert got.shape == want.shape and got.dtype == float
            assert np.abs(got - want).max() <= 1e-13 * scale


def random_pd_stack(rng, k, d, cond):
    # eigenvalues from 1 down to 1/cond, evenly in log scale, in random complex frames
    q, _ = np.linalg.qr(rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d)))
    a = (q * np.logspace(0, -np.log10(cond), d)) @ q.conj().swapaxes(-1, -2)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def test_generic_problem_matches_reference_at_256_rows():
    # SdpProblem's contractions over all blocks and rows against the
    # block-by-block references, on the complex 256-row dense witness
    # program. With the ridge 1e-5 lambda_max(M), cond(M + ridge I) <= 1e5,
    # so the two inverses agree to 1e-10.
    rng = np.random.default_rng(17)
    problem, _ = dense_witness_program(random_local_frame(rng, make_noisy("ghz2", alpha=0.7091)))
    for cond in (1e2, 1e6, 1e12):
        X, W = random_pd_stack(rng, 12, 8, cond), random_pd_stack(rng, 12, 8, cond)
        y = rng.normal(size=256)
        assert np.abs(problem.apply(X) - _ref_apply(problem, X)).max() <= 1e-14
        assert np.abs(problem.adjoint(y) - _ref_adjoint(problem, y)).max() <= 1e-14
        M = _ref_schur(problem, W)
        trace, factor = problem.schur(W)
        assert abs(trace - np.trace(M)) <= 1e-12 * np.trace(M)
        ridge = 1e-5 * np.linalg.eigvalsh(M)[-1]
        eye = np.eye(256)
        ref = np.linalg.solve(M + ridge * eye, eye)
        assert np.abs(factor(ridge)(eye) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_final_step_ends_pure_ghz1_in_five_iterations():
    # the set-up solve: every step at 0.98 of the way to the boundary takes
    # 7 iterations; the final step ends it at 5 on an iterate that stays
    # inside the cone, every block with a Cholesky factor
    problem, start = _witness_program(make_pure("ghz1"))
    sol = solve(problem, start=start)
    assert sol.status == "optimal" and sol.iterations <= 5
    for V in (sol.X, sol.S):
        np.linalg.cholesky(V)


def test_factor_kernel_matches_eigh_reference():
    # The NT point, S^{-1}, centrality and step lengths from one Cholesky pair
    # and one SVD, against the eigh formulas of reference_solve. With X and S
    # both at cond 1e10 the eigh W is itself off by up to 90 %, so there only
    # W S W = X is checked. The steps are checked below their cap of 1, so
    # that the comparison sees them.
    rng = np.random.default_rng(13)

    def rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    def ref_steps(dX, dS):
        return tuple(min(1.0, 0.98 * min(_ref_max_step(v, dv) for v, dv in zip(V, D)))
                     for V, D in ((X, dX), (S, dS)))

    mu = 0.3
    for cond_x, cond_s in [(1e2, 1e2), (1e10, 1e2), (1e10, 1e10)]:
        X, S = random_pd_stack(rng, 6, 8, cond_x), random_pd_stack(rng, 6, 8, cond_s)
        W, Sinv, lam, R = _scaling(X, S)
        assert rel(W @ S @ W, X) <= 1e-12
        if cond_s > 1e2:
            continue
        refs = [_ref_nt_scaling(x, s) for x, s in zip(X, S)]
        assert rel(W, np.array([w for w, _ in refs])) <= 1e-9
        assert rel(Sinv, np.array([si for _, si in refs])) <= 1e-10
        assert abs(lam / mu - _ref_centrality(X, S, mu)) <= 1e-10 * _ref_centrality(X, S, mu)
        # both step lengths from one eigvalsh in the NT frames
        dX, dS = (np.array([rand_herm(rng, 8) for _ in range(6)]) for _ in range(2))
        ref = ref_steps(dX, dS)
        assert max(ref) < 1.0
        for got, want in zip(_steps(R, dX, dS)[0], ref):
            assert abs(got - want) <= 1e-10 * want
        # a predictor direction, dX + W dS W = -X: both steps from the
        # spectrum of dS alone, against two separate step computations. At
        # cond_x 1e10, rounding dX = -X - W dS W moves its primal step by up
        # to 4e-9, so the identity is checked at cond_x 1e2.
        if cond_x > 1e2:
            continue
        dX = -X - W @ dS @ W
        ref = ref_steps(dX, dS)
        assert max(ref) < 1.0
        for got, stacked, want in zip(_predictor_steps(R, dS), _steps(R, dX, dS)[0], ref):
            assert abs(got - want) <= 1e-10 * want and abs(got - stacked) <= 1e-10 * want
    # an X block without a Cholesky factor has no NT scaling
    X[0] = np.diag([1.0] * 7 + [0.0])
    with pytest.raises(np.linalg.LinAlgError):
        _scaling(X, S)


def assert_matches_reference(problem, sol):
    status, dual_obj, _ = reference_solve(problem)
    assert sol.status == status
    assert abs(sol.dual_obj - dual_obj) <= 1e-8


def test_forced_value_example():
    # min tr(X) s.t. X_11 = 1 -> 1
    d = 3
    prob = SdpProblem([np.eye(d)], [unit(d, 0, 0)[None]], [1.0])
    sol = solve(prob, identity_start(prob))
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-6
    assert abs(sol.X[0][0, 0] - 1.0) < 1e-6


def test_min_eigenvalue_20_random():
    rng = np.random.default_rng(0)
    real = [sym(rng.normal(size=(7, 7))) for _ in range(20)]
    hermitian = [rand_herm(rng, 7) for _ in range(20)]
    for c in real + hermitian:
        prob = min_eig_problem(c)
        sol = solve(prob, identity_start(prob))
        assert sol.status == "optimal"
        target = np.linalg.eigvalsh(c)[0]
        assert abs(sol.primal_obj - target) < 1e-6
        assert abs(sol.dual_obj - target) < 1e-6


def test_two_blocks_min_eig():
    rng = np.random.default_rng(1)
    c1, c2 = sym(rng.normal(size=(4, 4))), sym(rng.normal(size=(4, 4)))
    prob = SdpProblem([c1, c2], [np.eye(4)[None], np.eye(4)[None]], [1.0])
    sol = solve(prob, identity_start(prob))
    target = min(np.linalg.eigvalsh(c1)[0], np.linalg.eigvalsh(c2)[0])
    assert abs(sol.primal_obj - target) < 1e-6
    assert_matches_reference(prob, sol)


def test_diagonal_lp_vs_vertex_enumeration():
    # with diagonal data the program is a linear program; enumerate the
    # vertices of {x >= 0, Ax = b} directly
    rng = np.random.default_rng(2)
    d = 5
    for _ in range(5):
        c = rng.normal(size=d)
        a2 = rng.normal(size=d)
        x0 = rng.random(d) + 0.1
        x0 /= x0.sum()
        A = np.vstack([np.ones(d), a2])
        b = A @ x0
        best = np.inf
        for i, j in itertools.combinations(range(d), 2):
            sub = A[:, [i, j]]
            if abs(np.linalg.det(sub)) < 1e-12:
                continue
            xv = np.linalg.solve(sub, b)
            if xv.min() < -1e-12:
                continue
            best = min(best, c[i] * xv[0] + c[j] * xv[1])
        prob = SdpProblem([np.diag(c)], [np.array([np.diag(A[0]), np.diag(A[1])])], b)
        sol = solve(prob, identity_start(prob))
        assert sol.status == "optimal"
        assert abs(sol.primal_obj - best) < 1e-6


def test_weak_duality_every_iteration_from_feasible_start():
    rng = np.random.default_rng(3)
    for c in [sym(rng.normal(size=(6, 6))) for _ in range(3)] + [rand_herm(rng, 6)]:
        prob = min_eig_problem(c)
        x0 = [np.eye(6) / 6.0]
        y0 = np.array([np.linalg.eigvalsh(c)[0] - 1.0])
        s0 = [c - y0[0] * np.eye(6)]
        sol = solve(prob, start=(x0, y0, s0))
        assert sol.status == "optimal"
        for pobj, dobj, gap, pinf, dinf in sol.history:
            assert pobj - dobj >= -1e-9
            assert gap >= -1e-12
            assert pinf <= 1e-7 and dinf <= 1e-7


def test_complementarity_at_optimum():
    rng = np.random.default_rng(4)
    real = (sym(rng.normal(size=(4, 4))), sym(rng.normal(size=(4, 4))))
    hermitian = (rand_herm(rng, 4), rand_herm(rng, 4))
    for c1, c2 in (real, hermitian):
        prob = SdpProblem([c1, c2], [np.eye(4)[None], np.eye(4)[None]], [1.0])
        sol = solve(prob, identity_start(prob))
        assert sol.status == "optimal"
        assert_matches_reference(prob, sol)
        for xb, sb in zip(sol.X, sol.S):
            assert np.abs(xb @ sb).max() <= 1e-6


def test_orthogonal_remixing_invariance():
    rng = np.random.default_rng(5)
    c = sym(rng.normal(size=(5, 5)))
    a1 = sym(rng.normal(size=(5, 5)))
    prob = SdpProblem([c], [np.stack([np.eye(5), a1])], [1.0, float(np.trace(a1) / 5.0)])
    base = solve(prob, identity_start(prob))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rot = SdpProblem([q @ c @ q.T], [np.stack([np.eye(5), q @ a1 @ q.T])], prob.b)
    mixed = solve(rot, identity_start(rot))
    assert base.status == mixed.status == "optimal"
    assert abs(base.primal_obj - mixed.primal_obj) <= 2e-8 * (1 + abs(base.primal_obj))


def test_objective_scaling():
    rng = np.random.default_rng(6)
    c = sym(rng.normal(size=(5, 5)))
    scale = 37.0
    v1, v2 = (solve(prob, identity_start(prob)).primal_obj
              for prob in (min_eig_problem(c), min_eig_problem(scale * c)))
    assert abs(v2 - scale * v1) <= 1e-7 * scale


def test_data_validation():
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        SdpProblem([bad], [np.eye(3)[None]], [1.0])
    with pytest.raises(ValueError):
        SdpProblem([np.eye(3)], [bad[None]], [1.0])
    # C and A disagree on the block size
    with pytest.raises(ValueError, match="constraint shape"):
        SdpProblem([np.eye(2)], [np.eye(3)[None]], [1.0])
    # complex symmetric but not Hermitian
    bad = np.array([[0.0, 1j], [1j, 0.0]])
    with pytest.raises(ValueError):
        SdpProblem([bad], [np.eye(2)[None]], [1.0])
    with pytest.raises(ValueError):
        SdpProblem([np.eye(2)], [bad[None]], [1.0])
    # every block has one size
    with pytest.raises(ValueError, match="one size"):
        SdpProblem([np.eye(3), np.eye(4)], [np.eye(3)[None], np.eye(4)[None]], [1.0])


def test_tolerance_must_be_finite_and_positive():
    prob = min_eig_problem(np.eye(3))
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol"):
            solve(prob, identity_start(prob), tol=tol)
    assert solve(prob, identity_start(prob), tol=1e-16).iterations > 0


def test_history_and_iterations_recorded():
    rng = np.random.default_rng(8)
    prob = min_eig_problem(sym(rng.normal(size=(5, 5))))
    sol = solve(prob, identity_start(prob))
    assert sol.iterations == len(sol.history) - 1
    assert len(sol.history[0]) == 5
    # gap shrinks by many orders of magnitude
    assert sol.history[-1][2] < 1e-6 * max(sol.history[0][2], 1.0)


# -- the numerical-failure exits, each of which returns the last iterate

def test_non_finite_start_is_a_numerical_failure():
    rng = np.random.default_rng(11)
    prob = min_eig_problem(sym(rng.normal(size=(4, 4))))
    X0 = np.eye(4)[None].copy()
    X0[0, 0, 0] = np.inf  # one entry, so no 0 * inf is formed
    y0, S0 = np.zeros(1), np.eye(4)[None]
    sol = solve(prob, start=(X0, y0, S0))
    assert sol.status == "numerical-failure" and sol.iterations == 0
    assert np.array_equal(sol.X, X0) and np.array_equal(sol.y, y0) and np.array_equal(sol.S, S0)


def test_start_without_a_cholesky_factor_is_a_numerical_failure():
    # a start on the boundary of the cone: X0 has no Cholesky factor, so the
    # first iteration has no NT scaling
    rng = np.random.default_rng(11)
    prob = min_eig_problem(sym(rng.normal(size=(4, 4))))
    X0, y0, S0 = np.diag([1.0, 1.0, 1.0, 0.0])[None], np.zeros(1), np.eye(4)[None]
    sol = solve(prob, start=(X0, y0, S0))
    assert sol.status == "numerical-failure" and sol.iterations == 0
    assert np.array_equal(sol.X, X0) and np.array_equal(sol.y, y0) and np.array_equal(sol.S, S0)


class _NoFactor(SdpProblem):
    # every ridge of the schedule fails the definiteness test
    def __init__(self, *args):
        super().__init__(*args)
        self.ridges = []

    def schur(self, W):
        trace, _ = super().schur(W)
        self.trace = trace

        def factor(ridge):
            self.ridges.append(ridge)
            raise np.linalg.LinAlgError("not positive definite")

        return trace, factor


class _SchurRaises(SdpProblem):
    def schur(self, W):
        raise np.linalg.LinAlgError("singular")


def test_exhausted_ridge_schedule_is_a_numerical_failure():
    rng = np.random.default_rng(12)
    c = sym(rng.normal(size=(4, 4)))
    prob = _NoFactor([c], [np.eye(4)[None]], [1.0])
    sol = solve(prob, start=(np.eye(4)[None], np.zeros(1), np.eye(4)[None]))
    assert sol.status == "numerical-failure" and sol.iterations == 0
    assert np.array_equal(sol.X, np.eye(4)[None]) and np.array_equal(sol.y, np.zeros(1))
    assert np.array_equal(sol.S, np.eye(4)[None])
    # ridge 0, then 1e-12 (tr M / m + 1) with m = 1, times 100 on each further failure
    first = 1e-12 * (prob.trace + 1.0)
    assert prob.ridges == [0.0, first, first * 100, first * 100 * 100]


class _HugeSolve(SdpProblem):
    # every Schur solve returns dy = (0, 1e13), so A*(dy) is indefinite
    def schur(self, W):
        return 1.0, lambda ridge: lambda r: np.array([0.0, 1e13])


def test_collapsed_steps_are_a_numerical_failure():
    rng = np.random.default_rng(14)
    prob = _HugeSolve([sym(rng.normal(size=(4, 4)))],
                      [np.stack([np.eye(4), np.diag([1.0, -1.0, 1.0, -1.0])])], [1.0, 0.3])
    # off-centre, so the first iteration is a centering step; along the
    # solved direction both steps to the boundary are about 1e-13
    X0 = np.diag([1.0, 1.0, 1.0, 1e-4])[None]
    sol = solve(prob, start=(X0, np.zeros(2), np.eye(4)[None]))
    assert sol.status == "numerical-failure" and sol.iterations == 0
    assert np.array_equal(sol.X, X0) and np.array_equal(sol.y, np.zeros(2))
    assert np.array_equal(sol.S, np.eye(4)[None])


def test_linalg_error_in_an_iteration_is_a_numerical_failure():
    rng = np.random.default_rng(13)
    prob = _SchurRaises([sym(rng.normal(size=(4, 4)))], [np.eye(4)[None]], [1.0])
    sol = solve(prob, start=(np.eye(4)[None], np.zeros(1), np.eye(4)[None]))
    assert sol.status == "numerical-failure" and sol.iterations == 0
    assert np.array_equal(sol.X, np.eye(4)[None]) and np.array_equal(sol.y, np.zeros(1))
    assert np.array_equal(sol.S, np.eye(4)[None])
