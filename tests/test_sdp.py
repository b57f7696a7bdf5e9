import itertools

import numpy as np
import pytest

from sgadmem.channel import SgadParams, asymptotic_state
from sgadmem.sdp import CENTRALITY_MIN, SdpProblem, _max_step, _scaling, solve
from sgadmem.states import make_noisy, make_pure
from sgadmem.witness import _witness_program


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
    return SdpProblem([d], [c], [np.eye(d)[None]], [1.0])


# -- slow-path reference: the interior-point loop one block at a time, with
# every product over all rows of the dense coefficient arrays

def _ref_apply(problem, X):
    m = problem.b.size
    return sum((a.reshape(m, -1).conj() @ x.ravel()).real for a, x in zip(problem.A, X))


def _ref_adjoint(problem, y):
    return [sym((a.reshape(problem.b.size, -1).T @ y).reshape(d, d))
            for a, d in zip(problem.A, problem.block_dims)]


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


def _ref_centrality(X, S, mu):
    lam = np.inf
    for x, s in zip(X, S):
        try:
            L = np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            return 0.0
        lam = min(lam, np.linalg.eigvalsh(L.conj().T @ s @ L)[0])
    return lam / mu


def _ref_max_step(v, dv):
    try:
        L = np.linalg.cholesky(v)
    except np.linalg.LinAlgError:
        L = np.linalg.cholesky(v + 1e-12 * np.trace(v).real / v.shape[0] * np.eye(v.shape[0]))
    Y = np.linalg.solve(L, dv)
    lam = np.linalg.eigvalsh(sym(np.linalg.solve(L, Y.conj().T)))[0]
    return np.inf if lam >= 0.0 else -1.0 / lam


def reference_solve(problem, tol=1e-8, max_iter=100, start=None):
    """Returns (status, dual objective, iterations)."""
    dims = problem.block_dims
    nb = len(dims)
    m = problem.b.size
    bnorm = 1.0 + np.linalg.norm(problem.b)
    cnorm = 1.0 + np.sqrt(sum(_ref_tr2(c, c) for c in problem.C))
    if start is None:
        X, S, y = [np.eye(d) for d in dims], [np.eye(d) for d in dims], np.zeros(m)
    else:
        X = [np.array(x) for x in start[0]]
        S = [np.array(s) for s in start[2]]
        y = np.asarray(start[1], dtype=float).copy()
    Aconj = [a.reshape(m, -1).conj() for a in problem.A]
    status = "max-iterations"
    for it in range(max_iter + 1):
        rp = problem.b - _ref_apply(problem, X)
        Rd = [c - aj - s for c, aj, s in zip(problem.C, _ref_adjoint(problem, y), S)]
        pobj = sum(_ref_tr2(c, x) for c, x in zip(problem.C, X))
        dobj = float(problem.b @ y)
        gap = sum(_ref_tr2(x, s) for x, s in zip(X, S))
        pinf = np.linalg.norm(rp) / bnorm
        dinf = np.sqrt(sum(_ref_tr2(r, r) for r in Rd)) / cnorm
        if gap / (1.0 + abs(pobj) + abs(dobj)) <= tol and pinf <= tol and dinf <= tol:
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
            M = np.zeros((m, m))
            for b in range(nb):
                WAW = np.einsum("ij,kjl,lm->kim", Ws[b], problem.A[b], Ws[b], optimize=True)
                M += (Aconj[b] @ WAW.reshape(m, -1).T).real
            M = sym(M)
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
                ap = min([1.0] + [0.98 * _ref_max_step(X[b], dXa[b]) for b in range(nb)])
                ad = min([1.0] + [0.98 * _ref_max_step(S[b], dSa[b]) for b in range(nb)])
                gap_aff = sum(_ref_tr2(X[b] + ap * dXa[b], S[b] + ad * dSa[b])
                              for b in range(nb))
                sigma = min(1.0, max(0.0, gap_aff / gap) ** 3)
                V = [sigma * mu * Sinvs[b] - X[b] - sym(dXa[b] @ dSa[b] @ Sinvs[b])
                     for b in range(nb)]
            dX, dy, dS = direction(V)
            ap = min([1.0] + [0.98 * _ref_max_step(X[b], dX[b]) for b in range(nb)])
            ad = min([1.0] + [0.98 * _ref_max_step(S[b], dS[b]) for b in range(nb)])
            if ap < 1e-12 and ad < 1e-12:
                status = "numerical-failure"
                break
            X = [sym(X[b] + ap * dX[b]) for b in range(nb)]
            S = [sym(S[b] + ad * dS[b]) for b in range(nb)]
            y = y + ad * dy
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break
    return status, dobj, it


def test_solve_matches_per_block_reference():
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
    ]
    for rho in states:
        problem, start = _witness_program(rho)
        # W - Q^T and I - W + Q^T touch the W and Q_M rows, Q and I - Q the Q_M rows
        assert [r.size for r in problem.rows] == [128, 128, 64, 64] * 3
        sol = solve(problem, start=start)
        status, dual_obj, _ = reference_solve(problem, start=start)
        assert sol.status == status == "optimal"
        assert abs(sol.dual_obj - dual_obj) <= 1e-8


def random_pd_stack(rng, k, d, cond):
    # eigenvalues from 1 down to 1/cond, evenly in log scale, in random complex frames
    q, _ = np.linalg.qr(rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d)))
    a = (q * np.logspace(0, -np.log10(cond), d)) @ q.conj().swapaxes(-1, -2)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def test_factor_kernel_matches_eigh_reference():
    # The NT point, S^{-1}, centrality and step length from one Cholesky pair
    # and one SVD, against the eigh formulas of reference_solve. With X and S
    # both at cond 1e10 the eigh W is itself off by up to 90 %, so there only
    # W S W = X is checked.
    rng = np.random.default_rng(13)

    def rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    mu = 0.3
    for cond_x, cond_s in [(1e2, 1e2), (1e10, 1e2), (1e10, 1e10)]:
        X, S = random_pd_stack(rng, 6, 8, cond_x), random_pd_stack(rng, 6, 8, cond_s)
        W, Sinv, lam, Lxi, Lsi = _scaling(X, S)
        assert rel(W @ S @ W, X) <= 1e-12
        if cond_s > 1e2:
            continue
        refs = [_ref_nt_scaling(x, s) for x, s in zip(X, S)]
        assert rel(W, np.array([w for w, _ in refs])) <= 1e-9
        assert rel(Sinv, np.array([si for _, si in refs])) <= 1e-10
        assert abs(lam / mu - _ref_centrality(X, S, mu)) <= 1e-10 * _ref_centrality(X, S, mu)
        D = np.array([rand_herm(rng, 8) for _ in range(6)])
        for V, Linv in ((X, Lxi), (S, Lsi)):
            ref = min(_ref_max_step(v, dv) for v, dv in zip(V, D))
            assert abs(_max_step(Linv, D) - ref) <= 1e-10 * ref
    # an X block without a Cholesky factor scores centrality 0
    X[0] = np.diag([1.0] * 7 + [0.0])
    assert _scaling(X, S)[2] == 0.0


def assert_matches_reference(problem, sol):
    status, dual_obj, _ = reference_solve(problem)
    assert sol.status == status
    assert abs(sol.dual_obj - dual_obj) <= 1e-8


def test_forced_value_example():
    # min tr(X) s.t. X_11 = 1 -> 1
    d = 3
    prob = SdpProblem([d], [np.eye(d)], [unit(d, 0, 0)[None]], [1.0])
    sol = solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-6
    assert abs(sol.X[0][0, 0] - 1.0) < 1e-6


def test_min_eigenvalue_20_random():
    rng = np.random.default_rng(0)
    real = [sym(rng.normal(size=(7, 7))) for _ in range(20)]
    hermitian = [rand_herm(rng, 7) for _ in range(20)]
    for c in real + hermitian:
        sol = solve(min_eig_problem(c))
        assert sol.status == "optimal"
        target = np.linalg.eigvalsh(c)[0]
        assert abs(sol.primal_obj - target) < 1e-6
        assert abs(sol.dual_obj - target) < 1e-6


def test_two_blocks_min_eig():
    rng = np.random.default_rng(1)
    c1, c2 = sym(rng.normal(size=(3, 3))), sym(rng.normal(size=(4, 4)))
    prob = SdpProblem([3, 4], [c1, c2],
                      [np.eye(3)[None], np.eye(4)[None]], [1.0])
    sol = solve(prob)
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
        prob = SdpProblem(
            [d], [np.diag(c)],
            [np.array([np.diag(A[0]), np.diag(A[1])])], b)
        sol = solve(prob)
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
    real = (sym(rng.normal(size=(4, 4))), sym(rng.normal(size=(3, 3))))
    hermitian = (rand_herm(rng, 4), rand_herm(rng, 3))
    for c1, c2 in (real, hermitian):
        prob = SdpProblem([4, 3], [c1, c2],
                          [np.eye(4)[None], np.eye(3)[None]], [1.0])
        sol = solve(prob)
        assert sol.status == "optimal"
        assert_matches_reference(prob, sol)
        for xb, sb in zip(sol.X, sol.S):
            assert np.abs(xb @ sb).max() <= 1e-6


def test_orthogonal_remixing_invariance():
    rng = np.random.default_rng(5)
    c = sym(rng.normal(size=(5, 5)))
    a1 = sym(rng.normal(size=(5, 5)))
    prob = SdpProblem([5], [c], [np.stack([np.eye(5), a1])],
                      [1.0, float(np.trace(a1) / 5.0)])
    base = solve(prob)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rot = SdpProblem([5], [q @ c @ q.T],
                     [np.stack([np.eye(5), q @ a1 @ q.T])], prob.b)
    mixed = solve(rot)
    assert base.status == mixed.status == "optimal"
    assert abs(base.primal_obj - mixed.primal_obj) <= 2e-8 * (1 + abs(base.primal_obj))


def test_objective_scaling():
    rng = np.random.default_rng(6)
    c = sym(rng.normal(size=(5, 5)))
    scale = 37.0
    v1 = solve(min_eig_problem(c)).primal_obj
    v2 = solve(min_eig_problem(scale * c)).primal_obj
    assert abs(v2 - scale * v1) <= 1e-7 * scale


def test_data_validation():
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        SdpProblem([3], [bad], [np.eye(3)[None]], [1.0])
    with pytest.raises(ValueError):
        SdpProblem([3], [np.eye(3)], [bad[None]], [1.0])
    with pytest.raises(ValueError):
        SdpProblem([3], [np.eye(2)], [np.eye(3)[None]], [1.0])
    # complex symmetric but not Hermitian
    bad = np.array([[0.0, 1j], [1j, 0.0]])
    with pytest.raises(ValueError):
        SdpProblem([2], [bad], [np.eye(2)[None]], [1.0])
    with pytest.raises(ValueError):
        SdpProblem([2], [np.eye(2)], [bad[None]], [1.0])


def test_history_and_iterations_recorded():
    rng = np.random.default_rng(8)
    sol = solve(min_eig_problem(sym(rng.normal(size=(5, 5)))))
    assert sol.iterations == len(sol.history) - 1
    assert len(sol.history[0]) == 5
    # gap shrinks by many orders of magnitude
    assert sol.history[-1][2] < 1e-6 * max(sol.history[0][2], 1.0)
