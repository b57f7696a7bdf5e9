import itertools

import numpy as np
import pytest

from sgadmem.sdp import SdpProblem, solve


def sym(a):
    return 0.5 * (a + a.conj().T)


def rand_herm(rng, d):
    return sym(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def unit(d, i, j):
    e = np.zeros((d, d))
    e[i, j] = e[j, i] = 1.0
    return e


def min_eig_problem(c):
    d = c.shape[0]
    return SdpProblem([d], [c], [np.eye(d)[None]], [1.0])


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
