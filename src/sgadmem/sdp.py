"""Small dense semidefinite-programming solver.

Standard form over Hermitian block-diagonal variables:

    minimize    sum_b tr(C_b X_b)
    subject to  sum_b tr(A_{i,b} X_b) = b_i   (i = 1..m),   X_b >= 0,

with the dual (linear matrix inequality) side

    maximize    b^T y
    subject to  S_b = C_b - sum_i y_i A_{i,b} >= 0.

Blocks may be complex Hermitian or real symmetric: every product, trace
and eigensolve uses conjugate transposes, so real problems run the same
code and complex ones need no real embedding.

Solved with a primal-dual interior-point method: Nesterov-Todd scaling,
Mehrotra predictor-corrector, 0.98 step to the boundary, and a pure
centering step (sigma = 1, no Mehrotra term) whenever the centrality
min_b lambda_min(L_b^H S_b L_b) / mu (X_b = L_b L_b^H, mu = tr(XS) /
sum_b d_b) drops below the fixed constant CENTRALITY_MIN. Without that
fallback an iterate that drifts off the central path drives the NT scaling
and the Schur complement towards singularity, after which rounding (for
instance the BLAS thread count) decides whether the solve converges.

The direction an iteration steps along (corrector or centering) gets a
second length from the same eigenvalues: FINAL_STEP = 1 - 1e-5 of the way
to the boundary. That final step is taken only if the iterate it reaches
passes the stopping test (relgap, pinf and dinf at most tol, gap >= 0),
so it ends the solve; every other step stops at 0.98. The candidate's gap
and objectives are measured first, its residuals only if the gap passes,
and the accepted iterate is stored as measured, so the next loop top
records it and stops "optimal". Near the optimum a 0.98 step cuts the gap
by 50x per iteration, so this saves the last one or two iterations of
most solves.

Each iteration factors every block once, X_b = Lx Lx^H and S_b = Ls Ls^H,
and takes one SVD Ls^H Lx = U Sigma V^H (Todd, Toh & Tutuncu, SIAM J.
Optim. 8, 769 (1998)). Everything else follows, with no inverse. The NT
point is W = G G^H with G = Lx V Sigma^{-1/2} = Ls^{-H} U Sigma^{1/2}, so
that W S W = X and G^{-1} X G^{-H} = G^H S G = Sigma; S^{-1} = G Sigma^{-1}
G^H; the centrality is min Sigma^2 / mu, because Lx^H S Lx = (Ls^H Lx)^H
(Ls^H Lx). In the NT frames Rx = G^{-H} Sigma^{-1/2} = Ls U Sigma^{-1} and
Rs = G Sigma^{-1/2} = Lx V Sigma^{-1}, X and S are both I, so X + alpha dX
>= 0 exactly when I + alpha Dx >= 0 with Dx = Rx^H dX Rx, and likewise for
S with Ds = Rs^H dS Rs: the step to the boundary is -1/lambda_min(D), of
which 0.98 (or FINAL_STEP) is taken, at most 1. The predictor direction
solves dX + W dS W = -X, which in the frames reads Dx = -I - Ds, so one
eigvalsh of Ds gives both its steps, with lambda_min(Dx) = -1 -
lambda_max(Ds); the corrector's two pairs come from one eigvalsh over both
frames. An iterate with a block of X or S that has no Cholesky factor
ends the solve "numerical-failure" and is returned: a start must be strictly
positive definite and every step stops short of the boundary, so only
rounding leaves the cone's interior.

A problem has k blocks of one size d, so every block quantity (C, X, S,
W, a direction) is one (k, d, d) array, and the NT scaling, centrality,
step length and the W R W products run once over all k blocks. It
supplies C, b (m,), apply (X -> (tr(A_i X))_i), adjoint
(y -> (sum_i y_i A_{i,b})_b) and schur. schur(W), at the NT points W of
one iteration, returns tr M and factor for the Schur complement
M_ij = sum_b Re tr(A_i W_b A_j W_b): factor(ridge) raises LinAlgError
unless M + ridge I is positive definite, and otherwise returns the
function r -> (M + ridge I)^{-1} r. The ridge schedule lives in solve
alone: ridge 0 first, then 1e-12 (tr M / m + 1), multiplied by 100 on
each further failure, and "numerical-failure" after four. Both direction
solves of an iteration use the one factor the schedule accepts. How M is
held, tested and solved is up to the problem.

The package has one problem, witness._WitnessProgram, the witness
program of the witness module (twelve 8x8 Hermitian blocks, 256 rows). It
holds no coefficient array and builds no m x m matrix: it derives its real
Schur system. The tests hold a dense generic problem, with every
coefficient matrix and M built dense, as its reference.
"""

from dataclasses import dataclass

import numpy as np

CENTRALITY_MIN = 1e-2
FINAL_STEP = 1 - 1e-5


def _h(a):
    # conjugate transpose of the last two axes
    return np.swapaxes(a, -1, -2).conj()


def _sym(a):
    return 0.5 * (a + _h(a))


@dataclass
class SdpSolution:
    X: np.ndarray
    y: np.ndarray
    S: np.ndarray
    primal_obj: float
    dual_obj: float
    gap: float
    status: str
    iterations: int
    history: list


def _tr2(a, b):
    # trace inner product tr(ab) of Hermitian matrices, summed over the blocks
    return float(np.sum(a.conj() * b).real)


def _scaling(X, S):
    """NT points W, S^{-1}, min_b lambda_min(Lx_b^H S_b Lx_b) and the NT
    frames R = (Rx, Rs), stacked (2k, d, d), from one Cholesky pair and one
    SVD (see the module docstring). Raises LinAlgError if a block of X or S
    has no Cholesky factor."""
    Lx, Ls = np.linalg.cholesky(X), np.linalg.cholesky(S)
    U, sv, Vh = np.linalg.svd(_h(Ls) @ Lx)
    r = np.sqrt(sv)[..., None, :]
    G = (Lx @ _h(Vh)) / r
    Rs = G / r
    lam = sv[:, -1].min() ** 2
    return _sym(G @ _h(G)), _sym(Rs @ _h(Rs)), lam, np.concatenate([(Ls @ U) / r**2, Rs])


def _step(lam, fraction=0.98):
    """fraction of the way to the boundary, at most 1, along a direction
    whose smallest eigenvalue in the NT frame is lam."""
    return 1.0 if lam >= -fraction else -fraction / lam


def _steps(R, dX, dS):
    """Primal and dual step lengths from one eigvalsh over both NT frames:
    0.98 of the way to the boundary, and FINAL_STEP of the way."""
    lam = np.linalg.eigvalsh(_h(R) @ np.concatenate([dX, dS]) @ R)[:, 0]
    lx, ls = lam[:len(dX)].min(), lam[len(dX):].min()
    return (_step(lx), _step(ls)), (_step(lx, FINAL_STEP), _step(ls, FINAL_STEP))


def _predictor_steps(R, dS):
    """_steps for a direction with dX + W dS W = -X, where Dx = -I - Ds, so
    one eigvalsh of Ds gives both."""
    lam = np.linalg.eigvalsh(_h(R[len(dS):]) @ dS @ R[len(dS):])
    return _step(-1.0 - lam[:, -1].max()), _step(lam[:, 0].min())


def _stopping_test(problem, X, y, S, tol, norms, lazy=False):
    """The stopping test of solve at (X, y, S): relgap, pinf and dinf at
    most tol, with gap >= 0. Returns whether it passes, the history row
    (pobj, dobj, gap, pinf, dinf) and the residuals rp and Rd. The gap and
    objectives come first; with lazy, a failing gap returns before the
    residuals are formed, with row and residuals None."""
    pobj, dobj, gap = _tr2(problem.C, X), float(problem.b @ y), _tr2(X, S)
    passed = gap >= 0 and gap / (1.0 + abs(pobj) + abs(dobj)) <= tol
    if lazy and not passed:
        return False, None, None, None
    rp = problem.b - problem.apply(X)
    Rd = problem.C - problem.adjoint(y) - S
    pinf = np.linalg.norm(rp) / norms[0]
    dinf = np.sqrt(_tr2(Rd, Rd)) / norms[1]
    return passed and pinf <= tol and dinf <= tol, (pobj, dobj, gap, pinf, dinf), rp, Rd


def solve(problem, start, tol=1e-8, max_iter=100):
    """Run the interior-point iteration of the module docstring: its steps,
    centering rule and ridge schedule.

    ``start`` is (X0, y0, S0), X0 and S0 of shape (k, d, d) with every
    block strictly positive definite; it need not be feasible. Status is
    one of "optimal", "max-iterations", "numerical-failure"; non-optimal
    exits still return the last iterate. tol must be finite and positive.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    k, d = problem.C.shape[:2]
    m = problem.b.size
    norms = 1.0 + np.linalg.norm(problem.b), 1.0 + np.sqrt(_tr2(problem.C, problem.C))

    X, S = np.array(start[0]), np.array(start[2])
    y = np.asarray(start[1], dtype=float).copy()
    history = []
    status = "max-iterations"

    for it in range(max_iter + 1):
        passed, row, rp, Rd = _stopping_test(problem, X, y, S, tol, norms)
        history.append(row)
        pobj, dobj, gap = row[:3]
        if passed:
            status = "optimal"
            break
        if it == max_iter:
            break
        if not (np.isfinite(pobj) and np.isfinite(dobj) and np.isfinite(gap)):
            status = "numerical-failure"
            break

        mu = gap / (k * d)
        try:
            W, Sinv, lam, R = _scaling(X, S)
            trace, factor = problem.schur(W)
            ridge = 0.0
            for attempt in range(4):
                try:
                    solve_schur = factor(ridge)
                    break
                except np.linalg.LinAlgError:
                    ridge = max(ridge * 100, 1e-12 * (trace / m + 1.0))
            else:
                status = "numerical-failure"
                break

            def direction(V):
                # Delta X + W Delta S W = V,  Delta S = Rd - A* Delta y
                base = V - _sym(W @ Rd @ W)
                dy = solve_schur(rp - problem.apply(base))
                Ady = problem.adjoint(dy)
                return base + _sym(W @ Ady @ W), dy, Rd - Ady

            if lam / mu < CENTRALITY_MIN:
                # pure centering: aim at the central point with the same mu
                V = mu * Sinv - X
            else:
                # predictor (affine scaling)
                dXa, _, dSa = direction(-X)
                ap, ad = _predictor_steps(R, dSa)
                sigma = min(1.0, max(0.0, _tr2(X + ap * dXa, S + ad * dSa) / gap) ** 3)

                # corrector with Mehrotra second-order term
                V = sigma * mu * Sinv - X - _sym(dXa @ dSa @ Sinv)
            dX, dy, dS = direction(V)
            (ap, ad), (fp, fd) = _steps(R, dX, dS)
            if ap < 1e-12 and ad < 1e-12:
                status = "numerical-failure"
                break
            # the final step, taken only if it ends the solve: the next loop
            # top measures the same iterate and stops
            final = _sym(X + fp * dX), y + fd * dy, _sym(S + fd * dS)
            if _stopping_test(problem, *final, tol, norms, lazy=True)[0]:
                X, y, S = final
                continue
            X = _sym(X + ap * dX)
            S = _sym(S + ad * dS)
            y = y + ad * dy
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break

    return SdpSolution(
        X=X, y=y, S=S,
        primal_obj=history[-1][0], dual_obj=history[-1][1], gap=history[-1][2],
        status=status, iterations=it, history=history,
    )
