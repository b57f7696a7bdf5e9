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
Mehrotra predictor-corrector, dense Cholesky of the Schur complement,
0.98 step to the boundary, and a pure centering step (sigma = 1, no
Mehrotra term) whenever the centrality min_b lambda_min(L_b^H S_b L_b) / mu
(X_b = L_b L_b^H, mu = tr(XS) / sum_b d_b) drops below the fixed constant
CENTRALITY_MIN. Without that fallback an iterate that drifts off the
central path drives the NT scaling and the Schur complement towards
singularity, after which rounding (for instance the BLAS thread count)
decides whether the solve converges.

Problem sizes here are tiny: the witness program passes twelve 8x8
Hermitian blocks and 256 rows together with a strictly feasible start in
closed form. Everything is dense and the Schur complement is rebuilt every
iteration. Rows are not screened, so they must be linearly independent
(the Schur complement of dependent rows is singular).
"""

from dataclasses import dataclass, field

import numpy as np

SYM_TOL = 1e-10
CENTRALITY_MIN = 1e-2


def _h(a):
    # conjugate transpose of the last two axes
    return np.swapaxes(a, -1, -2).conj()


def _sym(a):
    return 0.5 * (a + _h(a))


class SdpProblem:
    """Validated standard-form problem.

    block_dims: list of block sizes.
    C: list of per-block Hermitian cost matrices.
    A: list (per block) of arrays with shape (m, d_b, d_b), each slice Hermitian.
    b: real right-hand side vector (m,).

    Construction checks the shapes and the Hermiticity of every coefficient
    matrix.
    """

    def __init__(self, block_dims, C, A, b):
        self.block_dims = list(block_dims)
        self.C = [np.asarray(c) for c in C]
        self.A = [np.asarray(a) for a in A]
        self.b = np.asarray(b, dtype=float).copy()
        if len(self.C) != len(self.block_dims) or len(self.A) != len(self.block_dims):
            raise ValueError("C and A must have one entry per block")
        m = self.b.size
        for d, c, a in zip(self.block_dims, self.C, self.A):
            if c.shape != (d, d):
                raise ValueError(f"objective block shape {c.shape} != ({d},{d})")
            if a.shape != (m, d, d):
                raise ValueError(f"constraint block shape {a.shape} != ({m},{d},{d})")
            if np.abs(c - _h(c)).max() > SYM_TOL:
                raise ValueError("objective block is not Hermitian")
            if m and np.abs(a - _h(a)).max() > SYM_TOL:
                raise ValueError("constraint coefficient block is not Hermitian")

    # -- operator A and its adjoint ------------------------------------

    def apply(self, X):
        # tr(A_i X) = sum conj(A_i) * X for Hermitian A_i
        out = np.zeros(self.b.size)
        for a, x in zip(self.A, X):
            out += (a.reshape(self.b.size, -1).conj() @ x.ravel()).real
        return out

    def adjoint(self, y):
        return [_sym((a.reshape(self.b.size, -1).T @ y).reshape(d, d))
                for a, d in zip(self.A, self.block_dims)]


@dataclass
class SdpSolution:
    X: list
    y: np.ndarray
    S: list
    primal_obj: float
    dual_obj: float
    gap: float
    status: str
    iterations: int
    history: list = field(default_factory=list)


def _tr2(a, b):
    # trace inner product tr(ab) of Hermitian matrices
    return float(np.sum(a.conj() * b).real)


def _nt_scaling(X, S):
    """Nesterov-Todd scaling point W (W S W = X) plus S^{-1}, via eigensolves."""
    s, U = np.linalg.eigh(S)
    s = np.maximum(s, 1e-300)
    Uh = _h(U)
    Shalf = (U * np.sqrt(s)) @ Uh
    Sinvhalf = (U / np.sqrt(s)) @ Uh
    T = _sym(Shalf @ X @ Shalf)
    t, V = np.linalg.eigh(T)
    t = np.maximum(t, 1e-300)
    Thalf = (V * np.sqrt(t)) @ _h(V)
    W = _sym(Sinvhalf @ Thalf @ Sinvhalf)
    Sinv = (U / s) @ Uh
    return W, _sym(Sinv)


def _centrality(X, S, mu):
    """min_b lambda_min(L_b^H S_b L_b) / mu, where X_b = L_b L_b^H.

    Equals 1 on the central path and falls towards 0 as some product X_b S_b
    develops an eigenvalue far below the mean mu. An X_b without a Cholesky
    factor sits on the boundary of the cone and scores 0.
    """
    lam = np.inf
    for x, s in zip(X, S):
        try:
            L = np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            return 0.0
        lam = min(lam, np.linalg.eigvalsh(_h(L) @ s @ L)[0])
    return lam / mu


def _max_step(V, D):
    """Largest alpha with V + alpha D >= 0, for V > 0 (inf if D >= 0)."""
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        L = np.linalg.cholesky(V + 1e-12 * np.trace(V).real / V.shape[0] * np.eye(V.shape[0]))
    Y = np.linalg.solve(L, D)
    G = _sym(np.linalg.solve(L, _h(Y)))  # L^{-1} D L^{-H}
    lam = np.linalg.eigvalsh(G)[0]
    if lam >= 0.0:
        return np.inf
    return -1.0 / lam


def solve(problem, tol=1e-8, max_iter=100, start=None):
    """Run the interior-point iteration.

    ``start`` may supply (X0, y0, S0) with every block strictly positive
    definite; otherwise the identity infeasible start X = S = I, y = 0 is
    used. Status is one of "optimal", "max-iterations", "numerical-failure";
    non-optimal exits still return the last iterate.

    Every iteration steps 0.98 of the way to the boundary of the cone. When
    the centrality min_b lambda_min(L_b^H S_b L_b) / mu (X_b = L_b L_b^H)
    is below the module constant CENTRALITY_MIN, the step is a pure
    centering step (sigma = 1, no Mehrotra term) that pulls the iterate
    back towards the central path before the gap is reduced further;
    otherwise it is a Mehrotra predictor-corrector step. The threshold is
    fixed, not a parameter.
    """
    dims = problem.block_dims
    nb = len(dims)
    m = problem.b.size
    total_dim = sum(dims)
    bnorm = 1.0 + np.linalg.norm(problem.b)
    cnorm = 1.0 + np.sqrt(sum(_tr2(c, c) for c in problem.C))

    if start is None:
        X = [np.eye(d) for d in dims]
        S = [np.eye(d) for d in dims]
        y = np.zeros(m)
    else:
        X0, y0, S0 = start
        X = [np.array(x) for x in X0]
        S = [np.array(s) for s in S0]
        y = np.asarray(y0, dtype=float).copy()

    # conj(A_i) flattened, so that tr(A_i V) = (Aconj @ V.ravel()).real
    Aconj = [a.reshape(m, -1).conj() for a in problem.A]
    history = []
    status = "max-iterations"
    it = 0

    for it in range(max_iter + 1):
        rp = problem.b - problem.apply(X)
        Rd = [c - aj - s for c, aj, s in zip(problem.C, problem.adjoint(y), S)]
        pobj = sum(_tr2(c, x) for c, x in zip(problem.C, X))
        dobj = float(problem.b @ y)
        gap = sum(_tr2(x, s) for x, s in zip(X, S))
        pinf = np.linalg.norm(rp) / bnorm
        dinf = np.sqrt(sum(_tr2(r, r) for r in Rd)) / cnorm
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        history.append((pobj, dobj, gap, pinf, dinf))
        if relgap <= tol and pinf <= tol and dinf <= tol:
            status = "optimal"
            break
        if it == max_iter:
            break
        if not (np.isfinite(pobj) and np.isfinite(dobj) and np.isfinite(gap)):
            status = "numerical-failure"
            break

        mu = gap / total_dim
        try:
            Ws, Sinvs = zip(*[_nt_scaling(X[b], S[b]) for b in range(nb)])
            # Schur complement M_ij = sum_b tr(A_i W A_j W)
            M = np.zeros((m, m))
            for b in range(nb):
                WAW = np.einsum("ij,kjl,lm->kim", Ws[b], problem.A[b], Ws[b], optimize=True)
                M += (Aconj[b] @ WAW.reshape(m, -1).T).real
            M = _sym(M)
            ridge = 0.0
            for attempt in range(4):
                try:
                    L = np.linalg.cholesky(M + ridge * np.eye(m))
                    break
                except np.linalg.LinAlgError:
                    ridge = max(ridge * 100, 1e-12 * (np.trace(M) / m + 1.0))
            else:
                status = "numerical-failure"
                break

            def solve_schur(rhs):
                z = np.linalg.solve(L, rhs)
                return np.linalg.solve(L.T, z)

            def direction(V):
                # Delta X + W Delta S W = V,  Delta S = Rd - A* Delta y
                base = [V[b] - _sym(Ws[b] @ Rd[b] @ Ws[b]) for b in range(nb)]
                rhs = rp - problem.apply(base)
                dy = solve_schur(rhs)
                Ady = problem.adjoint(dy)
                dS = [Rd[b] - Ady[b] for b in range(nb)]
                dX = [base[b] + _sym(Ws[b] @ Ady[b] @ Ws[b]) for b in range(nb)]
                return dX, dy, dS

            if _centrality(X, S, mu) < CENTRALITY_MIN:
                # pure centering: aim at the central point with the same mu
                V = [mu * Sinvs[b] - X[b] for b in range(nb)]
            else:
                # predictor (affine scaling)
                V_aff = [-X[b] for b in range(nb)]
                dXa, dya, dSa = direction(V_aff)
                ap = min([1.0] + [0.98 * _max_step(X[b], dXa[b]) for b in range(nb)])
                ad = min([1.0] + [0.98 * _max_step(S[b], dSa[b]) for b in range(nb)])
                gap_aff = sum(
                    _tr2(X[b] + ap * dXa[b], S[b] + ad * dSa[b]) for b in range(nb)
                )
                sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

                # corrector with Mehrotra second-order term
                V = []
                for b in range(nb):
                    corr = dXa[b] @ dSa[b] @ Sinvs[b]
                    V.append(sigma * mu * Sinvs[b] - X[b] - _sym(corr))
            dX, dy, dS = direction(V)
            ap = min([1.0] + [0.98 * _max_step(X[b], dX[b]) for b in range(nb)])
            ad = min([1.0] + [0.98 * _max_step(S[b], dS[b]) for b in range(nb)])
            if ap < 1e-12 and ad < 1e-12:
                status = "numerical-failure"
                break
            for b in range(nb):
                X[b] = _sym(X[b] + ap * dX[b])
                S[b] = _sym(S[b] + ad * dS[b])
            y = y + ad * dy
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break

    return SdpSolution(
        X=X, y=y, S=S,
        primal_obj=history[-1][0], dual_obj=history[-1][1], gap=history[-1][2],
        status=status, iterations=it, history=history,
    )
