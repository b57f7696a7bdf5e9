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

Each iteration factors every block once, X_b = Lx Lx^H and S_b = Ls Ls^H,
inverts both factors and takes one SVD Ls^H Lx = U Sigma V^H (Todd, Toh &
Tutuncu, SIAM J. Optim. 8, 769 (1998)). Everything else follows: the NT
point W = G G^H with G = Lx V Sigma^{-1/2}, so that W S W = X; S^{-1} =
Ls^{-H} Ls^{-1}; the centrality min Sigma^2 / mu, because Lx^H S Lx =
(Ls^H Lx)^H (Ls^H Lx); and the step length to the boundary of
V + alpha D >= 0 from lambda_min(L^{-1} D L^{-H}). A block without a
Cholesky factor is factored with a trace ridge of 1e-12 and scores
centrality 0.

Problem sizes here are tiny: the witness program passes twelve 8x8
Hermitian blocks and 256 rows together with a strictly feasible start in
closed form. Each block touches only the rows whose coefficient matrix is
nonzero in it (128 or 64 of the 256 in the witness program), so the Schur
complement, rebuilt every iteration, adds each block's products over those
rows alone (Fujisawa, Kojima & Nakata, Math. Program. 79, 235 (1997)), and
A and its adjoint run over the same rows. The Schur complement itself is
dense. Blocks of one size are held as one (k, d, d) stack, so the NT
scaling, centrality, step length and the W R W products run once per size
rather than once per block. Rows are not screened, so they must be linearly
independent (the Schur complement of dependent rows is singular).
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
    matrix, and records for each block the rows whose coefficient matrix is
    nonzero (rows[b]) with conj(A_i) flattened for those rows only
    (Aconj[b], shape (len(rows[b]), d_b^2)); every product with A runs over
    these rows alone. Blocks of one size form a stack: stacks holds the
    block indices of each size, in order of first appearance.
    """

    def __init__(self, block_dims, C, A, b):
        self.block_dims = list(block_dims)
        self.C = [np.asarray(c) for c in C]
        self.A = [np.asarray(a) for a in A]
        self.b = np.asarray(b, dtype=float).copy()
        if len(self.C) != len(self.block_dims) or len(self.A) != len(self.block_dims):
            raise ValueError("C and A must have one entry per block")
        m = self.b.size
        self.rows, self.Aconj = [], []
        for d, c, a in zip(self.block_dims, self.C, self.A):
            if c.shape != (d, d):
                raise ValueError(f"objective block shape {c.shape} != ({d},{d})")
            if a.shape != (m, d, d):
                raise ValueError(f"constraint block shape {a.shape} != ({m},{d},{d})")
            if np.abs(c - _h(c)).max() > SYM_TOL:
                raise ValueError("objective block is not Hermitian")
            if m and np.abs(a - _h(a)).max() > SYM_TOL:
                raise ValueError("constraint coefficient block is not Hermitian")
            flat = a.reshape(m, d * d)
            rows = np.flatnonzero(np.any(flat != 0, axis=1))
            self.rows.append(rows)
            self.Aconj.append(flat[rows].conj())
        dims = np.array(self.block_dims)
        self.stacks = [np.flatnonzero(dims == d) for d in dict.fromkeys(self.block_dims)]

    # -- operator A and its adjoint, on blocks in block order -------------

    def apply(self, X):
        # tr(A_i X) = sum conj(A_i) * X for Hermitian A_i
        out = np.zeros(self.b.size)
        for rows, aconj, x in zip(self.rows, self.Aconj, X):
            out[rows] += (aconj @ x.ravel()).real
        return out

    def adjoint(self, y):
        return [_sym((y[rows] @ aconj).conj().reshape(d, d))
                for rows, aconj, d in zip(self.rows, self.Aconj, self.block_dims)]

    # -- blocks in block order <-> one (k, d, d) array per stack ----------

    def stack(self, blocks):
        return [np.array([blocks[b] for b in idx]) for idx in self.stacks]

    def unstack(self, stacked):
        blocks = [None] * len(self.block_dims)
        for idx, z in zip(self.stacks, stacked):
            for b, block in zip(idx, z):
                blocks[b] = block
        return blocks


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
    # trace inner product tr(ab) of Hermitian matrices, summed over a stack
    return float(np.sum(a.conj() * b).real)


def _factor(V):
    """Cholesky factors V_b = L_b L_b^H of a stack of V_b > 0, and whether
    every block had one. A V_b without a Cholesky factor gets a trace ridge
    of 1e-12."""
    try:
        return np.linalg.cholesky(V), True
    except np.linalg.LinAlgError:
        return np.array([_ridged_cholesky(v) for v in V]), False


def _ridged_cholesky(v):
    try:
        return np.linalg.cholesky(v)
    except np.linalg.LinAlgError:
        d = v.shape[0]
        return np.linalg.cholesky(v + 1e-12 * np.trace(v).real / d * np.eye(d))


def _scaling(X, S):
    """NT points W, S^{-1}, min_b lambda_min(Lx_b^H S_b Lx_b) and the inverse
    factors Lx^{-1}, Ls^{-1} of a stack, from one Cholesky pair and one SVD
    (see the module docstring). The third value is 0 if a block of X or S
    has no Cholesky factor."""
    (Lx, x_ok), (Ls, s_ok) = _factor(X), _factor(S)
    Lsi = np.linalg.inv(Ls)
    _, sv, Vh = np.linalg.svd(_h(Ls) @ Lx)
    G = (Lx @ _h(Vh)) / np.sqrt(sv)[..., None, :]
    lam = sv[:, -1].min() ** 2 if x_ok and s_ok else 0.0
    return _sym(G @ _h(G)), _sym(_h(Lsi) @ Lsi), lam, np.linalg.inv(Lx), Lsi


def _max_step(Linv, D):
    """Largest alpha with V_b + alpha D_b >= 0 for every block of a stack,
    given the inverse Cholesky factors of V_b = L_b L_b^H (inf if every
    D_b >= 0): -1 / lambda_min(L_b^{-1} D_b L_b^{-H})."""
    lam = np.linalg.eigvalsh(_sym(Linv @ D @ _h(Linv)))[:, 0].min()
    return np.inf if lam >= 0.0 else -1.0 / lam


def solve(problem, tol=1e-8, max_iter=100, start=None):
    """Run the interior-point iteration.

    ``start`` may supply (X0, y0, S0) with every block strictly positive
    definite; otherwise the identity infeasible start X = S = I, y = 0 is
    used. Status is one of "optimal", "max-iterations", "numerical-failure";
    non-optimal exits still return the last iterate.

    Every iteration steps 0.98 of the way to the boundary of the cone. When
    the centrality min_b lambda_min(Lx_b^H S_b Lx_b) / mu (X_b = Lx_b Lx_b^H),
    read off the singular values of Ls_b^H Lx_b that also give the NT point,
    is below the module constant CENTRALITY_MIN, the step is a pure
    centering step (sigma = 1, no Mehrotra term) that pulls the iterate
    back towards the central path before the gap is reduced further;
    otherwise it is a Mehrotra predictor-corrector step. The threshold is
    fixed, not a parameter.
    """
    dims = problem.block_dims
    m = problem.b.size
    total_dim = sum(dims)
    bnorm = 1.0 + np.linalg.norm(problem.b)
    cnorm = 1.0 + np.sqrt(sum(_tr2(c, c) for c in problem.C))

    if start is None:
        start = ([np.eye(d) for d in dims], np.zeros(m), [np.eye(d) for d in dims])
    X0, y0, S0 = start
    # every block quantity below is a list with one (k, d, d) array per stack
    stack, unstack = problem.stack, problem.unstack
    C, X, S = stack(problem.C), stack(X0), stack(S0)
    y = np.asarray(y0, dtype=float).copy()
    history = []
    status = "max-iterations"
    it = 0

    for it in range(max_iter + 1):
        rp = problem.b - problem.apply(unstack(X))
        Rd = [c - aj - s for c, aj, s in zip(C, stack(problem.adjoint(y)), S)]
        pobj = sum(_tr2(c, x) for c, x in zip(C, X))
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
            Ws, Sinvs, lams, Lxi, Lsi = zip(*[_scaling(x, s) for x, s in zip(X, S)])
            # Schur complement M_ij = sum_b Re tr(A_i W_b A_j W_b), over the
            # rows of block b only
            M = np.zeros((m, m))
            for w, rows, aconj, d in zip(unstack(Ws), problem.rows, problem.Aconj, dims):
                WAW = w @ aconj.conj().reshape(-1, d, d) @ w
                M[np.ix_(rows, rows)] += (aconj @ WAW.reshape(rows.size, -1).T).real
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
                base = [v - _sym(w @ r @ w) for v, w, r in zip(V, Ws, Rd)]
                rhs = rp - problem.apply(unstack(base))
                dy = solve_schur(rhs)
                Ady = stack(problem.adjoint(dy))
                dS = [r - a for r, a in zip(Rd, Ady)]
                dX = [bs + _sym(w @ a @ w) for bs, w, a in zip(base, Ws, Ady)]
                return dX, dy, dS

            if min(lams) / mu < CENTRALITY_MIN:
                # pure centering: aim at the central point with the same mu
                V = [mu * si - x for si, x in zip(Sinvs, X)]
            else:
                # predictor (affine scaling)
                dXa, dya, dSa = direction([-x for x in X])
                ap = min([1.0] + [0.98 * _max_step(li, dx) for li, dx in zip(Lxi, dXa)])
                ad = min([1.0] + [0.98 * _max_step(li, ds) for li, ds in zip(Lsi, dSa)])
                gap_aff = sum(_tr2(x + ap * dx, s + ad * ds)
                              for x, dx, s, ds in zip(X, dXa, S, dSa))
                sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

                # corrector with Mehrotra second-order term
                V = [sigma * mu * si - x - _sym(dx @ ds @ si)
                     for si, x, dx, ds in zip(Sinvs, X, dXa, dSa)]
            dX, dy, dS = direction(V)
            ap = min([1.0] + [0.98 * _max_step(li, dx) for li, dx in zip(Lxi, dX)])
            ad = min([1.0] + [0.98 * _max_step(li, ds) for li, ds in zip(Lsi, dS)])
            if ap < 1e-12 and ad < 1e-12:
                status = "numerical-failure"
                break
            X = [_sym(x + ap * dx) for x, dx in zip(X, dX)]
            S = [_sym(s + ad * ds) for s, ds in zip(S, dS)]
            y = y + ad * dy
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break

    return SdpSolution(
        X=unstack(X), y=y, S=unstack(S),
        primal_obj=history[-1][0], dual_obj=history[-1][1], gap=history[-1][2],
        status=status, iterations=it, history=history,
    )
