"""Genuine multipartite entanglement detection for three qubits.

The central quantity is the genuine negativity E(rho): the state is tested
against mixtures of states that are PPT across the cuts A|BC, B|AC, C|AB by
minimizing tr(W rho) over fully decomposable witnesses,

    W = P_M + Q_M^{T_M},  0 <= P_M <= I,  0 <= Q_M <= I,  for every cut M,

and reporting E = max(0, -2 optimum). Both variable families are
box-constrained; with the factor-2 rescale this normalization puts pure GHZ
states exactly at 1. E > 0 certifies genuine multipartite entanglement;
E = 0 means the state admits a PPT-mixture decomposition (or sits on the
boundary), which for three qubits is the standard relaxation of
biseparability.

The SDP is solved in-house (sdp module) in its native form: the dual
(LMI) side of the standard form, over the coordinates of W, Q_A, Q_B and
Q_C in the normalized Pauli basis (256 rows), with twelve 8x8 Hermitian
slack blocks, P_M and I - P_M with P_M = W - Q_M^{T_M}, and Q_M and
I - Q_M. Only b and the start's X0 depend on the state. _WitnessProgram
derives the program and states the arrow algebra of its real Schur
system. Both sides have a strictly feasible start in closed form
(W = I/2, Q_M = I/4), which keeps every iterate feasible and the duality
gap nonnegative throughout.

Every answer carries a bracket lower <= E <= upper in closed form (in the
spirit of Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 46, 180 (2007)),
and a state that is PPT across one cut, a PPT mixture with E = 0
(Jungnitsch, Moroder & Gühne, PRL 106, 190502 (2011)), runs no
interior-point iteration; see _bracket.

Also here: bipartite negativity, the antidiagonal coherence-vs-populations
inequality for X-shaped states (xstate_criterion, one CriterionReport per
antidiagonal pair), and a bisection for the gmn threshold along a line of
states. This module builds no state: the scan takes its states from the
caller, so nothing here depends on the channel module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import BIPARTITIONS, partial_transpose, trace_norm
from .sdp import solve
from .states import validate

GMN_EPS = 1e-6
MARGIN_TOL = 1e-12
XSTATE_PAIRS = ((1, 8), (2, 7), (3, 6), (4, 5))


def negativity(rho, cut):
    """Bipartite negativity across `cut`: trace_norm(rho^{T_M}) - 1."""
    rho = validate(rho)
    return max(0.0, trace_norm(partial_transpose(rho, cut)) - 1.0)


# -- SDP assembly ------------------------------------------------------

_PHASE = np.array([1.0, 1j, -1.0, -1j])  # i^n for n = 0..3
_POPCOUNT = np.array([0, 1, 1, 2, 1, 2, 2, 3])  # set bits of 0..7
_WALSH = 1.0 - 2.0 * (_POPCOUNT[np.arange(8)[:, None] & np.arange(8)] % 2)  # (-1)^{z.b}


# The Pauli basis H_k of _WitnessProgram as _T, the 64x64 unitary whose
# column k is the row-major vec(H_k), and the partial transposes as the signs
# _S (3, 64) with H_k^{T_M} = _S[M, k] H_k.
_k = np.arange(64)
_x, _z, _b = _k // 8, _k % 8, np.arange(8)
_H = np.zeros((64, 8, 8), dtype=complex)
_H[_k[:, None], _b ^ _x[:, None], _b] = _PHASE[_POPCOUNT[_x & _z]][:, None] * (_WALSH[_z] / math.sqrt(8.0))
_T = _H.reshape(64, 64).T.copy()
# tr(H_k^{T_M} H_k^H) = _S[M, k], exactly +-1 after rounding, since tr(H_k H_k^H) = 1
_S = np.rint(np.array([(partial_transpose(_H, cut) * _H.conj()).sum(axis=(1, 2)).real
                       for cut in BIPARTITIONS]))
# rho.reshape(64)[_PT_INDEX] is the (3, 8, 8) stack of rho's partial
# transposes, one per cut of BIPARTITIONS
_PT_INDEX = np.array([partial_transpose(np.arange(64).reshape(8, 8), cut) for cut in BIPARTITIONS])

# The gathers, the output map and the signs s_M[k] s_M[k'] of
# _WitnessProgram.arrow.
_x, _xp = np.triu_indices(8)  # the 36 pairs x <= x'
_b, _d = np.divmod(np.arange(64), 8)
_LEFT = _d[:, None] * 8 + (_b[:, None] ^ _x)  # W[d, b ^ x], (64, 36)
_RIGHT = _b[:, None] * 8 + (_d[:, None] ^ _xp)  # W[b, d ^ x']
_pair = np.empty((8, 8), dtype=int)
_pair[_x, _xp] = _pair[_xp, _x] = np.arange(36)
_X, _Z, _Xp, _Zp = np.ix_(*[np.arange(8)] * 4)
_n = _POPCOUNT[_X & _Z] + _POPCOUNT[_Xp & _Zp]  # the phase i^n of H_k H_k'
_zz = np.where(_X <= _Xp, 8 * _Z + _Zp, 8 * _Zp + _Z)  # the pair (x', x) is read transposed
# B[k, k'] of one block pair reads its G[(z, z'), pair, re/im]
_SRC = ((_zz * 36 + _pair[_X, _Xp]) * 2 + _n % 2).reshape(64, 64)
# Re(i^n G) is Re G, -Im G, -Re G, Im G for n = 0..3
_SIGN = (np.array([1.0, -1.0, -1.0, 1.0])[_n % 4] / 8.0).reshape(64, 64)
_SS = _S[:, :, None] * _S[:, None, :]
for _table in (_T, _S, _PT_INDEX, _LEFT, _RIGHT, _SRC, _SIGN, _SS):
    _table.flags.writeable = False  # shared by every program
del _k, _x, _z, _b, _H, _xp, _d, _pair, _X, _Z, _Xp, _Zp, _n, _zz, _table


def _tril_inv(L):
    """Inverses of the lower triangular matrices L (..., n, n), n a power of
    two, by halves as LAPACK's trtri does: [[A, 0], [C, D]]^{-1} =
    [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]. np.linalg.inv, which runs a
    full LU factorization of each matrix, takes over at n = 16; above that,
    the halving moves most of the work into matrix products. Above n = 16
    the inverses are written over L."""
    n = L.shape[-1]
    if n <= 16:
        return np.linalg.inv(L)
    h = n // 2
    Ai, Di = _tril_inv(np.stack([L[..., :h, :h], L[..., h:, h:]]))
    L[..., h:, :h] = -Di @ L[..., h:, :h] @ Ai
    L[..., :h, :h], L[..., h:, h:] = Ai, Di
    return L


def _coords(v):
    """Coordinates tr(H_k h) of Hermitian matrices h given as vecs v (..., 64)."""
    return (v @ _T.conj()).real


# C = [0, I, 0, I] on every cut, the same for every program (the start's y0
# and S0 follow the class)
_C = np.array([np.zeros((8, 8)), np.eye(8)] * 6)


class _WitnessProgram:
    """The witness SDP for rho as the LMI side of sdp's standard form.

    y holds the coordinates of W, Q_A, Q_B and Q_C (64 rows each, 256 in
    all) in the normalized Pauli basis H_k = i^{|x & z|} X^x Z^z / sqrt(8),
    k = 8x + z, with x and z 3-bit strings (qubit A the top bit). The H_k
    are Hermitian with tr(H_i H_j) = delta_ij and entries

        H_k[a, b] = i^{|x & z|} (-1)^{z.b} [a = b ^ x] / sqrt(8).

    Each qubit factor of H_k is I, X, Z or Y, and only Y changes sign when
    transposed, so H_k^{T_M} = s_M[k] H_k with s_M[k] = (-1)^{x_q z_q} for
    the qubit q of cut M; the module reads the signs _S off
    partial_transpose as s_M[k] = tr(H_k^{T_M} H_k^H). Per cut M the four
    8x8 slack blocks are

        [W - Q_M^{T_M},  I - W + Q_M^{T_M},  Q_M,  I - Q_M],

    so C = [0, I, 0, I] and b = -tr(H_k rho) on the W rows, 0 on the rest:
    maximizing b^T y minimizes tr(W rho). No coefficient matrix is stored:
    each one is +-H_k or +-s_M[k] H_k, so apply and adjoint are the map _T
    and the signs _S, both built at import.

    The Schur complement M_ij = sum_b tr(A_i W_b A_j W_b) is real. Let
    B_b[k, k'] = tr(H_k W_b H_k' W_b), and on cut M let P_M = B_P1 + B_P2
    over its two P blocks and Q_M = B_Q1 + B_Q2 over its two Q blocks. With
    S_M = diag(s_M), M is an arrow matrix of 64x64 blocks:

        M_WW = sum_M P_M,   M_{W,Q_M} = -P_M S_M,
        M_{Q_M,Q_M} = S_M P_M S_M + Q_M,   M_{Q_M,Q_N} = 0 for M != N.

    From the entries of H_k, with k' = 8x' + z' and phase i^n,
    n = |x & z| + |x' & z'|,

        B[k, k'] = Re(i^n sum_{b,d} (-1)^{z.b + z'.d} F[x, x', b, d]) / 8,
        F[x, x', b, d] = W[b, d ^ x'] W[d, b ^ x]

    (B is real, so Re only discards rounding). So arrow gathers F from W
    for the 36 pairs x <= x' (B is symmetric, and the pair (x', x) gives
    the transposed entries), adds it over the two P and the two Q blocks of
    each cut, and applies the Walsh-Hadamard matrix (-1)^{z.b} along b and
    along d to its real and imaginary parts at once, as real matrix
    products. Each entry then reads the real or imaginary part, by the
    parity of n, with the sign of Re(i^n).

    The ridged system is solved by eliminating the three Q_M blocks, from
    real Cholesky factors L_M of M_{Q_M,Q_M} + ridge I and of the reduced
    complement M_WW + ridge I - sum_M G_M^T G_M, G_M = L_M^{-1} M_{Q_M,W}.
    M + ridge I is positive definite exactly when all four factors exist.

    arrow builds one block pair at a time, and arrow and factor write their
    64x64 blocks into arrays the program holds: a result is valid until the
    next call. So no iteration allocates an array larger than 96 KB, and
    the heap it frees is reused instead of handed back to the OS and paged
    in again.
    """

    C = _C
    # read only by the benchmark's tracer; it goes with the benchmark's next change
    block_dims = [8] * 12

    def __init__(self, rho):
        self.b = np.concatenate([-_coords(rho.reshape(64)), np.zeros(192)])
        # overwritten by every call: arrow's blocks, and factor's ridged blocks and G
        self._arrow = np.empty((64, 64)), np.empty((3, 64, 64)), np.empty((3, 64, 64))
        self._factor = np.empty((3, 64, 64)), np.empty((192, 64))

    def apply(self, X):
        X = X.reshape(3, 4, 64)
        c = _coords(np.concatenate([X[:, 0] - X[:, 1], X[:, 3] - X[:, 2]]))
        return np.concatenate([-c[:3].sum(axis=0), _S * c[:3] + c[3:]], axis=None)

    @staticmethod
    def adjoint(y):
        y = y.reshape(4, 64)
        v = np.concatenate([_S * y[1:] - y[0], y[1:]]) @ _T.T  # vec(Q_M^{T_M} - W), vec(Q_M)
        P, Q = v[:3], v[3:]
        return np.stack([P, -P, -Q, Q], axis=1).reshape(12, 8, 8)

    def arrow(self, W):
        """The blocks M_WW (64, 64), M_{W,Q_M} and M_{Q_M,Q_M} (3, 64, 64)
        of M at the NT points W (12, 8, 8), in the program's arrays."""
        MWW, MWQ, MQQ = self._arrow
        MWW.fill(0.0)
        Wv = np.ascontiguousarray(W.reshape(6, 2, 64).swapaxes(1, 2))  # [block pair, entry, block]
        for c in range(3):
            P, Q = MWQ[c], MQQ[c]
            for j, B in enumerate((P, Q)):  # one block pair at a time keeps every temporary small
                F = np.take(Wv[2 * c + j], _LEFT, axis=0)  # [(b, d), pair, block]
                F *= np.take(Wv[2 * c + j], _RIGHT, axis=0)
                F = (F[..., 0] + F[..., 1]).view(float).reshape(8, 8, 72)  # [b, d, (pair, re/im)]
                np.take(_WALSH @ (_WALSH @ F).reshape(8, -1), _SRC, out=B)
                B *= _SIGN
            MWW += P
            Q += P * _SS[c]
            P *= -_S[c]
        return MWW, MWQ, MQQ

    def schur(self, W):
        """tr M and factor at the NT points W (see the sdp module), by
        arrow elimination on M."""
        MWW, MWQ, MQQ = self.arrow(W)

        def factor(ridge):
            A, G = self._factor
            eye = ridge * np.eye(64)
            Li = _tril_inv(np.linalg.cholesky(np.add(MQQ, eye, out=A)))
            np.matmul(Li, MWQ.swapaxes(1, 2), out=G.reshape(3, 64, 64))  # the L_M^{-1} M_{Q_M,W}
            np.subtract(np.add(MWW, eye, out=A[0]), np.matmul(G.T, G, out=A[1]), out=A[0])
            Ri = _tril_inv(np.linalg.cholesky(A[0]))

            def solve_schur(r):
                r = r.reshape(4, 64)
                u = (Li @ r[1:, :, None]).ravel()
                xw = Ri.T @ (Ri @ (r[0] - G.T @ u))
                xq = (Li.swapaxes(1, 2) @ (u - G @ xw).reshape(3, 64, 1))[..., 0]
                return np.concatenate([xw, xq], axis=None)

            return solve_schur

        trace = np.trace(MWW) + np.trace(MQQ, axis1=1, axis2=2).sum()
        return float(trace), factor


# The start's dual side, the same for every state: y0 gives W = I/2 and
# Q_M = I/4, and S0 = C - adjoint(y0)
_Y0 = _coords(np.array([np.eye(8) / 2] + [np.eye(8) / 4] * 3).reshape(4, 64)).ravel()
_S0 = _C - _WitnessProgram.adjoint(_Y0)
_C.flags.writeable = _Y0.flags.writeable = _S0.flags.writeable = False  # shared by every program


def _witness_program(rho):
    """The witness program for rho and a strictly feasible start (X0, _Y0,
    _S0): X0 on cut M is [rho/3 + I/2, I/2, rho^{T_M}/3 + I/2, I/2], which
    meets the equality constraints since tr(H^{T_M} rho) = tr(H rho^{T_M})."""
    eye = np.eye(8)
    X0 = np.array([[rho / 3 + eye / 2, eye / 2, pt / 3 + eye / 2, eye / 2]
                   for pt in rho.reshape(64)[_PT_INDEX]])
    return _WitnessProgram(rho), (X0.reshape(12, 8, 8), _Y0, _S0)


@dataclass
class GmnReport:
    """Outcome of the genuine-negativity program.

    value is E(rho) = max(0, -2 min tr(W rho)) over the witnesses W of the
    program, and satisfies tr(witness . rho) = -value/2 whenever the state is
    detected. lower <= E <= upper is the certified bracket (see _bracket).
    Results with status other than "optimal" should not be trusted; their
    bracket still holds. xstate is xstate_criterion's list of four
    CriterionReports, read off the same validated copy of the state.
    """
    value: float
    witness: np.ndarray
    negativities: dict
    status: str
    gap: float
    iterations: int
    lower: float
    upper: float
    xstate: list


def _bracket(problem, sol, rho, ppt_upper):
    """The certified bracket lower <= E <= upper of gmn, in closed form: a
    feasible witness gives a lower bound and, by weak duality, a feasible
    primal point an upper bound.

    PPT: with lambda the largest smallest eigenvalue of rho^{T_M} over the
    cuts and eps' = max(0, -lambda), the point X1_M = rho,
    X3_M = rho^{T_M} + eps' I, X4_M = eps' I on the best cut M (all other
    blocks 0) is primal feasible, since sum_M (X1_M - X2_M) = rho and
    (X1_M - X2_M)^{T_M} = X3_M - X4_M. Its objective tr(X4_M) = 8 eps'
    gives E <= ppt_upper = 16 eps', and y = 0 (W = 0, Q_M = 0) is dual
    feasible with objective 0. gmn returns [0, 16 eps'] (gap 8 eps') with
    no iteration when 16 eps' <= tol, the width asked of the solve it
    replaces. Otherwise, around its approximate solution sol:

    lower: the final y may leave some slack block slightly indefinite. With
    delta its worst negative eigenvalue over the twelve blocks and the
    start _Y0's slacks all >= I/4, the mix y' = (1 - theta) y + theta _Y0
    with theta = delta / (delta + 1/4) is feasible, so E >= max(0, 2 b^T y').
    upper: put the residual of the W rows, rho - sum_M (X1_M - X2_M), into
    X1_A; set X3_M = (X1_M - X2_M)^{T_M} + X4_M, which clears the Q_M rows;
    then shift each pair (X1_M, X2_M) and (X3_M, X4_M) by t I, which keeps
    their difference, until both are PSD. The point is primal feasible, so
    by weak duality E <= max(0, 2 sum_M tr(X2_M + X4_M)). upper is at most
    ppt_upper, which stands in for a side whose iterate is not finite.
    """
    lower, upper = 0.0, ppt_upper
    slacks = problem.C - problem.adjoint(sol.y)
    if np.isfinite(slacks).all():
        delta = max(0.0, -float(np.linalg.eigvalsh(slacks)[:, 0].min()))
        theta = delta / (delta + 0.25)
        dual = (1.0 - theta) * float(problem.b @ sol.y) + theta * float(problem.b @ _Y0)
        lower = max(0.0, 2.0 * dual)
    X = sol.X.reshape(3, 4, 8, 8).transpose(1, 0, 2, 3).copy()
    X1, X2, X3, X4 = X  # views: the repairs below write into X
    X1[0] += rho - (X1 - X2).sum(axis=0)
    X3[:] = (X1 - X2).reshape(3, 64)[np.arange(3)[:, None, None], _PT_INDEX] + X4
    if np.isfinite(X).all():
        lam = np.linalg.eigvalsh(X)[..., 0]  # (4, 3): matrix, cut
        shift = np.maximum(0.0, -np.minimum(lam[0::2], lam[1::2]))  # (X1, X2) and (X3, X4) per cut
        pobj = float(np.trace(X2 + X4, axis1=1, axis2=2).real.sum()) + 8.0 * float(shift.sum())
        upper = min(upper, max(0.0, 2.0 * pobj))
    return lower, upper


def gmn(rho, *, tol=1e-8):
    """Genuine negativity of a three-qubit state via the witness SDP.

    rho is validated once. The spectra of its three partial transposes,
    taken in one gather and one eigensolve, give the negativities and the
    PPT bracket of _bracket; when it is narrow enough, the answer is value
    0.0 with the zero matrix as witness, status "optimal" and 0 iterations.
    Every other state is solved by the interior-point method, within
    solve's default iteration cap, and then bracketed by _bracket. The
    report also carries xstate_criterion's four reports on the validated
    copy. tol must be finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    rho = validate(rho)
    xstate = _xstate_reports(rho)
    spectra = np.linalg.eigvalsh(rho.reshape(64)[_PT_INDEX])
    negativities = {cut.label: max(0.0, float(total) - 1.0)
                    for cut, total in zip(BIPARTITIONS, np.abs(spectra).sum(axis=1))}
    eps_ppt = max(0.0, -float(spectra[:, 0].max()))
    if eps_ppt <= tol / 16.0:
        return GmnReport(value=0.0, witness=np.zeros((8, 8), dtype=complex),
                         negativities=negativities, status="optimal",
                         gap=8.0 * eps_ppt, iterations=0, lower=0.0, upper=16.0 * eps_ppt,
                         xstate=xstate)
    problem, start = _witness_program(rho)
    sol = solve(problem, tol=tol, start=start)
    lower, upper = _bracket(problem, sol, rho, 16.0 * eps_ppt)
    return GmnReport(
        value=max(0.0, 2.0 * sol.dual_obj),
        witness=(_T @ sol.y[:64]).reshape(8, 8),
        negativities=negativities,
        status=sol.status,
        gap=sol.gap,
        iterations=sol.iterations,
        lower=lower,
        upper=upper,
        xstate=xstate,
    )


# -- closed-form criteria ----------------------------------------------

@dataclass
class CriterionReport:
    """One antidiagonal pair's test: every biseparable state has
    lhs <= rhs, and violated means margin = lhs - rhs > MARGIN_TOL."""
    lhs: float
    rhs: float
    margin: float
    violated: bool


def xstate_criterion(rho):
    """Antidiagonal-coherence test for X-shaped states, on every pair.

    For each 1-based antidiagonal pair (i, j) of XSTATE_PAIRS, in order,
    compares lhs = |rho_ij| against rhs, the sum over the other three pairs
    (k, l) of sqrt(rho_kk rho_ll). Every biseparable state satisfies
    lhs <= rhs on every pair (Gühne & Seevinck, NJP 12, 053002 (2010)), so
    for every state a violation (margin = lhs - rhs > MARGIN_TOL) on any
    pair implies genuine multipartite entanglement. Satisfying all four is
    necessary for biseparability, not sufficient in general; on
    GHZ-diagonal states it is sufficient too. rho is validated once, and
    the four reports are read off the validated copy; gmn's report carries
    the same four.
    """
    return _xstate_reports(validate(rho))


_ANTI = tuple(np.array(XSTATE_PAIRS).T - 1)  # 0-based rows and columns of the coherences


def _xstate_reports(rho):
    """xstate_criterion's four reports on a validated rho, which is read
    once: its diagonal and its four coherences, as Python floats."""
    diag = [max(d, 0.0) for d in rho.diagonal().real.tolist()]
    pops = [math.sqrt(diag[k - 1] * diag[l - 1]) for k, l in XSTATE_PAIRS]
    return [_criterion(lhs, sum(pops[:i] + pops[i + 1:]))
            for i, lhs in enumerate(map(abs, rho[_ANTI].tolist()))]


def _criterion(lhs, rhs):
    margin = lhs - rhs
    return CriterionReport(lhs=lhs, rhs=rhs, margin=margin, violated=bool(margin > MARGIN_TOL))


# -- threshold location --------------------------------------------------

@dataclass
class ScanResult:
    found: bool
    boundary: float
    bracket: tuple
    lo_value: float
    hi_value: float
    evaluations: int
    status: str


def threshold_scan(state_at, bracket, *, resolution=1e-3, tol=1e-8):
    """Bisect v over `bracket` for the gmn > GMN_EPS boundary of the states
    state_at(v).

    state_at maps a float to a three-qubit state; the scans of the paper
    run along affine lines of states, a mixture weight or the memory weight
    of the t -> inf state. If gmn - GMN_EPS has the same sign at both ends
    the result has found=False and boundary=nan, which is a no-threshold
    outcome rather than an error. Otherwise the boundary is bisected to
    within `resolution`, or to two adjacent floats if that is finer than
    their spacing.

    Each probe is decided by its gmn bracket: lower > GMN_EPS is above the
    threshold and upper <= GMN_EPS below. A probe whose bracket straddles
    GMN_EPS is "undecided" and falls back on value > GMN_EPS. status is the
    status of the first probe that was not an "optimal", decided one (its
    solver status, or "undecided"), or "optimal" if every probe was; such a
    probe may have decided a bisection step.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution}")

    statuses = []

    def probe(v):
        """(value, above GMN_EPS) at v."""
        report = gmn(state_at(v), tol=tol)
        decided = report.lower > GMN_EPS or report.upper <= GMN_EPS
        statuses.append(report.status if report.status != "optimal" or decided
                        else "undecided")
        return report.value, report.lower > GMN_EPS if decided else report.value > GMN_EPS

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    lo_value, lo_pos = probe(lo)
    hi_value, hi_pos = probe(hi)
    found = lo_pos != hi_pos
    # below the float spacing the midpoint of two adjacent ends is one of them
    while found and hi - lo > resolution and math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if probe(mid)[1] == lo_pos:
            lo = mid
        else:
            hi = mid
    return ScanResult(found=found,
                      boundary=0.5 * (lo + hi) if found else math.nan,
                      bracket=(lo, hi), lo_value=lo_value, hi_value=hi_value,
                      evaluations=len(statuses),
                      status=next((st for st in statuses if st != "optimal"), "optimal"))
