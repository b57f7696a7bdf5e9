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
(LMI) side of the standard form, over the coordinates of the Hermitian W,
Q_A, Q_B and Q_C in one orthonormal basis of 8x8 Hermitian matrices (256
rows), with twelve 8x8 Hermitian slack blocks
{W - Q_M^{T_M}, I - W + Q_M^{T_M}, Q_M, I - Q_M}, i.e. P_M and I - P_M
with P_M = W - Q_M^{T_M}. There is no real embedding and no cached
constraint skeleton; the program is assembled per state. Both sides have
a strictly feasible start in closed form (W = I/2, Q_M = I/4), which keeps
every iterate feasible and the duality gap nonnegative throughout.

Every answer carries a bracket lower <= E <= upper built in closed form
from feasible points of the two sides (in the spirit of Jansson, Chaykin &
Keil, SIAM J. Numer. Anal. 46, 180 (2007)): any feasible witness gives a
lower bound and, by weak duality, any feasible primal point an upper bound.
A state that is PPT across one cut is a PPT mixture, so its E is 0
(Jungnitsch, Moroder & Gühne, PRL 106, 190502 (2011)); gmn certifies that
from the partial-transpose spectra it computes anyway and runs no
interior-point iteration (see gmn).

Also here: bipartite negativity and PPT checks, the antidiagonal
coherence-vs-populations inequality for X-shaped states, its closed-form
asymptotic-state specialization, and bisection threshold scans.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import SgadParams, asymptotic_state
from .linalg import BIPARTITIONS, partial_transpose, hermitian_eigenvalues, trace_norm
from .sdp import solve, SdpProblem
from .states import make_noisy, make_pure, validate

GMN_EPS = 1e-6
MARGIN_TOL = 1e-12
XSTATE_PAIRS = ((1, 8), (2, 7), (3, 6), (4, 5))


def negativity(rho, cut):
    """Bipartite negativity across `cut`: trace_norm(rho^{T_M}) - 1."""
    rho = validate(rho)
    return max(0.0, trace_norm(partial_transpose(rho, cut)) - 1.0)


def is_ppt(rho, cut, tol=1e-9):
    """True iff the partial transpose across `cut` has no eigenvalue < -tol."""
    rho = validate(rho)
    return bool(hermitian_eigenvalues(partial_transpose(rho, cut))[0] >= -tol)


# -- SDP assembly ------------------------------------------------------

@lru_cache(maxsize=1)
def _hermitian_basis():
    """Orthonormal basis of the 8x8 Hermitian matrices, tr(H_i H_j) = delta_ij.

    The 8 diagonal units come first, then (E_ij + E_ji)/sqrt(2) and
    i(E_ji - E_ij)/sqrt(2) for each i < j.
    """
    basis = []
    for i in range(8):
        e = np.zeros((8, 8), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    r = 1.0 / math.sqrt(2.0)
    for i in range(8):
        for j in range(i + 1, 8):
            s = np.zeros((8, 8), dtype=complex)
            s[i, j] = s[j, i] = r
            basis.append(s)
            a = np.zeros((8, 8), dtype=complex)
            a[i, j] = -1j * r
            a[j, i] = 1j * r
            basis.append(a)
    basis = np.array(basis)
    basis.flags.writeable = False  # shared by every caller through the cache
    return basis


def _coords(h):
    """Coordinates tr(H_k h) of an 8x8 Hermitian h in the orthonormal basis."""
    return np.einsum("kab,ba->k", _hermitian_basis(), h).real


def _witness_program(rho):
    """The witness SDP for rho as the LMI side of sdp's standard form.

    y holds the coordinates of W, Q_A, Q_B and Q_C (64 rows each, 256 in
    all). Per cut M the four 8x8 slack blocks are

        [W - Q_M^{T_M},  I - W + Q_M^{T_M},  Q_M,  I - Q_M],

    so C = [0, I, 0, I] and b = -tr(H_k rho) on the W rows, 0 on the rest:
    maximizing b^T y minimizes tr(W rho). Returns the problem and a
    strictly feasible start: y0 gives W = I/2 and Q_M = I/4, and X0 on cut
    M is [rho/3 + I/2, I/2, rho^{T_M}/3 + I/2, I/2], which meets the
    equality constraints since tr(H^{T_M} rho) = tr(H rho^{T_M}).
    """
    H = _hermitian_basis()
    zero = np.zeros_like(H)
    eye = np.eye(8)
    A, C, X0 = [], [], []
    for k, cut in enumerate(BIPARTITIONS):
        Ht = partial_transpose(H, cut)

        def rows(w, q):
            return np.concatenate([w] + [q if j == k else zero for j in range(3)])

        A += [rows(-H, Ht), rows(H, -Ht), rows(zero, -H), rows(zero, H)]
        C += [0 * eye, eye, 0 * eye, eye]
        X0 += [rho / 3 + eye / 2, eye / 2, partial_transpose(rho, cut) / 3 + eye / 2, eye / 2]
    b = np.concatenate([-_coords(rho), np.zeros(192)])
    problem = SdpProblem([8] * 12, C, A, b)
    y0 = np.concatenate([_coords(eye / 2)] + [_coords(eye / 4)] * 3)
    S0 = [c - a for c, a in zip(problem.C, problem.adjoint(y0))]
    return problem, (X0, y0, S0)


@dataclass
class GmnReport:
    """Outcome of the genuine-negativity program.

    value is E(rho) = max(0, -2 min tr(W rho)) over the witnesses W of the
    program, and satisfies tr(witness . rho) = -value/2 whenever the state is
    detected. lower <= E <= upper is the certified bracket of gmn: lower
    comes from a feasible witness and upper from a feasible primal point,
    both in closed form. A state that is PPT across some cut gets value 0.0,
    the zero matrix as witness, status "optimal", 0 iterations and the
    bracket [0, 16 eps'] with gap 8 eps' (see gmn). Results with status other
    than "optimal" should not be trusted; their bracket still holds.
    """
    value: float
    witness: np.ndarray
    negativities: dict
    status: str
    gap: float
    iterations: int
    lower: float
    upper: float


def _bracket(problem, sol, y0, rho, ppt_upper):
    """Closed-form bounds lower <= E <= upper around an approximate solution.

    lower: the final y may leave some slack block slightly indefinite. With
    delta its worst negative eigenvalue over the twelve blocks and y0's
    slacks all >= I/4, the mix y' = (1 - theta) y + theta y0 with
    theta = delta / (delta + 1/4) is feasible, so E >= max(0, 2 b^T y').
    upper: put the residual of the W rows, rho - sum_M (X1_M - X2_M), into
    X1_A; set X3_M = (X1_M - X2_M)^{T_M} + X4_M, which clears the Q_M rows;
    then shift each pair (X1_M, X2_M) and (X3_M, X4_M) by t I, which keeps
    their difference, until both are PSD. The point is primal feasible, so
    by weak duality E <= max(0, 2 sum_M tr(X2_M + X4_M)). The PPT point of
    gmn is feasible too, so upper is at most ppt_upper; it stands in for a
    side whose iterate is not finite.
    """
    lower, upper = 0.0, ppt_upper
    slacks = np.array([c - a for c, a in zip(problem.C, problem.adjoint(sol.y))])
    if np.isfinite(slacks).all():
        delta = max(0.0, -float(np.linalg.eigvalsh(slacks)[:, 0].min()))
        theta = delta / (delta + 0.25)
        dual = (1.0 - theta) * float(problem.b @ sol.y) + theta * float(problem.b @ y0)
        lower = max(0.0, 2.0 * dual)
    X = np.array(sol.X).reshape(3, 4, 8, 8).transpose(1, 0, 2, 3).copy()
    X1, X2, X3, X4 = X  # views: the repairs below write into X
    X1[0] += rho - (X1 - X2).sum(axis=0)
    for k, cut in enumerate(BIPARTITIONS):
        X3[k] = partial_transpose(X1[k] - X2[k], cut) + X4[k]
    if np.isfinite(X).all():
        lam = np.linalg.eigvalsh(X)[..., 0]  # (4, 3): matrix, cut
        shift = np.maximum(0.0, -np.minimum(lam[0::2], lam[1::2]))  # (X1, X2) and (X3, X4) per cut
        pobj = float(np.trace(X2 + X4, axis1=1, axis2=2).real.sum()) + 8.0 * float(shift.sum())
        upper = min(upper, max(0.0, 2.0 * pobj))
    return lower, upper


def gmn(rho, *, tol=1e-8, max_iter=100):
    """Genuine negativity of a three-qubit state via the witness SDP.

    The spectra of the three partial transposes give the negativities and
    a PPT certificate. Let lambda be the largest smallest eigenvalue over
    the cuts and eps' = max(0, -lambda). On the best cut M the point
    X1_M = rho, X3_M = rho^{T_M} + eps' I, X4_M = eps' I (all other blocks
    0) is primal feasible: sum_M (X1_M - X2_M) = rho and
    (X1_M - X2_M)^{T_M} = X3_M - X4_M. Its objective tr(X4_M) = 8 eps'
    gives E <= 16 eps', while y = 0 (W = 0, Q_M = 0) is dual feasible with
    objective 0. So when lambda >= -eps with eps = tol/16, the answer is
    value 0.0 with the zero matrix as witness, bracket [0, 16 eps'],
    gap 8 eps', status "optimal" and 0 iterations: 16 eps' <= 16 eps = tol,
    so the bracket is no wider than the tolerance asked of the solve it
    replaces. Every other state is solved by the interior-point method and
    then bracketed in closed form (see _bracket).
    """
    rho = validate(rho)
    spectra = np.linalg.eigvalsh(np.array([partial_transpose(rho, cut) for cut in BIPARTITIONS]))
    negativities = {cut.label: max(0.0, float(np.abs(s).sum()) - 1.0)
                    for cut, s in zip(BIPARTITIONS, spectra)}
    eps_ppt = max(0.0, -float(spectra[:, 0].max()))
    if eps_ppt <= tol / 16.0:
        return GmnReport(value=0.0, witness=np.zeros((8, 8), dtype=complex),
                         negativities=negativities, status="optimal",
                         gap=8.0 * eps_ppt, iterations=0, lower=0.0, upper=16.0 * eps_ppt)
    problem, start = _witness_program(rho)
    sol = solve(problem, tol=tol, max_iter=max_iter, start=start)
    lower, upper = _bracket(problem, sol, start[1], rho, 16.0 * eps_ppt)
    return GmnReport(
        value=max(0.0, 2.0 * sol.dual_obj),
        witness=np.einsum("k,kab->ab", sol.y[:64], _hermitian_basis()),
        negativities=negativities,
        status=sol.status,
        gap=sol.gap,
        iterations=sol.iterations,
        lower=lower,
        upper=upper,
    )


# -- closed-form criteria ----------------------------------------------

@dataclass
class CriterionReport:
    pair: tuple
    lhs: float
    rhs: float
    margin: float
    violated: bool


def xstate_criterion(rho, antidiag_pair):
    """Antidiagonal-coherence test for X-shaped states.

    For the 1-based antidiagonal pair (i, j), compares |rho_ij| against the
    sum over the other three antidiagonal pairs (k, l) of
    sqrt(rho_kk rho_ll). Violation (margin > 1e-12) implies genuine
    multipartite entanglement; the test is necessary and sufficient on
    GHZ-diagonal states but only necessary in general.
    """
    rho = validate(rho)
    pair = (int(antidiag_pair[0]), int(antidiag_pair[1]))
    if pair not in XSTATE_PAIRS:
        raise ValueError(f"antidiagonal pair must be one of {XSTATE_PAIRS}, got {pair}")
    lhs = abs(rho[pair[0] - 1, pair[1] - 1])
    rhs = 0.0
    for k, l in XSTATE_PAIRS:
        if (k, l) == pair:
            continue
        rhs += math.sqrt(max(rho[k - 1, k - 1].real, 0.0) * max(rho[l - 1, l - 1].real, 0.0))
    margin = lhs - rhs
    return CriterionReport(pair=pair, lhs=lhs, rhs=rhs, margin=margin,
                           violated=bool(margin > MARGIN_TOL))


def asymptotic_ghz1_criterion(alpha, n, mu):
    """Closed-form biseparability test for the t -> inf state of a
    GHZ-plus-white-noise mixture under the memory channel.

    Evaluates both sides of

        3 sqrt(u v) >= (n(1+n))^{3/2} alpha (1-mu) / (1+2n)^3,
        u = n^2(1+n)(1-mu)/(1+2n)^3 + mu(1-alpha)/8,
        v = n(1+n)^2(1-mu)/(1+2n)^3 + mu(1-alpha)/8.

    satisfied=True means the inequality holds and the asymptotic state is
    not detected; False is the closed-form counterpart of an xstate_criterion
    violation on pair (1, 8).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if n < 0.0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    den = (1.0 + 2.0 * n) ** 3
    u = n * n * (1.0 + n) * (1.0 - mu) / den + mu * (1.0 - alpha) / 8.0
    v = n * (1.0 + n) ** 2 * (1.0 - mu) / den + mu * (1.0 - alpha) / 8.0
    lhs = 3.0 * math.sqrt(u * v)
    rhs = (n * (1.0 + n)) ** 1.5 * alpha * (1.0 - mu) / den
    return {"satisfied": bool(lhs >= rhs), "lhs": lhs, "rhs": rhs}


# -- threshold location --------------------------------------------------

@dataclass
class ScanResult:
    scan: str
    found: bool
    boundary: float
    bracket: tuple
    lo_value: float
    hi_value: float
    evaluations: int
    status: str


def threshold_scan(family, scan, bracket, *, n=1.0, mu=None, alpha=None,
                   beta=None, asymptotic=False, eps=GMN_EPS, resolution=1e-3,
                   tol=1e-8):
    """Bisect `scan` over `bracket` for the gmn > eps boundary.

    scan is "alpha", "beta" (mixture weight of the chosen family) or "mu"
    (memory weight; requires asymptotic=True since mu only enters through
    the channel). With asymptotic=True each probe state is the t -> inf
    output at bath occupation n; asymptotic maps carry no squeezing
    dependence, so m is not a parameter here. If gmn - eps has the same
    sign at both ends the result has found=False and boundary=nan, which is
    a no-threshold outcome rather than an error. Otherwise the boundary is
    bisected to within `resolution`.

    Each probe is decided by its gmn bracket: lower > eps is above the
    threshold and upper <= eps below. A probe whose bracket straddles eps
    is "undecided" and falls back on value > eps. status is the status of
    the first probe that was not an "optimal", decided one (its solver
    status, or "undecided"), or "optimal" if every probe was; such a probe
    may have decided a bisection step.
    """
    if scan not in ("alpha", "beta", "mu"):
        raise ValueError('scan must be "alpha", "beta" or "mu"')
    if scan == "mu" and not asymptotic:
        raise ValueError("scanning mu requires asymptotic=True")
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution}")

    statuses = []

    def probe(v):
        """(value, above eps) at v."""
        weights = {"alpha": alpha, "beta": beta}
        if scan in weights:
            weights[scan] = v
        weights = {k: w for k, w in weights.items() if w is not None}
        state = make_noisy(family, **weights) if weights else make_pure(family)
        if asymptotic:
            mu_v = v if scan == "mu" else mu
            state = asymptotic_state(state, SgadParams(1.0, float(n), 0.0), float(mu_v))
        report = gmn(state, tol=tol)
        decided = report.lower > eps or report.upper <= eps
        statuses.append(report.status if report.status != "optimal" or decided
                        else "undecided")
        return report.value, report.lower > eps if decided else report.value > eps

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    lo_value, lo_pos = probe(lo)
    hi_value, hi_pos = probe(hi)
    found = lo_pos != hi_pos
    while found and hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if probe(mid)[1] == lo_pos:
            lo = mid
        else:
            hi = mid
    return ScanResult(scan=scan, found=found,
                      boundary=0.5 * (lo + hi) if found else math.nan,
                      bracket=(lo, hi), lo_value=lo_value, hi_value=hi_value,
                      evaluations=len(statuses),
                      status=next((st for st in statuses if st != "optimal"), "optimal"))
