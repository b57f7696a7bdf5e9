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
        Ht = np.array([partial_transpose(h, cut) for h in H])

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

    value is E(rho) = max(0, -2 optimum) and satisfies tr(witness . rho) =
    -value/2 whenever the state is detected. Results with status other than
    "optimal" should not be trusted.
    """
    value: float
    witness: np.ndarray
    negativities: dict
    status: str
    optimum: float
    gap: float
    iterations: int


def gmn(rho, *, tol=1e-8, max_iter=100):
    """Genuine negativity of a three-qubit state via the witness SDP."""
    rho = validate(rho)
    problem, start = _witness_program(rho)
    sol = solve(problem, tol=tol, max_iter=max_iter, start=start)
    negativities = {
        cut.label: max(0.0, trace_norm(partial_transpose(rho, cut)) - 1.0)
        for cut in BIPARTITIONS
    }
    return GmnReport(
        value=max(0.0, 2.0 * sol.dual_obj),
        witness=np.einsum("k,kab->ab", sol.y[:64], _hermitian_basis()),
        negativities=negativities,
        status=sol.status,
        optimum=-sol.dual_obj,
        gap=sol.gap,
        iterations=sol.iterations,
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
    bisected to within `resolution`. status is the solver status of the
    first probe that did not end "optimal", or "optimal" if all did; a
    non-optimal probe may have decided a bisection step.
    """
    if scan not in ("alpha", "beta", "mu"):
        raise ValueError('scan must be "alpha", "beta" or "mu"')
    if scan == "mu" and not asymptotic:
        raise ValueError("scanning mu requires asymptotic=True")

    statuses = []

    def gmn_at(v):
        weights = {"alpha": alpha, "beta": beta}
        if scan in weights:
            weights[scan] = v
        weights = {k: w for k, w in weights.items() if w is not None}
        state = make_noisy(family, **weights) if weights else make_pure(family)
        if asymptotic:
            mu_v = v if scan == "mu" else mu
            state = asymptotic_state(state, SgadParams(1.0, float(n), 0.0), float(mu_v))
        report = gmn(state, tol=tol)
        statuses.append(report.status)
        return report.value

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    lo_value = gmn_at(lo)
    hi_value = gmn_at(hi)
    lo_pos = lo_value > eps
    found = lo_pos != (hi_value > eps)
    while found and hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if (gmn_at(mid) > eps) == lo_pos:
            lo = mid
        else:
            hi = mid
    return ScanResult(scan=scan, found=found,
                      boundary=0.5 * (lo + hi) if found else math.nan,
                      bracket=(lo, hi), lo_value=lo_value, hi_value=hi_value,
                      evaluations=len(statuses),
                      status=next((st for st in statuses if st != "optimal"), "optimal"))
