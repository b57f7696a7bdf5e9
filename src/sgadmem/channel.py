"""Squeezed generalized amplitude damping (SGAD) dynamics with channel memory.

Single-qubit convention: sigma_+ = |0><1|, so |0> is the excited level and the
squeezed thermal bath drives each qubit toward diag(n, n+1)/(2n+1). For three
qubits the noise acts either independently on each qubit (the four-operator
damping set, tensored) or collectively through sigma_+/-^(x3) (which has a
closed-form solution and a 6x6 decoherence-free inner block). The memory
parameter mu in [0, 1] convexly mixes the two.

Each map is one superoperator S on the row-major vec(rho)[i*d + j] = rho[i, j],
so an operator set {K} has S = sum_K K x conj(K); the Choi matrix is a
reshuffle of S (Wood, Biamonte & Cory, QIC 15, 759 (2015)). The integrator
builds the Liouvillian L once; on this linear equation one RK4 step is the
matrix T4(hL) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so k steps are T4^k.

Time enters only through the dimensionless products Omega*t and m*Omega*t;
``t = math.inf`` is the asymptotic marker and takes the same code path:
asymptotic_state is apply_memory at t = inf. The two three-qubit maps are
built by cached builders, each a read-only array kept for the last 16
(p, t), so a sweep at one bath builds its two maps once.

The operator set exists only where its radicands are nonnegative; outside
that domain every map built on it, choi_matrix included, raises
CpViolationError. The operator set and the master-equation integrator agree
on populations only. The README gives the account (test c04) and the domain
(Admissibility).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import tensor

RADICAND_TOL = 1e-12
TRACE_TOL = 1e-8

SIGMA_P = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
I2 = np.eye(2, dtype=complex)


class CpViolationError(ValueError):
    """Raised when a Kraus radicand is negative beyond tolerance.

    The damping set is only a valid operator decomposition where all four
    radicands are nonnegative; this fails at small Omega*t for every n
    (and for all t > 0 at n = 0).
    """

    def __init__(self, offenders, n, m, wt, radicands):
        self.offenders = tuple(offenders)
        vals = ", ".join(f"{k}^2={radicands[k]:.6e}" for k in offenders)
        super().__init__(
            f"Kraus radicand(s) negative for {', '.join(offenders)} at "
            f"n={n}, m={m}, Omega*t={wt}: {vals}"
        )


@dataclass(frozen=True)
class SgadParams:
    """Bath parameters: damping rate Omega, thermal photon number n, squeezing m.

    Complete positivity of the generator requires m^2 <= n(n+1).
    """

    omega: float
    n: float
    m: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.omega, self.n, self.m)):
            raise ValueError(f"omega, n and m must be finite, got omega={self.omega}, "
                             f"n={self.n}, m={self.m}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.n < 0 or self.m < 0:
            raise ValueError(f"n and m must be nonnegative, got n={self.n}, m={self.m}")
        if not math.isfinite(2 * self.n + 1):  # every rate and map reads 2n + 1
            raise ValueError(f"n={self.n} is too large: 2n + 1 overflows")
        if self.m * self.m > self.n * (self.n + 1) + RADICAND_TOL:
            raise ValueError(
                f"m^2 <= n(n+1) violated: m^2={self.m**2:.6g} > {self.n*(self.n+1):.6g}"
            )


def _radicands(p, t):
    """Signed radicands k1^2..k4^2 plus the K3/K4 weights xc, xs at time t.

    Uses e^{-(n+1/2 -+ m) Omega t} directly instead of x*cosh/x*sinh so large
    m*Omega*t cannot overflow. At t = inf everything decays to the (a^2, b^2)
    thermal weights.
    """
    n, m = p.n, p.m
    a2 = n / (2 * n + 1)
    b2 = (n + 1) / (2 * n + 1)
    wt = p.omega * t
    ep = math.exp(-(n + 0.5 - m) * wt)  # n + 1/2 > sqrt(n(n+1)) >= m, so this decays
    em = math.exp(-(n + 0.5 + m) * wt)
    x2 = math.exp(-(2 * n + 1) * wt)
    xc = 0.5 * (ep + em)
    xs = 0.5 * (ep - em)
    return {
        "k1": a2 + b2 * x2 - xc,
        "k2": a2 * x2 + b2 - xc,
        "k3": a2 * (1 - x2) - xs,
        "k4": b2 * (1 - x2) - xs,
        "xc": xc,
        "xs": xs,
    }


def kraus_single(p, t):
    """Four-operator damping set K1..K4 at time t, as one (4, 2, 2) array.

    K1 = diag(k1, k2), K2 = antidiag(k3, k4), K3 = sqrt(xc) I, K4 = sqrt(xs) sigma_x.
    Radicands in [-RADICAND_TOL, 0] snap to zero; lower values raise
    CpViolationError naming every offending coefficient.
    """
    if not t >= 0:  # NaN fails this too; t = inf is the asymptote
        raise ValueError(f"t must be nonnegative, got {t}")
    rad = _radicands(p, t)
    # xc and xs are never negative (xs because m >= 0), so only k1..k4 can fail
    offenders = [k for k in ("k1", "k2", "k3", "k4") if rad[k] < -RADICAND_TOL]
    if offenders:
        raise CpViolationError(offenders, p.n, p.m, p.omega * t, rad)
    k1, k2, k3, k4, xc, xs = (math.sqrt(max(rad[k], 0.0)) for k in ("k1", "k2", "k3", "k4", "xc", "xs"))
    return np.array([[[k1, 0.0], [0.0, k2]],
                     [[0.0, k3], [k4, 0.0]],
                     [[xc, 0.0], [0.0, xc]],
                     [[0.0, xs], [xs, 0.0]]], dtype=complex)


def _single_superop(ops):
    """4x4 superoperator sum_K K x conj(K) of a (4, 2, 2) operator set."""
    return np.einsum("kac,kbd->abcd", ops, ops.conj()).reshape(4, 4)


@functools.lru_cache(maxsize=16)
def _correlated_superop(p, t):
    """64x64 superoperator of the collective closed form (see apply_correlated),
    read-only and built once for each of the last 16 (p, t)."""
    if not t >= 0:  # NaN fails this too; t = inf is the asymptote
        raise ValueError(f"t must be nonnegative, got {t}")
    n, m = p.n, p.m
    wt = p.omega * t
    eb = math.exp(-0.5 * (n + 1) * wt)
    es = math.exp(-0.5 * n * wt) if n > 0 else 1.0  # at n = 0 the (s, 8) border does not decay
    e2 = math.exp(-(2 * n + 1) * wt)
    # n + 1/2 - m > 0 whenever m^2 <= n(n+1), so both corner exponents decay
    epm = math.exp(-(n + m + 0.5) * wt)
    emm = math.exp(-(n - m + 0.5) * wt)
    decay = np.ones((8, 8), dtype=complex)  # factor on each rho_ij
    decay[0, 1:7] = decay[1:7, 0] = eb
    decay[7, 1:7] = decay[1:7, 7] = es
    s = np.diag(decay.ravel())
    # corner blocks on the vec indices of (rho_11, rho_88) and (rho_18, rho_81)
    s[np.ix_((0, 63), (0, 63))] = np.array(
        [[n + (n + 1) * e2, n * (1 - e2)],
         [(1 - e2) * (1 + n), 1 + n * (1 + e2)]]) / (2 * n + 1)
    s[np.ix_((7, 56), (7, 56))] = 0.5 * np.array(
        [[epm + emm, epm - emm],
         [epm - emm, epm + emm]])
    s.flags.writeable = False  # shared by every caller through the cache
    return s


@functools.lru_cache(maxsize=16)
def _uncorrelated_superop(p, t):
    """64x64 superoperator of apply_uncorrelated, the single-qubit one
    tensored three times, read-only and built once for each of the last 16
    (p, t); kraus_single raises outside its domain, and a raised call is not
    cached."""
    s = _single_superop(kraus_single(p, t)).reshape(2, 2, 2, 2)  # (row out, col out, row in, col in)
    s = np.einsum("adgj,behk,cfil->abcdefghijkl", s, s, s).reshape(64, 64)
    s.flags.writeable = False  # shared by every caller through the cache
    return s


def _memory_superop(p, t, mu):
    """64x64 superoperator mu * correlated + (1 - mu) * uncorrelated. An
    endpoint reads only the map it uses, so mu = 1 never builds the operator
    set."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    if mu == 1.0:
        return _correlated_superop(p, t)
    if mu == 0.0:
        return _uncorrelated_superop(p, t)
    out = mu * _correlated_superop(p, t)
    out += (1 - mu) * _uncorrelated_superop(p, t)
    return out


def _apply(s, rho):
    """Apply a 64x64 superoperator to an 8x8 matrix or (..., 8, 8) stack, one
    matrix-vector product per state; the map must keep every state's trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"expected (..., 8, 8) three-qubit matrices, got {rho.shape}")
    vec = rho.reshape(*rho.shape[:-2], 64, 1)
    out = s @ vec
    drift = abs((out - vec)[..., ::9, 0].sum(-1))  # every 9th vec entry is on the diagonal
    if (drift > TRACE_TOL).any():
        raise RuntimeError(f"map lost trace: drift {drift.max():.3e}")
    return out.reshape(rho.shape)


def apply_uncorrelated(rho, p, t):
    """Independent per-qubit damping of an 8x8 matrix or (..., 8, 8) stack:
    sum over all 64 tensor products K_a x K_b x K_c.

    Applied as the single-qubit superoperator lifted to three qubits, which is
    the same linear map; a test materializes all 64 products once to pin the
    equivalence.
    """
    return _apply(_uncorrelated_superop(p, t), rho)


def apply_correlated(rho, p, t):
    """Collective damping of an 8x8 matrix or (..., 8, 8) stack, solved in
    closed form.

    The inner 6x6 block (indices 2..7 one-based) is untouched: it is the
    decoherence-free sector of the collective generator. Border elements
    rho_1s / rho_s8 decay with e^{-(n+1)Omega t/2} / e^{-n Omega t/2}; the
    corner 2x2 populations relax toward (n, n+1)/(2n+1) weights and the
    rho_18 coherence splits into two exponentials e^{-(n+1/2 -+ m)Omega t}.
    Trace is preserved. The map is linear; on Hermitian input the rho_81
    line reduces to conj(rho_18).
    """
    return _apply(_correlated_superop(p, t), rho)


def apply_memory(rho, p, t, mu):
    """Convex mixture mu * correlated + (1 - mu) * uncorrelated, applied to an
    8x8 matrix or (..., 8, 8) stack.

    The endpoints short-circuit so that e.g. mu = 1 works at every t even
    where the four-operator set of the unused uncorrelated branch would be
    outside its validity domain.
    """
    return _apply(_memory_superop(p, t, mu), rho)


def asymptotic_state(rho, p, mu):
    """t -> infinity limit of the memory channel on an 8x8 matrix or
    (..., 8, 8) stack: ``apply_memory`` at t = inf.

    Both branches lose all m dependence in the limit. The uncorrelated limit
    is the per-qubit damping by the two surviving operators diag(a, b) and
    antidiag(a, b) (a^2 = n/(2n+1), b^2 = (n+1)/(2n+1)): diagonals land on
    the thermal product and each fully off-diagonal element spreads over all
    eight antidiagonal positions with weight (ab)^3. The correlated limit
    empties the borders and the rho_18 coherence and thermalizes the corner
    populations while leaving the inner block alone.
    """
    return apply_memory(rho, p, math.inf, mu)


@dataclass(frozen=True, eq=False)
class LindbladSpec:
    """Generator specification for the master-equation integrator.

    mode "uncorrelated": three independent single-qubit generators summed.
    mode "correlated":   one collective generator built from sigma_+/-^(x3).
    The squeezing term couples rho to sigma_+ rho sigma_+ + sigma_- rho sigma_-
    with rate Omega*m in both modes. The generator is built once, as the
    64x64 Liouvillian on row-major vec(rho).
    """

    mode: str
    params: SgadParams
    _liouvillian: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("uncorrelated", "correlated"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "correlated":
            raising = [tensor(SIGMA_P, SIGMA_P, SIGMA_P)]
        else:
            raising = [tensor(*(SIGMA_P if k == q else I2 for k in range(3))) for q in range(3)]
        n, m, w = self.params.n, self.params.m, self.params.omega
        eye = np.eye(8)
        gen = np.zeros((64, 64), dtype=complex)  # a rho b is np.kron(a, b.T) on vec(rho)
        for sp in raising:
            sm = sp.conj().T
            pm = sp @ sm  # |excited-pattern><excited-pattern| projector
            mp = sm @ sp
            gen += -0.5 * w * (n + 1) * (np.kron(pm, eye) + np.kron(eye, pm.T) - 2 * np.kron(sm, sp.T))
            gen += -0.5 * w * n * (np.kron(mp, eye) + np.kron(eye, mp.T) - 2 * np.kron(sp, sm.T))
            gen += -w * m * (np.kron(sp, sp.T) + np.kron(sm, sm.T))
        object.__setattr__(self, "_liouvillian", gen)


def integrate_master(rho, lspec, t_final, dt):
    """Fixed-step RK4 integration of the requested generator.

    ``rho`` may carry a leading batch axis (k, 8, 8); all states advance in
    lockstep. The step size must satisfy 0 < dt <= 0.01 / (Omega (2n+1)); the
    actual step is h = t_final / ceil(t_final / dt) so the endpoint is exact.
    The equation is linear, so the steps are applied at once as the RK4 step
    matrix T4(hL) raised to their number, a superoperator that _apply
    checks like every other map. A t_final beyond the integrator's reach,
    with more steps than a float holds or whose step power loses trace, is
    a ValueError naming it.
    """
    if not 0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    p = lspec.params
    bound = 0.01 / (p.omega * (2 * p.n + 1))
    if not 0 < dt <= bound + 1e-15:
        raise ValueError(f"dt={dt} must be positive and within the stability bound {bound:.3e}")
    beyond = f"t_final={t_final} is beyond the integrator's reach at dt={dt:.3e}"
    if t_final / dt == math.inf:
        raise ValueError(f"{beyond}: the step count overflows")
    steps = max(1, math.ceil(t_final / dt))
    hl = (t_final / steps) * lspec._liouvillian
    eye = np.eye(64)
    step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4) / 3) / 2)  # T4(hL), Horner form
    try:
        return _apply(np.linalg.matrix_power(step, steps), rho)
    except RuntimeError as exc:  # the drift of each step adds up
        raise ValueError(f"{beyond}: {exc}") from None


def choi_matrix(p, t, mode, mu=0.0):
    """Choi matrix (I x Phi) applied to the maximally entangled projector.

    mode "uncorrelated-single": 4x4, single-qubit damping set.
    mode "correlated-3q":       64x64, collective closed form.
    mode "memory-3q":           64x64, mu-mixture of the two three-qubit maps.

    Built as the reshuffle of the map's superoperator S:
    choi[i*d + a, j*d + b] = S[a*d + b, i*d + j] / d.
    The map is completely positive iff the matrix is positive semidefinite;
    the CLI's validate passes it at a minimum eigenvalue >= -1e-10. It is
    read from the same builders as the maps, so a mode that reads the
    operator set ("uncorrelated-single", and "memory-3q" at mu < 1) raises
    CpViolationError outside its domain, as kraus_single does.
    """
    if mode == "uncorrelated-single":
        s, dim = _single_superop(kraus_single(p, t)), 2
    elif mode == "correlated-3q":
        s, dim = _correlated_superop(p, t), 8
    elif mode == "memory-3q":
        s, dim = _memory_superop(p, t, mu), 8
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return s.reshape(dim, dim, dim, dim).transpose(2, 0, 3, 1).reshape(dim * dim, dim * dim) / dim
