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
``t = math.inf`` is the asymptotic marker and takes the same code path.

A caveat that matters when comparing against the master-equation integrator:
the four-operator damping set reproduces the generator's populations exactly
but NOT its coherences (the decay factors k1*k2 + xc and k3*k4 + xs differ
from the generator's xc and -xs). ``apply_uncorrelated`` implements the
operator set as printed; ``integrate_master`` implements the generator. They
agree on the diagonal sector only. See README for the full account.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import tensor

RADICAND_TOL = 1e-12
TRACE_TOL = 1e-8

SIGMA_P = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
SIGMA_M = SIGMA_P.conj().T
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class CpViolationError(ValueError):
    """Raised when a Kraus radicand is negative beyond tolerance.

    The damping set is only a valid operator decomposition where all four
    radicands are nonnegative; this fails at small Omega*t for every n
    (and for all t > 0 at n = 0).
    """

    def __init__(self, offenders, n, m, wt, radicands):
        self.offenders = tuple(offenders)
        self.params = (n, m, wt)
        self.radicands = dict(radicands)
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


def _kraus_from(rad):
    """[K1, K2, K3, K4] from radicands, each clamped at zero."""
    k1, k2, k3, k4, xc, xs = (math.sqrt(max(rad[k], 0.0)) for k in ("k1", "k2", "k3", "k4", "xc", "xs"))
    return [
        np.array([[k1, 0.0], [0.0, k2]], dtype=complex),
        np.array([[0.0, k3], [k4, 0.0]], dtype=complex),
        xc * I2,
        xs * SIGMA_X,
    ]


def kraus_single(p, t):
    """Four-operator damping set [K1, K2, K3, K4] at time t.

    K1 = diag(k1, k2), K2 = antidiag(k3, k4), K3 = sqrt(xc) I, K4 = sqrt(xs) sigma_x.
    Radicands in [-RADICAND_TOL, 0] snap to zero; lower values raise
    CpViolationError naming every offending coefficient.
    """
    if not t >= 0:  # NaN fails this too; t = inf is the asymptote
        raise ValueError(f"t must be nonnegative, got {t}")
    rad = _radicands(p, t)
    offenders = [k for k in ("k1", "k2", "k3", "k4", "xc", "xs") if rad[k] < -RADICAND_TOL]
    if offenders:
        raise CpViolationError(offenders, p.n, p.m, p.omega * t, rad)
    return _kraus_from(rad)


def _lift(op, q):
    """Embed a single-qubit operator on qubit q of three."""
    mats = [I2, I2, I2]
    mats[q] = op
    return tensor(mats[0], tensor(mats[1], mats[2]))


def _single_superop(p, t, clamp=False):
    """4x4 superoperator sum_K K x conj(K) of the single-qubit damping set.

    With clamp=True, radicands outside the validity domain are clamped at zero
    with a UserWarning (still CP, no longer trace preserving) instead of raising.
    """
    try:
        ops = kraus_single(p, t)
    except CpViolationError as exc:
        if not clamp:
            raise
        warnings.warn(
            f"Kraus radicands clamped to zero for {', '.join(exc.offenders)} at "
            f"n={p.n}, m={p.m}, Omega*t={p.omega * t}: outside the operator "
            "set's validity domain, map is not trace preserving there",
            UserWarning,
            stacklevel=3,
        )
        ops = _kraus_from(exc.radicands)
    return sum(np.kron(K, K.conj()) for K in ops)


def _correlated_superop(p, t):
    """64x64 superoperator of the collective closed form (see apply_correlated)."""
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
    return s


def _memory_superop(p, t, mu, clamp=False):
    """64x64 superoperator of apply_memory; mu = 1 never builds the operator set."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    if mu == 1.0:
        return _correlated_superop(p, t)
    s = _single_superop(p, t, clamp).reshape(2, 2, 2, 2)  # (row out, col out, row in, col in)
    unc = np.einsum("adgj,behk,cfil->abcdefghijkl", s, s, s).reshape(64, 64)  # s on each qubit
    if mu == 0.0:
        return unc
    return mu * _correlated_superop(p, t) + (1 - mu) * unc


def _apply(s, rho):
    """Apply a 64x64 superoperator to an 8x8 matrix; the map must keep the trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit matrix, got {rho.shape}")
    out = (s @ rho.reshape(64)).reshape(8, 8)
    drift = abs(np.trace(out) - np.trace(rho))
    if drift > TRACE_TOL:
        raise RuntimeError(f"map lost trace: drift {drift:.3e}")
    return out


def apply_uncorrelated(rho, p, t):
    """Independent per-qubit damping: sum over all 64 tensor products K_a x K_b x K_c.

    Applied as the single-qubit superoperator lifted to three qubits, which is
    the same linear map; a test materializes all 64 products once to pin the
    equivalence.
    """
    return _apply(_memory_superop(p, t, 0.0), rho)


def apply_correlated(rho, p, t):
    """Collective damping, solved in closed form.

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
    """Convex mixture: mu * correlated + (1 - mu) * uncorrelated.

    The endpoints short-circuit so that e.g. mu = 1 works at every t even
    where the four-operator set of the unused uncorrelated branch would be
    outside its validity domain.
    """
    return _apply(_memory_superop(p, t, mu), rho)


def asymptotic_state(rho, p, mu):
    """t -> infinity limit of the memory channel: ``apply_memory`` at t = inf.

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
            sp = tensor(SIGMA_P, tensor(SIGMA_P, SIGMA_P))
            pairs = [(sp, sp.conj().T)]
        else:
            pairs = [(_lift(SIGMA_P, q), _lift(SIGMA_M, q)) for q in range(3)]
        n, m, w = self.params.n, self.params.m, self.params.omega
        eye = np.eye(8)
        gen = np.zeros((64, 64), dtype=complex)  # a rho b is np.kron(a, b.T) on vec(rho)
        for sp, sm in pairs:
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
    matrix T4(hL) raised to their number.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"expected (..., 8, 8) states, got {rho.shape}")
    if not 0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    p = lspec.params
    bound = 0.01 / (p.omega * (2 * p.n + 1))
    if not 0 < dt <= bound + 1e-15:
        raise ValueError(f"dt={dt} must be positive and within the stability bound {bound:.3e}")
    steps = max(1, math.ceil(t_final / dt))
    hl = (t_final / steps) * lspec._liouvillian
    eye = np.eye(64)
    step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4) / 3) / 2)  # T4(hL), Horner form
    prop = np.linalg.matrix_power(step, steps)
    out = (rho.reshape(*rho.shape[:-2], 64) @ prop.T).reshape(rho.shape)
    tr_in = np.trace(rho, axis1=-2, axis2=-1)
    tr_out = np.trace(out, axis1=-2, axis2=-1)
    drift = np.abs(tr_out - tr_in).max()
    if drift > 1e-6:
        raise RuntimeError(f"integration lost trace: drift {drift:.3e}")
    return out


def choi_matrix(p, t, mode, mu=0.0):
    """Choi matrix (I x Phi) applied to the maximally entangled projector.

    mode "uncorrelated-single": 4x4, single-qubit damping set.
    mode "correlated-3q":       64x64, collective closed form.
    mode "memory-3q":           64x64, mu-mixture of the two three-qubit maps.

    Built as the reshuffle of the map's superoperator S:
    choi[i*d + a, j*d + b] = S[a*d + b, i*d + j] / d.
    The map is completely positive iff the minimum eigenvalue is >= -1e-8;
    a negative value is a returned diagnostic, never an exception. At
    parameter points outside the damping set's validity domain the radicands
    are clamped (with a UserWarning) and the defect shows up as trace < 1.
    """
    if mode == "uncorrelated-single":
        s, dim = _single_superop(p, t, clamp=True), 2
    elif mode == "correlated-3q":
        s, dim = _correlated_superop(p, t), 8
    elif mode == "memory-3q":
        s, dim = _memory_superop(p, t, mu, clamp=True), 8
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return s.reshape(dim, dim, dim, dim).transpose(2, 0, 3, 1).reshape(dim * dim, dim * dim) / dim
