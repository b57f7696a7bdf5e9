"""The benchmark's own oracles for three-qubit states.

Everything here is written independently of sgadmem so that the program's
outputs are checked against a separate computation: the partial transpose
is an explicit index swap rather than a reshape, and the X-state margin is
read straight from the matrix entries. Basis index i in 0..7 encodes the
qubits (A, B, C) as the bits of i, A most significant, as in sgadmem.
"""

import math

import numpy as np

PSD_TOL = 1e-9
# one-based antidiagonal pairs of the 8x8 X shape
XSTATE_PAIRS = ((1, 8), (2, 7), (3, 6), (4, 5))
# Z-strings other than the identity, as bit masks over (A, B, C)
Z_STRINGS = tuple(range(1, 8))


def _bits(i):
    return ((i >> 2) & 1, (i >> 1) & 1, i & 1)


def _index(bits):
    return (bits[0] << 2) | (bits[1] << 1) | bits[2]


def partial_transpose(rho, qubit):
    """Transpose qubit `qubit` (0 = A) of an 8x8 matrix by swapping its bit
    between the row and the column index of every entry."""
    rho = np.asarray(rho)
    out = np.empty_like(rho)
    for i in range(8):
        for j in range(8):
            bi, bj = list(_bits(i)), list(_bits(j))
            bi[qubit], bj[qubit] = bj[qubit], bi[qubit]
            out[_index(bi), _index(bj)] = rho[i, j]
    return out


def eigenvalues(h):
    """Ascending eigenvalues of the Hermitian part of `h`."""
    h = np.asarray(h, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


def trace_norm(h):
    return float(np.abs(eigenvalues(h)).sum())


def negativities(rho):
    """Bipartite negativities trace_norm(rho^{T_q}) - 1 for the cuts
    A|BC, B|AC, C|AB (pure GHZ scores 1 on each)."""
    return [max(0.0, trace_norm(partial_transpose(rho, q)) - 1.0) for q in range(3)]


def min_pt_eigenvalues(rho):
    """Smallest eigenvalue of the partial transpose on each of the three cuts."""
    return [float(eigenvalues(partial_transpose(rho, q))[0]) for q in range(3)]


def xstate_margin(rho):
    """Largest margin over the four antidiagonal pairs of
    |rho_ij| - sum over the other pairs (k, l) of sqrt(rho_kk rho_ll).
    Positive means the antidiagonal criterion certifies GME."""
    rho = np.asarray(rho)
    diag = np.clip(np.real(np.diag(rho)), 0.0, None)
    margins = []
    for i, j in XSTATE_PAIRS:
        rhs = sum(math.sqrt(diag[k - 1] * diag[l - 1])
                  for k, l in XSTATE_PAIRS if (k, l) != (i, j))
        margins.append(abs(rho[i - 1, j - 1]) - rhs)
    return max(margins)


def is_ppt_on_some_cut(rho, tol=PSD_TOL):
    return any(e >= -tol for e in min_pt_eigenvalues(rho))


def has_z_symmetry(rho, tol=1e-12):
    """True if rho commutes with some non-identity Z-string. A Z-string is
    diagonal with entries +-1, so rho commutes with it iff every entry
    linking two indices of opposite sign vanishes."""
    rho = np.asarray(rho)
    scale = tol * max(1.0, float(np.abs(rho).max()))
    for mask in Z_STRINGS:
        sign = np.array([(-1) ** bin(i & mask).count("1") for i in range(8)])
        if np.abs(rho[sign[:, None] != sign[None, :]]).max() <= scale:
            return True
    return False


def is_real(rho, tol=1e-12):
    return float(np.abs(np.imag(rho)).max()) <= tol


def kraus_admissible(n, m, omega_t):
    """True where all four radicands of the single-qubit operator set are
    nonnegative, from the closed forms of the channel (a^2 = n/(2n+1),
    b^2 = (n+1)/(2n+1), x = e^{-(2n+1) Omega t})."""
    a2 = n / (2 * n + 1)
    b2 = (n + 1) / (2 * n + 1)
    ep = math.exp(-(n + 0.5 - m) * omega_t)
    em = math.exp(-(n + 0.5 + m) * omega_t)
    x2 = math.exp(-(2 * n + 1) * omega_t)
    xc, xs = 0.5 * (ep + em), 0.5 * (ep - em)
    return min(a2 + b2 * x2 - xc, a2 * x2 + b2 - xc,
               a2 * (1 - x2) - xs, b2 * (1 - x2) - xs) >= 0.0
