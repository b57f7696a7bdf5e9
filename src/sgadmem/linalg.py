"""Dense complex linear algebra shared by the channel and witness code.

Everything operates on plain numpy complex arrays. Three-qubit objects are
8x8 in the computational basis with qubit A as the most significant bit, so
basis index 0 is |000> and index 7 is |111>. One-based matrix-element names
used elsewhere (rho_11 .. rho_88) refer to this ordering.
"""

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10


@dataclass(frozen=True)
class Bipartition:
    """One of the three one-vs-two qubit splits.

    ``party`` holds the qubit positions (0 = A) of the single-qubit side.
    """

    label: str
    party: tuple

    def __post_init__(self):
        if not self.party or len(self.party) >= 3:
            raise ValueError("first party must be a nonempty proper subset of the 3 qubits")
        if any(q not in (0, 1, 2) for q in self.party):
            raise ValueError(f"qubit positions must be 0, 1 or 2, got {self.party}")


CUT_A = Bipartition("A|BC", (0,))
CUT_B = Bipartition("B|AC", (1,))
CUT_C = Bipartition("C|AB", (2,))
BIPARTITIONS = (CUT_A, CUT_B, CUT_C)


def tensor(*ops):
    """Kronecker product of one or more factors, leftmost most significant."""
    out = np.asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op))
    return out


def partial_transpose(rho, cut):
    """Transpose the indices of ``cut.party`` in an 8x8 three-qubit matrix,
    or in each matrix of a (..., 8, 8) stack.

    Involution; preserves Hermiticity, trace and Frobenius norm.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"partial_transpose expects 8x8 matrices, got {rho.shape}")
    t = rho.reshape(rho.shape[:-2] + (2,) * 6)
    axes = list(range(t.ndim))
    for q in cut.party:
        axes[q - 6], axes[q - 3] = axes[q - 3], axes[q - 6]
    return t.transpose(axes).reshape(rho.shape)


def hermitian_eigenvalues(h):
    """Ascending real eigenvalues of a Hermitian matrix.

    The input must be Hermitian within HERM_TOL entrywise; it is symmetrized
    before the eigensolve so closed-form rounding noise cannot leak into
    complex eigenvalues.
    """
    h = np.asarray(h, dtype=complex)
    dev = np.abs(h - h.conj().T).max()
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {dev:.3e}")
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


def trace_norm(h):
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(h)).sum())
