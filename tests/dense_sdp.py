"""A generic dense standard-form problem for sgadmem.sdp.solve, which the
small test programs and the dense reference of the witness program use,
and the identity start those small programs are solved from.

It holds every coefficient matrix, builds the Schur complement M dense,
tests M + ridge I by Cholesky and solves it by LU, because numpy has no
triangular solve. Rows are not screened, so they must be linearly
independent (the Schur complement of dependent rows is singular).
"""

import numpy as np

from sgadmem.sdp import _h, _sym

SYM_TOL = 1e-10


class SdpProblem:
    """Validated standard-form problem over k blocks of one size d.

    C: (k, d, d) Hermitian cost matrices.
    A: (k, m, d, d) constraint coefficients, each (d, d) slice Hermitian.
    b: real right-hand side vector (m,).

    k and d are read from C. Construction checks the shapes and the
    Hermiticity of every coefficient matrix.
    """

    def __init__(self, C, A, b):
        sizes = [len(c) for c in C]
        if len(set(sizes)) != 1:
            raise ValueError(f"blocks must all have one size, got {sizes}")
        self.C = np.asarray(C)
        self.A = np.asarray(A)
        self.b = np.asarray(b, dtype=float).copy()
        k, d, m = len(sizes), sizes[0], self.b.size
        if self.C.shape != (k, d, d):
            raise ValueError(f"objective shape {self.C.shape} != ({k},{d},{d})")
        if self.A.shape != (k, m, d, d):
            raise ValueError(f"constraint shape {self.A.shape} != ({k},{m},{d},{d})")
        if np.abs(self.C - _h(self.C)).max() > SYM_TOL:
            raise ValueError("objective block is not Hermitian")
        if m and np.abs(self.A - _h(self.A)).max() > SYM_TOL:
            raise ValueError("constraint coefficient block is not Hermitian")

    # -- operator A and its adjoint on (k, d, d) arrays --------------------

    def apply(self, X):
        # tr(A_i X) = sum A_i * X^T, over every block
        return np.einsum("kiab,kba->i", self.A, X).real

    def adjoint(self, y):
        return _sym(np.tensordot(y, self.A, axes=(0, 1)))

    def schur(self, W):
        """tr M and factor at the NT points W, as the sgadmem.sdp docstring
        states them."""
        m = self.b.size
        WAW = W[:, None] @ self.A @ W[:, None]
        # tr(A_i Y) = sum conj(A_i) * Y for Hermitian A_i
        M = _sym(np.tensordot(self.A.conj(), WAW, axes=([0, 2, 3], [0, 2, 3])).real)

        def factor(ridge):
            Mr = M + ridge * np.eye(m)
            np.linalg.cholesky(Mr)
            return lambda r: np.linalg.solve(Mr, r)

        return float(np.trace(M)), factor


def identity_start(problem):
    """The infeasible start X = S = I, y = 0 of a problem's blocks and rows."""
    k, d = problem.C.shape[:2]
    eye = np.broadcast_to(np.eye(d), (k, d, d))
    return eye, np.zeros(problem.b.size), eye
