"""Constructors, validation and file IO for the three-qubit state families."""

import json

import numpy as np

from .linalg import HERM_TOL

PSD_TOL = 1e-9

# basis indices (A most significant): the four GHZ antidiagonal pairs and
# the two Dicke triples
_PURE_SUPPORT = {
    "ghz1": (0, 7),
    "ghz2": (1, 6),
    "ghz3": (2, 5),
    "ghz4": (3, 4),
    "w": (1, 2, 4),
    "wtilde": (3, 5, 6),
}

FAMILIES = tuple(_PURE_SUPPORT)


class StateValidationError(ValueError):
    """Its message lists every violated density-matrix invariant."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))


def _projector(support):
    v = np.zeros(8, dtype=complex)
    v[list(support)] = 1.0 / np.sqrt(len(support))
    p = np.outer(v, v.conj())
    p.flags.writeable = False  # make_pure hands out copies
    return p


_PURE = {key: _projector(support) for key, support in _PURE_SUPPORT.items()}
_WHITE = np.eye(8, dtype=complex) / 8
_WHITE.flags.writeable = False


def make_pure(family):
    """Projector onto the named pure state (ghz1..ghz4, w, wtilde), as a
    fresh array."""
    key = family.lower()
    if key not in _PURE:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return _PURE[key].copy()


def make_noisy(family, *, alpha=None, beta=None):
    """A family state: pure, or mixed with white noise.

    GHZ families use visibility alpha:  alpha * pure + (1 - alpha) * I/8.
    W families use noise weight beta:   (1 - beta) * pure + beta/8 * I.
    The two conventions match the thresholds they are compared against.
    Without the family's own weight the state is make_pure(family); the
    other family's weight is a ValueError.
    """
    key = family.lower()
    pure = make_pure(key)
    if key.startswith("ghz"):
        if beta is not None:
            raise ValueError("GHZ families take alpha, not beta")
        if alpha is None:
            return pure
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        return alpha * pure + (1 - alpha) * _WHITE
    if alpha is not None:
        raise ValueError("W families take beta, not alpha")
    if beta is None:
        return pure
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return (1 - beta) * pure + beta * _WHITE


def validate(rho):
    """Check that rho is a three-qubit density matrix: 8x8, Hermitian,
    of unit trace and positive semidefinite; return a symmetrized copy.

    All violations are collected and reported together with their magnitudes.
    A matrix that is not 8x8, or has a NaN or infinite entry, is rejected
    first and alone: no comparison with NaN is ever true, so the other
    checks would pass it.
    """
    rho = np.asarray(rho, dtype=complex)
    violations = []
    if rho.shape != (8, 8):
        raise StateValidationError([f"not an 8x8 matrix: shape {rho.shape}"])
    if not np.isfinite(rho).all():
        entries = ", ".join(str((int(i), int(j))) for i, j in np.argwhere(~np.isfinite(rho)))
        raise StateValidationError([f"non-finite entries at {entries}"])
    adj = rho.conj().T
    herm_dev = np.abs(rho - adj).max()
    if herm_dev > HERM_TOL:
        violations.append(f"not Hermitian: max |rho - rho^dag| = {herm_dev:.3e}")
    tr_dev = abs(np.trace(rho) - 1.0)
    if tr_dev > HERM_TOL:
        violations.append(f"trace differs from 1 by {tr_dev:.3e}")
    sym = 0.5 * (rho + adj)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    if min_eig < -PSD_TOL:
        violations.append(f"not positive semidefinite: min eigenvalue = {min_eig:.3e}")
    if violations:
        raise StateValidationError(violations)
    return sym


def load_state(path):
    """Read a state from the JSON file at path.

    Two forms are accepted: an explicit matrix
    {"dim": 8, "re": [[...]], "im": [[...]]} (im optional), or a named family
    {"family": "ghz1", "alpha": 0.95} / {"family": "w"}, built by make_noisy.
    An object's keys all belong to one form; family is a string, alpha and
    beta are numbers or null, and re is two-dimensional. Anything else is a
    ValueError naming the offending key or type. A matrix is returned as
    read: validate, which gmn and evolve run first, requires it to be 8x8.
    """
    with open(path) as f:
        obj = json.load(f)
    if not isinstance(obj, dict):
        raise ValueError(f"state JSON must be an object, got {type(obj).__name__}")
    anchor = "family" if "family" in obj else "re"
    if anchor not in obj:
        raise ValueError("state JSON needs either 'family' or 're'/'im' entries")
    form = {"family", "alpha", "beta"} if anchor == "family" else {"dim", "re", "im"}
    stray = sorted(set(obj) - form)
    if stray:
        raise ValueError(f"state JSON with {anchor!r} takes only {sorted(form)}, not {stray}")
    if anchor == "family":
        if not isinstance(obj["family"], str):
            raise ValueError(f"'family' must be a string, got {type(obj['family']).__name__}")
        for key in ("alpha", "beta"):
            value = obj.get(key)
            if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ValueError(f"{key!r} must be a number or null, got {type(value).__name__}")
        return make_noisy(obj["family"], alpha=obj.get("alpha"), beta=obj.get("beta"))
    re = np.asarray(obj["re"], dtype=float)
    if re.ndim != 2:
        raise ValueError(f"'re' must be a two-dimensional array, got shape {re.shape}")
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if im.shape != re.shape:
        raise ValueError(f"'im' has shape {im.shape}, 're' has shape {re.shape}")
    dim = obj.get("dim", re.shape[0])
    rho = re + 1j * im
    if rho.shape != (dim, dim):
        raise ValueError(f"matrix shape {rho.shape} does not match dim {dim}")
    return rho


def save_state(path, rho):
    """Write a matrix in the JSON format load_state reads."""
    rho = np.asarray(rho, dtype=complex)
    obj = {
        "dim": rho.shape[0],
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }
    with open(path, "w") as f:
        json.dump(obj, f)
        f.write("\n")
