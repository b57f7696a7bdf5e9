import numpy as np
import pytest

from sgadmem.linalg import (
    BIPARTITIONS,
    CUT_A,
    CUT_B,
    CUT_C,
    hermitian_eigenvalues,
    partial_transpose,
    tensor,
    trace_norm,
)


def ghz():
    v = np.zeros(8)
    v[0] = v[7] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v).astype(complex)


def random_state(rng, d=8):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g @ g.conj().T
    return h / np.trace(h).real


def test_bipartition_labels():
    assert [c.label for c in BIPARTITIONS] == ["A|BC", "B|AC", "C|AB"]
    assert CUT_A.qubit == 0 and CUT_B.qubit == 1 and CUT_C.qubit == 2


def test_tensor_matches_kron():
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))
    # associativity
    assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def test_partial_transpose_ghz_spectrum():
    # oracle: the partial transpose of a three-qubit GHZ projector has
    # eigenvalues {-1/2, 1/2, 1/2, 1/2, 0, 0, 0, 0} under every cut
    expected = np.array([-0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5])
    for cut in BIPARTITIONS:
        eig = hermitian_eigenvalues(partial_transpose(ghz(), cut))
        assert np.allclose(eig, expected, atol=1e-12)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(1)
    for cut in BIPARTITIONS:
        rho = random_state(rng)
        pt = partial_transpose(rho, cut)
        assert np.allclose(partial_transpose(pt, cut), rho, atol=1e-14)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-13
        assert abs(np.linalg.norm(pt) - np.linalg.norm(rho)) < 1e-12
        # hermiticity preserved
        assert np.abs(pt - pt.conj().T).max() < 1e-14


def test_partial_transpose_product_state_identity():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    qa = g @ g.conj().T
    qa /= np.trace(qa).real
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    qbc = g @ g.conj().T
    qbc /= np.trace(qbc).real
    rho = tensor(qa, qbc)
    # transposing the A factor alone keeps the product PSD with same spectrum
    pt = partial_transpose(rho, CUT_A)
    assert np.allclose(pt, tensor(qa.T, qbc), atol=1e-14)


def test_partial_transpose_rejects_wrong_shape():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4), CUT_A)
    with pytest.raises(ValueError):
        partial_transpose(np.zeros((8, 8, 4)), CUT_A)


def test_partial_transpose_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(5)
    stack = np.array([random_state(rng) for _ in range(5)])
    for cut in BIPARTITIONS:
        expected = np.array([partial_transpose(rho, cut) for rho in stack])
        assert np.array_equal(partial_transpose(stack, cut), expected)


def test_hermitian_eigenvalues_sorted_and_checked():
    rng = np.random.default_rng(3)
    rho = random_state(rng)
    eig = hermitian_eigenvalues(rho)
    assert np.all(np.diff(eig) >= 0)
    assert abs(eig.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        hermitian_eigenvalues(rho + 1e-3 * 1j * np.eye(8))  # skew part too large


def test_eigenvalue_unitary_invariance():
    rng = np.random.default_rng(4)
    rho = random_state(rng)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    assert np.allclose(
        hermitian_eigenvalues(q @ rho @ q.conj().T),
        hermitian_eigenvalues(rho),
        atol=1e-8,
    )


def test_trace_norm_examples():
    assert abs(trace_norm(np.eye(8) / 8) - 1.0) < 1e-14
    # GHZ partial transpose: |−1/2| + 3·(1/2) = 2
    assert abs(trace_norm(partial_transpose(ghz(), CUT_A)) - 2.0) < 1e-12
    rng = np.random.default_rng(5)
    rho = random_state(rng)
    assert abs(trace_norm(rho) - 1.0) < 1e-12  # PSD trace-1
