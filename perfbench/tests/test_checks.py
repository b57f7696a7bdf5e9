"""The benchmark's oracles against analytic values."""

import math

import numpy as np
import pytest

import checks


def ghz_noise(alpha):
    v = np.zeros(8)
    v[[0, 7]] = 1 / math.sqrt(2)
    return alpha * np.outer(v, v) + (1 - alpha) * np.eye(8) / 8


def random_matrix(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))


@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_partial_transpose_of_product_transposes_one_factor(qubit):
    rng = np.random.default_rng(qubit)
    factors = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    expected = [f.T if q == qubit else f for q, f in enumerate(factors)]
    product = np.kron(factors[0], np.kron(factors[1], factors[2]))
    np.testing.assert_array_equal(checks.partial_transpose(product, qubit),
                                  np.kron(expected[0], np.kron(expected[1], expected[2])))


@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_partial_transpose_is_an_involution(qubit):
    m = random_matrix(10 + qubit)
    np.testing.assert_array_equal(checks.partial_transpose(checks.partial_transpose(m, qubit), qubit), m)


def test_trace_norm_is_the_sum_of_absolute_eigenvalues():
    assert checks.trace_norm(np.diag([1.0, -2.0, 3.0, 0.0])) == pytest.approx(6.0, abs=1e-14)
    u, _ = np.linalg.qr(random_matrix(3))
    h = u @ np.diag([0.5, -0.25, 0.125, 0, 0, 0, 0, -1.0]) @ u.conj().T
    assert checks.trace_norm(h) == pytest.approx(1.875, abs=1e-12)


def test_pure_ghz_has_negativity_one_on_every_cut():
    np.testing.assert_allclose(checks.negativities(ghz_noise(1.0)), [1.0, 1.0, 1.0], atol=1e-12)
    # every partial transpose of GHZ has the single negative eigenvalue -1/2
    np.testing.assert_allclose(checks.min_pt_eigenvalues(ghz_noise(1.0)), [-0.5] * 3, atol=1e-12)


def test_ghz_noise_negativity_is_linear_above_one_fifth():
    # rho^{T_M} has eigenvalue (1 - alpha)/8 - alpha/2, negative for alpha > 1/5
    for alpha in (0.1, 0.2, 0.6, 0.9):
        expected = 2 * max(0.0, alpha / 2 - (1 - alpha) / 8)
        np.testing.assert_allclose(checks.negativities(ghz_noise(alpha)), [expected] * 3, atol=1e-12)


def test_xstate_margin_of_ghz_noise_vanishes_at_three_sevenths():
    # margin = alpha/2 - 3 (1 - alpha)/8, zero at alpha = 3/7
    for alpha in (0.2, 3 / 7, 0.5, 1.0):
        assert checks.xstate_margin(ghz_noise(alpha)) == pytest.approx(alpha / 2 - 3 * (1 - alpha) / 8, abs=1e-15)
    assert checks.xstate_margin(ghz_noise(3 / 7 - 1e-6)) < 0 < checks.xstate_margin(ghz_noise(3 / 7 + 1e-6))


def test_state_properties():
    rho = ghz_noise(0.7)
    assert checks.has_z_symmetry(rho) and checks.is_real(rho)
    assert not checks.is_ppt_on_some_cut(rho)
    assert checks.is_ppt_on_some_cut(ghz_noise(0.1))
    g = random_matrix(4)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert not checks.has_z_symmetry(rho) and not checks.is_real(rho)
    # W commutes with ZZZ only
    w = np.zeros(8)
    w[[1, 2, 4]] = 1 / math.sqrt(3)
    assert checks.has_z_symmetry(np.outer(w, w))


def test_kraus_admissibility():
    assert not checks.kraus_admissible(0.0, 0.0, 1.0)
    assert not checks.kraus_admissible(1.0, 0.0, 0.1)
    assert checks.kraus_admissible(1.0, 0.0, 5.0)
    # e^{-(2n+1) Omega t / 2} <= n/(n+1) is the unsqueezed boundary
    t_star = 2 * math.log(2) / 3
    assert checks.kraus_admissible(1.0, 0.0, t_star + 1e-9)
    assert not checks.kraus_admissible(1.0, 0.0, t_star - 1e-9)
