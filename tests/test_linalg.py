import numpy as np
import pytest

from povmtomo import linalg
from oracles import random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_herm_eig_diagonal():
    eig = linalg.herm_eig(np.diag([2.0, -1.0]).astype(complex))
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 2.0])


def test_herm_eig_pauli_x():
    eig = linalg.herm_eig(PAULI_X)
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)
    # eigenvectors are (|0> -+ |1>)/sqrt2 up to phase
    for col, sign in zip(eig.eigenvectors.T, (-1, 1)):
        ratio = col[1] / col[0]
        np.testing.assert_allclose(ratio, sign, atol=1e-12)


def test_herm_eig_reconstruction_and_unitarity():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 8):
        for _ in range(30):
            a = random_hermitian(d, rng)
            eig = linalg.herm_eig(a)
            v = eig.eigenvectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-10)
            recon = (v * eig.eigenvalues) @ v.conj().T
            assert np.linalg.norm(recon - a) <= 1e-9
            assert np.all(np.diff(eig.eigenvalues) >= -1e-12)


def test_herm_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.herm_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        linalg.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        linalg.herm_eig(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_matrix_norm_values():
    assert linalg.matrix_norm(np.diag([3.0, -5.0]).astype(complex), "spectral") == pytest.approx(5.0)
    assert linalg.matrix_norm(PAULI_X, "trace") == pytest.approx(2.0)
    assert linalg.matrix_norm(np.eye(3, dtype=complex), "frobenius") == pytest.approx(np.sqrt(3))
    with pytest.raises(ValueError):
        linalg.matrix_norm(PAULI_X, "nuclear")


def test_norm_ordering():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 8):
        for _ in range(25):
            a = random_hermitian(d, rng)
            spectral = linalg.matrix_norm(a, "spectral")
            frobenius = linalg.matrix_norm(a, "frobenius")
            trace = linalg.matrix_norm(a, "trace")
            assert spectral <= frobenius + 1e-12
            assert frobenius <= trace + 1e-12


def test_kron_basics():
    np.testing.assert_allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))
    np.testing.assert_allclose(
        linalg.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.0, 1.0, 0.0, 0.0])
    )
    xx = linalg.kron(PAULI_X, PAULI_X)
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(xx @ ket00, [0, 0, 0, 1])


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        got = np.trace(linalg.kron(a, b))
        np.testing.assert_allclose(got, np.trace(a) * np.trace(b), atol=1e-12)


def test_kron_dimension_cap():
    with pytest.raises(ValueError):
        linalg.kron(np.eye(32), np.eye(32), max_dim=256)
