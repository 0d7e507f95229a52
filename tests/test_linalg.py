import numpy as np
import pytest

from povmtomo import linalg
from oracles import random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_matrix_norm_rejects_bad_input():
    good = np.stack([PAULI_X, np.eye(2, dtype=complex)])
    for bad in (
        np.ones((2, 3)),
        np.array([[0, 1], [0, 0]], dtype=complex),
        np.array([[np.nan, 0], [0, 1]], dtype=complex),
    ):
        with pytest.raises(ValueError):
            linalg.matrix_norm(bad, "spectral")
    for bad in (
        np.ones((3, 2, 3)),
        np.concatenate([good, [[[0, 1], [0, 0]]]]),
        np.concatenate([good, [[[np.nan, 0], [0, 1]]]]),
    ):
        with pytest.raises(ValueError):
            linalg.matrix_norm(bad, "trace")


def test_matrix_norm_values():
    assert linalg.matrix_norm(np.diag([3.0, -5.0]).astype(complex), "spectral") == pytest.approx(5.0)
    assert linalg.matrix_norm(PAULI_X, "trace") == pytest.approx(2.0)
    assert linalg.matrix_norm(np.eye(3, dtype=complex), "frobenius") == pytest.approx(np.sqrt(3))
    with pytest.raises(ValueError):
        linalg.matrix_norm(PAULI_X, "nuclear")


def test_matrix_norm_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(13)
    stack = np.array([random_hermitian(3, rng) for _ in range(12)]).reshape(3, 4, 3, 3)
    for kind in linalg.NORM_KINDS:
        norms = linalg.matrix_norm(stack, kind)
        assert norms.shape == (3, 4)
        expected = [linalg.matrix_norm(a, kind) for a in stack.reshape(12, 3, 3)]
        np.testing.assert_allclose(norms.ravel(), expected, rtol=1e-14)


def test_hermitize_returns_a_bitwise_hermitian_matrix_bit_for_bit():
    # halving by complex 2 turned a -0.0 imaginary part under a negative real part, and a -0.0
    # real part beside a positive imaginary one, into +0.0
    signed_zeros = (
        np.array([[1, -2], [complex(-2, -0.0), 3]], dtype=complex),
        np.array([[1, complex(-0.0, 1)], [complex(-0.0, -1), 3]], dtype=complex),
    )
    for a in (*signed_zeros, np.asfortranarray(signed_zeros[0]), np.stack(signed_zeros)):
        assert np.array_equal(linalg.hermitize(a).view(np.uint64), np.ascontiguousarray(a).view(np.uint64))


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
