"""Dense complex linear algebra for Hermitian matrices.

Thin, validating wrappers around LAPACK (via numpy) plus a dimension-capped
Kronecker product for the one-operator-at-a-time frame oracle. All inputs are
square complex ndarrays; callers are expected to hermitize with
:func:`hermitize` before using the eigenvalue-based operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-9
KRON_DIM_CAP = 256

NORM_KINDS = ("spectral", "frobenius", "trace")


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition V diag(w) V^dagger with eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def require_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def require_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    a = require_square(a)
    deviation = np.linalg.norm(a - a.conj().T)
    if deviation > tol:
        raise ValueError(
            f"matrix is not Hermitian: ||A - A^dagger||_F = {deviation:.3e} exceeds {tol:.1e}"
        )
    return a


def herm_eig(a, tol: float = HERMITICITY_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects non-square input and input whose anti-Hermitian part exceeds
    ``tol`` in Frobenius norm.
    """
    a = require_hermitian(a, tol)
    eigenvalues, eigenvectors = np.linalg.eigh(hermitize(a))
    return HermitianEig(eigenvalues, eigenvectors)


def matrix_norm(a, kind: str) -> float:
    """Matrix norm: ``spectral`` (max |eigenvalue|), ``frobenius``, or ``trace``.

    The spectral and trace kinds are eigenvalue-based and require Hermitian
    input; the Frobenius norm is entrywise and accepts any matrix.
    """
    if kind == "frobenius":
        return float(np.linalg.norm(np.asarray(a, dtype=complex)))
    if kind == "spectral":
        w = herm_eig(a).eigenvalues
        return float(np.max(np.abs(w)))
    if kind == "trace":
        w = herm_eig(a).eigenvalues
        return float(np.sum(np.abs(w)))
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def kron(a, b, max_dim: int = KRON_DIM_CAP) -> np.ndarray:
    """Kronecker product with a cap on the resulting dimension.

    The cap (default 256) bounds memory in :func:`frames.frame_operator`.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out_dim = max(s_a * s_b for s_a, s_b in zip(a.shape, b.shape))
    if out_dim > max_dim:
        raise ValueError(f"kron result dimension {out_dim} exceeds cap {max_dim}")
    return np.kron(a, b)
