"""Dense complex linear algebra for Hermitian matrices.

Validating norms that take one square matrix or a (..., d, d) stack of them
and make one stacked LAPACK call (via numpy), the flat 2-norms of a stack
as ``np.linalg.norm`` sums them, and a dimension-capped Kronecker product
for the one-operator-at-a-time frame oracle. The eigenvalue-based norms
take the Hermitian part of matrices that :func:`require_hermitian` accepts.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-9
KRON_DIM_CAP = 256

NORM_KINDS = ("spectral", "frobenius", "trace")


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2, halved through its float view, which keeps every sign: a
    bitwise Hermitian A comes back bit for bit, where a division by complex 2 turns some -0.0 into +0.0."""
    a = np.asarray(a, dtype=complex)
    out = np.add(a, a.conj().swapaxes(-1, -2), order="C")
    out.view(float)[...] *= 0.5
    return out


def require_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def require_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The exact Hermitian part of a finite square matrix, or of a (..., d, d)
    stack of them, each with ``||A - A^dagger||_F <= tol``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    deviation = float(np.max(np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1)), initial=0.0))
    if deviation > tol:
        raise ValueError(
            f"matrix is not Hermitian: ||A - A^dagger||_F = {deviation:.3e} exceeds {tol:.1e}"
        )
    return hermitize(a)


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of each a[t] of a complex (T, ...) stack, bit for bit ``np.linalg.norm(a[t])``:
    that sums the squares of the real parts, then of the imaginary parts, each in one BLAS dot."""
    parts = a.reshape(len(a), -1, 1).view(float).swapaxes(1, 2)  # (T, [real, imag], entries)
    squares = np.vecdot(parts, parts)
    return np.sqrt(squares[:, 0] + squares[:, 1])


def matrix_norm(a, kind: str) -> float | np.ndarray:
    """Matrix norm: ``spectral`` (max |eigenvalue|), ``frobenius``, or ``trace``.

    A (d, d) input gives a float; a (..., d, d) stack gives one norm per
    matrix, from one stacked eigenvalue solve. The spectral and trace kinds
    are eigenvalue-based and require each matrix to be Hermitian; the
    Frobenius norm is entrywise and accepts any matrix.
    """
    if kind == "frobenius":
        value = np.linalg.norm(np.asarray(a, dtype=complex), axis=(-2, -1))
    elif kind in ("spectral", "trace"):
        w = np.abs(np.linalg.eigvalsh(require_hermitian(a)))
        value = w.max(axis=-1) if kind == "spectral" else w.sum(axis=-1)
    else:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    return float(value) if value.ndim == 0 else value


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
