"""Seed handling for reproducible sampling.

All randomness in the package flows through Philox (counter-based) bit
generators keyed by ``SeedSequence(seed)``, so a given seed or seed tuple
reproduces the same draws bit-for-bit across platforms and processes for a
fixed numpy version.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Return a Philox generator keyed by ``seed``.

    ``seed`` is a nonnegative integer or a tuple of them; a tuple such as
    ``(seed, trial)`` derives an independent sub-stream (e.g. one per scaling
    trial) without consuming state from the parent stream.
    """
    if isinstance(seed, (tuple, list)):
        entropy = [int(s) for s in seed]
    else:
        entropy = [int(seed)]
    if any(s < 0 for s in entropy):
        raise ValueError("seeds must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def haar_isometry(rows: int, cols: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Haar-random ``rows x cols`` isometry (V^dagger V = I_cols), or a ``(*shape, rows, cols)``
    stack of independent ones.

    QR of a complex Gaussian matrix with the R-diagonal phases folded into Q,
    which makes the distribution exactly Haar rather than merely orthonormal.
    The Gaussians come from one ``(*shape, 2, rows, cols)`` draw, each
    isometry's real parts and then its imaginary parts, so a stack equals as
    many single calls in a row, bit for bit.
    """
    if not 1 <= cols <= rows:
        raise ValueError(f"need 1 <= cols <= rows, got {rows}x{cols}")
    normal = rng.standard_normal((*shape, 2, rows, cols))
    z = normal[..., 0, :, :] + 1j * normal[..., 1, :, :]
    z *= np.sqrt(0.5)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]
