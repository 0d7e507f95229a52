"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (sorting,
brute-force enumeration, direct formula evaluation) rather than reusing the
code paths under test.
"""

import itertools

import numpy as np


def simplex_project(v):
    """Euclidean projection of a real vector onto {z >= 0, sum z = 1}.

    Sort-based algorithm: find the largest support size rho such that the
    common shift keeps every kept entry positive.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    rho = np.max(np.nonzero(u + (1.0 - cumulative) / np.arange(1, len(v) + 1) > 0)[0])
    shift = (1.0 - cumulative[rho]) / (rho + 1.0)
    return np.maximum(v + shift, 0.0)


def subset_enumeration_d_op(e_elements, f_elements):
    """Operational distance by explicit full power-set enumeration."""
    deltas = np.asarray(e_elements) - np.asarray(f_elements)
    n = deltas.shape[0]
    best = 0.0
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            total = deltas[list(subset)].sum(axis=0)
            total = (total + total.conj().T) / 2
            best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(total)))))
    return best


def definition_d_av(e_elements, f_elements):
    """Average-case distance evaluated directly from its definition."""
    deltas = np.asarray(e_elements) - np.asarray(f_elements)
    d = deltas.shape[1]
    total = sum(
        np.linalg.norm(dk, "fro") ** 2 + np.trace(dk).real ** 2 for dk in deltas
    )
    return float(np.sqrt(total / (2 * d)))


def random_hermitian(d, rng, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + a.conj().T) / 2

