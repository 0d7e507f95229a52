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


def dav_clip_by_segments(w):
    """Minimize sum_k (z_k - w_k)^2 + (sum_k (z_k - w_k))^2 over z >= 0, row-wise.

    Segment scan over a (..., d) array: the solution keeps a top segment of
    the sorted entries shifted by a common offset s and zeroes the rest, so
    build all d + 1 segment sizes m (s = -(sum of the d - m smallest) / (1 + m))
    and keep the first feasible candidate with the smallest objective.
    """
    w = np.asarray(w, dtype=float)
    order = np.argsort(w, axis=-1)[..., ::-1]
    ws = np.take_along_axis(w, order, axis=-1)
    d = ws.shape[-1]
    suffix = np.cumsum(ws[..., ::-1], axis=-1)[..., ::-1]  # suffix[..., m] = sum ws[..., m:]
    suffix = np.concatenate([suffix, np.zeros(ws.shape[:-1] + (1,))], axis=-1)
    s = -suffix / (1 + np.arange(d + 1))
    kept = np.arange(d) < np.arange(d + 1)[:, None]  # (segment size m, index k): k < m
    z = np.where(kept, ws[..., None, :] - s[..., None], 0.0)
    feasible = np.ones(s.shape, dtype=bool)
    feasible[..., 1:] = ws - s[..., 1:] >= -1e-12  # smallest kept value of each segment
    z = np.maximum(z, 0.0)
    diff = z - ws[..., None, :]
    objective = (diff[..., None, :] @ diff[..., :, None])[..., 0, 0] + diff.sum(axis=-1) ** 2
    best = np.argmin(np.where(feasible, objective, np.inf), axis=-1)
    out = np.empty_like(ws)
    np.put_along_axis(out, order, np.take_along_axis(z, best[..., None, None], axis=-2)[..., 0, :], axis=-1)
    return out


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

