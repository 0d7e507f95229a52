"""Distance measures between POVMs.

The worst-case (operational) distance is the maximum spectral norm of a
coarse-grained effect difference over all outcome subsets; it is computed
exactly by enumeration up to a subset cap, with a randomized lower bound for
larger outcome counts. The average-case distance is the closed-form
root-mean-square expression over effect differences and their traces.

With D_j the effect differences and dp_j(psi) = <psi|D_j|psi>, the Haar second
moment gives d_av^2 = (d+1)/2 * E_psi sum_j dp_j(psi)^2. For valid POVM pairs
sum_j D_j = 0, hence sum_j dp_j^2 <= 2 TV(psi)^2 <= 2 d_op^2 and
d_av <= sqrt(d+1) * d_op. The pair {(1/2+t)I, (1/2-t)I} vs {I/2, I/2} attains
equality, so the bare d_av <= d_op does not hold. Raw estimates need not have
sum_j D_j = 0, and the ordering need not hold for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from ._rng import make_rng
from .povm import Povm, _as_element_stack

MAX_EXACT_OUTCOMES = 24
SUBSET_CHUNK_ELEMENTS = 1 << 16  # matrix entries per stacked eigenvalue solve in d_op_exact


@dataclass(frozen=True)
class DistanceReport:
    value: float
    kind: str  # "op_exact" | "op_lower" | "av" | "frob_sum" | "spec_sum"
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class UpperSurrogates:
    frob_sum: float
    spec_sum: float


def _deltas(e, f) -> tuple[np.ndarray, bool]:
    """Effect differences and whether both inputs are validated POVMs."""
    a = _as_element_stack(e)
    b = _as_element_stack(f)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    both_valid = isinstance(e, Povm) and isinstance(f, Povm)
    return linalg.hermitize(a - b), both_valid


def _subset_norms(bits: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Spectral norm of sum_j bits[k, j] D_j for every row k of a 0/1 matrix."""
    n_bits, d = bits.shape[1], deltas.shape[1]
    totals = (bits @ deltas[:n_bits].reshape(n_bits, d * d)).reshape(-1, d, d)
    return linalg.matrix_norm(linalg.hermitize(totals), "spectral")


def d_op_exact(e, f) -> DistanceReport:
    """Operational distance: max over outcome subsets of the grouped-effect gap.

    For valid POVM pairs the effect differences sum to zero, so a subset and
    its complement give equal norms; enumeration then covers only the 2^(L-1)
    subsets excluding the last outcome. Raw estimates are enumerated in full.
    Subsets are taken in Gray-code order, ``SUBSET_CHUNK_ELEMENTS // d^2`` at
    a time; the witness is the first subset in that order to reach the
    maximum.
    """
    deltas, both_valid = _deltas(e, f)
    n_outcomes, d, _ = deltas.shape
    if n_outcomes > MAX_EXACT_OUTCOMES:
        raise ValueError(
            f"L = {n_outcomes} exceeds the exact-enumeration cap "
            f"{MAX_EXACT_OUTCOMES}; use d_op_lower"
        )
    n_bits = n_outcomes - 1 if both_valid else n_outcomes
    rows = max(1, SUBSET_CHUNK_ELEMENTS // (d * d))
    best, witness = 0.0, ()
    for start in range(1, 2**n_bits, rows):
        k = np.arange(start, min(start + rows, 2**n_bits))
        bits = ((k ^ (k >> 1))[:, None] >> np.arange(n_bits)) & 1
        norms = _subset_norms(bits, deltas)
        top = int(np.argmax(norms))
        if norms[top] > best:
            best, witness = float(norms[top]), tuple(np.flatnonzero(bits[top]).tolist())
    return DistanceReport(best, "op_exact", witness)


def d_op_lower(e, f, n_subsets: int = 64, seed: int = 0) -> DistanceReport:
    """Lower bound on the operational distance from a sampled subset family.

    Evaluates all singletons, one greedy subset per outcome (the outcomes
    whose effect gap is positive along the top eigendirection of that
    outcome's gap), and ``n_subsets`` uniformly random subsets. For valid POVM
    pairs each subset holding the last outcome is replaced by its complement,
    as in :func:`d_op_exact`, so the witness never contains it.
    """
    if n_subsets < 1:
        raise ValueError("n_subsets must be >= 1")
    deltas, both_valid = _deltas(e, f)
    n_outcomes = deltas.shape[0]
    rng = make_rng(seed)

    eigenvalues, eigenvectors = np.linalg.eigh(deltas)
    top_index = np.argmax(np.abs(eigenvalues), axis=-1)[:, None, None]
    top = np.take_along_axis(eigenvectors, top_index, axis=-1)[..., 0]
    aligned = np.einsum("ka,jab,kb->kj", top.conj(), deltas, top).real > 0
    random_bits = rng.integers(0, 2, size=(n_subsets, n_outcomes)) > 0
    family = np.concatenate([np.eye(n_outcomes, dtype=bool), aligned, random_bits])
    if both_valid:  # a subset and its complement give equal norms: keep the one without outcome L - 1
        family ^= family[:, -1:]
    subsets = sorted({tuple(np.flatnonzero(row).tolist()) for row in family})  # () has norm 0
    bits = np.array([np.isin(np.arange(n_outcomes), subset) for subset in subsets])
    norms = _subset_norms(bits, deltas)
    top = int(np.argmax(norms))
    return DistanceReport(float(norms[top]), "op_lower", subsets[top] if norms[top] > 0.0 else ())


def d_op(e, f, seed: int = 0) -> DistanceReport:
    """Operational distance: exact up to ``MAX_EXACT_OUTCOMES`` outcomes, else
    the seeded :func:`d_op_lower`; the report's ``kind`` says which."""
    if _as_element_stack(e).shape[0] <= MAX_EXACT_OUTCOMES:
        return d_op_exact(e, f)
    return d_op_lower(e, f, seed=seed)


def d_av(e, f) -> DistanceReport:
    """Average-case distance sqrt((1/2d) sum_j (||D_j||_F^2 + tr(D_j)^2)).

    Equals sqrt((d+1)/2 * E_psi sum_j <psi|D_j|psi>^2) over Haar-random pure
    states. For two valid POVMs d_av <= sqrt(d+1) * d_op, with equality for
    {(1/2+t)I, (1/2-t)I} vs {I/2, I/2}; the proof uses sum_j D_j = 0, so the
    ordering need not hold when either input is a ``RawEstimate``.
    """
    deltas, _ = _deltas(e, f)
    d = deltas.shape[1]
    traces = np.trace(deltas, axis1=1, axis2=2).real
    total = np.sum(linalg.matrix_norm(deltas, "frobenius") ** 2 + traces**2)
    return DistanceReport(float(np.sqrt(total / (2 * d))), "av", None)


def upper_surrogates(e, f) -> UpperSurrogates:
    """Per-element norm sums; the spectral sum always dominates d_op."""
    deltas, _ = _deltas(e, f)
    frob_sum = np.sum(linalg.matrix_norm(deltas, "frobenius"))
    spec_sum = np.sum(linalg.matrix_norm(deltas, "spectral"))
    return UpperSurrogates(float(frob_sum), float(spec_sum))
