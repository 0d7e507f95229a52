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


def d_op_exact(e, f) -> DistanceReport:
    """Operational distance: max over outcome subsets of the grouped-effect gap.

    For valid POVM pairs the effect differences sum to zero, so a subset and
    its complement give equal norms; enumeration then covers only the 2^(L-1)
    subsets excluding the last outcome. Raw estimates are enumerated in full.
    """
    deltas, both_valid = _deltas(e, f)
    n_outcomes = deltas.shape[0]
    if n_outcomes > MAX_EXACT_OUTCOMES:
        raise ValueError(
            f"L = {n_outcomes} exceeds the exact-enumeration cap "
            f"{MAX_EXACT_OUTCOMES}; use d_op_lower"
        )
    n_bits = n_outcomes - 1 if both_valid else n_outcomes
    best, witness = 0.0, ()
    running = np.zeros(deltas.shape[1:], dtype=complex)
    prev_gray = 0
    for k in range(1, 2**n_bits):
        gray = k ^ (k >> 1)
        flipped = (gray ^ prev_gray).bit_length() - 1
        if gray & (1 << flipped):
            running = running + deltas[flipped]
        else:
            running = running - deltas[flipped]
        prev_gray = gray
        value = linalg.matrix_norm(linalg.hermitize(running), "spectral")
        if value > best:
            best = value
            witness = tuple(j for j in range(n_outcomes) if gray & (1 << j))
    return DistanceReport(best, "op_exact", witness)


def d_op_lower(e, f, n_subsets: int = 64, seed: int = 0) -> DistanceReport:
    """Lower bound on the operational distance from a sampled subset family.

    Evaluates all singletons, one greedy subset per outcome (the outcomes
    whose effect gap is positive along the top eigendirection of that
    outcome's gap), and ``n_subsets`` uniformly random subsets.
    """
    if n_subsets < 1:
        raise ValueError("n_subsets must be >= 1")
    deltas, _ = _deltas(e, f)
    n_outcomes = deltas.shape[0]
    rng = make_rng(seed)

    candidates = {(j,) for j in range(n_outcomes)}
    for k in range(n_outcomes):
        eigenvalues, eigenvectors = np.linalg.eigh(deltas[k])
        top = eigenvectors[:, int(np.argmax(np.abs(eigenvalues)))]
        scores = np.einsum("k,jkl,l->j", top.conj(), deltas, top).real
        aligned = tuple(j for j in range(n_outcomes) if scores[j] > 0)
        if aligned:
            candidates.add(aligned)
    for _ in range(n_subsets):
        bits = rng.integers(0, 2, size=n_outcomes)
        subset = tuple(j for j in range(n_outcomes) if bits[j])
        if subset:
            candidates.add(subset)

    best, witness = 0.0, ()
    for subset in sorted(candidates):
        total = deltas[list(subset)].sum(axis=0)
        value = linalg.matrix_norm(linalg.hermitize(total), "spectral")
        if value > best:
            best, witness = value, subset
    return DistanceReport(best, "op_lower", witness)


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
    total = sum(
        float(np.linalg.norm(delta)) ** 2 + float(np.trace(delta).real) ** 2
        for delta in deltas
    )
    return DistanceReport(float(np.sqrt(total / (2 * d))), "av", None)


def upper_surrogates(e, f) -> UpperSurrogates:
    """Per-element norm sums; the spectral sum always dominates d_op."""
    deltas, _ = _deltas(e, f)
    frob_sum = sum(float(np.linalg.norm(delta)) for delta in deltas)
    spec_sum = sum(linalg.matrix_norm(delta, "spectral") for delta in deltas)
    return UpperSurrogates(float(frob_sum), float(spec_sum))
