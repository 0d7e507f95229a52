"""Distance measures between POVMs.

The worst-case (operational) distance is the maximum spectral norm of a
coarse-grained effect difference over all outcome subsets; it is computed
exactly by enumeration up to a subset cap, with a randomized lower bound for
larger outcome counts. The exact enumeration forms every subset sum D_S by one
real matrix product, 0/1 bits times the float view of the effect differences,
whose sums are Hermitian bit for bit and need no Hermitian-part pass. It
bounds before it verifies: with m = tr(D_S)/d and s^2 = ||D_S - m I||_F^2 / d,
||D_S|| <= |m| + s sqrt(d-1) (Wolkowicz and Styan), read from the float view
of the sums without copying them, and ``eigvalsh`` runs only on subsets whose
bound is not below the running maximum minus a slack of 16 d^2 eps
max ||D_S||_F (the bound's rounding plus eigvalsh's backward error). The
value and the witness (the first subset in Gray-code order to reach the
maximum) are those of evaluating every subset. The average-case distance is
the closed-form root-mean-square expression over effect differences and
their traces.

With D_j the effect differences and dp_j(psi) = <psi|D_j|psi>, the Haar second
moment gives d_av^2 = (d+1)/2 * E_psi sum_j dp_j(psi)^2. For valid POVM pairs
sum_j D_j = 0, hence sum_j dp_j^2 <= 2 TV(psi)^2 <= 2 d_op^2 and
d_av <= sqrt(d+1) * d_op. The pair {(1/2+t)I, (1/2-t)I} vs {I/2, I/2} attains
equality, so the bare d_av <= d_op does not hold. Raw estimates need not have
sum_j D_j = 0, and the ordering need not hold for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import linalg
from ._rng import make_rng
from .povm import Povm, RawEstimate, _as_element_stack

MAX_EXACT_OUTCOMES = 24
LOWER_BOUND_SUBSETS = 64  # random subsets in d_op_lower's family
SUBSET_CHUNK_ELEMENTS = 1 << 16  # matrix entries per chunk of subset sums in d_op_exact


@dataclass(frozen=True)
class DistanceReport:
    value: float
    kind: str  # "op_exact" | "op_lower" | "av"
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class UpperSurrogates:
    frob_sum: float
    spec_sum: float


def _deltas(e, f) -> tuple[np.ndarray, bool]:
    """Finite, exactly Hermitian effect differences (arrays go through RawEstimate) and whether both are POVMs."""
    a, b = (x.elements if isinstance(x, (Povm, RawEstimate)) else RawEstimate(x).elements for x in (e, f))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    deltas = a - b
    if not np.all(np.isfinite(deltas)):  # finite effects can differ by more than the largest float
        raise ValueError("matrix has non-finite entries")
    return deltas, isinstance(e, Povm) and isinstance(f, Povm)


def _gray_bits(start: int, stop: int, n_bits: int) -> np.ndarray:
    """0/1 rows of the Gray codes k ^ (k >> 1) for k in [start, stop < 2^32), bit j in column j."""
    k = np.arange(start, stop, dtype="<u4")
    return np.unpackbits((k ^ (k >> 1)).view(np.uint8).reshape(-1, 4), axis=1, count=n_bits, bitorder="little")


def _subset_sums(bits: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Hermitian sums sum_j bits[k, j] D_j, one (d, d) matrix per row k of a 0/1 matrix.

    One real product: the float 0/1 bits times the (n_bits, 2 d^2) float view
    of the Hermitian differences, viewed back as complex; an integer-by-
    complex product of the same sums is several times slower. The
    sums need no Hermitian part: entries (a, b) and (b, a) add the same
    0/1-weighted terms in the same order, the terms' real parts are equal and
    their imaginary parts negations of each other, and rounding to nearest is
    symmetric, so every sum is exactly Hermitian and (A + A^H)/2 would return
    it bit for bit. That needs a product kernel that sums entries (a, b) and
    (b, a) over j in the same order; OpenBLAS's do at every d = 1..16,
    L <= 12 enumeration checked.
    """
    n_bits, d = bits.shape[1], deltas.shape[1]
    flat = deltas[:n_bits].reshape(n_bits, d * d).view(float)  # (real, imag) pairs
    return (bits.astype(float) @ flat).view(complex).reshape(-1, d, d)


@cache
def _bound_weights(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only constants of :func:`_spectral_bounds` for the float view of a (d, d) matrix.

    ``view @ centring`` gives A_aa - m in columns a < d and m = tr(A)/d in
    column d; ``centred`` weighs the squares of the first d columns by 1;
    ``upper`` weighs the squared float-view entries of the strictly upper
    triangle by 2.
    """
    centring = np.zeros((2 * d * d, d + 1))
    diagonal = np.arange(d) * 2 * (d + 1)  # float-view positions of Re A_aa
    centring[diagonal, :d] = np.eye(d) - 1 / d
    centring[diagonal, d] = 1 / d
    centred = np.append(np.ones(d), 0.0)
    upper = np.repeat(np.triu(np.full((d, d), 2.0), 1).ravel(), 2)
    for constant in (centring, centred, upper):
        constant.flags.writeable = False
    return centring, centred, upper


def _spectral_bounds(sums: np.ndarray) -> tuple[np.ndarray, float]:
    """Trace bounds on the spectral norms of a Hermitian (n, d, d) stack, and their slack.

    With m = tr(A)/d and s^2 = ||A - m I||_F^2 / d, every eigenvalue lies in
    [m - s sqrt(d-1), m + s sqrt(d-1)] (Wolkowicz and Styan, "Bounds for
    eigenvalues using traces", 1980), so ||A|| <= |m| + s sqrt(d-1); equality
    holds for the spectrum (m + (d-1)t, m - t, ..., m - t). s^2 d =
    sum_a (A_aa - m)^2 + 2 sum_{a<b} |A_ab|^2 is read from the stack's float
    view without copying it: the centred diagonal comes from one product with
    a constant centring matrix, and both sums of squares from products with
    constant weights. The centred entries carry O(d^1.5 eps ||A||_F)
    rounding, so the bound carries O(d^2 eps ||A||_F) rounding and no
    cancellation. The slack 16 d^2 eps max ||A||_F covers
    that rounding plus eigvalsh's backward error (LAPACK: p(d) eps ||A||, p
    modest in d): a matrix whose computed bound is below x - slack has a
    computed spectral norm below x. Non-finite input, or a square that
    overflows, gives a NaN or inf bound or slack, which never proves anything.
    """
    n, d, _ = sums.shape
    flat = sums.reshape(n, d * d).view(float)
    centring, centred, upper = _bound_weights(d)
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = flat @ centring  # A_aa - m, then m
        m = diagonal[:, d]
        s2 = (
            np.einsum("ij,ij,j->i", diagonal, diagonal, centred) + np.einsum("ij,ij,j->i", flat, flat, upper)
        ) / d
        bounds = np.abs(m) + np.sqrt((d - 1) * s2)
        frobenius_max = np.sqrt(d * np.max(s2 + m * m))
    return bounds, float(16 * d * d * np.finfo(float).eps * frobenius_max)


def d_op_exact(e, f) -> DistanceReport:
    """Operational distance: max over outcome subsets of the grouped-effect gap.

    For valid POVM pairs the effect differences sum to zero, so a subset and
    its complement give equal norms; enumeration then covers only the 2^(L-1)
    subsets excluding the last outcome. Raw estimates are enumerated in full.
    Subsets are taken in Gray-code order, ``SUBSET_CHUNK_ELEMENTS // d^2`` at
    a time; the witness is the first subset in that order to reach the
    maximum.

    Bound, then verify: every subset sum of a chunk is formed by
    :func:`_subset_sums` (one real matrix product, exactly Hermitian), and
    :func:`_spectral_bounds` gives each one a trace bound |m| + s sqrt(d-1)
    from the float view of the chunk. Exact spectral norms are taken for the
    8 largest bounds first (a stacked call's fixed cost exceeds eight small
    eigensolves), then, in one more stacked call, for every other subset
    whose bound is not below the running maximum minus the bound's slack.
    Every subset left out then has a computed norm below that maximum, so
    the value and witness are those of evaluating every subset.
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
        bits = _gray_bits(start, min(start + rows, 2**n_bits), n_bits)
        sums = _subset_sums(bits, deltas)
        bounds, slack = _spectral_bounds(sums)
        norms = np.full(len(bits), -np.inf)
        floor = best
        picked = np.argpartition(bounds, -8)[-8:] if len(bits) > 8 else np.arange(len(bits))  # NaN sorts last
        while len(picked := picked[~(bounds[picked] < floor - slack)]):
            norms[picked] = linalg.matrix_norm(sums[picked], "spectral")
            floor = max(floor, float(np.max(norms[picked])))
            picked = np.flatnonzero(np.isneginf(norms))  # the rest, filtered against the new floor
        top = int(np.argmax(norms))
        if norms[top] > best:
            best, witness = float(norms[top]), tuple(np.flatnonzero(bits[top]).tolist())
    return DistanceReport(best, "op_exact", witness)


def d_op_lower(e, f) -> DistanceReport:
    """Lower bound on the operational distance from a sampled subset family.

    Evaluates all singletons, one greedy subset per outcome (the outcomes
    whose effect gap is positive along the top eigendirection of that
    outcome's gap), and ``LOWER_BOUND_SUBSETS`` uniformly random subsets drawn
    from seed 0. For valid POVM pairs each subset holding the last outcome is
    replaced by its complement, as in :func:`d_op_exact`, so the witness
    never contains it.
    """
    deltas, both_valid = _deltas(e, f)
    n_outcomes = deltas.shape[0]

    eigenvalues, eigenvectors = np.linalg.eigh(deltas)
    top_index = np.argmax(np.abs(eigenvalues), axis=-1)[:, None, None]
    top = np.take_along_axis(eigenvectors, top_index, axis=-1)[..., 0]
    aligned = np.einsum("ka,jab,kb->kj", top.conj(), deltas, top).real > 0
    random_bits = make_rng(0).integers(0, 2, size=(LOWER_BOUND_SUBSETS, n_outcomes)) > 0
    family = np.concatenate([np.eye(n_outcomes, dtype=bool), aligned, random_bits])
    if both_valid:  # a subset and its complement give equal norms: keep the one without outcome L - 1
        family ^= family[:, -1:]
    subsets = sorted({tuple(np.flatnonzero(row).tolist()) for row in family})  # () has norm 0
    bits = np.array([np.isin(np.arange(n_outcomes), subset) for subset in subsets])
    norms = linalg.matrix_norm(_subset_sums(bits, deltas), "spectral")
    top = int(np.argmax(norms))
    return DistanceReport(float(norms[top]), "op_lower", subsets[top] if norms[top] > 0.0 else ())


def d_op(e, f) -> DistanceReport:
    """Operational distance: exact up to ``MAX_EXACT_OUTCOMES`` outcomes, else
    :func:`d_op_lower`; the report's ``kind`` says which."""
    if _as_element_stack(e).shape[0] <= MAX_EXACT_OUTCOMES:
        return d_op_exact(e, f)
    return d_op_lower(e, f)


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
