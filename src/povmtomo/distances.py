"""Distance measures between POVMs.

The worst-case (operational) distance is the maximum spectral norm of a
coarse-grained effect difference over all outcome subsets; it is computed
exactly by enumeration up to a subset cap, with a randomized lower bound for
larger outcome counts. The exact enumeration bounds before it
forms: the traces t_j and the Gram matrix G_jk = Re<C_j, C_k> of the
traceless parts C_j = D_j - (t_j/d) I of the effect differences give each
subset sum D_S = sum_j b_j D_j the trace bound ||D_S|| <= |m| + s sqrt(d-1)
(Wolkowicz and Styan), m = b.t/d and s^2 d = b^T G b, one (subsets, L)
quadratic form per pair. Only subsets whose bound is not below the running
maximum minus a rounding slack are formed, by one real matrix product (0/1
bits times the float view of the differences, exactly Hermitian sums), and
eigensolved. The value and the witness (the first subset in Gray-code order
to reach the maximum) are those of evaluating every subset. The
average-case distance is the closed-form root-mean-square expression over
effect differences and their traces. ``d_op_exact`` and ``d_av`` also take a
list of same-shape estimates against one reference and return one report
per estimate, each that of its own pair.

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
from .povm import Povm, RawEstimate, _as_element_stack

MAX_EXACT_OUTCOMES = 24
LOWER_BOUND_SUBSETS = 64  # random subsets in d_op_lower's family
SUBSET_CHUNK_ELEMENTS = 1 << 16  # matrix entries per chunk of subset sums in d_op_exact
SUBSET_STACK_ELEMENTS = 1 << 20  # subset-sum entries a group of d_op_exact's pairs may form per chunk


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


def _delta_stack(e, f) -> tuple[np.ndarray, list[bool]]:
    """The (T, L, d, d) differences of ``e`` and ``f``, one estimate or a non-empty list of them, and
    whether each pair is two POVMs."""
    if isinstance(f, list) and not f:
        raise ValueError("need one or more estimates to compare")
    e = e if isinstance(e, (Povm, RawEstimate)) else RawEstimate(e)
    pairs = [_deltas(e, x) for x in (f if isinstance(f, list) else [f])]
    return np.stack([deltas for deltas, _ in pairs]), [valid for _, valid in pairs]


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
    L <= 12 enumeration checked. A one-row product would go through a
    matrix-vector kernel that groups the additions differently, so one row
    is formed as two.
    """
    (rows, n_bits), d = bits.shape, deltas.shape[1]
    flat = deltas[:n_bits].reshape(n_bits, d * d).view(float)  # (real, imag) pairs
    bits = np.asarray(bits, dtype=float) if rows > 1 else np.repeat(bits.astype(float), 2, axis=0)
    return (bits @ flat).view(complex).reshape(-1, d, d)[:rows]


def _spectral_norms(sums: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of :func:`_subset_sums` output, in one stacked ``eigvalsh``.

    The sums are exactly Hermitian, so they skip ``linalg.matrix_norm``'s
    Hermiticity check and copy; the norms are the same bit for bit.
    """
    return np.max(np.abs(np.linalg.eigvalsh(sums)), axis=-1)


def _bound_form(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The [linear | quadratic] form of the trace bounds on the subset sums of an (n, d, d) Hermitian
    stack, (n, n + 1), and their slack; a (..., n, d, d) stack of pairs gives one of each per pair.

    With t_j = tr D_j and the traceless parts C_j = D_j - (t_j/d) I, the sum
    D_S = sum_j b_j D_j of a 0/1 row b has mean m_S = b.t/d and
    s_S^2 d = ||D_S - m_S I||_F^2 = b^T G b, G_jk = Re<C_j, C_k> the dot
    product of the float views of C_j and C_k. Every eigenvalue of D_S lies
    in [m_S - s_S sqrt(d-1), m_S + s_S sqrt(d-1)] (Wolkowicz and Styan,
    "Bounds for eigenvalues using traces", 1980), so ||D_S|| <= |m_S| +
    s_S sqrt(d-1), with equality for the spectrum (m + (d-1)t, m - t, ...,
    m - t). :func:`_trace_bounds` evaluates it as |b.linear| +
    sqrt(b^T quadratic b), linear = t/d and quadratic = G (d-1)/d, in one
    (subsets, n) by (n, n + 1) product.

    The slack covers rounding; u = eps/2 is the unit roundoff, and
    F = sum_j ||D_j||_F is at least every ||D_S||_F. (i) Rounded traces
    centre the C_j at some mu_S instead of m_S. The bound still holds as
    ||D_S|| <= |mu_S| + |m_S - mu_S| + sqrt((d-1)/d) ||D_S - mu_S I||_F,
    since centring anywhere but at m_S only grows the Frobenius norm, and
    |m_S - mu_S| = O(d u F). (ii) The Gram entries carry
    |dG_jk| <= 2d^2 u ||C_j||_F ||C_k||_F, and the scaling by (d-1)/d and
    the quadratic form another (2n + 1) u sum_jk b_j b_k |G_jk|. b^T G b can
    cancel (D_1 close to -D_0), so this rounding is absolute, about
    (d^2 + n) eps (sum_j ||C_j||_F)^2; as |sqrt(x) - sqrt(y)| <=
    sqrt(|x - y|), it moves s_S sqrt(d) by about sqrt((d^2 + n) eps)
    sum_j ||C_j||_F. A negative rounded form is read as 0, which the same
    inequality covers. (iii) The rest is relative rounding of
    O((d^2 + n) u F): the centring, the sum's own rounding in
    :func:`_subset_sums` (gamma_n F), eigvalsh's backward error (LAPACK:
    p(d) eps ||D_S||, p modest in d), and the comparison with the running
    maximum. The slack 2 sqrt((d^2 + n) eps) sum_j ||C_j||_F +
    16 (d^2 + n) eps F, twice (ii) and several times (iii), then gives: a
    subset whose computed bound is below x - slack has a computed spectral
    norm below x. A square that overflows gives an inf or NaN bound or
    slack, which never proves anything.
    """
    *stack, n, d, _ = deltas.shape
    centred = deltas.reshape(*stack, n, d * d).view(float).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        traces = np.trace(deltas, axis1=-2, axis2=-1).real
        centred[..., ::2 * (d + 1)] -= traces[..., None] / d  # the real parts of the diagonal
        gram = centred @ centred.swapaxes(-1, -2)
        squares = np.diagonal(gram, axis1=-2, axis2=-1)  # ||C_j||_F^2 = ||D_j||_F^2 - t_j^2/d
        eps = np.finfo(float).eps
        slack = (2 * np.sqrt((d * d + n) * eps) * np.sum(np.sqrt(squares), axis=-1)
                 + 16 * (d * d + n) * eps * np.sum(np.sqrt(squares + traces * traces / d), axis=-1))
    return np.concatenate([traces[..., None] / d, gram * ((d - 1) / d)], axis=-1), slack


def _trace_bounds(bits: np.ndarray, form: np.ndarray) -> np.ndarray:
    """|b.linear| + sqrt(b^T quadratic b) for each float 0/1 row b of the first ``bits.shape[1]``
    differences, from a pair's [linear | quadratic] ``form`` of :func:`_bound_form`."""
    n = bits.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        product = bits @ form[:n, :n + 1]
        squares = np.einsum("ij,ij->i", product[:, 1:], bits)
        return np.abs(product[:, 0]) + np.sqrt(np.maximum(squares, 0.0))


def d_op_exact(e, f) -> DistanceReport | list[DistanceReport]:
    """Operational distance: max over outcome subsets of the grouped-effect gap.

    For valid POVM pairs the effect differences sum to zero, so a subset and
    its complement give equal norms; enumeration then covers only the 2^(L-1)
    subsets excluding the last outcome. Raw estimates are enumerated in full.
    Subsets are taken in Gray-code order, ``SUBSET_CHUNK_ELEMENTS // d^2`` at
    a time; the witness is the first subset in that order to reach the
    maximum.

    ``f`` is one estimate, giving one ``DistanceReport``, or a non-empty list
    of estimates of one shape, giving one report per estimate, each that of
    its own pair with ``e``. The pairs share each chunk's Gray-code bits and
    its eigensolves, and nothing else, in groups small enough that a chunk's
    subset sums for the whole group hold at most ``SUBSET_STACK_ELEMENTS``
    matrix entries. Each pair enumerates its own 2^(L-1) or 2^L subsets.

    Bound, then verify: :func:`_bound_form` reads each pair's trace bounds
    |m| + s sqrt(d-1) from the traces and the Gram matrix of its
    differences, one (subsets, L) quadratic form per pair and chunk. Exact
    spectral norms are taken for each pair's 8 largest bounds first (a
    stacked call's fixed cost exceeds eight small eigensolves), then, in one
    more stacked call, for every other subset whose bound is not below that
    pair's running maximum minus its slack. Only those subsets are formed,
    by :func:`_subset_sums`, and each call eigensolves them for every pair
    at once. A chunk of at most 63 subsets skips the bound and eigensolves
    them all: below 64 subsets the bound costs more than the eigensolves it
    skips, at every d from 2 to 16. Every subset left out has a computed
    norm below the maximum, so the value and witness are those of
    evaluating every subset.
    """
    deltas, both_valid = _delta_stack(e, f)
    n_trials, n_outcomes, d, _ = deltas.shape
    if n_outcomes > MAX_EXACT_OUTCOMES:
        raise ValueError(
            f"L = {n_outcomes} exceeds the exact-enumeration cap "
            f"{MAX_EXACT_OUTCOMES}; use d_op_lower"
        )
    n_bits = [n_outcomes - 1 if valid else n_outcomes for valid in both_valid]
    chunk = max(1, SUBSET_CHUNK_ELEMENTS // (d * d))
    group = max(1, SUBSET_STACK_ELEMENTS // (min(chunk, 2 ** max(n_bits)) * d * d))  # pairs per enumeration
    reports = []
    for first in range(0, n_trials, group):
        reports += _largest_subset_norms(deltas[first:first + group], n_bits[first:first + group], chunk)
    return reports if isinstance(f, list) else reports[0]


def _largest_subset_norms(deltas: np.ndarray, n_bits: list[int], chunk: int) -> list[DistanceReport]:
    """:func:`d_op_exact`'s enumeration of a (T, L, d, d) group of pairs, each over its first n_bits
    differences, ``chunk`` Gray-code subsets at a time."""
    n_trials = len(deltas)
    if chunk > 63 and 2 ** max(n_bits) > 64:  # some chunk holds more than 63 subsets
        forms, slacks = _bound_form(deltas)
    best, witness = [0.0] * n_trials, [()] * n_trials
    for start in range(1, 2 ** max(n_bits), chunk):
        gray = _gray_bits(start, min(start + chunk, 2 ** max(n_bits)), max(n_bits)).astype(float)
        trials = [t for t in range(n_trials) if start < 2 ** n_bits[t]]
        bits = [gray[:2 ** n_bits[t] - start, :n_bits[t]] for t in trials]
        bounds = [_trace_bounds(rows, forms[t]) if len(rows) > 63 else None for t, rows in zip(trials, bits)]
        picked = [np.arange(len(rows)) if bound is None else np.argpartition(bound, -8)[-8:]  # NaN sorts last
                  for rows, bound in zip(bits, bounds)]
        norms = [np.full(len(rows), -np.inf) for rows in bits]
        for _ in range(2):  # the 8 largest bounds, then every other subset against the raised maxima
            picked = [p if bound is None else p[~(bound[p] < max(best[t], values.max()) - slacks[t])]
                      for t, p, bound, values in zip(trials, picked, bounds, norms)]
            sums = [_subset_sums(rows[p], deltas[t]) for t, rows, p in zip(trials, bits, picked) if len(p)]
            if not sums:
                break
            solved = _spectral_norms(np.concatenate(sums) if len(sums) > 1 else sums[0])
            for p, values in zip(picked, norms):
                values[p], solved = solved[:len(p)], solved[len(p):]
            picked = [np.flatnonzero(values == -np.inf) for values in norms]
        for t, rows, values in zip(trials, bits, norms):
            top = int(np.argmax(values))
            if values[top] > best[t]:
                best[t], witness[t] = float(values[top]), tuple(np.flatnonzero(rows[top]).tolist())
    return [DistanceReport(value, "op_exact", subset) for value, subset in zip(best, witness)]


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
    norms = _spectral_norms(_subset_sums(bits, deltas))
    top = int(np.argmax(norms))
    return DistanceReport(float(norms[top]), "op_lower", subsets[top] if norms[top] > 0.0 else ())


def d_op(e, f) -> DistanceReport:
    """Operational distance: exact up to ``MAX_EXACT_OUTCOMES`` outcomes, else
    :func:`d_op_lower`; the report's ``kind`` says which."""
    if _as_element_stack(e).shape[0] <= MAX_EXACT_OUTCOMES:
        return d_op_exact(e, f)
    return d_op_lower(e, f)


def d_av(e, f) -> DistanceReport | list[DistanceReport]:
    """Average-case distance sqrt((1/2d) sum_j (||D_j||_F^2 + tr(D_j)^2)).

    Equals sqrt((d+1)/2 * E_psi sum_j <psi|D_j|psi>^2) over Haar-random pure
    states. For two valid POVMs d_av <= sqrt(d+1) * d_op, with equality for
    {(1/2+t)I, (1/2-t)I} vs {I/2, I/2}; the proof uses sum_j D_j = 0, so the
    ordering need not hold when either input is a ``RawEstimate``. As in
    :func:`d_op_exact`, a list ``f`` gives one report per estimate.
    """
    deltas, _ = _delta_stack(e, f)
    d = deltas.shape[-1]
    traces = np.trace(deltas, axis1=-2, axis2=-1).real
    totals = np.sum(linalg.matrix_norm(deltas, "frobenius") ** 2 + traces**2, axis=-1)
    reports = [DistanceReport(float(np.sqrt(total / (2 * d))), "av", None) for total in totals]
    return reports if isinstance(f, list) else reports[0]


def upper_surrogates(e, f) -> UpperSurrogates:
    """Per-element norm sums; the spectral sum always dominates d_op."""
    deltas, _ = _deltas(e, f)
    frob_sum = np.sum(linalg.matrix_norm(deltas, "frobenius"))
    spec_sum = np.sum(linalg.matrix_norm(deltas, "spectral"))
    return UpperSurrogates(float(frob_sum), float(spec_sum))
