"""Shot simulation, closed-form least-squares estimation, and projection.

The reconstruction pipeline is:

1. :func:`simulate_shots` draws probe states uniformly and samples outcomes
   through the Born rule, producing a dense :class:`FrequencyTable`;
2. :func:`lse_estimate` applies the dual-frame inversion
   ``E_hat_j = sum_i f_ij nu_i`` (exact on expectation values);
3. :func:`project_onto_povms` returns the nearest physical POVM under the
   chosen metric by a semismooth Newton method on the dual, for one raw
   estimate or for a stack of them solved together.

Sample-size calculators and the concentration diagnostics that power them
live here as well.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from itertools import compress
from operator import le, truediv

import numpy as np

from . import linalg
from ._rng import make_rng
from ._schema import dump, integer, read, real
# frame_operator and born are not called here; the benchmark's tracer wraps them on this module.
from .frames import ProbeEnsemble, frame_operator, frame_sum, frame_traces  # noqa: F401
from .povm import Povm, RawEstimate, born  # noqa: F401

PROJECTION_METRICS = ("frobenius", "dav")


class FrequencyTable:
    """Outcome counts from N shots over an M-state ensemble.

    ``counts`` is a read-only dense (M, L) int64 array; cell (i, j) counts
    the shots on probe state i that gave outcome j. A read-only int64 array
    is kept as given, anything else copied. Relative frequencies are
    counts divided by the total shot number N, so the whole table sums to one
    and each cell is an unbiased estimate of ``<psi_i|E_j|psi_i> / M``.
    """

    def __init__(self, counts, n_shots: int):
        if n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if not (isinstance(counts, np.ndarray) and counts.dtype == np.int64 and not counts.flags.writeable):
            counts = np.array(counts)
        if counts.ndim != 2 or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"counts must be a 2-d integer array, got {counts.dtype} {counts.shape}")
        if np.any(counts < 0) or np.any(counts > n_shots):
            raise ValueError(f"counts must lie in [0, n_shots = {n_shots}]")
        total = _exact_sum(counts, n_shots)
        if total != n_shots:
            raise ValueError(f"counts sum to {total}, expected n_shots = {n_shots}")
        self.counts = counts.astype(np.int64, copy=False)
        self.counts.flags.writeable = False
        self.n_states, self.n_outcomes = (int(k) for k in counts.shape)
        self.n_shots = int(n_shots)

    def frequencies(self) -> np.ndarray:
        """Relative frequencies counts/N as an (M, L) array summing to 1."""
        return self.counts / self.n_shots

    def __repr__(self):
        return (
            f"FrequencyTable(M={self.n_states}, L={self.n_outcomes}, "
            f"N={self.n_shots}, cells={np.count_nonzero(self.counts)})"
        )


def _exact_sum(values: np.ndarray, bound: int) -> int:
    """Sum of integers in [0, bound], exact also where an int64 sum would wrap."""
    if values.size * int(bound) < 2**63:  # no partial sum can reach 2**63
        return int(values.sum())
    return int(values.sum(dtype=object))


def simulate_shots(povm: Povm, ensemble: ProbeEnsemble, n_shots: int, seed) -> FrequencyTable:
    """Sample N shots: a uniform probe state, then a Born-rule outcome.

    Deterministic given ``seed`` (Philox stream): one multinomial draw of the
    N shots over the M probe states with probabilities ``1/M`` (O(M) time and
    memory, whatever N), then one multinomial per observed state in
    ascending order. This equals per-shot sampling in distribution, up to
    the rounding of 1/M to a float. The Born probabilities
    ``<psi_i|E_j|psi_i>`` are clipped to [0, 1] against validation slack and
    each row is divided by its sum, as the multinomial sampler needs.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if povm.dim != ensemble.dim:
        raise ValueError(f"POVM dim {povm.dim} != ensemble dim {ensemble.dim}")
    probs = np.clip(frame_traces(povm.elements, ensemble.projector_factors(), ensemble.n_factors).T, 0.0, 1.0)
    probs /= probs.sum(axis=1, keepdims=True)
    rng = make_rng(seed)
    per_state = rng.multinomial(n_shots, np.full(ensemble.size, 1.0 / ensemble.size))
    observed = np.flatnonzero(per_state)
    counts = np.zeros(probs.shape, dtype=np.int64)
    counts[observed] = rng.multinomial(per_state[observed], probs[observed])
    counts.flags.writeable = False  # FrequencyTable keeps it without a copy
    return FrequencyTable(counts, n_shots)


#: Frequency entries (trials x M x L) that one ``frame_sum`` of :func:`lse_estimate` contracts at most.
LSE_STACK_ELEMENTS = 1 << 16


def lse_estimate(frequencies, ensemble: ProbeEnsemble) -> RawEstimate | list[RawEstimate]:
    """Closed-form least-squares estimator ``E_hat_j = sum_i f_ij nu_i``.

    ``frequencies`` is a :class:`FrequencyTable` or an (M, L) array of
    relative frequencies, giving one :class:`RawEstimate`, or a non-empty
    list of same-shape ones, giving one estimate per entry. All M dual frame
    operators are contracted at once, for a list by one :func:`frame_sum`
    per slice of at most :data:`LSE_STACK_ELEMENTS` frequencies (a larger
    stack contracts more slowly than one table at a time, as its copies
    outgrow the cache), and the estimates' Hermiticity is checked in one
    pass; each estimate is bit for bit its solo one.
    """
    tables = frequencies if isinstance(frequencies, list) else [frequencies]
    shapes = {(t.counts if isinstance(t, FrequencyTable) else np.asarray(t)).shape for t in tables}
    if len(shapes) != 1:
        raise ValueError(f"need one or more frequency tables of one shape, got shapes {sorted(shapes)}")
    (shape,) = shapes
    if len(shape) != 2 or shape[0] != ensemble.size or shape[1] < 1:
        raise ValueError(f"frequencies have shape {shape}, need (M, L >= 1) with M = {ensemble.size} states")
    per = max(1, LSE_STACK_ELEMENTS // math.prod(shape))
    dual, n = ensemble.dual_factors(), ensemble.n_factors
    elements = [frame_sum(np.stack([_frequencies(t).T for t in tables[first:first + per]]), dual, n)
                for first in range(0, len(tables), per)]
    estimates = RawEstimate.stack(elements[0] if len(elements) == 1 else np.concatenate(elements))
    return estimates if isinstance(frequencies, list) else estimates[0]


def _frequencies(table) -> np.ndarray:
    return table.frequencies() if isinstance(table, FrequencyTable) else np.asarray(table, dtype=float)


def _metric(name: str, value) -> str:
    if value not in PROJECTION_METRICS:
        raise ValueError(f"metric must be one of {PROJECTION_METRICS}")
    return value


#: Parser of the one key of a config's ``projection`` object.
PROJECTION_SCHEMA = {"metric": _metric}


@dataclass(frozen=True)
class ProjectionDiagnostics:
    iterations: int
    final_residual: float
    converged: bool
    duality_gap: float


def _dav_shift(eigenvalues: np.ndarray) -> np.ndarray:
    # For each row w of a (..., d) array, z = max(w - S, 0) minimizes
    # sum_k (z_k - w_k)^2 + (sum_k (z_k - w_k))^2 over z >= 0 (KKT, with
    # S = sum_k (z_k - w_k)), where S is the root of g(S) = S + sum_k min(w_k, S).
    # g is strictly increasing and lies below each linear piece
    # (1 + m) S + (sum of the d - m smallest w_k), so S is the largest root of those pieces.
    d = eigenvalues.shape[-1]
    smallest = np.cumsum(np.sort(eigenvalues, axis=-1), axis=-1)  # sum of the k + 1 smallest
    sums = np.concatenate([np.zeros(eigenvalues.shape[:-1] + (1,)), smallest], axis=-1)
    return np.max(-sums / np.arange(d + 1, 0, -1), axis=-1, keepdims=True)


def _metric_inverse(y: np.ndarray, metric: str) -> np.ndarray:
    """G^-1 Y for the metric G X = X (frobenius) or G X = X + tr(X) I (dav), over a (..., d, d) stack."""
    if metric == "frobenius":
        return y
    out = y.copy()
    diagonal = np.einsum("...ii->...i", out)  # a writable view; y - c I leaves the rest as it is
    diagonal -= (np.trace(y, axis1=-2, axis2=-1).real / (y.shape[-1] + 1))[..., None]
    return out


def _metric_norm2(x: np.ndarray, metric: str) -> np.ndarray:
    """sum_j ||X_tj||_G^2 = sum_j <X_tj, G X_tj> for each trial t of a (T, L, d, d) stack."""
    flat = x.reshape(len(x), -1)
    value = np.vecdot(flat, flat).real
    if metric == "dav":
        value = value + np.sum(np.trace(x, axis1=-2, axis2=-1).real ** 2, axis=-1)
    return value


# A stack's per-trial reductions are one vecdot over its (T, ...) flattening: a
# BLAS dot per trial that sums as np.vdot and np.linalg.norm do on that trial
# alone. The per-trial scalars the solver branches on are lists of floats, as
# a float op costs far less than a numpy scalar op; one trial is a stack of one.


def _dots(a: np.ndarray, b: np.ndarray) -> list:
    """Re <A_t, B_t> for each trial t of two stacks."""
    return np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1)).real.tolist()


def _norms(a: np.ndarray) -> list:
    """||A_t||_F for each trial t of a stack."""
    return linalg.frobenius_norms(a).tolist()


def _scales(values: list):
    """Per-trial reals that scale a (T, ...) complex stack trial by trial:
    a (T, 1, 1) complex array, or the one float. numpy multiplies a complex
    stack by either with the same complex product; a complex (not float)
    array spares numpy's casting loop."""
    if len(values) == 1:
        return values[0]
    return np.array(values, dtype=complex).reshape(-1, 1, 1)


def _take(stack, keep):
    """A copy of a :class:`_DualPoint` or :class:`_HessianGroup` with the trials a boolean mask
    keeps: its lists compressed and its arrays masked, anything else (``top``, ``k``, ``metric``, a
    float ``mu``) shared."""
    taken = object.__new__(type(stack))
    taken.__dict__ = {name: list(compress(value, keep)) if isinstance(value, list)
                      else value[keep] if isinstance(value, np.ndarray) else value
                      for name, value in vars(stack).items()}
    return taken


class _DualPoint:
    """The dual function of each trial t of a (T, L, d, d) stack at its own Lambda_t:
    theta(Lambda) = 1/2 sum_j ||Z_j||_G^2 + tr Lambda.

    Z_j = P_G(A_j - G^-1 Lambda) is the metric projection onto the PSD cone,
    one shifted eigenvalue clip ``max(lambda - S, 0)`` over the whole stack,
    and the gradient of theta is I - sum_j Z_j. Every array attribute has
    the trial axis first; ``theta``, ``residual`` and the ``step`` that
    :func:`_line_search` sets are lists of floats.
    """

    def __init__(self, raw: np.ndarray, lam: np.ndarray, metric: str):
        self.lam = lam
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(raw - _metric_inverse(lam, metric)[:, None])
        shift = 0.0 if metric == "frobenius" else _dav_shift(self.eigenvalues)
        self.clipped = np.maximum(self.eigenvalues - shift, 0.0)
        q = self.eigenvectors
        self.q_adjoint = q.conj().swapaxes(-1, -2)
        self.z = (q * self.clipped[..., None, :]) @ self.q_adjoint
        self.theta = (0.5 * _metric_norm2(self.z, metric) + np.trace(lam, axis1=-2, axis2=-1).real).tolist()
        self.gradient = np.eye(raw.shape[-1]) - self.z.sum(axis=1)
        self.residual = _norms(self.gradient)

    def hessian(self, metric: str, mu: list):
        """The map H -> sum_j Q_j (Omega_j o Q_j* G^-1(H) Q_j) Q_j* + mu H of each trial.

        Omega_j holds the divided differences of the clip over the
        eigenvalues w of A_j - G^-1 Lambda: 1 on active pairs (w > S), 0 on
        inactive ones, (w_k - S) / (w_k - w_l) from active k to inactive l.
        For dav each active diagonal entry also gets 1/(1 + m) times the sum
        of the inactive diagonal entries of Q_j* Y Q_j, Y = G^-1(H), from
        dS/dw_l = -1/(1 + m) with m active eigenvalues; in the original basis
        that term is c_j(Y) P_j, with P_j the projector onto the active
        eigenvectors and c_j(Y) = tr((I - P_j) Y) / (1 + m_j). No product
        applies G^-1, by an exact identity: G^-1(H) = H - cI with
        c = tr H / (d + 1) = tr G^-1(H); Omega_j's diagonal is 1 on active
        eigenvalues and 0 on inactive ones, so the Omega part maps I to
        sum_j P_j; and c_j(H - cI) = c - tr(P_j H) / (1 + m_j). The c P_j
        terms cancel, so the dav map is
        H -> sum_j Q_j (Omega_j o Q_j* H Q_j) Q_j* - sum_j tr(P_j H) / (1 + m_j) P_j + mu H.

        As in Qi and Sun's method, only k of the d eigenvectors take part:
        the top k = max_j m_j when they cover every active one, or else the
        bottom k = d - min_j m_j with 1 - Omega, whose active block vanishes,
        in ``Y - Q((1 - Omega) o Q* Y Q)Q*``. The trials that share a branch
        and a k form one :class:`_HessianGroup`, so each trial's product uses
        exactly its own k columns. Returns a (stack rows, map) pair per group,
        the map made from the stack's fields if it holds every trial.
        """
        active = self.clipped > 0
        ranks = active.sum(axis=-1)
        d = self.eigenvalues.shape[-1]
        members = {}
        for trial, counts in enumerate(ranks.tolist()):
            high, low = max(counts), d - min(counts)
            top = high <= low  # eigenvalues ascend, so the active ones are on top
            members.setdefault((top, high if top else low), []).append(trial)
        fields = (self.eigenvectors, self.q_adjoint, self.eigenvalues, self.clipped, active, ranks)
        return [(rows, _HessianGroup(*(fields if len(members) == 1 else (a[rows] for a in fields)),
                                     top, k, metric, _scales([mu[t] for t in rows])))
                for (top, k), rows in members.items()]


class _HessianGroup:
    """The Newton map of the trials of a stack that share a branch and a k.

    With C the coefficient rows of the k eigenvectors Q_S,
    Q(C o Q* Y Q)Q* = M + M* for M = Q_S (C' o Q_S* Y Q) Q* and C' equal to
    C with its S columns halved. The k-column factors of a trial's effects
    are concatenated, so each product is one GEMM and one batched matmul
    each way per trial, 4 k d^2 flops per effect. Both branches are the
    same linear map V, which takes I to sum_j P_j, so for dav
    V(G^-1 H) + sum_j c_j(G^-1 H) P_j = V(H) - sum_j tr(P_j H) / (1 + m_j) P_j
    (see :meth:`_DualPoint.hessian`): a product applies V to H itself and
    reads tr(P_j H) off one vecdot, with no G^-1 and no trace.
    """

    def __init__(self, q, q_adjoint, w, clipped, active, ranks, top: bool, k: int, metric: str, mu):
        n_trials, n_outcomes, d, _ = q.shape
        kept = slice(d - k, d) if top else slice(0, k)
        mixed = active[..., kept, None] != active[..., None, :]  # one active, one inactive: w_k != w_l
        gaps = np.where(mixed, w[..., kept, None] - w[..., None, :], 1.0)
        omega = np.where(mixed, (clipped[..., kept, None] - clipped[..., None, :]) / gaps,
                         active[..., kept, None] & active[..., None, :])  # the S rows of Omega
        coefficients = omega if top else 1.0 - omega
        coefficients[..., kept] *= 0.5
        self.top, self.k, self.metric, self.mu, self.q, self.q_adjoint = top, k, metric, mu, q, q_adjoint
        self.coefficients = coefficients.astype(complex)
        self.rows = q_adjoint[..., kept, :].reshape(n_trials, n_outcomes * k, d)  # [Q_S1*; ...; Q_SL*]
        self.columns = q[..., kept].transpose(0, 2, 1, 3).reshape(n_trials, d, n_outcomes * k)  # [Q_S1 ... Q_SL]
        if metric == "dav":
            self.projectors = ((q * active[..., None, :]) @ self.q_adjoint).reshape(n_trials, n_outcomes, d * d)
            self.row_weights = 1.0 / (1.0 + ranks)

    def __call__(self, h: np.ndarray) -> np.ndarray:
        n_trials, n_outcomes, d, _ = self.q.shape
        rotated = (self.rows @ h).reshape(n_trials, n_outcomes, self.k, d) @ self.q  # rows S of Q_j* H Q_j
        half = self.columns @ ((self.coefficients * rotated) @ self.q_adjoint).reshape(self.rows.shape)
        out = half + half.conj().swapaxes(-1, -2)
        if not self.top:
            out = n_outcomes * h - out
        if self.metric == "dav":  # -sum_j tr(P_j H) / (1 + m_j) P_j: one (T, 1, L) by (T, L, d^2) product
            traces = np.vecdot(self.projectors, h.reshape(n_trials, 1, d * d)).real  # vecdot conjugates P_j
            out -= ((self.row_weights * traces)[:, None] @ self.projectors).reshape(n_trials, d, d)
        out += self.mu * h
        return out


def _conjugate_gradient(apply, rhs: np.ndarray, tol: list) -> np.ndarray:
    """Solve apply(x) = rhs for each trial of a (T, d, d) stack, to ||residual_t||_F <= tol_t.

    ``apply`` is positive definite on every trial. A trial that meets its
    tolerance leaves the stack, and the map with it; a trial that meets it
    on entry gets x = 0, and a stack that meets it on entry gets no product.
    The stack gets at most ``_CG_MAX_ITERATIONS`` products.
    """
    x, r, p = np.zeros_like(rhs), rhs.copy(), rhs.copy()
    rr = _dots(r, r)
    tol2 = [t * t for t in tol]
    rows = slice(None)  # the rows of x still iterating
    for _ in range(_CG_MAX_ITERATIONS):
        if any(map(le, rr, tol2)):
            done = list(map(le, rr, tol2))
            if all(done):
                break
            keep = np.logical_not(done)
            r, p, rows, apply = r[keep], p[keep], np.arange(len(x))[rows][keep], _take(apply, keep)
            rr, tol2 = list(compress(rr, keep)), list(compress(tol2, keep))
        ap = apply(p)
        alpha = _scales(list(map(truediv, rr, _dots(p, ap))))
        x[rows] += alpha * p
        r -= alpha * ap
        rr, rr_old = _dots(r, r), rr
        p = r + _scales(list(map(truediv, rr, rr_old))) * p
    return x


def _line_search(raw: np.ndarray, point: _DualPoint, direction: np.ndarray, metric: str):
    """Backtrack from ``point`` along each trial's direction until theta or
    ||grad|| falls by the Armijo factor, halving that trial's step.

    Returns the new point, whose ``step`` lists each trial's primal step
    ||dZ||_F. Each halving evaluates the whole stack again, every trial that
    has accepted at the step it accepted, which gives it the bits of its
    accepting evaluation.
    """
    slope = _dots(point.gradient, direction)
    size, searching = [1.0] * len(direction), [True] * len(direction)
    for _ in range(_LINE_SEARCH_STEPS):  # the last evaluation is taken as it is
        trial = _DualPoint(raw, point.lam + _scales(size) * direction, metric)
        searching = [busy and not (value <= old + _ARMIJO * s * g or norm <= (1 - _ARMIJO * s) * n)
                     for busy, s, g, old, n, value, norm
                     in zip(searching, size, slope, point.theta, point.residual, trial.theta, trial.residual)]
        if not any(searching):
            break
        size = [s / 2 if busy else s for s, busy in zip(size, searching)]
    trial.step = _norms(trial.z - point.z)
    return trial


TOL_FEASIBILITY = 1e-9  # bound on ||sum_j Z_j - I||_F of the returned effects
TOL_STEP = 1e-10  # bound on the last primal step ||dZ||_F
MAX_NEWTON_STEPS = 10000
_CG_MAX_ITERATIONS = 200
_LINE_SEARCH_STEPS = 30
_ARMIJO = 1e-4


def project_onto_povms(raw, metric: str = "frobenius"):
    """Metric projection of raw estimates onto the set of physical POVMs.

    With the ``frobenius`` metric this minimizes ``sum_j ||raw_j - Z_j||_F^2``;
    with ``dav`` it minimizes ``sum_j ||raw_j - Z_j||_G^2`` with
    ``||X||_G^2 = ||X||_F^2 + tr(X)^2``, over PSD Z_j with sum_j Z_j = I.

    Semismooth Newton-CG on the dual (Qi and Sun's method for the nearest
    correlation matrix): minimize theta(Lambda) = 1/2 sum_j ||Z_j||_G^2 + tr Lambda
    with Z_j = P_G(raw_j - G^-1 Lambda), one shifted eigenvalue clip
    ``max(lambda - S, 0)`` per effect (S = 0 for ``frobenius``, S from
    :func:`_dav_shift` for ``dav``). The gradient is I - sum_j Z_j. Each
    Newton step solves W(dLambda) = -grad by conjugate gradients to
    ||residual||_F <= cg_tol = max(min(0.1, ||grad||) ||grad||, 1e-2 TOL_FEASIBILITY),
    with mu = min(1e-2, ||grad||), V(H) = sum_j Q_j (Omega_j o Q_j* H Q_j) Q_j*
    and the Newton map W(H) = V(H) + mu H for ``frobenius`` and
    W(H) = V(H) - sum_j tr(P_j H) / (1 + m_j) P_j + mu H for ``dav``, P_j the
    projector onto Z_j's m_j active eigenvectors (:meth:`_DualPoint.hessian`
    derives it; no product applies G^-1). It then backtracks until theta or
    ||grad|| falls by the Armijo factor. It stops once
    ``||sum_j Z_j - I||_F <= TOL_FEASIBILITY`` and the last primal step
    ``||dZ||_F <= TOL_STEP``; Lambda is not unique for rank-deficient
    targets, so its own steps are no stopping criterion.

    ``raw`` is one estimate (a ``RawEstimate``, ``Povm`` or (L, d, d)
    array), or a list of same-shape estimates, solved as one (T, L, d, d)
    stack; one estimate is a stack of one. Each Newton step makes one
    stacked ``eigh``, one CG solve per group of trials that share a branch
    and a k (each CG iteration one Hessian product over the group's trials
    still iterating), and one evaluation of the whole stack per line-search
    halving, a trial that has accepted at its accepted step. Every trial
    keeps its own dual, CG scalars, step size and stopping test and leaves
    the stack once it stops, so its result is bit for bit its solo one. A
    trial whose ||grad||^2 <= cg_tol^2, CG's entry test, which only
    ||grad|| <= 1e-2 TOL_FEASIBILITY passes, stops at the start of its step.

    Returns ``(Povm, ProjectionDiagnostics)`` for one estimate and
    ``(list of Povm, ProjectionDiagnostics)`` for a list, each Povm
    validated at ``POVM_TOL`` in one :meth:`Povm.stack` pass. ``iterations``
    counts the stack's Newton steps; ``final_residual`` and ``duality_gap``
    (primal objective minus the dual value 1/2 sum_j ||raw_j||_G^2 -
    theta(Lambda), a certificate of optimality) are the largest of any
    trial, the gap by magnitude. Raises ``RuntimeError`` if
    ``MAX_NEWTON_STEPS`` Newton steps pass before every trial meets both
    tolerances.
    """
    _metric("metric", metric)
    estimates = raw if isinstance(raw, list) else [raw]
    arrays = [(e if isinstance(e, RawEstimate) else RawEstimate(e)).elements for e in estimates]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"need one or more estimates of one shape, got shapes {sorted(shapes)}")
    arr = np.stack(arrays)
    n_trials, n_outcomes, d, _ = arr.shape
    # start from the affine projection of raw: G^-1 Lambda_0 = (sum_j raw_j - I) / L
    lam = (arr.sum(axis=1) - np.eye(d)) / n_outcomes
    if metric == "dav":
        lam = lam + np.trace(lam, axis1=1, axis2=2).real[:, None, None] * np.eye(d)
    point = _DualPoint(arr, lam, metric)
    live = np.arange(n_trials)  # the trial of each stack row
    effects, residuals, gaps = np.empty_like(arr), [0.0] * n_trials, [0.0] * n_trials

    def stop(done: list):
        """Record the stack rows ``done`` as stopped; the mask of the other rows, None if there are none."""
        nonlocal arr, point, live
        primal = 0.5 * _metric_norm2(arr - point.z, metric)
        dual = 0.5 * _metric_norm2(arr, metric) - np.array(point.theta)
        for row, gap in compress(enumerate((primal - dual).tolist()), done):
            effects[live[row]], residuals[live[row]], gaps[live[row]] = point.z[row], point.residual[row], gap
        if not all(done):
            keep = np.logical_not(done)
            arr, point, live = arr[keep], _take(point, keep), live[keep]
            return keep

    cg_floor = 1e-2 * TOL_FEASIBILITY
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        cg_tol = [max(min(0.1, g) * g, cg_floor) for g in point.residual]
        solved = [rr <= t * t for rr, t in zip(_dots(point.gradient, point.gradient), cg_tol)]
        if any(solved):  # CG's entry test: a zero direction, met only where ||grad|| <= cg_floor < TOL_FEASIBILITY
            keep = stop(solved)
            if keep is None:
                break
            cg_tol = list(compress(cg_tol, keep))
        mu = [min(1e-2, g) for g in point.residual]
        groups = point.hessian(metric, mu)
        if len(groups) == 1:  # the whole stack: nothing to gather or scatter
            direction = _conjugate_gradient(groups[0][1], -point.gradient, cg_tol)
        else:
            direction = np.empty_like(point.gradient)
            for rows, apply in groups:
                direction[rows] = _conjugate_gradient(apply, -point.gradient[rows], [cg_tol[t] for t in rows])
        point = _line_search(arr, point, direction, metric)
        done = [r <= TOL_FEASIBILITY and s <= TOL_STEP for r, s in zip(point.residual, point.step)]
        if any(done) and stop(done) is None:
            break
    else:
        worst = int(np.argmax(point.residual))
        raise RuntimeError(
            f"projection hit MAX_NEWTON_STEPS = {MAX_NEWTON_STEPS} with residual {point.residual[worst]:.3e} "
            f"(TOL_FEASIBILITY {TOL_FEASIBILITY:.1e}, last step {point.step[worst]:.3e}, TOL_STEP {TOL_STEP:.1e})"
        )
    povms = Povm.stack(effects)
    diagnostics = ProjectionDiagnostics(iterations, max(residuals), True, max(gaps, key=abs))
    return (povms if isinstance(raw, list) else povms[0]), diagnostics


def _sqrt(x):
    return x.sqrt() if hasattr(x, "sqrt") else math.sqrt(x)  # a Decimal has its own


# (frame, distance, variant) -> (a, sigma^2, K, b) of the Bernstein bound
# N > 8 a (sigma^2 + K epsilon / 6) / epsilon^2 ln(b / delta), in terms of d, L and
# n (d = 2**n for local frames); d and L may be ints or Decimals. sigma^2 and K of
# the op rows bound the probe ensemble's own variance and range, shot-free, which
# bernstein_diagnostics measures from its dual factors.
_BERNSTEIN_ROWS = {
    ("global", "op", "theorem"): lambda d, L, n: (1, d**3 + d**2, d**2, 2 ** (L + 1) * d),
    ("global", "av", "theorem"): lambda d, L, n: (L**2, d**2 + d, 2 * d / L, 4 * L * d),
    ("global", "av", "proof"): lambda d, L, n: (L**2, d**2 + d, d * _sqrt(d) / L, 4 * L * d),
    ("local", "op", "theorem"): lambda d, L, n: (1, 10**n, 4**n, 2 ** (L + 1) * 2**n),
    ("local", "av", "theorem"): lambda d, L, n: (L**2, 5**n, 2**n, 4 * L * 2**n),
}


# The float bound above is a dozen roundings of exact inputs, each within half an
# ulp, so a bound this many ulps from the nearest integer has the float's ceiling.
_ROUNDING_ULPS = 64


def sample_size(
    d: int,
    n_outcomes: int,
    epsilon: float,
    delta: float,
    frame: str = "global",
    distance: str = "op",
    variant: str = "theorem",
    n_qubits: int | None = None,
) -> int:
    """Shots guaranteeing reconstruction error <= epsilon with confidence 1 - delta.

    Evaluates the closed-form bound for the requested frame kind (``global``
    2-design or ``local`` product of single-qubit 2-designs, which requires
    ``n_qubits``), distance (``op`` worst case, ``av`` average case), and for
    the global average-case bound the ``theorem`` or ``proof`` constant. The
    returned integer is one above the ceiling of the bound, so it strictly
    exceeds the real-valued threshold even when that threshold is integral.
    The ceiling is that of the exact bound at the given float inputs: where
    the float evaluation lies within :data:`_ROUNDING_ULPS` ulps of an
    integer or beyond the float range, it is decided with :mod:`decimal` to 40
    digits after the point.
    """
    for name, value in (("d", d), ("n_outcomes", n_outcomes)):
        if integer(name, value) < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if real("epsilon", epsilon) <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < real("delta", delta) < 1:
        raise ValueError("delta must lie in (0, 1)")
    if (frame, distance, variant) not in _BERNSTEIN_ROWS:
        raise ValueError(f"no bound for {(frame, distance, variant)}; defined: {sorted(_BERNSTEIN_ROWS)}")
    if frame == "local" and (n_qubits is None or 2**n_qubits != d):
        raise ValueError("local frames need n_qubits with d = 2**n_qubits")
    row = _BERNSTEIN_ROWS[frame, distance, variant]
    a, sigma2, k, b = row(d, n_outcomes, n_qubits)
    try:  # b / delta, epsilon**2 (underflowed to 0) or round(inf) may leave the float range
        value = 8 * a * (sigma2 + k * epsilon / 6) / epsilon**2 * math.log(b / delta)
        if abs(value - round(value)) > _ROUNDING_ULPS * math.ulp(value):
            return math.ceil(value) + 1
    except (OverflowError, ZeroDivisionError):
        pass
    from decimal import ROUND_CEILING, Decimal, localcontext  # rarely needed, and slow to import

    def exact(digits: int):
        with localcontext() as ctx:
            ctx.prec = digits
            a, sigma2, k, b = row(Decimal(d), Decimal(n_outcomes), n_qubits)
            eps = Decimal(epsilon)
            return 8 * a * (sigma2 + k * eps / 6) / eps**2 * (b / Decimal(delta)).ln()

    value = exact(40)
    if value.adjusted() >= 0:  # 40 digits after the point: the first evaluation counts those before it
        value = exact(41 + value.adjusted())
    return int(value.to_integral_value(ROUND_CEILING)) + 1


@dataclass(frozen=True)
class BernsteinReport:
    k_emp: float
    k_bound: float
    sigma2_emp: float
    sigma2_bound: float


def bernstein_diagnostics(ensemble: ProbeEnsemble) -> BernsteinReport:
    """Matrix-Bernstein parameters of the ensemble's dual frame, for the grouping of every outcome.

    ``k_emp`` is the largest dual-frame operator norm, the largest dual factor
    norm to the power n; ``sigma2_emp`` is ``||(1/M) sum_i nu_i^2 - I||``, the
    variance ``||sum_i p_i nu_i^2 - F^2||`` at F = I and p_i = 1/M. As nu_i is a
    Kronecker product of dual factors, ``(1/M) sum_i nu_i^2`` is ``A^(x)n`` for A
    their mean square, a PSD q x q matrix: the norm is ``max(a_max^n - 1, 1 - a_min^n)``.
    Both are shot-free (multiply by 1/N for the per-shot quantities) and are
    certified not to exceed the closed-form bounds d^2 and d^3 + d^2 (global)
    or 4^n and 10^n (local).
    """
    n = ensemble.n_factors
    dual = ensemble.dual_factors()
    k_emp = float(np.max(np.abs(np.linalg.eigvalsh(dual)))) ** n
    a_min, a_max = np.linalg.eigvalsh((dual @ dual).mean(axis=0))[[0, -1]].tolist()
    sigma2_emp = max(a_max**n - 1, 1 - a_min**n)
    sigma2_bound, k_bound = map(float, _BERNSTEIN_ROWS[ensemble.kind, "op", "theorem"](ensemble.dim, 1, n)[1:3])
    # k_emp is a power of an eigenvalue and carries about n ulps of relative error
    if k_emp > k_bound * (1 + 1e-12) + 1e-9 or sigma2_emp > sigma2_bound * (1 + 1e-12) + 1e-9:
        raise AssertionError(
            f"diagnostics exceed closed-form bounds: K {k_emp} vs {k_bound}, "
            f"sigma2 {sigma2_emp} vs {sigma2_bound}"
        )
    return BernsteinReport(k_emp, k_bound, sigma2_emp, sigma2_bound)


def spec_hash(spec: dict) -> str:
    """sha256 of the canonical JSON encoding of a spec dict."""
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


#: Rows that ``save_counts`` formats and writes in one piece.
COUNTS_CHUNK_ROWS = 8192
_LIMB = 10**4  # the values one digit word spells
_ZERO_PAD = 0x30303030  # ORed into a digit word, turns its NUL bytes into leading "0"s
_COMMA, _CRLF = np.frombuffer(b"\0\0\0,\0\0\r\n", dtype=np.uint32)  # "," and "\r\n" as digit words


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """Tables of 4-byte ASCII words for 0 … 9999: the lowest limb's, and the higher limbs'.

    Word v holds v's digits, most significant first, with a NUL byte in place
    of each leading zero; word 0 is "0" in the first table and all NUL in the
    second. Built on the first call, so commands that write no counts skip it.
    """
    values = np.arange(_LIMB, dtype=np.uint16)
    digits = np.zeros((_LIMB, 4), dtype=np.uint8)
    for place, scale in enumerate((1000, 100, 10, 1)):
        shown = values >= scale
        digits[shown, place] = values[shown] // scale % 10 + ord("0")
    digits[0, 3] = ord("0")
    lowest = digits.view(np.uint32).ravel()
    higher = lowest.copy()
    higher[0] = 0
    lowest.flags.writeable = higher.flags.writeable = False
    return lowest, higher


def _counts_text(states: np.ndarray, outcomes: np.ndarray, cells: np.ndarray) -> bytes:
    """``b"%d,%d,%d\\r\\n"`` of each row of non-negative integers, by table lookup.

    Each value becomes one digit word per 4-digit limb, most significant
    first, and a limb below a nonzero one is zero-padded. The words and the
    separators fill one (rows, words) array whose bytes, without the NULs,
    are the text.
    """
    lowest, higher = _digit_words()
    columns = (states, outcomes, cells)
    limbs = [(len(str(int(column.max()))) + 3) // 4 for column in columns]
    words = np.empty((len(cells), sum(limbs) + len(columns)), dtype=np.uint32)
    start = 0
    for column, k, separator in zip(columns, limbs, (_COMMA, _COMMA, _CRLF)):
        tables = [higher] * (k - 1) + [lowest]  # most significant limb first
        rest = column
        for place in range(k - 1, 0, -1):
            rest, limb = np.divmod(rest, _LIMB)
            word = words[:, start + place]
            word[...] = tables[place][limb]
            np.bitwise_or(word, _ZERO_PAD, out=word, where=rest > 0)  # a nonzero limb comes before it
        words[:, start] = tables[0][rest]
        words[:, start + k] = separator
        start += k + 1
    return words.tobytes().translate(None, b"\0")


def save_counts(table: FrequencyTable, path, ensemble_spec: dict) -> None:
    """Write counts as CSV plus a `<path>.meta.json` sidecar.

    The CSV has header ``state_index,outcome_index,count`` and one row per
    nonzero cell in row-major order, with CRLF line ends, formatted in chunks
    of :data:`COUNTS_CHUNK_ROWS` rows from a table of 4-digit ASCII words; the
    sidecar records M, L, N, the ensemble spec and its hash so ingestion can
    verify compatibility.
    """
    path = str(path)
    states, outcomes = np.nonzero(table.counts)
    cells = table.counts[states, outcomes]
    with open(path, "wb") as fh:
        fh.write(b"state_index,outcome_index,count\r\n")
        for start in range(0, len(cells), COUNTS_CHUNK_ROWS):
            chunk = slice(start, start + COUNTS_CHUNK_ROWS)
            fh.write(_counts_text(states[chunk], outcomes[chunk], cells[chunk]))
    meta = {"n_states": table.n_states, "n_outcomes": table.n_outcomes, "n_shots": table.n_shots,
            "ensemble_spec": ensemble_spec, "ensemble_spec_sha256": spec_hash(ensemble_spec)}
    dump(meta, path + ".meta.json")


def _size(key: str, value) -> int:
    if integer(key, value) < 1:
        raise ValueError(f"{key} must be >= 1, got {value!r}")
    return int(value)


#: Parser of each counts sidecar key; only the ensemble spec and its hash may be absent.
_SIDECAR_SCHEMA = {"n_states": _size, "n_outcomes": _size, "n_shots": _size,
                   "ensemble_spec": lambda key, spec: spec, "ensemble_spec_sha256": lambda key, digest: digest}
_SIDECAR_DEFAULTS = {"ensemble_spec": None, "ensemble_spec_sha256": None}


def load_counts_meta(path) -> dict:
    """Read the sidecar of the counts CSV ``path`` against :data:`_SIDECAR_SCHEMA`, without the CSV."""
    with open(str(path) + ".meta.json") as fh:
        return read("counts sidecar", json.load(fh), _SIDECAR_SCHEMA, _SIDECAR_DEFAULTS)


def load_counts(path, meta: dict | None = None) -> tuple[FrequencyTable, dict]:
    """Read a counts CSV and its sidecar (:func:`load_counts_meta`); returns (table, metadata).

    ``meta`` is the sidecar as :func:`load_counts_meta` returned it, for a caller
    that has already read and checked it; the sidecar is then not read again.
    Repeated cells add up; a negative count is rejected before it can cancel one,
    and a count above ``n_shots`` or rows that do not sum to it before they are added.
    """
    if meta is None:
        meta = load_counts_meta(path)
    n_states, n_outcomes, n_shots = meta["n_states"], meta["n_outcomes"], meta["n_shots"]
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != ["state_index", "outcome_index", "count"]:
            raise ValueError(f"unexpected counts header: {header}")
        body = fh.read()
    if body.strip():  # np.loadtxt warns on empty input
        rows = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)
    else:
        rows = np.empty((0, 3), dtype=np.int64)
    if rows.shape[1] != 3:
        raise ValueError(f"counts rows have {rows.shape[1]} fields, expected 3")
    states, outcomes, cells = rows.T
    bad = (states < 0) | (states >= n_states) | (outcomes < 0) | (outcomes >= n_outcomes)
    bad |= (cells < 0) | (cells > n_shots)
    if bad.any():  # name the first bad row in file order
        i, j, c = rows[np.argmax(bad)].tolist()
        if not (0 <= i < n_states and 0 <= j < n_outcomes):
            raise ValueError(f"cell ({i}, {j}) outside {n_states} x {n_outcomes}")
        if c < 0:
            raise ValueError(f"row {i},{j},{c}: negative count")
        raise ValueError(f"row {i},{j},{c}: count above n_shots = {n_shots}")
    total = _exact_sum(cells, n_shots)
    if total != n_shots:  # checked here because np.add.at would wrap a larger sum
        raise ValueError(f"counts sum to {total}, expected n_shots = {n_shots}")
    counts = np.zeros(n_states * n_outcomes, dtype=np.int64)
    np.add.at(counts, states * n_outcomes + outcomes, cells)
    counts.flags.writeable = False  # FrequencyTable keeps it without a copy
    return FrequencyTable(counts.reshape(n_states, n_outcomes), n_shots), meta
