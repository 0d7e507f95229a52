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

import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import compress
from operator import le, truediv

import numpy as np

from . import linalg
from ._rng import make_rng
from ._schema import dump, integer, read, real
# frame_operator and born are not called here; the benchmark's tracer wraps them on this module.
from .frames import ProbeEnsemble, frame_operator, frame_sum, frame_traces  # noqa: F401
from .povm import Povm, RawEstimate, born, coarse_grain  # noqa: F401

PROJECTION_METRICS = ("frobenius", "dav")


class FrequencyTable:
    """Outcome counts from N shots over an M-state ensemble.

    ``counts`` is a read-only dense (M, L) int64 array; cell (i, j) counts
    the shots on probe state i that gave outcome j. Relative frequencies are
    counts divided by the total shot number N, so the whole table sums to one
    and each cell is an unbiased estimate of ``<psi_i|E_j|psi_i> / M``.
    """

    def __init__(self, counts, n_shots: int):
        if n_shots < 1:
            raise ValueError("n_shots must be >= 1")
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


def _probabilities(povm: Povm, ensemble: ProbeEnsemble) -> np.ndarray:
    """Born probabilities ``<psi_i|E_j|psi_i>`` as an (M, L) array.

    Tiny negative values from validation slack are clipped to zero and each
    row is renormalized, as :func:`povm.born` does, so rows feed a sampler.
    """
    if povm.dim != ensemble.dim:
        raise ValueError(f"POVM dim {povm.dim} != ensemble dim {ensemble.dim}")
    probs = frame_traces(povm.elements, ensemble.projector_factors(), ensemble.n_factors).T
    probs = np.clip(probs, 0.0, 1.0)
    return probs / probs.sum(axis=1, keepdims=True)


def simulate_shots(povm: Povm, ensemble: ProbeEnsemble, n_shots: int, seed) -> FrequencyTable:
    """Sample N shots: a uniform probe state, then a Born-rule outcome.

    Deterministic given ``seed`` (Philox stream): one multinomial draw of the
    N shots over the M probe states with probabilities ``1/M`` (O(M) time and
    memory, whatever N), then one multinomial per observed state in
    ascending order. This equals per-shot sampling in distribution, up to
    the rounding of 1/M to a float.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    probs = _probabilities(povm, ensemble)
    rng = make_rng(seed)
    per_state = rng.multinomial(n_shots, np.full(ensemble.size, 1.0 / ensemble.size))
    observed = np.flatnonzero(per_state)
    counts = np.zeros(probs.shape, dtype=np.int64)
    counts[observed] = rng.multinomial(per_state[observed], probs[observed])
    return FrequencyTable(counts, n_shots)


def exact_frequencies(povm: Povm, ensemble: ProbeEnsemble) -> np.ndarray:
    """Expected frequencies ``<psi_i|E_j|psi_i> / M`` as an (M, L) array.

    Substituting these for measured frequencies makes the least-squares
    estimator reproduce the POVM exactly.
    """
    return _probabilities(povm, ensemble) / ensemble.size


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


def _ratios(numerators: list, denominators: list):
    """The scales (as :func:`_scales`) numerator_t / denominator_t."""
    if len(numerators) == 1:
        return numerators[0] / denominators[0]
    return _scales(list(map(truediv, numerators, denominators)))


class _DualPoint:
    """The dual function of each trial t of a (T, L, d, d) stack at its own Lambda_t:
    theta(Lambda) = 1/2 sum_j ||Z_j||_G^2 + tr Lambda.

    Z_j = P_G(A_j - G^-1 Lambda) is the metric projection onto the PSD cone,
    one shifted eigenvalue clip ``max(lambda - S, 0)`` over the whole stack,
    and the gradient of theta is I - sum_j Z_j. Every array attribute has
    the trial axis first; ``theta`` and ``residual`` are lists of floats.
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

    def take(self, keep) -> "_DualPoint":
        """The trials a boolean mask keeps, copied."""
        point = object.__new__(type(self))
        point.__dict__ = {name: list(compress(value, keep)) if isinstance(value, list) else value[keep]
                          for name, value in vars(self).items()}
        return point

    def put(self, rows: np.ndarray, other: "_DualPoint") -> None:
        """Overwrite the trials ``rows`` with those of ``other``, in order."""
        for name, value in vars(other).items():
            field = getattr(self, name)
            if isinstance(field, list):
                for row, item in zip(rows.tolist(), value):
                    field[row] = item
            else:
                field[rows] = value

    def hessian(self, metric: str, mu: list):
        """The map H -> sum_j Q_j (Omega_j o Q_j* G^-1(H) Q_j) Q_j* + mu H of each trial.

        Omega_j holds the divided differences of the clip over the
        eigenvalues w of A_j - G^-1 Lambda: 1 on active pairs (w > S), 0 on
        inactive ones, (w_k - S) / (w_k - w_l) from active k to inactive l.
        For dav each active diagonal entry also gets 1/(1 + m) times the sum
        of the inactive diagonal entries of Q_j* G^-1(H) Q_j, from
        dS/dw_l = -1/(1 + m) with m active eigenvalues. Back in the original
        basis that term is c_j P_j, with P_j the projector onto the active
        eigenvectors and c_j = tr((I - P_j) G^-1(H)) / (1 + m_j).

        As in Qi and Sun's method, only k of the d eigenvectors take part:
        the top k = max_j m_j when they cover every active one, or else the
        bottom k = d - min_j m_j with 1 - Omega, whose active block vanishes,
        in ``Y - Q((1 - Omega) o Q* Y Q)Q*``. The trials that share a branch
        and a k form one :class:`_HessianGroup`, so each trial's product uses
        exactly its own k columns; a stack of several groups is a :class:`_Hessian`.
        """
        active = self.clipped > 0
        ranks = active.sum(axis=-1)
        d = self.eigenvalues.shape[-1]
        members = {}
        for trial, (high, low) in enumerate(zip(ranks.max(axis=1).tolist(), (d - ranks.min(axis=1)).tolist())):
            top = high <= low  # eigenvalues ascend, so the active ones are on top
            members.setdefault((top, high if top else low), []).append(trial)
        fields = (self.eigenvectors, self.q_adjoint, self.eigenvalues, self.clipped, active, ranks)
        if len(members) == 1:
            ((top, k),) = members
            return _HessianGroup(*fields, top, k, metric, _scales(mu))
        return _Hessian([
            (rows, _HessianGroup(*(a[rows] for a in fields), top, k, metric, _scales([mu[t] for t in rows])))
            for (top, k), rows in members.items()
        ])


class _HessianGroup:
    """The Newton map of the trials of a stack that share a branch and a k.

    With C the coefficient rows of the k eigenvectors Q_S,
    Q(C o Q* Y Q)Q* = M + M* for M = Q_S (C' o Q_S* Y Q) Q* and C' equal to
    C with its S columns halved. The k-column factors of a trial's effects
    are concatenated, so each product is one GEMM and one batched matmul
    each way per trial, 4 k d^2 flops per effect.
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
            self.flat_projectors = self.projectors.conj()
            self.row_weights = 1.0 / (1.0 + ranks)

    def take(self, keep) -> "_HessianGroup":
        """The trials a boolean mask keeps."""
        group = object.__new__(_HessianGroup)
        group.__dict__ = {name: value[keep] if isinstance(value, np.ndarray) else value
                          for name, value in vars(self).items()}
        return group

    def __call__(self, h: np.ndarray) -> np.ndarray:
        n_trials, n_outcomes, d, _ = self.q.shape
        y = _metric_inverse(h, self.metric)
        rotated = (self.rows @ y).reshape(n_trials, n_outcomes, self.k, d) @ self.q  # rows S of Q_j* Y Q_j
        half = self.columns @ ((self.coefficients * rotated) @ self.q_adjoint).reshape(self.rows.shape)
        out = half + half.conj().swapaxes(-1, -2)
        if not self.top:
            out = n_outcomes * y - out
        if self.metric == "dav":  # sum_j c_j P_j: one (T, 1, L) by (T, L, d^2) product
            inactive_traces = (np.trace(y, axis1=-2, axis2=-1).real[:, None]
                               - (self.flat_projectors @ y.reshape(n_trials, d * d, 1))[..., 0].real)
            weights = (self.row_weights * inactive_traces)[:, None]
            out += (weights @ self.projectors).reshape(n_trials, d, d)
        out += self.mu * h
        return out


class _Hessian:
    """The Newton map of a stack whose trials form several groups: (stack rows, group) pairs."""

    def __init__(self, groups):
        self.groups = groups

    def take(self, keep: np.ndarray):
        """The map of the trials a boolean mask over the stack keeps."""
        new_rows = np.cumsum(keep) - 1
        groups = []
        for rows, group in self.groups:
            kept = keep[rows]
            if kept.any():
                groups.append((new_rows[rows][kept], group.take(kept)))
        return groups[0][1] if len(groups) == 1 else _Hessian(groups)

    def __call__(self, h: np.ndarray) -> np.ndarray:
        out = np.empty_like(h)
        for rows, group in self.groups:
            out[rows] = group(h[rows])
        return out


def _conjugate_gradient(build, rhs: np.ndarray, tol: list, max_iterations: int) -> np.ndarray:
    """Solve apply(x) = rhs for each trial of a (T, d, d) stack, to ||residual_t||_F <= tol_t.

    ``build()`` makes the map, positive definite on every trial, once some
    trial needs a product. A trial that meets its tolerance leaves the
    stack, and the map with it.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rr = _dots(r, r)
    tol2 = [t * t for t in tol]
    if all(map(le, rr, tol2)):
        return x
    apply = build()
    solution, rows = x, None  # rows: the stack rows still iterating, once a trial has left
    for _ in range(max_iterations):
        if any(map(le, rr, tol2)):
            done = list(map(le, rr, tol2))
            if all(done):
                break
            if rows is None:
                rows = np.arange(len(rhs))
            solution[rows[done]] = x[done]
            keep = np.logical_not(done)
            x, r, p, rows, apply = x[keep], r[keep], p[keep], rows[keep], apply.take(keep)
            rr, tol2 = list(compress(rr, keep)), list(compress(tol2, keep))
        ap = apply(p)
        alpha = _ratios(rr, _dots(p, ap))
        x += alpha * p
        r -= alpha * ap
        rr, rr_old = _dots(r, r), rr
        p = r + _ratios(rr, rr_old) * p
    if x is not solution:
        solution[rows] = x
    return solution


def _line_search(raw: np.ndarray, point: _DualPoint, direction: np.ndarray, metric: str):
    """Backtrack from ``point`` along each trial's nonzero direction until
    theta or ||grad|| falls by the Armijo factor, halving that trial's step.

    Returns the new point and each trial's primal step ||dZ||_F, 0 where the
    direction vanishes. Each halving evaluates only the trials still searching.
    """
    n_trials = len(direction)
    rows = direction.any(axis=(1, 2)).nonzero()[0]
    step = [0.0] * n_trials
    if not len(rows):
        return point, step
    slope, theta, grad_norm = _dots(point.gradient, direction), point.theta, point.residual
    size = [1.0] * len(rows)
    found = []  # (stack rows, their new point)
    for attempt in range(_LINE_SEARCH_STEPS):
        index = slice(None) if len(rows) == n_trials else rows
        trial = _DualPoint(raw[index], point.lam[index] + _scales(size) * direction[index], metric)
        accept = [attempt == _LINE_SEARCH_STEPS - 1
                  or value <= theta[t] + _ARMIJO * s * slope[t] or norm <= (1 - _ARMIJO * s) * grad_norm[t]
                  for t, s, value, norm in zip(rows.tolist(), size, trial.theta, trial.residual)]
        if all(accept):
            found.append((rows, trial))
            break
        if any(accept):
            found.append((rows[accept], trial.take(accept)))
        rows, size = rows[np.logical_not(accept)], [s / 2 for s, a in zip(size, accept) if not a]
    if len(found) == 1 and len(rows) == n_trials:
        return trial, _norms(trial.z - point.z)
    new = point.take(np.ones(n_trials, bool))
    for rows, trial in found:
        for row, norm in zip(rows.tolist(), _norms(trial.z - point.z[rows])):
            step[row] = norm
        new.put(rows, trial)
    return new, step


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
    Newton step solves (V + mu I) dLambda = -grad by conjugate gradients, V
    from :meth:`_DualPoint.hessian` and mu = min(1e-2, ||grad||), then
    backtracks until theta or ||grad|| falls by the Armijo factor. It stops
    once ``||sum_j Z_j - I||_F <= TOL_FEASIBILITY`` and the last primal step
    ``||dZ||_F <= TOL_STEP``; Lambda is not unique for rank-deficient
    targets, so its own steps are no stopping criterion.

    ``raw`` is one estimate (a ``RawEstimate``, ``Povm`` or (L, d, d)
    array), or a list of same-shape estimates. A list is solved as one
    (T, L, d, d) stack: each Newton step makes one stacked ``eigh``, each CG
    iteration one Hessian product per group of trials that share its branch
    and k, and each line-search halving one evaluation of the trials still
    searching. Every trial keeps its own dual, CG scalars, step size and
    stopping test and leaves the stack once it stops, so its result is bit
    for bit the one it gets on its own; one estimate is a stack of one.

    Returns ``(Povm, ProjectionDiagnostics)`` for one estimate and
    ``(list of Povm, ProjectionDiagnostics)`` for a list, each Povm
    validated at ``POVM_TOL`` in one :meth:`Povm.stack` pass once every
    trial has stopped. ``duality_gap`` is the primal objective minus the
    dual value 1/2 sum_j ||raw_j||_G^2 - theta(Lambda), a certificate of
    optimality. For a list, ``iterations`` counts the stack's Newton steps
    (the largest count of any trial), and ``final_residual`` and
    ``duality_gap`` are the largest of any trial (the gap by magnitude).
    Raises ``RuntimeError`` if ``MAX_NEWTON_STEPS`` Newton steps pass before
    every trial meets both tolerances.
    """
    _metric("metric", metric)
    estimates = raw if isinstance(raw, list) else [raw]
    arrays = [(e if isinstance(e, (Povm, RawEstimate)) else RawEstimate(e)).elements for e in estimates]
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
    results = [None] * n_trials
    cg_floor = 1e-2 * TOL_FEASIBILITY
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        grad_norm = point.residual
        mu = [min(1e-2, g) for g in grad_norm]
        cg_tol = [max(min(0.1, g) * g, cg_floor) for g in grad_norm]
        direction = _conjugate_gradient(partial(point.hessian, metric, mu), -point.gradient, cg_tol, _CG_MAX_ITERATIONS)
        point, step = _line_search(arr, point, direction, metric)
        done = [r <= TOL_FEASIBILITY and s <= TOL_STEP for r, s in zip(point.residual, step)]
        if not any(done):
            continue
        primal = 0.5 * _metric_norm2(arr - point.z, metric)
        dual = 0.5 * _metric_norm2(arr, metric) - np.array(point.theta)
        for row, gap in compress(enumerate((primal - dual).tolist()), done):
            results[live[row]] = (point.z[row], ProjectionDiagnostics(iterations, point.residual[row], True, gap))
        if all(done):
            break
        keep = np.logical_not(done)
        arr, point, live = arr[keep], point.take(keep), live[keep]
    else:
        worst = int(np.argmax(point.residual))
        raise RuntimeError(
            f"projection hit MAX_NEWTON_STEPS = {MAX_NEWTON_STEPS} with residual {point.residual[worst]:.3e} "
            f"(TOL_FEASIBILITY {TOL_FEASIBILITY:.1e}, last step {step[worst]:.3e}, TOL_STEP {TOL_STEP:.1e})"
        )
    povms = Povm.stack(np.stack([z for z, _ in results]))
    if not isinstance(raw, list):
        return povms[0], results[0][1]
    solo = [diagnostics for _, diagnostics in results]
    return povms, ProjectionDiagnostics(
        iterations,
        max(diagnostics.final_residual for diagnostics in solo),
        True,
        max((diagnostics.duality_gap for diagnostics in solo), key=abs),
    )


def _sqrt(x):
    return x.sqrt() if hasattr(x, "sqrt") else math.sqrt(x)  # a Decimal has its own


# (frame, distance, variant) -> (a, sigma^2, K, b) of the Bernstein bound
# N > 8 a (sigma^2 + K epsilon / 6) / epsilon^2 ln(b / delta), in terms of d, L and
# n (d = 2**n for local frames); d and L may be ints or Decimals. sigma^2 and K of
# the op rows bound the shot-free variance and range that bernstein_diagnostics measures.
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
    integer, it is decided at 40 digits with :mod:`decimal`.
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
    value = 8 * a * (sigma2 + k * epsilon / 6) / epsilon**2 * math.log(b / delta)
    if abs(value - round(value)) > _ROUNDING_ULPS * math.ulp(value):
        return math.ceil(value) + 1
    from decimal import ROUND_CEILING, Decimal, localcontext  # rarely needed, and slow to import

    with localcontext() as ctx:
        ctx.prec = 40
        a, sigma2, k, b = row(Decimal(d), Decimal(n_outcomes), n_qubits)
        eps = Decimal(epsilon)
        exact = 8 * a * (sigma2 + k * eps / 6) / eps**2 * (b / Decimal(delta)).ln()
        return int(exact.to_integral_value(ROUND_CEILING)) + 1


@dataclass(frozen=True)
class BernsteinReport:
    k_emp: float
    k_bound: float
    sigma2_emp: float
    sigma2_bound: float


def bernstein_diagnostics(povm: Povm, ensemble: ProbeEnsemble, subset) -> BernsteinReport:
    """Empirical matrix-concentration parameters for an outcome grouping.

    ``k_emp`` is the largest dual-frame operator norm; ``sigma2_emp`` is
    ``||sum_i p_i nu_i^2 - F^2||`` with ``p_i = <psi_i|F|psi_i>/M`` and F the
    coarse-grained effect. Both are reported shot-free (multiply by 1/N for
    the per-shot quantities) and are certified not to exceed the closed-form
    bounds d^2 and d^3 + d^2 (global) or 4^n and 10^n (local). Since
    ``||(x)_k A_k|| = prod_k ||A_k||``, ``k_emp`` is the largest dual factor
    norm to the power n.
    """
    if povm.dim != ensemble.dim:
        raise ValueError("dimension mismatch")
    n = ensemble.n_factors
    effect = coarse_grain(povm, subset)
    dual = ensemble.dual_factors()
    k_emp = float(np.max(np.abs(np.linalg.eigvalsh(dual)))) ** n
    p = frame_traces(effect[None], ensemble.projector_factors(), n) / ensemble.size
    second_moment = frame_sum(p, dual @ dual, n)[0]
    sigma2_emp = linalg.matrix_norm(linalg.hermitize(second_moment - effect @ effect), "spectral")
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


def save_counts(table: FrequencyTable, path, ensemble_spec: dict | None = None) -> None:
    """Write counts as CSV plus a `<path>.meta.json` sidecar.

    The CSV has header ``state_index,outcome_index,count`` and one row per
    nonzero cell in row-major order, with CRLF line ends; the sidecar
    records M, L, N and, when given, the ensemble spec and its hash so
    ingestion can verify compatibility.
    """
    path = str(path)
    states, outcomes = np.nonzero(table.counts)
    rows = np.stack([states, outcomes, table.counts[states, outcomes]], axis=1)
    with open(path, "wb") as fh:
        fh.write(b"state_index,outcome_index,count\r\n")
        fh.write(b"%d,%d,%d\r\n" * len(rows) % tuple(rows.ravel().tolist()))
    meta = {
        "n_states": table.n_states,
        "n_outcomes": table.n_outcomes,
        "n_shots": table.n_shots,
    }
    if ensemble_spec is not None:
        meta["ensemble_spec"] = ensemble_spec
        meta["ensemble_spec_sha256"] = spec_hash(ensemble_spec)
    dump(meta, path + ".meta.json")


def _size(key: str, value) -> int:
    if integer(key, value) < 1:
        raise ValueError(f"{key} must be >= 1, got {value!r}")
    return int(value)


#: Parser of each counts sidecar key; only the ensemble spec and its hash may be absent.
_SIDECAR_SCHEMA = {"n_states": _size, "n_outcomes": _size, "n_shots": _size,
                   "ensemble_spec": lambda key, spec: spec, "ensemble_spec_sha256": lambda key, digest: digest}
_SIDECAR_DEFAULTS = {"ensemble_spec": None, "ensemble_spec_sha256": None}


def load_counts(path) -> tuple[FrequencyTable, dict]:
    """Read a counts CSV and its sidecar; returns (table, metadata).

    The sidecar is read against :data:`_SIDECAR_SCHEMA`. Repeated cells add up; a negative count is rejected
    before it can cancel one, and a count above ``n_shots`` or rows that do not sum to it before they are added.
    """
    path = str(path)
    with open(path + ".meta.json") as fh:
        meta = read("counts sidecar", json.load(fh), _SIDECAR_SCHEMA, _SIDECAR_DEFAULTS)
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
    return FrequencyTable(counts.reshape(n_states, n_outcomes), n_shots), meta
