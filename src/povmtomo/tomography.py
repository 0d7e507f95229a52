"""Shot simulation, closed-form least-squares estimation, and projection.

The reconstruction pipeline is:

1. :func:`simulate_shots` draws probe states uniformly and samples outcomes
   through the Born rule, producing a dense :class:`FrequencyTable`;
2. :func:`lse_estimate` applies the dual-frame inversion
   ``E_hat_j = sum_i f_ij nu_i`` (exact on expectation values);
3. :func:`project_onto_povms` returns the nearest physical POVM under the
   chosen metric by a semismooth Newton method on the dual.

Sample-size calculators and the concentration diagnostics that power them
live here as well.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass

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


def lse_estimate(frequencies, ensemble: ProbeEnsemble) -> RawEstimate:
    """Closed-form least-squares estimator ``E_hat_j = sum_i f_ij nu_i``.

    ``frequencies`` is a :class:`FrequencyTable` or an (M, L) array of
    relative frequencies; all M dual frame operators are contracted at once.
    """
    if isinstance(frequencies, FrequencyTable):
        frequencies = frequencies.frequencies()
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 2 or freqs.shape[0] != ensemble.size:
        raise ValueError(
            f"frequencies have shape {freqs.shape}, ensemble has {ensemble.size} states"
        )
    elements = frame_sum(freqs.T, ensemble.dual_factors(), ensemble.n_factors)
    return RawEstimate(elements)


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
    """G^-1 Y for the metric G X = X (frobenius) or G X = X + tr(X) I (dav)."""
    if metric == "frobenius":
        return y
    d = y.shape[-1]
    return y - np.trace(y).real / (d + 1) * np.eye(d)


def _metric_norm2(x: np.ndarray, metric: str) -> float:
    """sum_j ||X_j||_G^2 = sum_j <X_j, G X_j> over an (L, d, d) stack."""
    value = float(np.vdot(x, x).real)
    if metric == "dav":
        value += float(np.sum(np.trace(x, axis1=1, axis2=2).real ** 2))
    return value


class _DualPoint:
    """The dual function at Lambda: theta(Lambda) = 1/2 sum_j ||Z_j||_G^2 + tr Lambda.

    Z_j = P_G(A_j - G^-1 Lambda) is the metric projection onto the PSD cone,
    one shifted eigenvalue clip ``max(lambda - S, 0)`` over the whole stack,
    and the gradient of theta is I - sum_j Z_j.
    """

    def __init__(self, raw: np.ndarray, lam: np.ndarray, metric: str):
        self.lam = lam
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(raw - _metric_inverse(lam, metric))
        shift = 0.0 if metric == "frobenius" else _dav_shift(self.eigenvalues)
        self.clipped = np.maximum(self.eigenvalues - shift, 0.0)
        q = self.eigenvectors
        self.z = (q * self.clipped[:, None, :]) @ q.conj().swapaxes(-1, -2)
        self.theta = 0.5 * _metric_norm2(self.z, metric) + float(np.trace(lam).real)
        self.gradient = np.eye(raw.shape[1]) - self.z.sum(axis=0)
        self.residual = float(np.linalg.norm(self.gradient))

    def hessian(self, metric: str, mu: float):
        """The map H -> sum_j Q_j (Omega_j o Q_j* G^-1(H) Q_j) Q_j* + mu H.

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
        in ``Y - Q((1 - Omega) o Q* Y Q)Q*``. With C the coefficient rows of
        those k eigenvectors Q_S, Q(C o Q* Y Q)Q* = M + M* for
        M = Q_S (C' o Q_S* Y Q) Q* and C' equal to C with its S columns
        halved. The k-column factors of all effects are concatenated, so each
        product is one GEMM and one batched matmul each way, 4 k d^2 flops per
        effect.
        """
        q, w, clipped = self.eigenvectors, self.eigenvalues, self.clipped
        n_outcomes, d, _ = q.shape
        active = clipped > 0
        mixed = active[:, :, None] != active[:, None, :]  # one active, one inactive: w_k != w_l
        gaps = np.where(mixed, w[:, :, None] - w[:, None, :], 1.0)
        omega = np.where(mixed, (clipped[:, :, None] - clipped[:, None, :]) / gaps,
                         active[:, :, None] & active[:, None, :])
        ranks = active.sum(axis=1)
        top = int(ranks.max()) <= d - int(ranks.min())  # eigenvalues ascend, so the active ones are on top
        kept = slice(d - int(ranks.max()), d) if top else slice(0, d - int(ranks.min()))
        coefficients = omega[:, kept, :] if top else 1.0 - omega[:, kept, :]
        coefficients[:, :, kept] *= 0.5
        q_kept = q[:, :, kept]
        k = q_kept.shape[-1]
        q_adjoint = q.conj().swapaxes(-1, -2)
        rows = q_kept.conj().swapaxes(-1, -2).reshape(n_outcomes * k, d)  # [Q_S1*; ...; Q_SL*]
        columns = q_kept.transpose(1, 0, 2).reshape(d, n_outcomes * k)  # [Q_S1 ... Q_SL]
        if metric == "dav":
            projectors = (q * active[:, None, :]) @ q_adjoint
            flat_projectors = projectors.reshape(n_outcomes, d * d).conj()
            row_weights = 1.0 / (1.0 + ranks)

        def apply(h):
            y = _metric_inverse(h, metric)
            rotated = (rows @ y).reshape(n_outcomes, k, d) @ q  # rows S of Q_j* Y Q_j
            half = columns @ ((coefficients * rotated) @ q_adjoint).reshape(n_outcomes * k, d)
            out = half + half.conj().T
            if not top:
                out = n_outcomes * y - out
            if metric == "dav":
                inactive_traces = np.trace(y).real - (flat_projectors @ y.reshape(d * d)).real
                out += np.tensordot(row_weights * inactive_traces, projectors, axes=1)
            return out + mu * h

        return apply


def _conjugate_gradient(apply, rhs: np.ndarray, tol: float, max_iterations: int) -> np.ndarray:
    """Solve apply(x) = rhs for a positive definite map, to ||residual||_F <= tol."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rr = float(np.vdot(r, r).real)
    for _ in range(max_iterations):
        if rr <= tol * tol:
            break
        ap = apply(p)
        alpha = rr / float(np.vdot(p, ap).real)
        x += alpha * p
        r -= alpha * ap
        rr, rr_old = float(np.vdot(r, r).real), rr
        p = r + (rr / rr_old) * p
    return x


TOL_FEASIBILITY = 1e-9  # bound on ||sum_j Z_j - I||_F of the returned effects
TOL_STEP = 1e-10  # bound on the last primal step ||dZ||_F
MAX_NEWTON_STEPS = 10000
_CG_MAX_ITERATIONS = 200
_LINE_SEARCH_STEPS = 30
_ARMIJO = 1e-4


def project_onto_povms(raw, metric: str = "frobenius"):
    """Metric projection of a raw estimate onto the set of physical POVMs.

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

    Returns ``(Povm, ProjectionDiagnostics)``, the Povm validated at
    ``POVM_TOL``. ``duality_gap`` is the primal objective minus the dual
    value 1/2 sum_j ||raw_j||_G^2 - theta(Lambda), a certificate of
    optimality. Raises ``RuntimeError`` if ``MAX_NEWTON_STEPS`` Newton steps
    pass before both tolerances are met.
    """
    _metric("metric", metric)
    arr = (raw if isinstance(raw, (Povm, RawEstimate)) else RawEstimate(raw)).elements
    n_outcomes, d, _ = arr.shape
    # start from the affine projection of raw: G^-1 Lambda_0 = (sum_j raw_j - I) / L
    lam = (arr.sum(axis=0) - np.eye(d)) / n_outcomes
    if metric == "dav":
        lam = lam + np.trace(lam).real * np.eye(d)
    point = _DualPoint(arr, lam, metric)
    cg_floor = 1e-2 * TOL_FEASIBILITY
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        grad_norm = point.residual
        hessian = point.hessian(metric, min(1e-2, grad_norm))
        cg_tol = max(min(0.1, grad_norm) * grad_norm, cg_floor)
        direction = _conjugate_gradient(hessian, -point.gradient, cg_tol, _CG_MAX_ITERATIONS)
        step = 0.0
        if np.any(direction):
            slope = float(np.vdot(point.gradient, direction).real)
            size = 1.0
            for _ in range(_LINE_SEARCH_STEPS):
                trial = _DualPoint(arr, point.lam + size * direction, metric)
                if (trial.theta <= point.theta + _ARMIJO * size * slope
                        or trial.residual <= (1 - _ARMIJO * size) * grad_norm):
                    break
                size /= 2
            step = float(np.linalg.norm(trial.z - point.z))
            point = trial
        if point.residual <= TOL_FEASIBILITY and step <= TOL_STEP:
            primal = 0.5 * _metric_norm2(arr - point.z, metric)
            dual = 0.5 * _metric_norm2(arr, metric) - point.theta
            return Povm(point.z), ProjectionDiagnostics(iterations, point.residual, True, primal - dual)
    raise RuntimeError(
        f"projection hit MAX_NEWTON_STEPS = {MAX_NEWTON_STEPS} with residual {point.residual:.3e} "
        f"(TOL_FEASIBILITY {TOL_FEASIBILITY:.1e}, last step {step:.3e}, TOL_STEP {TOL_STEP:.1e})"
    )


# (frame, distance, variant) -> (a, sigma^2, K, b) of the Bernstein bound
# N > 8 a (sigma^2 + K epsilon / 6) / epsilon^2 ln(b / delta), in terms of d, L and
# n (d = 2**n for local frames). sigma^2 and K of the op rows bound the shot-free
# variance and range that bernstein_diagnostics measures.
_BERNSTEIN_ROWS = {
    ("global", "op", "theorem"): lambda d, L, n: (1, d**3 + d**2, d**2, 2 ** (L + 1) * d),
    ("global", "av", "theorem"): lambda d, L, n: (L**2, d**2 + d, 2 * d / L, 4 * L * d),
    ("global", "av", "proof"): lambda d, L, n: (L**2, d**2 + d, d * math.sqrt(d) / L, 4 * L * d),
    ("local", "op", "theorem"): lambda d, L, n: (1, 10**n, 4**n, 2 ** (L + 1) * 2**n),
    ("local", "av", "theorem"): lambda d, L, n: (L**2, 5**n, 2**n, 4 * L * 2**n),
}


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
    a, sigma2, k, b = _BERNSTEIN_ROWS[frame, distance, variant](d, n_outcomes, n_qubits)
    value = 8 * a * (sigma2 + k * epsilon / 6) / epsilon**2 * math.log(b / delta)
    return math.ceil(value) + 1


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
