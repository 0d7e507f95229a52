"""Shot simulation, closed-form least-squares estimation, and projection.

The reconstruction pipeline is:

1. :func:`simulate_shots` draws probe states uniformly and samples outcomes
   through the Born rule, producing a dense :class:`FrequencyTable`;
2. :func:`lse_estimate` applies the dual-frame inversion
   ``E_hat_j = sum_i f_ij nu_i`` (exact on expectation values);
3. :func:`project_onto_povms` returns the nearest physical POVM under the
   chosen metric via Dykstra's alternating projections.

Sample-size calculators and the concentration diagnostics that power them
live here as well.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._rng import make_rng
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
        if np.any(counts < 0) or np.any(counts > n_shots):  # bounded cells keep the int64 sum exact
            raise ValueError(f"counts must lie in [0, n_shots = {n_shots}]")
        total = int(counts.sum())
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

    Deterministic given ``seed`` (Philox stream): one draw of N probe
    indices, then one multinomial per observed state in ascending order,
    which is distributionally identical to per-shot sampling.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    probs = _probabilities(povm, ensemble)
    rng = make_rng(seed)
    per_state = np.bincount(rng.integers(0, ensemble.size, size=n_shots), minlength=ensemble.size)
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
    return RawEstimate(linalg.hermitize(elements))


@dataclass(frozen=True)
class ProjectionOptions:
    metric: str = "frobenius"  # "frobenius" | "dav"
    tol_feasibility: float = 1e-9
    tol_step: float = 1e-10
    max_iterations: int = 10000

    def __post_init__(self):
        if self.metric not in PROJECTION_METRICS:
            raise ValueError(f"metric must be one of {PROJECTION_METRICS}")
        if self.tol_feasibility <= 0 or self.tol_step <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ProjectionDiagnostics:
    iterations: int
    final_residual: float
    converged: bool


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


def project_onto_povms(raw, options: ProjectionOptions | None = None):
    """Metric projection of a raw estimate onto the set of physical POVMs.

    Runs Dykstra's algorithm (correction-variable form) between the product
    of PSD cones and the affine set {sum_j Z_j = I, Z_j Hermitian}. With the
    ``frobenius`` metric this minimizes ``sum_j ||raw_j - Z_j||_F^2``; with
    ``dav`` it minimizes ``sum_j (||raw_j - Z_j||_F^2 + tr(raw_j - Z_j)^2)``.
    Both PSD-cone steps are one shifted eigenvalue clip ``max(lambda - S, 0)``,
    with S = 0 for ``frobenius`` and S from :func:`_dav_shift` for ``dav``;
    the affine-step projection coincides for both metrics.

    Returns ``(Povm, ProjectionDiagnostics)``. Raises ``RuntimeError`` if the
    iteration cap is hit before both tolerances are met.
    """
    opts = options or ProjectionOptions()
    arr = (raw if isinstance(raw, (Povm, RawEstimate)) else RawEstimate(raw)).elements.copy()
    n_outcomes, d, _ = arr.shape
    eye = np.eye(d)

    x = arr
    p_corr = np.zeros_like(arr)
    q_corr = np.zeros_like(arr)
    for iterations in range(1, opts.max_iterations + 1):
        # PSD cones with correction: one eigendecomposition of the whole stack
        w_in = x + p_corr
        eigenvalues, eigenvectors = np.linalg.eigh(linalg.hermitize(w_in))
        shift = 0.0 if opts.metric == "frobenius" else _dav_shift(eigenvalues)
        clipped = np.maximum(eigenvalues - shift, 0.0)
        psd_iterate = (eigenvectors * clipped[:, None, :]) @ eigenvectors.conj().swapaxes(-1, -2)
        p_corr = w_in - psd_iterate
        # affine set with correction
        w_in = psd_iterate + q_corr
        w_in = linalg.hermitize(w_in)
        x_next = w_in - (w_in.sum(axis=0) - eye) / n_outcomes
        q_corr = psd_iterate + q_corr - x_next
        step = float(np.sqrt(np.sum(np.abs(x_next - x) ** 2)))
        x = x_next
        residual = float(np.linalg.norm(psd_iterate.sum(axis=0) - eye))
        if step <= opts.tol_step and residual <= opts.tol_feasibility:
            return Povm(psd_iterate, tol=1e-6), ProjectionDiagnostics(iterations, residual, True)
    raise RuntimeError(
        f"projection hit max_iterations = {opts.max_iterations} after {iterations} iterations "
        f"with residual {residual:.3e} (tol_feasibility {opts.tol_feasibility:.1e}, "
        f"last step {step:.3e}, tol_step {opts.tol_step:.1e})"
    )


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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if frame not in ("global", "local"):
        raise ValueError("frame must be 'global' or 'local'")
    if distance not in ("op", "av"):
        raise ValueError("distance must be 'op' or 'av'")
    if variant not in ("theorem", "proof"):
        raise ValueError("variant must be 'theorem' or 'proof'")
    if variant == "proof" and not (frame == "global" and distance == "av"):
        raise ValueError("the 'proof' constant is only defined for the global av bound")
    L = n_outcomes
    if frame == "local":
        if n_qubits is None or 2**n_qubits != d:
            raise ValueError("local frames need n_qubits with d = 2**n_qubits")
        n = n_qubits
        if distance == "op":
            value = (
                8 * (10**n + 4**n * epsilon / 6) / epsilon**2
                * math.log(2 ** (L + 1) * 2**n / delta)
            )
        else:
            value = (
                8 * L**2 * (5**n + 2**n * epsilon / 6) / epsilon**2
                * math.log(4 * L * 2**n / delta)
            )
    else:
        if distance == "op":
            value = (
                8 * (d**3 + d**2 * (1 + epsilon / 6)) / epsilon**2
                * math.log(2 ** (L + 1) * d / delta)
            )
        elif variant == "theorem":
            value = (
                8 * L**2 * (d**2 + d * (1 + epsilon / (3 * L))) / epsilon**2
                * math.log(4 * L * d / delta)
            )
        else:
            value = (
                8 * L**2 * (d**2 + d * (1 + math.sqrt(d) * epsilon / (6 * L))) / epsilon**2
                * math.log(4 * L * d / delta)
            )
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
    if ensemble.kind == "local":
        k_bound, sigma2_bound = float(4**n), float(10**n)
    else:
        d = ensemble.dim
        k_bound, sigma2_bound = float(d**2), float(d**3 + d**2)
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
    nonzero cell in row-major order; the sidecar records M, L, N and, when
    given, the ensemble spec and its hash so ingestion can verify
    compatibility.
    """
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_index", "outcome_index", "count"])
        states, outcomes = np.nonzero(table.counts)
        cells = table.counts[states, outcomes]
        writer.writerows(zip(states.tolist(), outcomes.tolist(), cells.tolist()))
    meta = {
        "n_states": table.n_states,
        "n_outcomes": table.n_outcomes,
        "n_shots": table.n_shots,
    }
    if ensemble_spec is not None:
        meta["ensemble_spec"] = ensemble_spec
        meta["ensemble_spec_sha256"] = spec_hash(ensemble_spec)
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_counts(path) -> tuple[FrequencyTable, dict]:
    """Read a counts CSV and its sidecar; returns (table, metadata).

    Repeated cells add up; a negative count is rejected before it can cancel one.
    """
    path = str(path)
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    n_states, n_outcomes = meta["n_states"], meta["n_outcomes"]
    counts = np.zeros((n_states, n_outcomes), dtype=np.int64)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["state_index", "outcome_index", "count"]:
            raise ValueError(f"unexpected counts header: {header}")
        for row in reader:
            i, j, c = int(row[0]), int(row[1]), int(row[2])
            if not (0 <= i < n_states and 0 <= j < n_outcomes):
                raise ValueError(f"cell ({i}, {j}) outside {n_states} x {n_outcomes}")
            if c < 0:
                raise ValueError(f"row {i},{j},{c}: negative count")
            counts[i, j] += c
    return FrequencyTable(counts, meta["n_shots"]), meta
