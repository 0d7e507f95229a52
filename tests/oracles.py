"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (sorting,
brute-force enumeration, direct formula evaluation) rather than reusing the
code paths under test.
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from povmtomo import distances, linalg
from povmtomo._rng import haar_isometry, make_rng
from povmtomo.frames import frame_sum, frame_traces
from povmtomo.povm import _as_element_stack, leading_projector
from povmtomo.tomography import spec_hash


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


def dense_newton_map(raw, lam, h, metric, mu):
    """The projection's Newton map at the dual point ``lam``, applied to ``h``, one effect at a time.

    The definition V(G^-1 H) + sum_j c_j(G^-1 H) P_j + mu H for one (L, d, d)
    estimate: with G^-1 Y = Y - tr(Y) I / (d + 1) for ``dav`` (Y for
    ``frobenius``), each effect's eigenpairs (w, Q) of raw_j - G^-1 lam, its
    clip z (max(w, 0), or :func:`dav_clip_by_segments`) and its active set
    z > 0 give Omega entry by entry: 1 on two active eigenvalues, 0 on two
    inactive ones, z_a / (w_a - w_i) between an active a and an inactive i.
    For ``dav`` the correction is c_j(Y) P_j with P_j the projector onto the
    m_j active eigenvectors and c_j(Y) = tr((I - P_j) Y) / (1 + m_j).
    """
    d = raw.shape[-1]
    eye = np.eye(d)

    def metric_inverse(y):
        return y - np.trace(y).real / (d + 1) * eye if metric == "dav" else y

    y = metric_inverse(h)
    out = mu * h
    for effect in raw:
        w, q = np.linalg.eigh(effect - metric_inverse(lam))
        z = np.maximum(w, 0.0) if metric == "frobenius" else dav_clip_by_segments(w)
        active = z > 0
        omega = np.zeros((d, d))
        for k in range(d):
            for l in range(d):
                if active[k] and active[l]:
                    omega[k, l] = 1.0
                elif active[k] != active[l]:
                    a, i = (k, l) if active[k] else (l, k)
                    omega[k, l] = z[a] / (w[a] - w[i])
        out = out + q @ (omega * (q.conj().T @ y @ q)) @ q.conj().T
        if metric == "dav":
            projector = q[:, active] @ q[:, active].conj().T
            out = out + np.trace((eye - projector) @ y).real / (1 + active.sum()) * projector
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


def gray_code_d_op(e, f):
    """Bit-for-bit reference for ``distances.d_op_exact``: every subset's norm.

    The enumeration ``d_op_exact`` made before it bounded subsets: chunks of
    ``distances.SUBSET_CHUNK_ELEMENTS // d^2`` Gray-code subsets, each chunk's
    sums in one matmul and every spectral norm in one stacked ``eigvalsh``;
    the witness is the first subset in Gray-code order to reach the maximum.
    """
    (deltas,), (both_valid,) = distances._delta_stack(e, f)
    n_outcomes, d, _ = deltas.shape
    n_bits = n_outcomes - 1 if both_valid else n_outcomes
    rows = max(1, distances.SUBSET_CHUNK_ELEMENTS // (d * d))
    best, witness = 0.0, ()
    for start in range(1, 2**n_bits, rows):
        k = np.arange(start, min(start + rows, 2**n_bits))
        bits = ((k ^ (k >> 1))[:, None] >> np.arange(n_bits)) & 1
        totals = (bits @ deltas[:n_bits].reshape(n_bits, d * d)).reshape(-1, d, d)
        norms = linalg.matrix_norm(linalg.hermitize(totals), "spectral")
        top = int(np.argmax(norms))
        if norms[top] > best:
            best, witness = float(norms[top]), tuple(np.flatnonzero(bits[top]).tolist())
    return distances.DistanceReport(best, "op_exact", witness)


def definition_d_av(e_elements, f_elements):
    """Average-case distance evaluated directly from its definition."""
    deltas = np.asarray(e_elements) - np.asarray(f_elements)
    d = deltas.shape[1]
    total = sum(
        np.linalg.norm(dk, "fro") ** 2 + np.trace(dk).real ** 2 for dk in deltas
    )
    return float(np.sqrt(total / (2 * d)))


def pauli_strings(n_qubits):
    """Labels and the (4^n, d, d) stack of normalized Pauli strings, lexicographic in {I, X, Y, Z}^n.

    Each string is a Kronecker product of single-qubit Paulis scaled by
    1/sqrt(d), so the stack is orthonormal under the Hilbert-Schmidt inner product.
    """
    single = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    labels, mats = [], []
    for combo in itertools.product("IXYZ", repeat=n_qubits):
        m = np.ones((1, 1), dtype=complex)
        for c in combo:
            m = np.kron(m, single[c])
        labels.append("".join(combo))
        mats.append(m / np.sqrt(2**n_qubits))
    return labels, np.array(mats)


def dense_measurement_channel(ideal, estimated):
    """Reference for ``povm.measurement_channel``: sum_j tr(sigma_a E_j) tr(sigma_b F_j) over dense Pauli strings."""
    _, sigma = pauli_strings(int(round(np.log2(ideal.dim))))
    left = np.einsum("akl,jlk->ja", sigma, ideal.elements).real
    right = np.einsum("bkl,jlk->jb", sigma, estimated.elements).real
    return left.T @ right


def haar_unitary(d, seed):
    """Haar-random d x d unitary: one ``haar_isometry`` draw from its own ``make_rng(seed)`` stream."""
    return haar_isometry(d, d, make_rng(seed))


_MOMENT_BLOCK_ENTRIES = 1 << 16  # matrix entries of U (and of V) per block of haar_moment_check's pairs


@dataclass(frozen=True)
class MomentReport:
    f2_mean: float
    f2_target: float
    f2_z: float
    f4_mean: float
    f4_target: float
    f4_z: float


def haar_moment_check(d, trials, seed):
    """Monte Carlo check of the rotated-projector difference moments.

    Samples Haar pairs (U, V), in blocks of ``_MOMENT_BLOCK_ENTRIES`` matrix
    entries of each, computes ``f = ||U P U^+ - V P V^+||_F`` for
    the rank-d/2 projector P, and compares the empirical means of f^2 and f^4
    against d/2 and d^4/(4(d^2-1)) via z-scores on the Monte Carlo standard
    errors. These are the moments the packing separation arguments rely on.
    """
    if d % 2:
        raise ValueError("the moment targets assume a rank-d/2 projector (even d)")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    rng = make_rng(seed)
    projector = leading_projector(d)
    block = max(1, _MOMENT_BLOCK_ENTRIES // (d * d))
    f2 = np.empty(trials)
    for start in range(0, trials, block):
        u, v = haar_isometry(d, d, rng, (min(block, trials - start), 2)).swapaxes(0, 1)  # (U, V), (U, V), ...
        diff = u @ projector @ u.conj().swapaxes(-1, -2) - v @ projector @ v.conj().swapaxes(-1, -2)
        f2[start:start + len(u)] = linalg.frobenius_norms(diff) ** 2
    f4 = f2**2
    f2_target = d / 2
    f4_target = d**4 / (4 * (d**2 - 1))
    f2_se = float(np.std(f2, ddof=1) / np.sqrt(trials))
    f4_se = float(np.std(f4, ddof=1) / np.sqrt(trials))
    return MomentReport(
        float(np.mean(f2)),
        float(f2_target),
        float((np.mean(f2) - f2_target) / f2_se),
        float(np.mean(f4)),
        float(f4_target),
        float((np.mean(f4) - f4_target) / f4_se),
    )


def random_hermitian(d, rng, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + a.conj().T) / 2


def product_state(ensemble, index):
    """Probe state ``index`` of an ensemble, built as a Kronecker product of base states.

    The flat index is read in base m = len(ensemble.states) with the first
    factor as the most significant digit.
    """
    m, n = len(ensemble.states), ensemble.n_factors
    psi = np.ones(1, dtype=complex)
    for position in range(n - 1, -1, -1):
        psi = np.kron(psi, ensemble.states[index // m**position % m])
    return psi


def exact_frequencies(povm, ensemble):
    """Expected frequencies ``<psi_i|E_j|psi_i> / M`` as an (M, L) array, by the Born rule on each
    :func:`product_state`: in place of measured frequencies they make least squares exact."""
    states = np.array([product_state(ensemble, i) for i in range(ensemble.size)])
    return np.einsum("ik,jkl,il->ij", states.conj(), povm.elements, states).real / ensemble.size


def tensordot_frame_traces(operators, factors, n):
    """Bit reference for ``frames.frame_traces``: one ``np.tensordot`` per factor.

    Each step contracts the leading (a_k, b_k) pair of every row against all m
    factors, tr(A F_i) = sum_ab A_ab F_i,ba, and appends the index i_k last.
    """
    m, q, _ = factors.shape
    rows = operators.shape[0]
    out = np.reshape(operators, (rows,) + (q,) * (2 * n))
    for k in range(n):  # axes become (rows, a_k+1.., b_k+1.., i_1, .., i_k)
        out = np.tensordot(out, factors, axes=([1, 1 + n - k], [2, 1]))
    return out.reshape(rows, m**n).real


def stabilizer_states(n_qubits):
    """All pure stabilizer states on n qubits (a projective 2-design).

    The orbit of |0...0> under the Clifford generators H_k, S_k and CNOT_kl
    (Aaronson and Gottesman, PRA 70, 052328 (2004)), closed breadth first.
    Each state is kept once up to global phase: its first nonzero amplitude
    is made real and positive, and its rounded amplitudes are the key.
    Exponential in n; intended for small systems (n <= 3).
    """
    if not 1 <= n_qubits <= 3:
        raise ValueError("stabilizer_states supports 1 <= n_qubits <= 3")
    n, d = n_qubits, 2**n_qubits
    bits = (np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # qubit 0 most significant
    hadamard = np.array([[1, 1], [1, -1]]) * np.sqrt(0.5)
    gates = [np.kron(np.kron(np.eye(2**k), hadamard), np.eye(2 ** (n - 1 - k))) for k in range(n)]
    gates += [np.diag(np.where(bits[:, k], 1j, 1)) for k in range(n)]
    gates += [
        np.eye(d)[np.arange(d) ^ (bits[:, k] << (n - 1 - l))]
        for k, l in itertools.permutations(range(n), 2)
    ]
    gates = np.array(gates, dtype=complex)

    states, seen = [], set()
    candidates = np.eye(d, dtype=complex)[:1]
    while len(candidates):
        lead = candidates[np.arange(len(candidates)), np.argmax(np.abs(candidates) > 1e-9, axis=1)]
        new = []
        for psi in candidates * (lead.conj() / np.abs(lead))[:, None]:
            key = (np.round(psi, 8) + 0.0).tobytes()  # + 0.0 folds -0.0 into 0.0
            if key not in seen:
                seen.add(key)
                new.append(psi)
        states += new
        candidates = np.einsum("gab,fb->fga", gates, np.reshape(new, (-1, d))).reshape(-1, d)
    return np.array(states)


def coarse_grain(povm_or_raw, subset) -> np.ndarray:
    """Sum of the effects with (0-based) indices in ``subset``."""
    arr = _as_element_stack(povm_or_raw)
    indices = sorted(set(int(k) for k in subset))
    if indices and not (0 <= indices[0] and indices[-1] < arr.shape[0]):
        raise IndexError(f"outcome indices out of range [0, {arr.shape[0]})")
    out = np.zeros((arr.shape[1], arr.shape[1]), dtype=complex)
    for k in indices:
        out += arr[k]
    return out


def bernstein_parameters(povm, ensemble, subset):
    """Matrix-Bernstein range and variance ``(k_emp, sigma2_emp)`` of an outcome grouping.

    ``k_emp`` is the largest dual factor norm to the power n; ``sigma2_emp`` is
    ``||sum_i p_i nu_i^2 - F^2||`` with F the :func:`coarse_grain` of ``subset`` and
    ``p_i = <psi_i|F|psi_i>/M``, contracted over all M probe states. At F = I this is
    ``tomography.bernstein_diagnostics``' closed form.
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
    return k_emp, sigma2_emp


def json_save_povm(povm, path) -> None:
    """Byte reference for ``povm.save_povm``: ``json.dump`` of the document with ``indent=2``."""
    arr = _as_element_stack(povm)
    doc = {
        "dim": int(arr.shape[1]),
        "outcomes": int(arr.shape[0]),
        "elements": np.stack([arr.real, arr.imag], axis=-1).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def csv_save_counts(table, path, ensemble_spec) -> None:
    """Byte reference for ``tomography.save_counts``: the counts rows through ``csv.writer``."""
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
        "ensemble_spec": ensemble_spec,
        "ensemble_spec_sha256": spec_hash(ensemble_spec),
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def dykstra_projection(raw, metric="frobenius", tol_feasibility=1e-9, tol_step=1e-10, max_iterations=10000):
    """Metric projection onto the POVMs by Dykstra's alternating projections.

    Correction-variable form between the product of PSD cones and the affine
    set {sum_j Z_j = I}. The PSD step of each effect keeps its eigenvectors
    and replaces the eigenvalues w by the nearest nonnegative vector: in the
    Euclidean norm (``frobenius``) or in sum (z - w)^2 + (sum (z - w))^2
    (``dav``, by :func:`dav_clip_by_segments`). The affine projection is the
    same in both metrics. Returns ``(effects, iterations)``.
    """
    x = np.array(raw, dtype=complex)
    n_outcomes, d, _ = x.shape
    eye = np.eye(d)
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    for iterations in range(1, max_iterations + 1):
        w_in = x + p_corr
        eigenvalues, eigenvectors = np.linalg.eigh((w_in + w_in.conj().swapaxes(-1, -2)) / 2)
        if metric == "frobenius":
            clipped = np.maximum(eigenvalues, 0.0)
        else:
            clipped = dav_clip_by_segments(eigenvalues)
        psd_iterate = (eigenvectors * clipped[:, None, :]) @ eigenvectors.conj().swapaxes(-1, -2)
        p_corr = w_in - psd_iterate
        w_in = psd_iterate + q_corr
        w_in = (w_in + w_in.conj().swapaxes(-1, -2)) / 2
        x_next = w_in - (w_in.sum(axis=0) - eye) / n_outcomes
        q_corr = psd_iterate + q_corr - x_next
        step = float(np.sqrt(np.sum(np.abs(x_next - x) ** 2)))
        x = x_next
        residual = float(np.linalg.norm(psd_iterate.sum(axis=0) - eye))
        if step <= tol_step and residual <= tol_feasibility:
            return psd_iterate, iterations
    raise RuntimeError(f"Dykstra reference hit max_iterations = {max_iterations}")


def closed_form_sample_size(d, n_outcomes, epsilon, delta, frame="global", distance="op", variant="theorem",
                            n_qubits=None):
    """Reference for ``tomography.sample_size``: each of the five bounds written out as printed."""
    L = n_outcomes
    if frame == "local":
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
