"""Informationally complete probe ensembles and their dual frame operators.

Every ensemble is n tensor factors over one base of m states on C^q that
form a projective 2-design. Its M = m^n probe states are the products of
base states, and the dual frame operator of a probe state is the Kronecker
product of the factors ``q(q+1)|psi><psi| - q*I``. Two kinds exist:

* ``global``: n = 1, q = d, an explicit list of M states on C^d.
* ``local``: n qubits, q = 2, one single-qubit base.

:func:`frame_sum` and its transpose :func:`frame_traces` contract a factor
stack against all M probe states at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._schema import build, integer, pairs

DESIGN_TOL = 1e-10
UNIT_NORM_TOL = 1e-12

_SQ2 = np.sqrt(0.5)

#: Eigenstates of Z, X, Y in that order; the canonical single-qubit 2-design.
PAULI6_BASE = np.array(
    [
        [1, 0],
        [0, 1],
        [_SQ2, _SQ2],
        [_SQ2, -_SQ2],
        [_SQ2, 1j * _SQ2],
        [_SQ2, -1j * _SQ2],
    ],
    dtype=complex,
)

#: Tetrahedral qubit states with Bloch vectors (1,1,1)/sqrt3, (-1,-1,1)/sqrt3,
#: (-1,1,-1)/sqrt3, (1,-1,-1)/sqrt3, in that order.
SIC_QUBIT_STATES = np.array(
    [
        [np.sqrt((1 + 1 / np.sqrt(3)) / 2), np.sqrt((1 - 1 / np.sqrt(3)) / 2) * np.exp(0.25j * np.pi)],
        [np.sqrt((1 + 1 / np.sqrt(3)) / 2), np.sqrt((1 - 1 / np.sqrt(3)) / 2) * np.exp(-0.75j * np.pi)],
        [np.sqrt((1 - 1 / np.sqrt(3)) / 2), np.sqrt((1 + 1 / np.sqrt(3)) / 2) * np.exp(0.75j * np.pi)],
        [np.sqrt((1 - 1 / np.sqrt(3)) / 2), np.sqrt((1 + 1 / np.sqrt(3)) / 2) * np.exp(-0.25j * np.pi)],
    ],
    dtype=complex,
)


@dataclass(frozen=True, eq=False)
class ProbeEnsemble:
    """A probe-state family with declared design structure.

    ``states`` holds the base of m states: the M explicit states (global
    kind, shape (M, d)) or the single-qubit base (local kind, shape (m, 2)).
    """

    kind: str  # "global" | "local"
    dim: int
    states: np.ndarray
    n_qubits: int | None = None

    def __post_init__(self):
        if self.kind not in ("global", "local"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        states = np.asarray(self.states, dtype=complex)
        norms = np.linalg.norm(states, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
            raise ValueError("ensemble states must have unit norm")
        if self.kind == "local":
            if self.n_qubits is None or self.n_qubits < 1:
                raise ValueError("local ensembles need n_qubits >= 1")
            if states.shape[1] != 2:
                raise ValueError("local ensembles store a single-qubit base")
            if self.dim != 2 ** self.n_qubits:
                raise ValueError("local ensemble dim must be 2**n_qubits")
        else:
            if states.shape[1] != self.dim:
                raise ValueError("state length does not match ensemble dim")
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        """Number of probe states M (m^n for local ensembles)."""
        return len(self.states) ** self.n_factors

    @property
    def n_factors(self) -> int:
        """Tensor factors of each probe state: n_qubits (local) or 1 (global)."""
        return self.n_qubits if self.kind == "local" else 1

    def projector_factors(self) -> np.ndarray:
        """(m, q, q) stack of the base projectors ``|psi><psi|``."""
        return np.einsum("ia,ib->iab", self.states, self.states.conj())

    def dual_factors(self) -> np.ndarray:
        """(m, q, q) stack ``q(q+1)|psi><psi| - q*I``, the dual frame factors."""
        q = self.states.shape[1]
        return q * (q + 1) * self.projector_factors() - q * np.eye(q)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n**0.5) + 1))


def mub_states(d: int) -> np.ndarray:
    """The d(d+1) states of a complete set of mutually unbiased bases, d prime.

    For odd prime d these are the computational basis plus the d bases with
    components ``omega**(a*l*l + b*l) / sqrt(d)``, ``omega = exp(2i pi/d)``;
    for d = 2 the Z, X, Y eigenbases (the quadratic Gauss-sum construction
    degenerates at d = 2).
    """
    if not _is_prime(d):
        raise ValueError(f"MUB construction requires prime dimension, got {d}")
    if d == 2:
        return PAULI6_BASE.copy()
    omega = np.exp(2j * np.pi / d)
    ell = np.arange(d)
    states = [np.eye(d, dtype=complex)[k] for k in range(d)]
    for a in range(d):
        for b in range(d):
            states.append(omega ** ((a * ell * ell + b * ell) % d) / np.sqrt(d))
    return np.array(states)


def stabilizer_states(n_qubits: int) -> np.ndarray:
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
    hadamard = np.array([[1, 1], [1, -1]]) * _SQ2
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


def pauli6_product(n_qubits: int) -> ProbeEnsemble:
    """Tensor products of the 6 Pauli eigenstates on each of n qubits."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    return ProbeEnsemble("local", 2**n_qubits, PAULI6_BASE.copy(), n_qubits)


def mub_ensemble(d: int) -> ProbeEnsemble:
    """Global ensemble of the d(d+1) complete-MUB states, d prime."""
    return ProbeEnsemble("global", d, mub_states(d))


def sic_qubit_ensemble() -> ProbeEnsemble:
    """Global ensemble of the 4 tetrahedral qubit states."""
    return ProbeEnsemble("global", 2, SIC_QUBIT_STATES.copy())


def sic_qubit_product(n_qubits: int) -> ProbeEnsemble:
    """Tensor products of the 4 tetrahedral states on each of n qubits."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    return ProbeEnsemble("local", 2**n_qubits, SIC_QUBIT_STATES.copy(), n_qubits)


def explicit_ensemble(states, tol: float = DESIGN_TOL) -> ProbeEnsemble:
    """Global ensemble from user states; fails unless they form a 2-design."""
    states = np.asarray(states, dtype=complex)
    ensemble = ProbeEnsemble("global", states.shape[1], states)
    deviation = design_check(ensemble)
    if deviation > tol:
        raise ValueError(
            f"explicit states do not form a 2-design: deviation {deviation:.3e} exceeds {tol:.1e}"
        )
    return ensemble


#: kind -> (constructor, parser of each further spec key, in argument order)
KINDS = {
    "pauli6_product": (pauli6_product, {"n_qubits": integer}),
    "mub": (mub_ensemble, {"dim": integer}),
    "sic_qubit": (sic_qubit_ensemble, {}),
    "sic_qubit_product": (sic_qubit_product, {"n_qubits": integer}),
    "explicit": (explicit_ensemble, {"states": lambda key, value: pairs(key, value) @ [1, 1j]}),
}


def build_ensemble(spec: dict) -> ProbeEnsemble:
    """Build an ensemble from a serializable spec dict: a ``kind`` of :data:`KINDS` and its keys."""
    return build("ensemble spec", spec, KINDS)


def frame_sum(weights, factors: np.ndarray, n: int) -> np.ndarray:
    """``sum_i w[j, i] (x)_k factors[i_k]`` for every row j of an (L, m^n) array.

    The flat index i enumerates multi-indices (i_1, ..., i_n) with the first
    factor most significant, as :func:`numpy.unravel_index` does, and
    the Kronecker product puts the first factor first, as
    :func:`frame_operator` does. Runs n tensordots; returns (L, q^n, q^n).
    """
    m, q, _ = factors.shape
    rows = weights.shape[0]
    out = np.reshape(weights, (rows,) + (m,) * n)
    for _ in range(n):  # contract i_k; axes become (rows, i_k+1.., a_1, b_1, .., a_k, b_k)
        out = np.tensordot(out, factors, axes=([1], [0]))
    order = (0,) + tuple(range(1, 2 * n, 2)) + tuple(range(2, 2 * n + 1, 2))
    return out.transpose(order).reshape(rows, q**n, q**n)


def frame_traces(operators, factors: np.ndarray, n: int) -> np.ndarray:
    """``tr(A_j (x)_k factors[i_k])`` for every A_j of an (L, q^n, q^n) stack.

    The transpose of :func:`frame_sum`, with the same index order. Operators
    and factors are Hermitian, so the traces are real; returns (L, m^n).
    """
    m, q, _ = factors.shape
    rows = operators.shape[0]
    out = np.reshape(operators, (rows,) + (q,) * (2 * n))
    for k in range(n):  # contract (a_k, b_k); axes become (rows, a_k+1.., b_k+1.., i_1, .., i_k)
        out = np.tensordot(out, factors, axes=([1, 1 + n - k], [2, 1]))
    return out.reshape(rows, m**n).real


def frame_operator(ensemble: ProbeEnsemble, index: int) -> np.ndarray:
    """Dual frame operator nu_i making sum_i p_i nu_i reproduce any effect.

    The Kronecker product of the dual factors at the multi-index of the flat
    ``index``, first factor first, as :func:`frame_sum` orders them; for a
    global ensemble this is ``d(d+1)|psi_i><psi_i| - d*I``. Builds one
    operator at a time; the pipeline contracts all of them through
    :func:`frame_sum`.
    """
    index = int(index)
    if not 0 <= index < ensemble.size:
        raise IndexError(f"state index {index} out of range [0, {ensemble.size})")
    factors = ensemble.dual_factors()
    out = np.ones((1, 1), dtype=complex)
    for k in np.unravel_index(index, (len(factors),) * ensemble.n_factors):
        out = linalg.kron(out, factors[k])
    return out


def design_check(ensemble: ProbeEnsemble) -> float:
    """Frobenius deviation of the base's second moment from a 2-design's.

    Returns ``||(1/m) sum_i (|psi_i><psi_i|)^(x)2 - (I + SWAP)/(q(q+1))||_F``,
    which vanishes exactly for a projective 2-design (Gross, Audenaert and
    Eisert, J. Math. Phys. 48, 052104 (2007)) and grows linearly with a
    perturbation of the states. Local ensembles are checked on their
    single-qubit base.
    """
    m, q = ensemble.states.shape
    pairs = np.einsum("ia,ib->iab", ensemble.states, ensemble.states).reshape(m, q * q)
    swap = np.eye(q * q).reshape(q, q, q, q).transpose(0, 1, 3, 2).reshape(q * q, q * q)
    moment = pairs.T @ pairs.conj() / m
    return float(np.linalg.norm(moment - (np.eye(q * q) + swap) / (q * (q + 1))))
