"""Informationally complete probe ensembles and their dual frame operators.

Every ensemble is n tensor factors over one base of m states on C^q that
form a projective 2-design. Its M = m^n probe states are the products of
base states, and the dual frame operator of a probe state is the Kronecker
product of the factors ``q(q+1)|psi><psi| - q*I``. The base and, for a
product, n fix the ensemble; its kind and dimension follow:

* ``global``: no n_qubits, so n = 1 and q = d, an explicit list of M states on C^d.
* ``local``: n qubits, q = 2, one single-qubit base.

:func:`frame_sum` and its transpose :func:`frame_traces` contract a factor
stack against all M probe states at once.
"""

from __future__ import annotations

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
    """A probe-state family: a base of 2-design states, and n for a product.

    ``states`` holds the base of m states: the M explicit states on C^d of a
    global ensemble (``n_qubits`` None), or the single-qubit base of a local
    one, whose probe states are its n_qubits-fold products.
    """

    states: np.ndarray
    n_qubits: int | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2 or 0 in states.shape:
            raise ValueError(f"ensemble states must be a non-empty 2-d (m, q) array, got shape {states.shape}")
        norms = np.linalg.norm(states, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
            raise ValueError("ensemble states must have unit norm")
        if self.n_qubits is not None:
            if self.n_qubits < 1:
                raise ValueError("local ensembles need n_qubits >= 1")
            if states.shape[1] != 2:
                raise ValueError("local ensembles store a single-qubit base")
        object.__setattr__(self, "states", states)

    @property
    def kind(self) -> str:
        """``global`` (one factor on C^d) or ``local`` (a product over n_qubits)."""
        return "global" if self.n_qubits is None else "local"

    @property
    def dim(self) -> int:
        """Dimension d = q^n of the probe states."""
        return self.states.shape[1] ** self.n_factors

    @property
    def size(self) -> int:
        """Number of probe states M (m^n for local ensembles)."""
        return len(self.states) ** self.n_factors

    @property
    def n_factors(self) -> int:
        """Tensor factors of each probe state: n_qubits (local) or 1 (global)."""
        return 1 if self.n_qubits is None else self.n_qubits

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


def pauli6_product(n_qubits: int) -> ProbeEnsemble:
    """Tensor products of the 6 Pauli eigenstates on each of n qubits."""
    return ProbeEnsemble(PAULI6_BASE.copy(), n_qubits)


def mub_ensemble(d: int) -> ProbeEnsemble:
    """Global ensemble of the d(d+1) complete-MUB states, d prime."""
    return ProbeEnsemble(mub_states(d))


def sic_qubit_ensemble() -> ProbeEnsemble:
    """Global ensemble of the 4 tetrahedral qubit states."""
    return ProbeEnsemble(SIC_QUBIT_STATES.copy())


def sic_qubit_product(n_qubits: int) -> ProbeEnsemble:
    """Tensor products of the 4 tetrahedral states on each of n qubits."""
    return ProbeEnsemble(SIC_QUBIT_STATES.copy(), n_qubits)


def explicit_ensemble(states) -> ProbeEnsemble:
    """Global ensemble from user states; fails unless they form a 2-design within :data:`DESIGN_TOL`."""
    ensemble = ProbeEnsemble(states)
    deviation = design_check(ensemble)
    if deviation > DESIGN_TOL:
        raise ValueError(
            f"explicit states do not form a 2-design: deviation {deviation:.3e} exceeds {DESIGN_TOL:.1e}"
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
    """``sum_i w[..., j, i] (x)_k factors[i_k]`` for every row j of an (..., L, m^n) array.

    The flat index i enumerates multi-indices (i_1, ..., i_n) with the first
    factor most significant, as :func:`numpy.unravel_index` does, and
    the Kronecker product puts the first factor first, as
    :func:`frame_operator` does. Runs n matmuls, each one GEMM per (L, m^n)
    slice of a leading stack, of the shape that slice alone gives: BLAS
    picks its kernel and threads by shape, so each slice sums as it would
    alone. Returns (..., L, q^n, q^n).
    """
    m, q, _ = factors.shape
    *stack, rows, _ = np.shape(weights)
    lead = len(stack) + 1
    flat = factors.reshape(m, q * q)
    out = np.reshape(weights, (*stack, rows) + (m,) * n)
    for _ in range(n):  # contract i_k; axes become (..., rows, i_k+1.., a_1 b_1, .., a_k b_k)
        out = out.transpose(*range(lead), *range(lead + 1, out.ndim), lead)
        out = np.matmul(out.reshape(*stack, -1, m), flat).reshape(out.shape[:-1] + (q * q,))
    out = out.reshape(*stack, rows, *(q,) * (2 * n))  # axes (..., rows, a_1, b_1, .., a_n, b_n)
    order = (*range(lead), *range(lead, lead + 2 * n, 2), *range(lead + 1, lead + 2 * n, 2))
    return out.transpose(order).reshape(*stack, rows, q**n, q**n)


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
