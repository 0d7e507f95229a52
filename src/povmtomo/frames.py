"""Informationally complete probe ensembles and their dual frame operators.

Two ensemble kinds are supported:

* ``global``: an explicit list of M states on C^d whose rank-one projectors
  average to a projective 2-design. The dual frame operator of state i is
  ``d(d+1)|psi_i><psi_i| - d*I``.
* ``local``: an n-fold tensor product of one single-qubit 2-design base of m
  states. The M = m^n product states are enumerated lazily by multi-index;
  the dual frame operator factorizes as a Kronecker product of per-qubit
  operators ``6|psi><psi| - 2*I``.

A global ensemble is the case n = 1, q = d of a product of n factors
``q(q+1)|psi><psi| - q*I`` over a base of m states on C^q. :func:`frame_sum`
and its transpose :func:`frame_traces` contract a factor stack against all
M = m^n probe states at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg

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

    ``states`` holds the M explicit states (global kind, shape (M, d)) or the
    per-qubit base of m states (local kind, shape (m, 2)); local product
    states are materialized on demand through :meth:`state`.
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
    def base_size(self) -> int:
        return len(self.states)

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

    def multi_index(self, index: int) -> tuple[int, ...]:
        """Per-qubit base indices of flat state ``index`` (first qubit first)."""
        if self.kind != "local":
            raise ValueError("multi_index is only defined for local ensembles")
        return tuple(int(k) for k in np.unravel_index(index, (self.base_size,) * self.n_qubits))

    def state(self, index) -> np.ndarray:
        """The probe state at ``index`` (flat int, or multi-index for local kind)."""
        if self.kind == "global":
            index = int(index)
            if not 0 <= index < self.size:
                raise IndexError(f"state index {index} out of range [0, {self.size})")
            return self.states[index]
        idx = self._as_multi_index(index)
        psi = self.states[idx[0]]
        for k in idx[1:]:
            psi = np.kron(psi, self.states[k])
        return psi

    def _as_multi_index(self, index) -> tuple[int, ...]:
        if np.isscalar(index) or isinstance(index, (int, np.integer)):
            index = int(index)
            if not 0 <= index < self.size:
                raise IndexError(f"state index {index} out of range [0, {self.size})")
            return self.multi_index(index)
        idx = tuple(int(k) for k in index)
        if len(idx) != self.n_qubits or any(not 0 <= k < self.base_size for k in idx):
            raise IndexError(f"invalid multi-index {idx}")
        return idx


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

    Enumerates the maximal abelian subgroups of the Pauli group (mod phases)
    and extracts the rank-one joint eigenprojectors for every sign pattern.
    Exponential in n; intended for small systems (n <= 3).
    """
    if not 1 <= n_qubits <= 3:
        raise ValueError("stabilizer_states supports 1 <= n_qubits <= 3")
    n = n_qubits
    d = 2**n
    eye2 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    def pauli(xz) -> np.ndarray:
        x, z = xz
        out = np.array([[1.0 + 0j]])
        for xk, zk in zip(x, z):
            if xk and zk:
                factor = 1j * sx @ sz
            elif xk:
                factor = sx
            elif zk:
                factor = sz
            else:
                factor = eye2
            out = np.kron(out, factor)
        return out

    def symplectic_commute(p, q) -> bool:
        (x1, z1), (x2, z2) = p, q
        s = sum(a * b for a, b in zip(x1, z2)) + sum(a * b for a, b in zip(z1, x2))
        return s % 2 == 0

    def product(p, q):
        (x1, z1), (x2, z2) = p, q
        return (
            tuple((a + b) % 2 for a, b in zip(x1, x2)),
            tuple((a + b) % 2 for a, b in zip(z1, z2)),
        )

    nontrivial = [
        (bits[:n], bits[n:])
        for bits in itertools.product((0, 1), repeat=2 * n)
        if any(bits)
    ]

    # Maximal abelian subgroups (mod phases) as GF(2) spans of commuting tuples.
    groups: set[frozenset] = set()
    for gens in itertools.combinations(nontrivial, n):
        if not all(symplectic_commute(p, q) for p, q in itertools.combinations(gens, 2)):
            continue
        members = {((0,) * n, (0,) * n)}
        for g in gens:
            members |= {product(m, g) for m in members}
        if len(members) == 2**n:
            groups.add(frozenset(members - {((0,) * n, (0,) * n)}))

    states = []
    for group in sorted(groups, key=lambda g: tuple(sorted(g))):
        gens = []
        span = {((0,) * n, (0,) * n)}
        for member in sorted(group):
            if member not in span:
                gens.append(member)
                span |= {product(m, member) for m in span}
            if len(gens) == n:
                break
        mats = [pauli(g) for g in gens]
        for signs in itertools.product((1, -1), repeat=n):
            proj = np.eye(d, dtype=complex)
            for s, g in zip(signs, mats):
                proj = proj @ (np.eye(d) + s * g) / 2
            w, v = np.linalg.eigh(linalg.hermitize(proj))
            if w[-1] > 0.5:
                states.append(v[:, -1])
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


def build_ensemble(spec: dict) -> ProbeEnsemble:
    """Build an ensemble from a serializable spec dict (see the CLI config schema)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("ensemble spec must be a dict with a 'kind' key")
    spec = dict(spec)
    kind = spec.pop("kind")
    if kind == "pauli6_product":
        ensemble = pauli6_product(int(spec.pop("n_qubits")))
    elif kind == "mub":
        ensemble = mub_ensemble(int(spec.pop("dim")))
    elif kind == "sic_qubit":
        ensemble = sic_qubit_ensemble()
    elif kind == "sic_qubit_product":
        ensemble = sic_qubit_product(int(spec.pop("n_qubits")))
    elif kind == "explicit":
        raw = spec.pop("states")
        states = np.asarray(raw, dtype=float) @ np.array([1, 1j])
        ensemble = explicit_ensemble(states)
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if spec:
        raise ValueError(f"unknown ensemble spec keys: {sorted(spec)}")
    return ensemble


def frame_sum(weights, factors: np.ndarray, n: int) -> np.ndarray:
    """``sum_i w[j, i] (x)_k factors[i_k]`` for every row j of an (L, m^n) array.

    The flat index i enumerates multi-indices (i_1, ..., i_n) with the first
    factor most significant, as :meth:`ProbeEnsemble.multi_index` does, and
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


def frame_operator(ensemble: ProbeEnsemble, index) -> np.ndarray:
    """Dual frame operator nu_i making sum_i p_i nu_i reproduce any effect.

    Global kind: ``d(d+1)|psi_i><psi_i| - d*I``. Local kind: Kronecker product
    over qubits of ``6|psi><psi| - 2*I``. Builds one operator at a time; the
    pipeline contracts all of them at once through :func:`frame_sum`.
    """
    d = ensemble.dim
    if ensemble.kind == "global":
        psi = ensemble.state(index)
        return d * (d + 1) * np.outer(psi, psi.conj()) - d * np.eye(d)
    idx = ensemble._as_multi_index(index)
    out = np.array([[1.0 + 0j]])
    for k in idx:
        psi = ensemble.states[k]
        out = linalg.kron(out, 6 * np.outer(psi, psi.conj()) - 2 * np.eye(2))
    return out


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Identity plus the d^2 - 1 generalized Gell-Mann matrices."""
    mats = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1
        m[l, l] = -l
        mats.append(m * np.sqrt(2.0 / (l * (l + 1))))
    return mats


def _design_deviation(states: np.ndarray, d: int) -> float:
    m = len(states)
    deviation = 0.0
    for x in hermitian_basis(d):
        expectations = np.einsum("ik,kl,il->i", states.conj(), x, states)
        acc = np.einsum("i,im,in->mn", expectations, states, states.conj()) / m
        target = (x + np.trace(x) * np.eye(d)) / (d * (d + 1))
        deviation = max(deviation, float(np.linalg.norm(acc - target)))
    return deviation


def design_check(ensemble: ProbeEnsemble) -> float:
    """Max deviation of the ensemble from the 2-design averaging identity.

    Checks ``(1/M) sum_i <psi_i|X|psi_i> |psi_i><psi_i| = (X + tr(X) I)/(d(d+1))``
    over a full Hermitian operator basis; local ensembles are checked on their
    single-qubit base (d = 2, m states).
    """
    return _design_deviation(ensemble.states, ensemble.states.shape[1])
