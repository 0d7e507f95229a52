"""POVM representation, constructors, Born-rule evaluation, and file I/O.

The unconstrained least-squares output lives in :class:`RawEstimate`, an
(L, d, d) stack of effects that need only be Hermitian. A :class:`Povm` is a
RawEstimate whose effects also passed positivity and completeness within a
validation tolerance. Both keep the exact Hermitian part of effects that are
Hermitian within their tolerance and reject any others.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._rng import haar_isometry, make_rng
from ._schema import build, integer, pairs, read, real
from .frames import SIC_QUBIT_STATES, frame_traces

POVM_TOL = 1e-8

#: I, X, Y, Z divided by sqrt(2): their first-factor-first n-fold products are
#: the 4^n Pauli strings scaled by 1/sqrt(2^n), in the order of :func:`pauli_labels`.
PAULI_FACTORS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]) * np.sqrt(0.5)


class PovmValidationError(ValueError):
    """Raised when a candidate fails the positivity or completeness checks."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    min_eigenvalue: float
    completeness_residual: float


def _as_element_stack(elements) -> np.ndarray:
    if isinstance(elements, RawEstimate):
        return elements.elements
    arr = np.asarray(elements, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] < 1:
        raise ValueError(f"expected an (L, d, d) stack of effects with d >= 1, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("a POVM needs at least one effect")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


def _checks(arr: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Per candidate of a Hermitian (T, L, d, d) stack: the smallest eigenvalue of its effects, from
    one stacked ``eigvalsh``, and its completeness residual ||sum_j E_j - I||_F."""
    residuals = linalg.frobenius_norms(arr.sum(axis=1) - np.eye(arr.shape[-1])).tolist()
    return np.linalg.eigvalsh(arr)[..., 0].min(axis=-1), residuals


def validate(candidate, tol: float = POVM_TOL) -> ValidationReport:
    """Check positivity and completeness of a POVM candidate.

    ``ok`` iff the smallest eigenvalue over all effects is >= -tol and
    ``||sum_j E_j - I||_F <= tol``; the report is returned either way. Effects
    that are not Hermitian within ``tol``, and a ``tol`` that is negative or
    not finite, raise a ``ValueError``.
    """
    if not real("tol", tol) >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    arr = _as_element_stack(candidate)
    if not isinstance(candidate, RawEstimate):  # whose effects are exactly Hermitian
        arr = linalg.require_hermitian(arr, tol)
    (min_eig,), (residual,) = _checks(arr[None])
    return ValidationReport(bool(min_eig >= -tol and residual <= tol), float(min_eig), residual)


def _valid_povms(stack: np.ndarray) -> np.ndarray:
    """The exact Hermitian part of a (T, L, d, d) stack of candidates that are each a POVM at
    :data:`POVM_TOL`, or a ``PovmValidationError`` for the first that is not."""
    arr = linalg.require_hermitian(stack, POVM_TOL)
    for min_eig, residual in zip(*_checks(arr)):
        if not (min_eig >= -POVM_TOL and residual <= POVM_TOL):
            raise PovmValidationError(
                f"not a valid POVM at tol {POVM_TOL:.1e}: min eigenvalue "
                f"{min_eig:.3e}, completeness residual {residual:.3e}"
            )
    return arr


class RawEstimate:
    """An unconstrained tuple of Hermitian matrices (no positivity required),
    Hermitian within :data:`linalg.HERMITICITY_TOL`.

    Construction keeps the exact Hermitian part of the effects that
    :attr:`_check` passes, one candidate as a stack of one. Element arrays
    are frozen so values can be shared freely.
    """

    #: Maps a (T, L, d, d) stack of candidates to its checked exact Hermitian part.
    _check = staticmethod(linalg.require_hermitian)

    def __init__(self, elements):
        self.__dict__ = vars(self.stack(_as_element_stack(elements)[None])[0])

    @classmethod
    def stack(cls, elements: np.ndarray) -> list:
        """One value per candidate of a (T, L, d, d) stack, each bit for bit its constructor's, with
        the checks made in one pass over the whole stack."""
        checked = cls._check(elements)
        checked.flags.writeable = False
        values = [object.__new__(cls) for _ in range(len(checked))]
        for value, arr in zip(values, checked):
            value.elements, value.outcomes, value.dim = arr, arr.shape[0], arr.shape[1]
        return values

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, outcomes={self.outcomes})"


class Povm(RawEstimate):
    """An L-outcome POVM on C^d: a :class:`RawEstimate` whose effects are also
    PSD and sum to the identity.

    Validation runs at construction with tolerance :data:`POVM_TOL`:
    Hermiticity, then positivity and completeness; :meth:`stack` makes them
    with one ``require_hermitian`` and one stacked ``eigvalsh``.
    """

    _check = staticmethod(_valid_povms)


def leading_projector(d: int) -> np.ndarray:
    """diag(1, ..., 1, 0, ..., 0) with d/2 ones; d must be even."""
    if d % 2:
        raise ValueError(f"rank-d/2 projector needs even dimension, got d={d}")
    return np.diag(np.concatenate([np.ones(d // 2), np.zeros(d // 2)])).astype(complex)


def computational_povm(d: int) -> Povm:
    """The projective measurement onto the computational basis."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    eye = np.eye(d, dtype=complex)
    return Povm(eye[:, :, None] * eye[:, None, :])


def rotated_povm(u) -> Povm:
    """Computational-basis measurement conjugated by the unitary ``u``."""
    u = linalg.require_square(u)
    if np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) > 1e-10:
        raise ValueError("rotation matrix is not unitary")
    return Povm(u.T[:, :, None] * u.T.conj()[:, None, :])


def sic_qubit_povm() -> Povm:
    """The qubit SIC measurement: effects (1/2)|phi_k><phi_k| over the tetrahedron."""
    return Povm(0.5 * (SIC_QUBIT_STATES[:, :, None] * SIC_QUBIT_STATES.conj()[:, None, :]))


def depolarized(base: Povm, p: float) -> Povm:
    """Mix each effect with white noise: E_j -> (1-p) E_j + p tr(E_j) I / d."""
    if not 0 <= p <= 1:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    traces = np.trace(base.elements, axis1=1, axis2=2).real[:, None, None]
    return Povm((1 - p) * base.elements + p * traces * np.eye(base.dim) / base.dim)


def random_povm(d: int, n_outcomes: int, seed) -> Povm:
    """Haar-random POVM: partition a random isometry C^d -> C^(dL) into L effects."""
    if n_outcomes < 2:
        raise ValueError("random POVMs need at least 2 outcomes")
    rng = make_rng(seed)
    v = haar_isometry(d * n_outcomes, d, rng)
    blocks = v.reshape(n_outcomes, d, d)
    return Povm(blocks.conj().swapaxes(1, 2) @ blocks)


def packing_op_povm(u, epsilon: float, n_flat: int) -> Povm:
    """Worst-case-distance packing member with n_flat + 2 effects.

    The first ``n_flat`` effects are flat (I/(2L)); the last two are
    ``(1 +- eps)/4 * I -+ (eps/2) U P U^dagger`` with P the rank-d/2
    :func:`leading_projector`.
    """
    u = linalg.require_square(u)
    d = u.shape[0]
    if not 0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    if n_flat < 1:
        raise ValueError("need at least one flat effect")
    eye = np.eye(d)
    rotated = u @ leading_projector(d) @ u.conj().T
    elements = [eye / (2 * n_flat)] * n_flat
    elements.append((1 + epsilon) / 4 * eye - epsilon / 2 * rotated)
    elements.append((1 - epsilon) / 4 * eye + epsilon / 2 * rotated)
    return Povm(np.array(elements))


def packing_av_povm(unitaries, epsilon: float) -> Povm:
    """Average-case-distance packing member: L = 2 * len(unitaries) effects.

    Effect j is ``(1-eps)/L * I + (2 eps/L) U_j P U_j^dagger``, with P the
    rank-d/2 :func:`leading_projector`, and effect j + L/2 is its mirrored
    partner, so the pair sums cancel exactly.
    """
    unitaries = [linalg.require_square(u) for u in unitaries]
    if not unitaries:
        raise ValueError("need at least one unitary")
    d = unitaries[0].shape[0]
    if not 0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    proj = leading_projector(d)
    n_outcomes = 2 * len(unitaries)
    eye = np.eye(d)
    plus, minus = [], []
    for u in unitaries:
        rotated = u @ proj @ u.conj().T
        plus.append((1 - epsilon) / n_outcomes * eye + 2 * epsilon / n_outcomes * rotated)
        minus.append((1 + epsilon) / n_outcomes * eye - 2 * epsilon / n_outcomes * rotated)
    return Povm(np.array(plus + minus))


def build_povm(spec: dict) -> Povm:
    """Build a POVM from a serializable spec dict: a ``kind`` of :data:`KINDS` and its keys."""
    return build("povm spec", spec, KINDS)


def born(povm: Povm, state) -> np.ndarray:
    """Born-rule outcome probabilities tr(E_j rho), clipped and renormalized.

    ``state`` is a unit vector or a density matrix (trace 1). Tiny negative
    values from validation slack are clipped to zero and the vector is
    renormalized exactly so it can feed a sampler directly.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        if abs(np.linalg.norm(state) - 1.0) > 1e-6:
            raise ValueError("state vector is not normalized")
        probs = np.einsum("k,jkl,l->j", state.conj(), povm.elements, state).real
    elif state.ndim == 2:
        linalg.require_hermitian(state, 1e-6)
        if abs(np.trace(state).real - 1.0) > 1e-6:
            raise ValueError("density matrix does not have unit trace")
        probs = np.einsum("jkl,lk->j", povm.elements, state).real
    else:
        raise ValueError("state must be a vector or a density matrix")
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, state or POVM invalid")
    probs = np.clip(probs, 0.0, 1.0)
    return probs / probs.sum()


def pauli_labels(n_qubits: int) -> list[str]:
    """Labels of the n-qubit Pauli strings, lexicographic in {I, X, Y, Z}^n."""
    return ["".join(combo) for combo in itertools.product("IXYZ", repeat=n_qubits)]


def measurement_channel(ideal: Povm, estimated: Povm) -> np.ndarray:
    """Transfer matrix of sum_j |E_j)(E*_j| in the normalized Pauli basis.

    Entry (a, b) is ``sum_j tr(sigma_a E_j) tr(sigma_b E*_j)`` with sigma the
    orthonormal Pauli strings of :func:`pauli_labels`, whose traces
    :func:`frame_traces` takes over the factors :data:`PAULI_FACTORS`; rows
    index the ideal POVM, columns the estimate. Requires a qubit register
    (d = 2^n) and matching shapes.
    """
    if ideal.dim != estimated.dim or ideal.outcomes != estimated.outcomes:
        raise ValueError("measurement_channel needs POVMs of identical shape")
    n_qubits = int(round(np.log2(ideal.dim)))
    if 2**n_qubits != ideal.dim:
        raise ValueError("the Pauli transfer representation needs d = 2^n")
    left, right = (frame_traces(povm.elements, PAULI_FACTORS, n_qubits) for povm in (ideal, estimated))
    return left.T @ right


def _povm_file_template(n_outcomes: int, d: int) -> str:
    """The text of ``json.dump(doc, sort_keys=True, indent=2)`` plus a newline, with
    ``%d`` for ``dim`` and ``outcomes`` and ``%s`` for each float of ``elements``."""
    pair = "        [\n          %s,\n          %s\n        ]"
    row = "      [\n" + ",\n".join([pair] * d) + "\n      ]"
    matrix = "    [\n" + ",\n".join([row] * d) + "\n    ]"
    elements = "[\n" + ",\n".join([matrix] * n_outcomes) + "\n  ]"
    return '{\n  "dim": %d,\n  "elements": ' + elements + ',\n  "outcomes": %d\n}\n'


#: The bits that conjugation flips in an entry's float64 [re, im] pair: the sign of im.
_CONJUGATE_BITS = np.array([0, np.iinfo(np.int64).min])
_repr = np.frompyfunc(float.__repr__, 1, 1)
_negated = np.frompyfunc(lambda text: text[1:] if text[0] == "-" else "-" + text, 1, 1)


def _element_values(arr: np.ndarray) -> list:
    """The floats of an (L, d, d) stack's [re, im] pairs in file order, each as ``%s`` writes it.

    A stack whose entry below the diagonal is bitwise the conjugate of its mirror above it
    (the sign of a zero counts) is the ``repr`` of each float on and above the diagonal once:
    an entry below reuses its mirror's real string and its mirror's imaginary string with
    the leading ``-`` toggled. Any other stack is its floats, of which ``%s`` writes the repr.
    """
    parts = np.stack([arr.real, arr.imag], axis=-1)
    rows, cols = np.triu_indices(arr.shape[1], 1)
    bits = parts.view(np.int64)
    if not np.array_equal(bits[:, cols, rows], bits[:, rows, cols] ^ _CONJUGATE_BITS):
        return parts.ravel().tolist()
    strings = np.empty(parts.shape, dtype=object)
    diagonal = np.arange(arr.shape[1])
    strings[:, diagonal, diagonal] = _repr(parts[:, diagonal, diagonal])
    upper = _repr(parts[:, rows, cols])
    strings[:, rows, cols] = upper
    strings[:, cols, rows, 0] = upper[..., 0]
    strings[:, cols, rows, 1] = _negated(upper[..., 1])
    return strings.ravel().tolist()


def save_povm(povm, path) -> None:
    """Write a POVM (or raw estimate) as JSON with exact float round-trip.

    The file is ``json.dump(..., sort_keys=True, indent=2)`` of ``dim``,
    ``elements`` (nested ``[re, im]`` pairs) and ``outcomes``, byte for byte;
    the repr of a finite float is the shortest round-trip form that ``json``
    writes, and :func:`_as_element_stack` rejects non-finite entries.
    """
    arr = _as_element_stack(povm)
    n_outcomes, d, _ = arr.shape
    with open(path, "w") as fh:
        fh.write(_povm_file_template(n_outcomes, d) % (d, *_element_values(arr), n_outcomes))


def read_povm_file(path) -> np.ndarray:
    """Read the element stack from a POVM file, checking its keys and shape but not its effects."""
    schema = {"dim": integer, "elements": _complex_from_pairs, "outcomes": integer}
    with open(path) as fh:
        dim, arr, outcomes = read("POVM file", json.load(fh), schema).values()
    if arr.shape != (outcomes, dim, dim):
        raise ValueError(f"POVM file is inconsistent: {arr.shape} vs header")
    return arr


def load_povm(path) -> Povm:
    """Read a POVM file written by :func:`save_povm` and validate it at :data:`POVM_TOL`."""
    return Povm(read_povm_file(path))


def _complex_from_pairs(name: str, value) -> np.ndarray:
    """Complex array from the nested [re, im] pairs of a file or spec; callers check its shape."""
    arr = pairs(name, value)
    return arr[..., 0] + 1j * arr[..., 1]


#: kind -> (constructor, parser of each further spec key, in argument order)
KINDS = {
    "computational": (computational_povm, {"dim": integer}),
    "rotated": (rotated_povm, {"unitary": _complex_from_pairs}),
    "sic_qubit": (sic_qubit_povm, {}),
    "depolarized": (depolarized, {"base": lambda key, spec: build_povm(spec), "p": real}),
    "random": (random_povm, {"dim": integer, "outcomes": integer, "seed": integer}),
    "packing_op": (packing_op_povm, {"unitary": _complex_from_pairs, "epsilon": real, "flat_outcomes": integer}),
    "packing_av": (packing_av_povm, {"unitaries": _complex_from_pairs, "epsilon": real}),
}
