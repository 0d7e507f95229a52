import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmtomo import frames, povm
from oracles import pauli_strings, product_state, random_hermitian, stabilizer_states


def overlaps(states):
    return [
        abs(np.vdot(a, b)) ** 2
        for a, b in itertools.combinations(states, 2)
    ]


def test_pauli6_geometry():
    ensemble = frames.pauli6_product(1)
    assert ensemble.size == 6
    for value in overlaps(ensemble.states):
        assert min(abs(value - t) for t in (0.0, 0.5, 1.0)) < 1e-12


def test_mub3_cross_basis_overlaps():
    ensemble = frames.mub_ensemble(3)
    assert ensemble.size == 12
    states = ensemble.states
    # bases are blocks of 3: overlaps within a basis are 0, across bases 1/3
    for (i, a), (j, b) in itertools.combinations(enumerate(states), 2):
        value = abs(np.vdot(a, b)) ** 2
        if i // 3 == j // 3:
            assert value < 1e-12
        else:
            assert value == pytest.approx(1 / 3, abs=1e-12)


def test_sic_qubit_overlaps():
    ensemble = frames.sic_qubit_ensemble()
    assert ensemble.size == 4
    for value in overlaps(ensemble.states):
        assert value == pytest.approx(1 / 3, abs=1e-12)


def test_mub_states_equal_the_loop_form_bit_for_bit():
    # the broadcast phases against the row-by-row construction, compared as float bits
    for d in (2, 3, 5, 7, 11, 13):
        omega = np.exp(2j * np.pi / d)
        ell = np.arange(d)
        rows = [np.eye(d, dtype=complex)[k] for k in range(d)]
        rows += [omega ** ((a * ell * ell + b * ell) % d) / np.sqrt(d) for a in range(d) for b in range(d)]
        expected = frames.PAULI6_BASE if d == 2 else np.array(rows)
        states = frames.mub_states(d)
        assert states.shape == expected.shape == (d * (d + 1), d)
        assert np.array_equal(states.view(np.int64), expected.view(np.int64))


def test_mub_requires_prime():
    with pytest.raises(ValueError):
        frames.mub_ensemble(4)
    with pytest.raises(ValueError):
        frames.mub_ensemble(6)


def test_frame_operator_global_qubit():
    ensemble = frames.mub_ensemble(2)
    nu = frames.frame_operator(ensemble, 0)  # |0>
    np.testing.assert_allclose(nu, np.diag([4.0, -2.0]), atol=1e-12)


def test_frame_operator_local_two_qubits():
    ensemble = frames.pauli6_product(2)
    nu = frames.frame_operator(ensemble, 0)  # |00>
    np.testing.assert_allclose(nu, np.diag([16.0, -8.0, -8.0, 4.0]), atol=1e-12)


def test_frame_operator_trace_identity():
    ensemble = frames.mub_ensemble(3)
    for i in range(ensemble.size):
        nu = frames.frame_operator(ensemble, i)
        assert np.trace(nu).real == pytest.approx(3.0, abs=1e-10)


def test_frame_operator_index_out_of_range():
    ensemble = frames.mub_ensemble(2)
    with pytest.raises(IndexError):
        frames.frame_operator(ensemble, 6)
    with pytest.raises(IndexError):
        frames.frame_operator(ensemble, -1)
    with pytest.raises(IndexError):
        frames.frame_operator(frames.pauli6_product(2), 36)


def test_design_check_values():
    assert frames.design_check(frames.pauli6_product(1)) < 1e-12
    assert frames.design_check(frames.mub_ensemble(5)) < 1e-12
    incomplete = frames.ProbeEnsemble(np.eye(2, dtype=complex))
    assert frames.design_check(incomplete) > 1e-2


def test_design_check_is_linear_in_a_perturbation():
    # a squared measure (e.g. the frame potential) would read ~1e-12 here
    rng = np.random.default_rng(5)
    states = frames.mub_states(5)
    states = states + 1e-6 * (rng.normal(size=states.shape) + 1j * rng.normal(size=states.shape))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    assert 1e-7 < frames.design_check(frames.ProbeEnsemble(states)) < 1e-5
    with pytest.raises(ValueError, match="2-design"):
        frames.explicit_ensemble(states)


def test_explicit_ensemble_rejects_non_design():
    with pytest.raises(ValueError):
        frames.explicit_ensemble(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        frames.explicit_ensemble(np.array([[1.0, 1.0], [1.0, -1.0]]))  # not unit norm


def test_kind_and_dim_follow_from_the_base_and_n_qubits():
    for ensemble, kind, dim, size in (
        (frames.pauli6_product(3), "local", 8, 216),
        (frames.sic_qubit_product(2), "local", 4, 16),
        (frames.mub_ensemble(5), "global", 5, 30),
        (frames.sic_qubit_ensemble(), "global", 2, 4),
    ):
        assert (ensemble.kind, ensemble.dim, ensemble.size) == (kind, dim, size)
    for make in (frames.pauli6_product, frames.sic_qubit_product):
        with pytest.raises(ValueError, match="local ensembles need n_qubits >= 1"):
            make(0)
    with pytest.raises(ValueError, match="local ensembles store a single-qubit base"):
        frames.ProbeEnsemble(frames.mub_states(3), 2)
    for states, shape in ((frames.PAULI6_BASE[2], "(2,)"), (np.zeros((0, 2)), "(0, 2)"),
                          (np.ones((2, 1, 1)), "(2, 1, 1)")):
        with pytest.raises(ValueError, match=re.escape(f"non-empty 2-d (m, q) array, got shape {shape}")):
            frames.ProbeEnsemble(states)


def test_stabilizer_states_are_designs():
    for n, count in ((1, 6), (2, 60), (3, 1080)):
        states = stabilizer_states(n)
        assert len(states) == count
        overlaps = np.abs(states.conj() @ states.T)
        np.fill_diagonal(overlaps, 0.0)
        assert np.max(overlaps) < 1 - 1e-6  # pairwise distinct up to global phase
        # a stabilizer state has |<psi|P|psi>| = 1 on exactly 2^n Pauli strings and 0 on the rest
        _, sigma = pauli_strings(n)
        expectations = np.abs(np.einsum("ia,pab,ib->ip", states.conj(), sigma * np.sqrt(2**n), states))
        assert np.all((expectations < 1e-9) | (np.abs(expectations - 1) < 1e-9))
        assert np.all(np.sum(expectations > 0.5, axis=1) == 2**n)
        assert frames.design_check(frames.explicit_ensemble(states)) < 1e-12


def frame_inversion_error(ensemble, x):
    """|| sum_i <psi_i|X|psi_i>/M nu_i - X || for a Hermitian test matrix."""
    m = ensemble.size
    acc = np.zeros_like(x)
    for i in range(m):
        psi = product_state(ensemble, i)
        acc = acc + (psi.conj() @ x @ psi).real / m * frames.frame_operator(ensemble, i)
    return np.linalg.norm(acc - x)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_frame_inversion_global(d):
    rng = np.random.default_rng(d)
    ensemble = frames.mub_ensemble(d)
    for _ in range(5):
        assert frame_inversion_error(ensemble, random_hermitian(d, rng)) < 1e-9


def test_frame_inversion_global_d4_stabilizer():
    rng = np.random.default_rng(4)
    ensemble = frames.explicit_ensemble(stabilizer_states(2))
    for _ in range(5):
        assert frame_inversion_error(ensemble, random_hermitian(4, rng)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_inversion_local(n):
    rng = np.random.default_rng(10 + n)
    ensemble = frames.pauli6_product(n)
    for _ in range(3):
        assert frame_inversion_error(ensemble, random_hermitian(2**n, rng)) < 1e-9


def test_frame_operator_norm_bounds():
    for d in (2, 3, 5):
        ensemble = frames.mub_ensemble(d)
        for i in range(ensemble.size):
            nu = frames.frame_operator(ensemble, i)
            norm = np.max(np.abs(np.linalg.eigvalsh(nu)))
            assert norm == pytest.approx(d**2, abs=1e-9)
    for n in (1, 2):
        ensemble = frames.pauli6_product(n)
        for i in range(ensemble.size):
            nu = frames.frame_operator(ensemble, i)
            norm = np.max(np.abs(np.linalg.eigvalsh(nu)))
            assert norm == pytest.approx(4**n, abs=1e-9)


def test_frame_operators_average_to_identity():
    for d in (2, 3, 5):
        ensemble = frames.mub_ensemble(d)
        total = sum(frames.frame_operator(ensemble, i) for i in range(ensemble.size))
        np.testing.assert_allclose(total / ensemble.size, np.eye(d), atol=1e-10)


def test_build_ensemble_dispatch_and_strict_keys():
    assert frames.build_ensemble({"kind": "pauli6_product", "n_qubits": 2}).size == 36
    assert frames.build_ensemble({"kind": "mub", "dim": 3}).size == 12
    assert frames.build_ensemble({"kind": "sic_qubit"}).size == 4
    assert frames.build_ensemble({"kind": "sic_qubit_product", "n_qubits": 2}).size == 16
    with pytest.raises(ValueError):
        frames.build_ensemble({"kind": "mub", "dim": 3, "oops": 1})
    with pytest.raises(ValueError):
        frames.build_ensemble({"kind": "nope"})
    for bad in [{"kind": "mub", "dim": "3"}, {"kind": "mub", "dim": 3.5}, {"kind": "pauli6_product", "n_qubits": True},
                {"kind": "mub"}, {"kind": ["mub"], "dim": 3}, "mub"]:
        with pytest.raises(ValueError):
            frames.build_ensemble(bad)


def test_local_product_states_match_multi_index():
    ensemble = frames.pauli6_product(2)
    psi = product_state(ensemble, 7)  # multi-index (1, 1) -> |1> x |1>
    np.testing.assert_allclose(psi, [0, 0, 0, 1], atol=1e-14)
    # (6|1><1| - 2I) x (6|1><1| - 2I)
    nu = frames.frame_operator(ensemble, 7)
    np.testing.assert_allclose(nu, np.diag([4.0, -8.0, -8.0, 16.0]), atol=1e-12)


KERNEL_ENSEMBLES = [
    *(pytest.param(lambda n=n: frames.pauli6_product(n), id=f"pauli6-n{n}") for n in (1, 2, 3)),
    *(pytest.param(lambda n=n: frames.sic_qubit_product(n), id=f"sicprod-n{n}") for n in (1, 2)),
    *(pytest.param(lambda d=d: frames.mub_ensemble(d), id=f"mub-d{d}") for d in (2, 3, 5)),
    pytest.param(lambda: frames.explicit_ensemble(stabilizer_states(2)), id="stabilizer-d4"),
    pytest.param(frames.sic_qubit_ensemble, id="sic_qubit"),
]


@pytest.mark.parametrize("make_ensemble", KERNEL_ENSEMBLES)
def test_frame_kernels_match_oracles(make_ensemble):
    ensemble = make_ensemble()
    n, m = ensemble.n_factors, ensemble.size
    rng = np.random.default_rng(m)
    weights = rng.uniform(-1.0, 1.0, size=(3, m)) / m
    nus = [frames.frame_operator(ensemble, i) for i in range(m)]
    expected = np.einsum("ji,iab->jab", weights, np.array(nus))
    got = frames.frame_sum(weights, ensemble.dual_factors(), n)
    assert np.max(np.abs(got - expected)) < 1e-10

    target = povm.random_povm(ensemble.dim, 3, (m, 1))
    born = np.array([povm.born(target, product_state(ensemble, i)) for i in range(m)]).T
    traces = frames.frame_traces(target.elements, ensemble.projector_factors(), n)
    assert np.max(np.abs(traces - born)) < 1e-10

    # the transpose on general Hermitian operators: tr(A_j nu_i)
    ops = np.array([random_hermitian(ensemble.dim, rng) for _ in range(2)])
    expected = np.array([[np.trace(a @ nu).real for nu in nus] for a in ops])
    got = frames.frame_traces(ops, ensemble.dual_factors(), n)
    assert np.max(np.abs(got - expected)) < 1e-10


# Run under a fixed BLAS thread count, which OpenBLAS reads once at start-up: every case whose
# frame_traces differs in any bit from the tensordot form is printed.
TRACES_VS_TENSORDOT = """
import json
import numpy as np
from oracles import random_hermitian, tensordot_frame_traces
from povmtomo import frames

ensembles = [*(frames.pauli6_product(n) for n in (1, 3, 4)), frames.mub_ensemble(3), frames.mub_ensemble(7),
             frames.sic_qubit_product(2)]
rng = np.random.default_rng(7)
differ = []
for ensemble in ensembles:
    for n_rows in (1, 4, 12):
        operators = np.array([random_hermitian(ensemble.dim, rng) for _ in range(n_rows)])
        for factors in (ensemble.projector_factors(), ensemble.dual_factors()):
            got = frames.frame_traces(operators, factors, ensemble.n_factors)
            if not np.array_equal(got, tensordot_frame_traces(operators, factors, ensemble.n_factors)):
                differ.append([ensemble.kind, ensemble.dim, n_rows])
print(json.dumps(differ))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_frame_traces_equal_the_tensordot_form_bit_for_bit(threads):
    # frame_traces runs frame_sum's mode products; folding the rows into each GEMM keeps the
    # tensordot form's bits (a (1, q^2) product per row took a matrix-vector kernel and did not)
    tests = Path(__file__).resolve().parent
    paths = [str(Path(frames.__file__).resolve().parents[1]), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", TRACES_VS_TENSORDOT], cwd=tests, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


ADJOINT_ENSEMBLES = {
    "pauli6 n=1": frames.pauli6_product(1),
    "pauli6 n=2": frames.pauli6_product(2),
    "sic n=2": frames.sic_qubit_product(2),
    "mub d=3": frames.mub_ensemble(3),
}


@settings(max_examples=30)
@given(
    name=st.sampled_from(sorted(ADJOINT_ENSEMBLES)),
    dual=st.booleans(),
    n_rows=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_frame_traces_is_the_adjoint_of_frame_sum(name, dual, n_rows, seed):
    # <W, frame_traces(A)> = sum_j tr(A_j frame_sum(W)_j) for Hermitian A_j and real W
    ensemble = ADJOINT_ENSEMBLES[name]
    factors = ensemble.dual_factors() if dual else ensemble.projector_factors()
    n = ensemble.n_factors
    rng = np.random.default_rng(seed)
    operators = np.array([random_hermitian(ensemble.dim, rng) for _ in range(n_rows)])
    weights = rng.normal(size=(n_rows, ensemble.size))
    lhs = np.sum(weights * frames.frame_traces(operators, factors, n))
    rhs = np.einsum("jab,jba->", operators, frames.frame_sum(weights, factors, n)).real
    assert abs(lhs - rhs) <= 1e-10 * (1 + np.sum(np.abs(weights)) * np.max(np.abs(operators)))
