import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from povmtomo import frames, povm, tomography
from povmtomo.tomography import (
    FrequencyTable,
    ProjectionOptions,
    bernstein_diagnostics,
    exact_frequencies,
    lse_estimate,
    project_onto_povms,
    sample_size,
    simulate_shots,
)
from oracles import dav_clip_by_segments, simplex_project


def test_frequency_table_invariants():
    counts = np.zeros((4, 2), dtype=np.int64)
    counts[0, 0], counts[1, 1] = 4, 6
    table = FrequencyTable(counts, 10)
    assert (table.n_states, table.n_outcomes) == (4, 2)
    assert table.frequencies().sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        table.counts[0, 0] = 5  # the table is read-only
    counts[0, 0] = 0
    with pytest.raises(ValueError):
        FrequencyTable(counts, 10)  # counts don't sum to N
    counts[0, 0], counts[3, 0] = 11, -1
    with pytest.raises(ValueError):
        FrequencyTable(counts, 10)  # negative count
    with pytest.raises(ValueError):
        FrequencyTable(np.array([[2**62, 2**62], [2**62, 2**62 + 1]]), 1)  # int64 sum wraps to 1
    with pytest.raises(ValueError):
        FrequencyTable(np.full((4, 2), 1.25), 10)  # not integer counts


def test_simulate_deterministic_branch():
    comp = povm.computational_povm(2)
    ensemble = frames.pauli6_product(1)
    table = simulate_shots(comp, ensemble, 5000, 3)
    # probe 0 is |0> and can only produce outcome 0; probe 1 is |1> -> outcome 1
    assert table.counts[0, 1] == 0
    assert table.counts[1, 0] == 0
    assert table.frequencies().sum() == pytest.approx(1.0, abs=1e-12)


def test_simulate_binomial_concentration():
    flat = povm.depolarized(povm.computational_povm(2), 1.0)  # {I/2, I/2}
    ensemble = frames.pauli6_product(1)
    n_shots = 100_000
    table = simulate_shots(flat, ensemble, n_shots, 12)
    dense = table.counts
    stderr = 0.5 / math.sqrt(n_shots)
    for j in (0, 1):
        freq = dense[:, j].sum() / n_shots
        assert abs(freq - 0.5) <= 5 * stderr


def test_simulate_is_deterministic():
    target = povm.random_povm(2, 3, 4)
    ensemble = frames.pauli6_product(1)
    a = simulate_shots(target, ensemble, 2000, 99)
    b = simulate_shots(target, ensemble, 2000, 99)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_shots(target, ensemble, 2000, 100)
    assert not np.array_equal(a.counts, c.counts)


def test_simulate_dimension_mismatch():
    with pytest.raises(ValueError):
        simulate_shots(povm.computational_povm(3), frames.pauli6_product(1), 10, 0)


@pytest.mark.parametrize(
    "make_ensemble,d",
    [
        (lambda: frames.mub_ensemble(2), 2),
        (lambda: frames.mub_ensemble(3), 3),
        (lambda: frames.pauli6_product(1), 2),
        (lambda: frames.pauli6_product(2), 4),
        (lambda: frames.sic_qubit_product(2), 4),
    ],
)
def test_lse_exact_probabilities_reproduce_target(make_ensemble, d):
    ensemble = make_ensemble()
    target = povm.random_povm(d, 3, d + 17)
    raw = lse_estimate(exact_frequencies(target, ensemble), ensemble)
    for j in range(target.outcomes):
        assert np.linalg.norm(raw.elements[j] - target.elements[j]) < 1e-10


def test_lse_elements_sum_to_identity_on_exact_input():
    ensemble = frames.mub_ensemble(3)
    target = povm.random_povm(3, 4, 5)
    raw = lse_estimate(exact_frequencies(target, ensemble), ensemble)
    np.testing.assert_allclose(raw.elements.sum(axis=0), np.eye(3), atol=1e-10)


def test_lse_single_cell():
    ensemble = frames.pauli6_product(1)
    freqs = np.zeros((6, 3))
    freqs[2, 1] = 1.0
    raw = lse_estimate(freqs, ensemble)
    nu = frames.frame_operator(ensemble, 2)
    np.testing.assert_allclose(raw.elements[1], nu, atol=1e-12)
    np.testing.assert_allclose(raw.elements[0], 0, atol=1e-12)
    np.testing.assert_allclose(raw.elements[2], 0, atol=1e-12)


def test_lse_shape_mismatch():
    ensemble = frames.pauli6_product(1)
    table = FrequencyTable(np.array([[4, 0], [0, 0], [0, 0], [0, 0]]), 4)  # 4 states, M = 6
    with pytest.raises(ValueError):
        lse_estimate(table, ensemble)


def test_projection_fixed_point():
    target = povm.random_povm(2, 4, 21)
    projected, diagnostics = project_onto_povms(target)
    assert diagnostics.converged
    for j in range(target.outcomes):
        assert np.linalg.norm(projected.elements[j] - target.elements[j]) < 1e-9


def test_projection_matches_simplex_oracle_on_diagonal_input():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.choice([2, 4]))
        n_outcomes = int(rng.choice([2, 3, 4]))
        diag = rng.normal(0, 1.0, size=(n_outcomes, d))
        raw = np.array([np.diag(diag[j]).astype(complex) for j in range(n_outcomes)])
        projected, diagnostics = project_onto_povms(raw)
        assert diagnostics.converged
        for k in range(d):
            expected = simplex_project(diag[:, k])
            got = projected.elements[:, k, k].real
            assert np.max(np.abs(expected - got)) < 1e-8


def test_projection_repairs_small_psd_violation():
    base = np.diag([0.65, -0.01]).astype(complex)
    raw = np.array([base, np.eye(2) - base])
    projected, diagnostics = project_onto_povms(raw)
    assert diagnostics.converged
    assert diagnostics.final_residual <= 1e-9
    assert povm.validate(projected, tol=1e-6).ok


def test_projection_rejects_non_hermitian():
    bad = np.array([[[0, 1], [0, 0]], [[1, 0], [0, 1]]], dtype=complex)
    with pytest.raises(ValueError):
        project_onto_povms(bad)


def test_projection_error_contraction():
    rng = np.random.default_rng(14)
    ensemble = frames.pauli6_product(1)
    target = povm.random_povm(2, 3, 8)
    table = simulate_shots(target, ensemble, 500, 15)
    raw = lse_estimate(table, ensemble)

    def frob_metric(a, b):
        return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))

    def dav_metric(a, b):
        diff = a - b
        traces = np.trace(diff, axis1=1, axis2=2).real
        return float(np.sqrt(np.sum(np.abs(diff) ** 2) + np.sum(traces**2)))

    for metric_name, metric in (("frobenius", frob_metric), ("dav", dav_metric)):
        projected, _ = project_onto_povms(raw, ProjectionOptions(metric=metric_name))
        assert metric(raw.elements, projected.elements) <= metric(raw.elements, target.elements) + 1e-9


def _cvxpy_projection(raw, metric):
    cp = pytest.importorskip("cvxpy")
    n_outcomes, d, _ = raw.shape
    z = [cp.Variable((d, d), hermitian=True) for _ in range(n_outcomes)]
    terms = []
    for j in range(n_outcomes):
        terms.append(cp.sum_squares(z[j] - raw[j]))
        if metric == "dav":
            terms.append(cp.square(cp.real(cp.trace(z[j] - raw[j]))))
    constraints = [zj >> 0 for zj in z] + [sum(z) == np.eye(d)]
    problem = cp.Problem(cp.Minimize(cp.sum(terms)), constraints)
    try:
        problem.solve(solver=cp.CLARABEL)
    except (cp.error.SolverError, KeyError):
        problem.solve(solver=cp.SCS, eps_abs=1e-10, eps_rel=1e-10, max_iters=200_000)
    return np.array([zj.value for zj in z])


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
def test_projection_matches_sdp_oracle(metric):
    rng = np.random.default_rng(23)
    for _ in range(3):
        d, n_outcomes = 2, int(rng.choice([2, 3]))
        raw = rng.normal(size=(n_outcomes, d, d)) + 1j * rng.normal(size=(n_outcomes, d, d))
        raw = (raw + np.transpose(raw.conj(), (0, 2, 1))) / 2 * 0.6
        projected, _ = project_onto_povms(raw, ProjectionOptions(metric=metric))
        reference = _cvxpy_projection(raw, metric)
        assert np.max(np.abs(projected.elements - reference)) < 2e-5


PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def hermitian_stacks(draw, count):
    """``count`` Hermitian (L, d, d) stacks of one drawn shape, entries in [-2, 2]."""
    n_outcomes, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    parts = draw(hnp.arrays(np.float64, (count, 2, n_outcomes, d, d), elements=st.floats(-2, 2)))
    stacks = parts[:, 0] + 1j * parts[:, 1]
    return (stacks + stacks.conj().swapaxes(-1, -2)) / 2


def metric_inner(x, y, metric):
    """The inner product whose norm the projection in ``metric`` minimizes."""
    value = np.sum((x.conj() * y).real)
    if metric == "dav":
        value += np.sum(np.trace(x, axis1=1, axis2=2).real * np.trace(y, axis1=1, axis2=2).real)
    return value


def project(raw, metric):
    return project_onto_povms(raw, ProjectionOptions(metric=metric))[0].elements


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
@PROPERTY_SETTINGS
@given(stacks=hermitian_stacks(1))
def test_projection_is_idempotent(metric, stacks):
    once = project(stacks[0], metric)
    np.testing.assert_allclose(project(once, metric), once, rtol=0, atol=1e-8)


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
@PROPERTY_SETTINGS
@given(stacks=hermitian_stacks(2))
def test_projection_is_non_expansive(metric, stacks):
    a, b = stacks
    gap = project(a, metric) - project(b, metric)
    assert metric_inner(gap, gap, metric) ** 0.5 <= metric_inner(a - b, a - b, metric) ** 0.5 + 1e-8


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
@PROPERTY_SETTINGS
@given(stacks=hermitian_stacks(1), seed=st.integers(0, 2**16))
def test_projection_variational_inequality(metric, stacks, seed):
    # <A - P(A), Y - P(A)> <= 0 for every Y in the convex set of valid POVMs;
    # Y ranges over the vertices {E_k = I, E_j = 0 else} and random POVMs
    a = stacks[0]
    projected = project(a, metric)
    n_outcomes, d, _ = a.shape
    vertices = np.eye(n_outcomes)[:, :, None, None] * np.eye(d)
    randoms = [povm.random_povm(d, n_outcomes, (seed, k)).elements for k in range(4)]
    for y in [*vertices, *randoms]:
        assert metric_inner(a - projected, y - projected, metric) <= 1e-8


def test_dav_clip_certificate():
    # max(w - S, 0) with S = _dav_shift(w) equals the segment-scan oracle bit for
    # bit and meets the KKT conditions of min sum (z - w)^2 + (sum (z - w))^2, z >= 0
    rng = np.random.default_rng(31)
    inputs = [rng.normal(size=5)]  # 1-d input
    for trial in range(400):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)))
        if trial % 3 == 0:
            w = rng.choice([-1.0, -0.5, 0.0, 0.25, 1.0], size=shape)  # ties and zeros
        else:
            w = rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 3)
        inputs.append(w)
    for w in inputs:
        z = np.maximum(w - tomography._dav_shift(w), 0.0)
        assert np.array_equal(z, dav_clip_by_segments(w))
        shift = (z - w).sum(axis=-1, keepdims=True)
        tol = 1e-12 * w.shape[-1] * (1 + np.max(np.abs(w)))
        assert np.all(z >= 0)
        assert np.all(np.abs(np.where(z > 0, z - (w - shift), 0.0)) <= tol)
        assert np.all(np.where(z > 0, 0.0, w - shift) <= tol)
    # the dav projection strictly beats the frobenius one in its own objective
    raw = np.array([np.diag([0.9, 0.6, -0.4]), np.diag([0.5, -0.3, 0.2]), np.diag([-0.2, 0.1, 0.7])])
    dav, frob = project(raw, "dav"), project(raw, "frobenius")
    assert metric_inner(raw - dav, raw - dav, "dav") < metric_inner(raw - frob, raw - frob, "dav") - 1e-3


def test_projection_iteration_cap_flagged():
    raw = np.array([np.diag([2.0, -1.0]).astype(complex), np.diag([-1.0, 2.0]).astype(complex)])
    with pytest.raises(RuntimeError, match=r"max_iterations = 2 after 2 iterations with residual"):
        project_onto_povms(raw, ProjectionOptions(max_iterations=2))


def test_sample_size_pinned_values():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    # worst-case, global 2-design, d=2, L=2, eps=0.1, delta=0.01
    eps, delta = mp.mpf("0.1"), mp.mpf("0.01")
    bound_op = 8 * (8 + 4 * (1 + eps / 6)) / eps**2 * mp.log(2**3 * 2 / delta)
    assert sample_size(2, 2, 0.1, 0.01, "global", "op") == int(mp.ceil(bound_op)) + 1 == 71221
    bound_av = 8 * 4 * (4 + 2 * (1 + eps / 6)) / eps**2 * mp.log(4 * 2 * 2 / delta)
    assert (
        sample_size(2, 2, 0.1, 0.01, "global", "av", "theorem")
        == int(mp.ceil(bound_av)) + 1
        == 142441
    )


def test_sample_size_quarter_scaling():
    for eps in (0.01, 0.02, 0.05):
        ratio = sample_size(2, 2, eps, 0.01, "global", "op") / sample_size(
            2, 2, 2 * eps, 0.01, "global", "op"
        )
        assert 3.9 < ratio < 4.0


def test_sample_size_variants_and_domain():
    # local bounds evaluate the printed expressions
    n, L, eps, delta = 2, 3, 0.2, 0.05
    expected_local_op = math.ceil(
        8 * (10**n + 4**n * eps / 6) / eps**2 * math.log(2 ** (L + 1) * 2**n / delta)
    ) + 1
    assert sample_size(4, L, eps, delta, "local", "op", n_qubits=n) == expected_local_op
    expected_local_av = math.ceil(
        8 * L**2 * (5**n + 2**n * eps / 6) / eps**2 * math.log(4 * L * 2**n / delta)
    ) + 1
    assert sample_size(4, L, eps, delta, "local", "av", n_qubits=n) == expected_local_av
    expected_proof = math.ceil(
        8 * L**2 * (4 + 2 * (1 + math.sqrt(2) * eps / (6 * L))) / eps**2 * math.log(4 * L * 2 / delta)
    ) + 1
    assert sample_size(2, L, eps, delta, "global", "av", "proof") == expected_proof

    with pytest.raises(ValueError):
        sample_size(2, 2, -0.1, 0.01)
    with pytest.raises(ValueError):
        sample_size(2, 2, 0.1, 1.5)
    with pytest.raises(ValueError):
        sample_size(4, 2, 0.1, 0.01, "local", "op")  # missing n_qubits
    with pytest.raises(ValueError):
        sample_size(2, 2, 0.1, 0.01, "global", "op", "proof")


def test_bernstein_examples():
    report = bernstein_diagnostics(povm.computational_povm(2), frames.mub_ensemble(2), [0, 1])
    assert report.k_emp == pytest.approx(4.0, abs=1e-9)
    assert report.sigma2_emp == pytest.approx(2**3 + 2**2 - 2 - 1, abs=1e-9)

    report = bernstein_diagnostics(povm.computational_povm(4), frames.pauli6_product(2), range(4))
    assert report.k_emp == pytest.approx(16.0, abs=1e-9)
    assert report.sigma2_emp <= report.sigma2_bound

    report = bernstein_diagnostics(povm.computational_povm(3), frames.mub_ensemble(3), range(3))
    assert report.sigma2_emp == pytest.approx(3**3 + 3**2 - 3 - 1, abs=1e-9)


def test_bernstein_random_draws_within_bounds():
    rng = np.random.default_rng(40)
    for trial in range(20):
        d = int(rng.choice([2, 3, 5]))
        ensemble = frames.mub_ensemble(d)
        target = povm.random_povm(d, int(rng.integers(2, 5)), (50, trial))
        subset = [j for j in range(target.outcomes) if rng.integers(0, 2)]
        report = bernstein_diagnostics(target, ensemble, subset)
        assert report.k_emp <= report.k_bound + 1e-9
        assert report.sigma2_emp <= report.sigma2_bound + 1e-9
    for trial in range(10):
        n = int(rng.choice([1, 2]))
        ensemble = frames.pauli6_product(n)
        target = povm.random_povm(2**n, 3, (60, trial))
        subset = [j for j in range(3) if rng.integers(0, 2)]
        report = bernstein_diagnostics(target, ensemble, subset)
        assert report.k_emp == pytest.approx(4**n, abs=1e-9)
        assert report.sigma2_emp <= report.sigma2_bound + 1e-9


def test_counts_roundtrip(tmp_path):
    target = povm.random_povm(2, 3, 70)
    ensemble = frames.pauli6_product(1)
    table = simulate_shots(target, ensemble, 5000, 8)
    spec = {"kind": "pauli6_product", "n_qubits": 1}
    path = tmp_path / "counts.csv"
    tomography.save_counts(table, path, ensemble_spec=spec)
    loaded, meta = tomography.load_counts(path)
    assert np.array_equal(loaded.counts, table.counts)
    assert loaded.n_shots == table.n_shots
    assert meta["ensemble_spec_sha256"] == tomography.spec_hash(spec)


def test_load_counts_checks_cells(tmp_path):
    path = tmp_path / "counts.csv"
    meta = {"n_states": 4, "n_outcomes": 2, "n_shots": 10}
    (tmp_path / "counts.csv.meta.json").write_text(json.dumps(meta))
    path.write_text("state_index,outcome_index,count\n0,0,4\n1,1,5\n1,1,1\n")
    table, _ = tomography.load_counts(path)
    assert table.counts.tolist() == [[4, 0], [0, 6], [0, 0], [0, 0]]  # repeated cells add up
    path.write_text("state_index,outcome_index,count\n0,0,4\n4,0,6\n")
    with pytest.raises(ValueError, match="outside"):
        tomography.load_counts(path)  # state index out of range
    path.write_text("state_index,outcome_index,count\n0,0,4\n1,2,6\n")
    with pytest.raises(ValueError, match="outside"):
        tomography.load_counts(path)  # outcome index out of range
    path.write_text("state_index,outcome_index,count\n0,0,7\n1,1,6\n0,0,-3\n")
    with pytest.raises(ValueError, match="row 0,0,-3: negative count"):
        tomography.load_counts(path)  # a negative row cancelling a repeated one still sums to N


def test_seven_qubit_pipeline():
    # M = 6**7 = 279,936 probe states, contracted without enumerating them
    ensemble = frames.pauli6_product(7)
    target = povm.random_povm(128, 3, 7)
    table = simulate_shots(target, ensemble, 20_000, 7)
    assert table.counts.shape == (6**7, 3)
    assert table.counts.sum() == 20_000
    raw = lse_estimate(table, ensemble)
    # tr(nu_i) = 2**n for every probe, so the estimate's total trace is d
    assert np.trace(raw.elements.sum(axis=0)).real == pytest.approx(128, rel=1e-12)
    report = bernstein_diagnostics(target, ensemble, [0])
    assert report.k_emp == pytest.approx(4**7, rel=1e-12)
    assert report.sigma2_emp <= 10**7


def test_bernstein_nine_qubits_at_the_k_bound():
    # k_emp = 4.000000000000002**9 sits about 1e-9 above 4**9: the bound check must allow it
    proj = povm.leading_projector(512)
    target = povm.Povm(np.stack([proj, np.eye(512) - proj]))
    report = bernstein_diagnostics(target, frames.pauli6_product(9), [0])
    assert report.k_emp == pytest.approx(4**9, rel=1e-12)
    assert report.sigma2_emp <= report.sigma2_bound


def test_monotone_error_decay():
    target = povm.sic_qubit_povm()
    ensemble = frames.pauli6_product(1)
    medians = []
    for n_index, n_shots in enumerate((2**8, 2**12)):
        errs = []
        for trial in range(10):
            table = simulate_shots(target, ensemble, n_shots, (123, n_index, trial))
            raw = lse_estimate(table, ensemble)
            projected, _ = project_onto_povms(raw)
            from povmtomo.distances import d_op_exact

            errs.append(d_op_exact(target, projected).value)
        medians.append(np.median(errs))
    assert medians[1] < medians[0]
