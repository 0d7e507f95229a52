import itertools
import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from povmtomo import frames, povm, tomography
from povmtomo.cli import SCALING_STACK_ELEMENTS
from povmtomo.tomography import (
    TOL_FEASIBILITY,
    FrequencyTable,
    bernstein_diagnostics,
    exact_frequencies,
    lse_estimate,
    project_onto_povms,
    sample_size,
    simulate_shots,
)
from oracles import (
    closed_form_sample_size,
    csv_save_counts,
    dav_clip_by_segments,
    dykstra_projection,
    random_hermitian,
    simplex_project,
)


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
    with pytest.raises(ValueError, match="counts sum to 23058430092136939520"):
        FrequencyTable(np.full((1, 5), 2**62), 2**62)  # every cell <= N, yet the int64 sum wraps to N
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


def test_simulate_memory_is_independent_of_the_shot_number():
    target = povm.computational_povm(2)
    ensemble = frames.pauli6_product(1)
    n_shots = 10**8
    simulate_shots(target, ensemble, 10, 0)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        table = simulate_shots(target, ensemble, n_shots, 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one int64 per shot would be 800 MB
    assert int(table.counts.sum()) == n_shots
    assert np.array_equal(table.counts, simulate_shots(target, ensemble, n_shots, 21).counts)


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


LSE_ENSEMBLES = {
    "mub d=2": frames.mub_ensemble(2),
    "mub d=3": frames.mub_ensemble(3),
    "pauli6 n=1": frames.pauli6_product(1),
    "pauli6 n=2": frames.pauli6_product(2),
    "sic n=2": frames.sic_qubit_product(2),
}


@settings(max_examples=30)
@given(
    name=st.sampled_from(sorted(LSE_ENSEMBLES)),
    n_outcomes=st.integers(2, 4),
    coefficients=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    seed=st.integers(0, 2**16),
)
def test_lse_is_linear_and_exact_on_expected_frequencies(name, n_outcomes, coefficients, seed):
    ensemble = LSE_ENSEMBLES[name]
    rng = np.random.default_rng(seed)
    f, g = rng.uniform(size=(2, ensemble.size, n_outcomes)) / ensemble.size
    a, b = coefficients
    combined = lse_estimate(a * f + b * g, ensemble).elements
    separate = a * lse_estimate(f, ensemble).elements + b * lse_estimate(g, ensemble).elements
    scale = ensemble.dim**2 * (1 + abs(a) + abs(b))
    np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-12 * scale)
    target = povm.random_povm(ensemble.dim, n_outcomes, seed)
    raw = lse_estimate(exact_frequencies(target, ensemble), ensemble)
    np.testing.assert_allclose(raw.elements, target.elements, rtol=0, atol=1e-10)


def test_lse_shape_mismatch():
    ensemble = frames.pauli6_product(1)
    table = FrequencyTable(np.array([[4, 0], [0, 0], [0, 0], [0, 0]]), 4)  # 4 states, M = 6
    with pytest.raises(ValueError):
        lse_estimate(table, ensemble)


STACKED_LSE_ENSEMBLES = [
    *(frames.mub_ensemble(d) for d in (3, 5, 7, 11)),
    *(frames.pauli6_product(n) for n in range(1, 6)),
    frames.sic_qubit_ensemble(),
    *(frames.sic_qubit_product(n) for n in range(1, 6)),
]


@pytest.mark.parametrize("ensemble", STACKED_LSE_ENSEMBLES, ids=lambda e: f"{e.kind}-m{len(e.states)}-d{e.dim}")
def test_stacked_lse_equals_solo_bit_for_bit(ensemble):
    # frame_sum over (T, L, M) slices of a stack, up to the largest stack scaling forms (in several
    # slices of LSE_STACK_ELEMENTS for most ensembles): each estimate must sum in its solo order (one
    # GEMM over the (T L, M) flattening did not, at MUB d = 11 with two BLAS threads)
    rng = np.random.default_rng(ensemble.dim)
    for n_outcomes in (4, 12) if ensemble.dim == 3 else (4,):
        largest = max(1, SCALING_STACK_ELEMENTS // (n_outcomes * ensemble.dim**2))
        freqs = rng.integers(0, 50, size=(largest, ensemble.size, n_outcomes)) / 1000
        for n_trials in sorted({1, 2, 15, largest}):
            stacked = lse_estimate(list(freqs[:n_trials]), ensemble)
            assert len(stacked) == n_trials
            for t in {*range(0, n_trials, max(1, n_trials // 64)), n_trials - 1}:  # trials in every slice
                assert np.array_equal(stacked[t].elements, lse_estimate(freqs[t], ensemble).elements)
    tables = [simulate_shots(povm.random_povm(ensemble.dim, 3, 1), ensemble, 100, seed) for seed in range(2)]
    for raw, table in zip(lse_estimate(tables, ensemble), tables):
        assert np.array_equal(raw.elements, lse_estimate(table, ensemble).elements)


def test_stacked_lse_rejects_bad_lists_before_any_work(monkeypatch):
    ensemble = frames.pauli6_product(1)
    monkeypatch.setattr(tomography, "frame_sum", lambda *args: pytest.fail("contracted a bad list"))
    good = np.full((6, 2), 1 / 12)
    with pytest.raises(ValueError, match="one or more frequency tables"):
        lse_estimate([], ensemble)
    with pytest.raises(ValueError, match="one or more frequency tables of one shape"):
        lse_estimate([good, np.full((6, 3), 1 / 18)], ensemble)
    with pytest.raises(ValueError, match="M = 6 states"):
        lse_estimate([good[:4], good[:4]], ensemble)
    with pytest.raises(ValueError, match="L >= 1"):
        lse_estimate(np.zeros((6, 0)), ensemble)


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
    with pytest.raises(ValueError, match="metric must be one of"):
        project_onto_povms(np.array([np.eye(2)]), "trace")


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
        projected, _ = project_onto_povms(raw, metric=metric_name)
        assert metric(raw.elements, projected.elements) <= metric(raw.elements, target.elements) + 1e-9


def _cvxpy_projection(raw, metric):
    cp = pytest.importorskip(
        "cvxpy",
        reason="cvxpy is not installed; test_projection_duality_gap_certificate and the Dykstra oracle of "
        "test_projection_hard_cases_match_dykstra cover the same optimality claim and run without it",
    )
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
        projected, _ = project_onto_povms(raw, metric=metric)
        reference = _cvxpy_projection(raw, metric)
        assert np.max(np.abs(projected.elements - reference)) < 2e-5


PROPERTY_SETTINGS = settings(max_examples=50)


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
    return project_onto_povms(raw, metric=metric)[0].elements


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


def test_projection_iteration_cap_flagged(monkeypatch):
    monkeypatch.setattr(tomography, "MAX_NEWTON_STEPS", 1)
    raw = np.array([np.diag([2.0, -1.0]).astype(complex), np.diag([-1.0, 2.0]).astype(complex)])
    with pytest.raises(RuntimeError, match=r"MAX_NEWTON_STEPS = 1 with residual .* last step"):
        project_onto_povms(raw)


def test_projection_reaches_the_cap_on_a_hard_input(monkeypatch):
    # effects of scale 1e3, far from any POVM, take more than 20 Newton steps
    rng = np.random.default_rng(0)
    raw = np.array([random_hermitian(8, rng, 1e3) for _ in range(4)])
    projected, diagnostics = project_onto_povms(raw)
    assert diagnostics.iterations > 20
    assert povm.validate(projected).ok
    monkeypatch.setattr(tomography, "MAX_NEWTON_STEPS", 20)
    with pytest.raises(RuntimeError, match=r"MAX_NEWTON_STEPS = 20 with residual .* last step"):
        project_onto_povms(raw)


def _lse(target, ensemble, shots, seed):
    return lse_estimate(simulate_shots(target, ensemble, shots, seed), ensemble)


def hard_projection_inputs():
    """LSE outputs whose projections are rank-deficient or far from the raw estimate."""
    mub7, mub3, pauli6 = frames.mub_ensemble(7), frames.mub_ensemble(3), frames.pauli6_product(1)
    for seed in range(3):
        for shots in (5000, 200):
            yield _lse(povm.computational_povm(7), mub7, shots, seed)
        yield _lse(povm.random_povm(3, 12, seed), mub3, 1000, seed)
        yield _lse(povm.computational_povm(2), pauli6, 50, seed)


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
def test_projection_hard_cases_match_dykstra(metric, monkeypatch):
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for raw in hard_projection_inputs():
        calls.clear()
        projected, diagnostics = project_onto_povms(raw, metric=metric)
        assert diagnostics.iterations <= 10
        assert len(calls) <= 12  # stacked eigendecompositions, line search included
        reference, _ = dykstra_projection(raw.elements, metric)
        assert np.max(np.abs(projected.elements - reference)) <= 1e-8


def test_projection_line_search_backtracks(monkeypatch):
    # one shot puts all the weight on one probe state, far outside the POVMs:
    # full Newton steps overshoot there and the Armijo line search halves them
    points = []

    class CountingPoint(tomography._DualPoint):
        def __init__(self, *args):
            points.append(self)
            super().__init__(*args)

    monkeypatch.setattr(tomography, "_DualPoint", CountingPoint)
    ensemble = frames.pauli6_product(2)
    for seed in range(3):
        raw = _lse(povm.random_povm(4, 4, seed), ensemble, 1, seed)
        points.clear()
        projected, diagnostics = project_onto_povms(raw, metric="dav")
        # one point to start and one full step per Newton iteration; every further point is a halved step
        assert len(points) - 1 - diagnostics.iterations > 0
        assert povm.validate(projected).ok
        assert diagnostics.final_residual <= TOL_FEASIBILITY
        gap = raw.elements - projected.elements
        assert abs(diagnostics.duality_gap) <= 1e-9 * (1 + 0.5 * metric_inner(gap, gap, "dav"))
        reference, _ = dykstra_projection(raw.elements, "dav")
        assert np.max(np.abs(projected.elements - reference)) <= 1e-8


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
def test_projection_stops_on_the_primal_step(metric, monkeypatch):
    # meeting TOL_FEASIBILITY is not enough: the solver also waits for a Newton
    # step that moves Z by at most TOL_STEP, which a loose TOL_STEP skips
    raw = next(hard_projection_inputs())
    _, tight = project_onto_povms(raw, metric=metric)
    monkeypatch.setattr(tomography, "TOL_STEP", 10.0)
    _, loose = project_onto_povms(raw, metric=metric)
    assert tight.iterations > loose.iterations


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
def test_stacked_projection_equals_solo_bit_for_bit(metric, monkeypatch):
    # A stack shares each Newton step's eigh, Hessian products and line search, but every
    # trial keeps its own dual, CG scalars, step size and stopping test, so it gets the bits
    # it gets alone. The d = 7 inputs mix top and bottom branches and ranks, so their Hessian
    # products come in several groups; the one-shot Pauli-6 inputs backtrack where their
    # 1000-shot neighbours take the full step.
    pauli6 = frames.pauli6_product(2)
    backtracking = [_lse(povm.random_povm(4, 4, seed), pauli6, shots, seed) for seed in range(3) for shots in (1, 1000)]
    stacks = {}
    for raw in [*hard_projection_inputs(), *backtracking]:
        stacks.setdefault(raw.elements.shape, []).append(raw)
    grouped, takes = [], []
    hessian, take = tomography._Hessian, tomography._DualPoint.take

    class CountingHessian(hessian):
        def __init__(self, groups):
            grouped.append(len(groups))
            super().__init__(groups)

    monkeypatch.setattr(tomography, "_Hessian", CountingHessian)
    monkeypatch.setattr(tomography._DualPoint, "take", lambda self, keep: takes.append(1) or take(self, keep))
    compactions = 0
    for raws in stacks.values():
        solo = [project_onto_povms(raw, metric=metric) for raw in raws]
        povms, diagnostics = project_onto_povms(raws, metric=metric)
        assert len(povms) == len(raws)
        for stacked, (alone, _) in zip(povms, solo):
            assert np.array_equal(stacked.elements, alone.elements)
        steps = [alone.iterations for _, alone in solo]
        assert diagnostics.iterations == max(steps)
        assert diagnostics.final_residual == max(alone.final_residual for _, alone in solo) <= TOL_FEASIBILITY
        assert diagnostics.converged is True
        compactions += len(set(steps)) - 1  # a trial that stops before the last leaves the stack
    assert max(grouped) >= 2  # a Hessian product over several (branch, k) groups
    assert len(takes) > compactions  # a line search in which some trials accepted and others halved


def test_a_hard_trial_in_a_stack_changes_no_neighbour(monkeypatch):
    # the hard input of test_projection_reaches_the_cap_on_a_hard_input takes over 100 Newton
    # steps; its easy neighbours leave the stack after a few and keep their solo bits
    rng = np.random.default_rng(0)
    hard = np.array([random_hermitian(8, rng, 1e3) for _ in range(4)])
    pauli6 = frames.pauli6_product(3)
    easy = [_lse(povm.random_povm(8, 4, seed), pauli6, 2000, seed).elements for seed in range(4)]
    raws = [easy[0], easy[1], hard, easy[2], easy[3]]
    solo = [project_onto_povms(raw) for raw in raws]
    povms, diagnostics = project_onto_povms(raws)
    for stacked, (alone, _) in zip(povms, solo):
        assert np.array_equal(stacked.elements, alone.elements)
    assert diagnostics.iterations == solo[2][1].iterations > 100 > max(alone.iterations for _, alone in solo[:2])
    monkeypatch.setattr(tomography, "MAX_NEWTON_STEPS", 20)
    with pytest.raises(RuntimeError, match=r"MAX_NEWTON_STEPS = 20 with residual .* last step"):
        project_onto_povms(raws)


def test_projection_rejects_mixed_or_empty_stacks():
    with pytest.raises(ValueError, match="one shape"):
        project_onto_povms([np.array([np.eye(2)]), np.array([np.eye(3)])])
    with pytest.raises(ValueError, match="one shape"):
        project_onto_povms([])


def _random_raw_stacks(rng):
    for _ in range(20):
        d, n_outcomes = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        stack = np.array([random_hermitian(d, rng, float(rng.uniform(0.1, 2))) for _ in range(n_outcomes)])
        yield stack + float(rng.uniform(-1, 1)) * np.eye(d)


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
def test_projection_duality_gap_certificate(metric):
    # primal objective minus dual value, from the definitions: an optimality
    # certificate that needs no SDP solver
    inputs = [*_random_raw_stacks(np.random.default_rng(41)), *(raw.elements for raw in hard_projection_inputs())]
    for raw in inputs:
        projected, diagnostics = project_onto_povms(raw, metric=metric)
        primal = 0.5 * metric_inner(raw - projected.elements, raw - projected.elements, metric)
        assert abs(diagnostics.duality_gap) <= 1e-9 * (1 + primal)
        assert diagnostics.final_residual <= TOL_FEASIBILITY


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
def test_projection_hessian_matches_finite_differences(metric):
    # away from eigenvalue ties the generalized Jacobian of the dual gradient is
    # its derivative; the inputs reach both the top-k and the bottom-k product
    rng = np.random.default_rng(43)
    for d, n_outcomes, scale in ((3, 4, 1.0), (6, 3, 1.0), (5, 5, 0.3), (4, 2, 2.0)):
        for bias in (-0.8, 0.0, 0.8):
            raw = np.array([random_hermitian(d, rng, scale) + bias * np.eye(d) for _ in range(n_outcomes)])
            lam, h = random_hermitian(d, rng, 0.3), random_hermitian(d, rng)
            eps = 1e-6
            plus = tomography._DualPoint(raw[None], (lam + eps * h)[None], metric).gradient[0]
            minus = tomography._DualPoint(raw[None], (lam - eps * h)[None], metric).gradient[0]
            hessian = tomography._DualPoint(raw[None], lam[None], metric).hessian(metric, np.zeros(1))
            np.testing.assert_allclose(hessian(h[None])[0], (plus - minus) / (2 * eps), rtol=0, atol=1e-7)


@pytest.mark.parametrize("n_trials", [1, 2, 15])
def test_stacked_reductions_equal_per_trial_ones_bit_for_bit(n_trials):
    # the solver's per-trial dots, norms and dual values are one vecdot over the stack;
    # each must be the np.vdot, np.linalg.norm and dual value of its trial alone
    def same(values, solo, lone=False):
        values, solo = np.asarray(values, float), np.asarray(solo, float)
        if lone:  # one entry whose square overflows: vecdot's one-entry loop gives inf, zdotc nan
            values, solo = (np.where(np.isfinite(x), x, np.nan) for x in (values, solo))
        return np.array_equal(values, solo, equal_nan=True)

    def metric_norm2(x, metric):  # sum_j ||X_j||_G^2 of one trial, as the solver summed it before stacks
        value = float(np.vdot(x, x).real)
        if metric == "dav":
            value += float(np.sum(np.trace(x, axis1=1, axis2=2).real ** 2))
        return value

    rng = np.random.default_rng(n_trials)
    for d in range(1, 17):
        for n_outcomes in (1, 4, 12):
            shape = (n_trials, n_outcomes, d, d)
            a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
            a[0, 0] = 0.0
            a[-1, -1] *= 1e160  # squares overflow to inf, as np.linalg.norm's do
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan either way
                assert same(tomography._dots(a, b), [np.vdot(x, y).real for x, y in zip(a, b)])
                assert same(tomography._norms(a), [np.linalg.norm(x) for x in a])
                assert same(tomography._norms(a[:, 0]), [np.linalg.norm(x) for x in a[:, 0]])
                for metric in ("frobenius", "dav"):
                    norms2 = [metric_norm2(x, metric) for x in a]
                    assert same(tomography._metric_norm2(a, metric), norms2, lone=d == n_outcomes == 1)
        raw = np.array([[random_hermitian(d, rng) for _ in range(3)] for _ in range(n_trials)])
        lam = np.array([random_hermitian(d, rng, 0.3) for _ in range(n_trials)])
        for metric in ("frobenius", "dav"):
            point = tomography._DualPoint(raw, lam, metric)
            thetas = [0.5 * metric_norm2(z, metric) + float(np.trace(l).real) for z, l in zip(point.z, lam)]
            assert point.theta == thetas
            assert point.residual == [float(np.linalg.norm(g)) for g in point.gradient]


def test_conjugate_gradient_builds_no_map_for_a_solved_stack():
    built = []
    rhs = np.zeros((2, 3, 3), dtype=complex)
    x = tomography._conjugate_gradient(lambda: built.append(1), rhs, [1e-11, 1e-11], 10)
    assert not built and not x.any()


def test_projection_validates_at_the_package_tolerance():
    raw = _lse(povm.computational_povm(7), frames.mub_ensemble(7), 200, 0)
    projected, _ = project_onto_povms(raw)
    assert povm.validate(projected, povm.POVM_TOL).ok


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
    # inputs that would otherwise crash inside the bound: a NaN ceiling, log of 0, division by 0
    for args, message in [
        ((2, 2, math.inf, 0.01), "epsilon must be finite"),
        ((0, 2, 0.1, 0.01), "d must be >= 1"),
        ((-2, 2, 0.1, 0.01), "d must be >= 1"),
        ((2, 0, 0.1, 0.01), "n_outcomes must be >= 1"),
        ((2.5, 2, 0.1, 0.01), "d must be an integer"),
        ((True, 2, 0.1, 0.01), "d must be an integer"),
    ]:
        with pytest.raises(ValueError, match=message):
            sample_size(*args)


def _exact_sample_bound(d, L, epsilon, delta, frame, distance, variant, n):
    """The real-valued bound of ``closed_form_sample_size`` at 40 digits, for the exact float inputs."""
    with localcontext() as ctx:
        ctx.prec = 40
        eps, dlt, d, L = Decimal(epsilon), Decimal(delta), Decimal(d), Decimal(L)
        if frame == "local":
            if distance == "op":
                return 8 * (10**n + 4**n * eps / 6) / eps**2 * (2 ** (L + 1) * 2**n / dlt).ln()
            return 8 * L**2 * (5**n + 2**n * eps / 6) / eps**2 * (4 * L * 2**n / dlt).ln()
        if distance == "op":
            return 8 * (d**3 + d**2 * (1 + eps / 6)) / eps**2 * (2 ** (L + 1) * d / dlt).ln()
        factor = 1 / (3 * L) if variant == "theorem" else d.sqrt() / (6 * L)
        return 8 * L**2 * (d**2 + d * (1 + factor * eps)) / eps**2 * (4 * L * d / dlt).ln()


def test_sample_size_table_matches_closed_forms():
    # d = 2..64, L = 2..25, 11 epsilons, 6 deltas, every bound (local ones where d = 2**n): 318,384 inputs
    epsilons = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.9)
    deltas = (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5)
    global_bounds = [("global", "op", "theorem"), ("global", "av", "theorem"), ("global", "av", "proof")]
    local_bounds = [("local", "op", "theorem"), ("local", "av", "theorem")]
    checked, differing = 0, []
    for d, L, eps, delta in itertools.product(range(2, 65), range(2, 26), epsilons, deltas):
        n = d.bit_length() - 1
        for bound in global_bounds + (local_bounds if d == 2**n else []):
            args = (d, L, eps, delta, *bound, n if bound[0] == "local" else None)
            table, closed = sample_size(*args), closed_form_sample_size(*args)
            checked += 1
            if table != closed:
                differing.append((args, table, closed))
    assert checked == 318_384
    # A float evaluation can be one shot off where the exact bound lies within a few ulps
    # of an integer; sample_size decides those at 40 digits, so wherever the closed forms
    # differ from it, sample_size is the correctly rounded one.
    assert differing
    for args, table, closed in differing:
        exact = _exact_sample_bound(*args)
        assert abs(table - closed) == 1
        assert abs(exact - exact.to_integral_value()) <= Decimal(4e-15) * exact, (args, exact)
        assert table == math.ceil(exact) + 1, (args, exact)


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


@settings(max_examples=40)
@given(
    n_states=st.integers(1, 200_000),
    n_outcomes=st.integers(1, 6),
    cells=st.lists(st.tuples(st.integers(0, 2**40), st.integers(1, 10**9)), min_size=1, max_size=20),
    with_spec=st.booleans(),
)
@example(n_states=1, n_outcomes=1, cells=[(0, 7)], with_spec=False)  # a single-row table
@example(n_states=5, n_outcomes=3, cells=[(14, 2)], with_spec=True)  # the last cell only
@example(n_states=150_000, n_outcomes=4, cells=[(400_000, 3), (599_999, 10**9), (123_457, 1)], with_spec=True)
def test_counts_file_matches_csv_writer(tmp_path_factory, n_states, n_outcomes, cells, with_spec):
    counts = np.zeros(n_states * n_outcomes, dtype=np.int64)
    for position, count in cells:
        counts[position % counts.size] += count
    table = FrequencyTable(counts.reshape(n_states, n_outcomes), int(counts.sum()))
    spec = {"kind": "pauli6_product", "n_qubits": 1} if with_spec else None
    folder = tmp_path_factory.mktemp("counts")
    tomography.save_counts(table, folder / "fast.csv", ensemble_spec=spec)
    csv_save_counts(table, folder / "csv.csv", ensemble_spec=spec)
    for suffix in ("", ".meta.json"):
        assert (folder / f"fast.csv{suffix}").read_bytes() == (folder / f"csv.csv{suffix}").read_bytes()
    assert np.array_equal(tomography.load_counts(folder / "fast.csv")[0].counts, table.counts)


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
    path.write_text("state_index,outcome_index,count\r\n")
    with pytest.raises(ValueError, match="counts sum to 0, expected n_shots = 10"):
        tomography.load_counts(path)  # header only: no rows, and no warning from the parser
    path.write_text("state_index,outcome_index,count\n0,0,11\n")
    with pytest.raises(ValueError, match="row 0,0,11: count above n_shots = 10"):
        tomography.load_counts(path)
    path.write_text("state,outcome,count\n0,0,10\n")
    with pytest.raises(ValueError, match="unexpected counts header"):
        tomography.load_counts(path)
    for body, message in [
        ("0,0,4.5\n1,1,5.5\n", "could not convert"),
        ("0,0,4\n1,1\n", "number of columns changed"),
        ("0,0\n1,1\n", "2 fields, expected 3"),
        ("0,0,4,1\n1,1,6,0\n", "4 fields, expected 3"),
    ]:
        path.write_text("state_index,outcome_index,count\n" + body)
        with pytest.raises(ValueError, match=message):
            tomography.load_counts(path)  # non-integer, short or long rows


def test_load_counts_rejects_totals_that_wrap_int64(tmp_path):
    path = tmp_path / "counts.csv"
    header = "state_index,outcome_index,count\n"
    for n_shots, body, message in [
        # np.add.at would wrap 2 (2**63 - 1) + 3 to 1
        (1, "0,0,9223372036854775807\n0,0,9223372036854775807\n0,0,3\n", "count above n_shots = 1"),
        # every row is <= N, and the 5 N that they add up to wraps to N
        (2**62, "0,0,4611686018427387904\n" * 5, "counts sum to 23058430092136939520"),
    ]:
        (tmp_path / "counts.csv.meta.json").write_text(json.dumps({"n_states": 1, "n_outcomes": 2, "n_shots": n_shots}))
        path.write_text(header + body)
        with pytest.raises(ValueError, match=message):
            tomography.load_counts(path)


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
