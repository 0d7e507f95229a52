import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmtomo import distances, linalg, povm
from povmtomo.distances import d_av, d_op_exact, d_op_lower, upper_surrogates
from povmtomo.frames import build_ensemble, frame_sum
from povmtomo.povm import RawEstimate, computational_povm, depolarized, random_povm, rotated_povm
from povmtomo.tomography import lse_estimate, project_onto_povms, simulate_shots
from oracles import (
    coarse_grain,
    definition_d_av,
    gray_code_d_op,
    haar_unitary,
    random_hermitian,
    subset_enumeration_d_op,
)

Z_VS_X = 0.7071067811865476


def x_basis():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return rotated_povm(h)


def test_identical_povms():
    comp = computational_povm(3)
    report = d_op_exact(comp, comp)
    assert report.value == 0.0
    assert report.witness == ()
    assert d_av(comp, comp).value == 0.0
    surrogates = upper_surrogates(comp, comp)
    assert surrogates.frob_sum == 0.0 and surrogates.spec_sum == 0.0
    assert d_op_lower(comp, comp).value == 0.0


def test_z_vs_x_fixed_value():
    report = d_op_exact(computational_povm(2), x_basis())
    assert report.value == pytest.approx(Z_VS_X, abs=1e-9)
    surrogates = upper_surrogates(computational_povm(2), x_basis())
    assert surrogates.spec_sum == pytest.approx(np.sqrt(2), abs=1e-9)
    assert surrogates.spec_sum >= report.value


def test_depolarized_distances_are_half_p():
    comp = computational_povm(2)
    for p in (0.05, 0.1, 0.3):
        noisy = depolarized(comp, p)
        assert d_op_exact(comp, noisy).value == pytest.approx(p / 2, abs=1e-9)
        assert d_av(comp, noisy).value == pytest.approx(p / 2, abs=1e-9)


def test_exact_matches_full_enumeration_oracle(monkeypatch):
    rng = np.random.default_rng(17)
    for trial in range(20):
        d = int(rng.choice([2, 3]))
        n_outcomes = int(rng.choice([2, 3, 4, 5]))
        e = random_povm(d, n_outcomes, (70, trial))
        f = random_povm(d, n_outcomes, (71, trial))
        expected = subset_enumeration_d_op(e.elements, f.elements)
        assert d_op_exact(e, f).value == pytest.approx(expected, abs=1e-12)
    # 31 subsets in chunks of 4 rows: the maximum must survive chunk boundaries
    e = random_povm(3, 6, (70, 20))
    f = random_povm(3, 6, (71, 20))
    whole = d_op_exact(e, f)
    monkeypatch.setattr(distances, "SUBSET_CHUNK_ELEMENTS", 4 * 3 * 3)
    chunked = d_op_exact(e, f)
    assert chunked.value == pytest.approx(subset_enumeration_d_op(e.elements, f.elements), abs=1e-12)
    assert chunked.value == whole.value and chunked.witness == whole.witness


def test_witness_achieves_the_maximum():
    e = random_povm(3, 4, 80)
    f = random_povm(3, 4, 81)
    report = d_op_exact(e, f)
    grouped = coarse_grain(e, report.witness) - coarse_grain(f, report.witness)
    value = np.max(np.abs(np.linalg.eigvalsh((grouped + grouped.conj().T) / 2)))
    assert value == pytest.approx(report.value, abs=1e-12)


def test_complement_symmetry_on_valid_pairs():
    e = random_povm(2, 4, 90)
    f = random_povm(2, 4, 91)
    report = d_op_exact(e, f)
    complement = tuple(sorted(set(range(4)) - set(report.witness)))
    grouped = coarse_grain(e, complement) - coarse_grain(f, complement)
    value = np.max(np.abs(np.linalg.eigvalsh((grouped + grouped.conj().T) / 2)))
    assert value == pytest.approx(report.value, abs=1e-10)


def test_state_distinguishability_bounded_by_d_op():
    # the total variation distance of outcome distributions never exceeds
    # d_op, and the witness subset's top eigenvector achieves it
    rng = np.random.default_rng(19)
    for trial in range(15):
        e = random_povm(2, 3, (100, trial))
        f = random_povm(2, 3, (101, trial))
        report = d_op_exact(e, f)
        for _ in range(10):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            tv = 0.5 * sum(
                abs(povm.born(e, psi)[j] - povm.born(f, psi)[j]) for j in range(3)
            )
            assert tv <= report.value + 1e-9
        grouped = coarse_grain(e, report.witness) - coarse_grain(f, report.witness)
        eigenvalues, eigenvectors = np.linalg.eigh((grouped + grouped.conj().T) / 2)
        top = eigenvectors[:, int(np.argmax(np.abs(eigenvalues)))]
        tv = 0.5 * sum(abs(povm.born(e, top)[j] - povm.born(f, top)[j]) for j in range(3))
        assert tv == pytest.approx(report.value, abs=1e-9)


def test_d_op_range_on_valid_pairs():
    for trial in range(30):
        d = 2 + trial % 3
        e = random_povm(d, 2 + trial % 4, (110, trial))
        f = random_povm(d, 2 + trial % 4, (111, trial))
        value = d_op_exact(e, f).value
        assert 0.0 <= value <= 1.0 + 1e-12


def test_lower_bound_never_exceeds_exact():
    for trial in range(25):
        d = 2 + trial % 2
        n_outcomes = 2 + trial % 11  # up to L = 12
        e = random_povm(d, n_outcomes, (120, trial))
        f = random_povm(d, n_outcomes, (121, trial))
        exact = d_op_exact(e, f).value
        lower = d_op_lower(e, f).value
        assert lower <= exact + 1e-12


def test_lower_bound_witness_excludes_last_outcome_on_valid_pairs():
    # a subset and its complement tie for valid pairs, so only the one without L - 1 is kept
    for trial in range(20):
        n_outcomes = 2 + trial % 8
        e = random_povm(2 + trial % 3, n_outcomes, (140, trial))
        f = random_povm(2 + trial % 3, n_outcomes, (141, trial))
        report = d_op_lower(e, f)
        assert n_outcomes - 1 not in report.witness
        grouped = coarse_grain(e, report.witness) - coarse_grain(f, report.witness)
        value = np.max(np.abs(np.linalg.eigvalsh((grouped + grouped.conj().T) / 2)))
        assert value == pytest.approx(report.value, abs=1e-12)


def test_lower_bound_catches_packing_witness(monkeypatch):
    monkeypatch.setattr(distances, "LOWER_BOUND_SUBSETS", 4)  # singletons, greedy subsets and 4 random ones
    proj = povm.leading_projector(4)
    u = haar_unitary(4, 130)
    v = haar_unitary(4, 131)
    eps = 0.4
    e = povm.packing_op_povm(u, eps, 2)
    f = povm.packing_op_povm(v, eps, 2)
    expected = eps / 2 * np.max(np.abs(np.linalg.eigvalsh(
        u @ proj @ u.conj().T - v @ proj @ v.conj().T)))
    lower = d_op_lower(e, f).value
    assert lower >= expected - 1e-12


def test_d_av_closed_forms():
    # packing pair: d_av^2 = eps^2/(4d) ||U P U+ - V P V+||_F^2, traces cancel
    d = 4
    proj = povm.leading_projector(d)
    u = haar_unitary(d, 140)
    v = haar_unitary(d, 141)
    eps = 0.3
    e = povm.packing_op_povm(u, eps, 3)
    f = povm.packing_op_povm(v, eps, 3)
    w = u @ proj @ u.conj().T - v @ proj @ v.conj().T
    expected = np.sqrt(eps**2 / (4 * d) * np.linalg.norm(w, "fro") ** 2)
    assert d_av(e, f).value == pytest.approx(expected, abs=1e-12)
    assert d_av(e, f).value == pytest.approx(definition_d_av(e.elements, f.elements), abs=1e-12)


# (||nu||_F^2, tr nu), shared by every dual operator nu of the ensemble: nu = d(d+1)P - dI for a
# global 2-design, and a tensor product of one 6P - 2I per qubit (norm^2 20, trace 2) for Pauli-6
DUAL_CONSTANTS = {
    "mub d=3": ({"kind": "mub", "dim": 3}, 3**2 * (3**2 + 3 - 1), 3),
    "mub d=5": ({"kind": "mub", "dim": 5}, 5**2 * (5**2 + 5 - 1), 5),
    "pauli6 n=1": ({"kind": "pauli6_product", "n_qubits": 1}, 20, 2),
    "pauli6 n=2": ({"kind": "pauli6_product", "n_qubits": 2}, 20**2, 2**2),
}


@pytest.mark.parametrize("name", DUAL_CONSTANTS)
def test_every_dual_operator_has_one_norm_and_one_trace(name):
    spec, norm2, trace = DUAL_CONSTANTS[name]
    ensemble = build_ensemble(spec)
    duals = frame_sum(np.eye(ensemble.size), ensemble.dual_factors(), ensemble.n_factors)  # row i is nu_i
    np.testing.assert_allclose(np.sum(np.abs(duals) ** 2, axis=(1, 2)), norm2, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.trace(duals, axis1=1, axis2=2), trace, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name, n_outcomes, seed", [("mub d=3", 3, 301), ("mub d=5", 2, 302), ("pauli6 n=2", 3, 303)])
def test_raw_lse_average_case_error_has_a_closed_form(name, n_outcomes, seed):
    # Each of the N i.i.d. shots adds nu_i / N to one outcome's raw estimate, and the mean shot is E, so
    # N E[d_av^2(raw, E)] = (||nu||_F^2 + (tr nu)^2) / 2d - Q(E), Q(E) = (1/2d) sum_j (||E_j||_F^2 + tr(E_j)^2)
    spec, norm2, trace = DUAL_CONSTANTS[name]
    ensemble = build_ensemble(spec)
    d, n_shots, trials = ensemble.dim, 10**4, 2000
    target = random_povm(d, n_outcomes, seed)
    traces = np.trace(target.elements, axis1=1, axis2=2).real
    expected = (norm2 + trace**2 - np.sum(np.abs(target.elements) ** 2) - np.sum(traces**2)) / (2 * d)
    tables = [simulate_shots(target, ensemble, n_shots, (seed, trial)) for trial in range(trials)]
    scaled = n_shots * np.array([report.value for report in d_av(target, lse_estimate(tables, ensemble))]) ** 2
    z = (scaled.mean() - expected) / (scaled.std(ddof=1) / np.sqrt(trials))
    assert abs(z) < 4, f"{name}: mean {scaled.mean():.4f} against {expected:.4f}, z = {z:+.2f}"


def test_metric_axioms():
    rng = np.random.default_rng(150)
    for trial in range(40):
        d = int(rng.choice([2, 3]))
        n_outcomes = int(rng.choice([2, 3, 4]))
        e = random_povm(d, n_outcomes, (160, trial))
        f = random_povm(d, n_outcomes, (161, trial))
        g = random_povm(d, n_outcomes, (162, trial))
        # symmetry
        assert d_op_exact(e, f).value == pytest.approx(d_op_exact(f, e).value, abs=1e-12)
        assert d_av(e, f).value == pytest.approx(d_av(f, e).value, abs=1e-12)
        # identity of indiscernibles
        assert d_op_exact(e, e).value <= 1e-12
        assert d_av(e, e).value <= 1e-12
        # triangle inequality
        assert d_op_exact(e, g).value <= d_op_exact(e, f).value + d_op_exact(f, g).value + 1e-10
        assert d_av(e, g).value <= d_av(e, f).value + d_av(f, g).value + 1e-10


def test_spec_sum_dominates_d_op():
    for trial in range(100):
        d = 2 + trial % 3
        n_outcomes = 2 + trial % 4
        e = random_povm(d, n_outcomes, (170, trial))
        f = random_povm(d, n_outcomes, (171, trial))
        assert upper_surrogates(e, f).spec_sum >= d_op_exact(e, f).value - 1e-12


def test_spec_sum_is_the_checked_norm_sum_bit_for_bit():
    # upper_surrogates takes _delta_stack's exactly Hermitian differences straight to eigvalsh
    pairs = []
    for d in range(1, 17):
        pairs.append((computational_povm(d), depolarized(computational_povm(d), 0.1)))
        for n_outcomes in (2, 3, 4, 7):
            e = random_povm(d, n_outcomes, (180, d, n_outcomes))
            pairs += [(e, random_povm(d, n_outcomes, (181, d, n_outcomes))), (e, depolarized(e, 0.3))]
    for e, f in pairs:
        expected = np.sum(linalg.matrix_norm(e.elements - f.elements, "spectral"))
        assert upper_surrogates(e, f).spec_sum == float(expected)


def test_raw_inputs_use_full_enumeration():
    # for raw tuples the effect differences need not sum to zero, so the
    # maximizing subset may be the full set
    e = RawEstimate(np.array([np.diag([0.7, 0.2]), np.diag([0.5, 0.6])], dtype=complex))
    f = RawEstimate(np.array([np.diag([0.1, 0.1]), np.diag([0.1, 0.1])], dtype=complex))
    report = d_op_exact(e, f)
    expected = subset_enumeration_d_op(e.elements, f.elements)
    assert report.value == pytest.approx(expected, abs=1e-12)
    assert report.witness == (0, 1)


def test_shape_mismatch_and_cap():
    e = computational_povm(2)
    f = computational_povm(3)
    with pytest.raises(ValueError):
        d_op_exact(e, f)
    big = RawEstimate(np.zeros((25, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        d_op_exact(big, big)


def bit_identity_cases():
    """Input pairs for which d_op_exact must match the Gray-code oracle bit for bit.

    (d, L) shapes: POVM pairs at d = 2, 3, 4 with L = 2, 3, 6, 9; raw pairs (2, 5), (3, 7), (4, 4);
    (3, 6), (3, 4), (3, 5); the benchmark shapes (3, 12), (7, 7), (16, 4); an overflowing raw (3, 4);
    and (2, 16). The bitwise match holds only where OpenBLAS sums each entry over the bits in order,
    so d = 1 (the oracle's integer-by-complex product takes a matrix-vector kernel) and d = 11 and 13
    with L >= 9 (dgemm sums the middle diagonal entry in another order) are left out.
    """
    cases = [
        (random_povm(d, n_outcomes, (180, d, n_outcomes)), random_povm(d, n_outcomes, (181, d, n_outcomes)))
        for d in (2, 3, 4)
        for n_outcomes in (2, 3, 6, 9)
    ]
    rng = np.random.default_rng(182)
    for d, n_outcomes in ((2, 5), (3, 7), (4, 4)):  # raw stacks: full enumeration
        raw = [RawEstimate(np.array([random_hermitian(d, rng) for _ in range(n_outcomes)])) for _ in range(2)]
        cases.append(tuple(raw))
    e = random_povm(3, 6, 183)
    cases.append((e, e))  # all-zero deltas: every bound is 0 and nothing can be pruned
    weights = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]])
    e, f = (povm.Povm(w[:, None, None] * np.eye(3)) for w in weights)
    cases.append((e, f))  # identity-proportional deltas: s = 0 and the bound is the norm
    e = random_povm(3, 5, 184)
    cases.append((e, povm.Povm(e.elements[[1, 0, 2, 3, 4]])))  # D_1 = -D_0, the rest 0: tied maxima
    # the benchmark shapes: scaling at d = 3, L = 12; ingest at d = 7; reconstruction at d = 16, L = 4
    cases += [(random_povm(3, 12, (191, trial)), random_povm(3, 12, (192, trial))) for trial in range(3)]
    target, ensemble = computational_povm(7), build_ensemble({"kind": "mub", "dim": 7})
    raw = lse_estimate(simulate_shots(target, ensemble, 5000, 193), ensemble)
    cases.append((target, project_onto_povms(raw, metric="dav")[0]))
    cases += [(random_povm(16, 4, (194, trial)), random_povm(16, 4, (195, trial))) for trial in range(2)]
    huge = 1e160 * np.array([random_hermitian(3, rng) for _ in range(4)])
    cases.append((huge, np.zeros_like(huge)))  # squares overflow: every bound is inf and nothing is pruned
    cases.append((random_povm(2, 16, 185), random_povm(2, 16, 186)))  # 2^15 subsets: two chunks
    return cases


def shape_groups(cases):
    """The cases of each effect-stack shape, in first-seen order."""
    groups = {}
    for e, f in cases:
        groups.setdefault(povm._as_element_stack(e).shape, []).append((e, f))
    return list(groups.values())


def test_exact_is_bit_identical_to_gray_code_oracle(monkeypatch):
    # the (d, L) shapes of bit_identity_cases, where OpenBLAS sums in order: no d = 1, and no
    # d = 11 or 13 with L >= 9
    for e, f in bit_identity_cases():
        assert d_op_exact(e, f) == gray_code_d_op(e, f)
    # chunks of 36 // d^2 rows (4 at d = 3): the running maximum is carried across chunks
    monkeypatch.setattr(distances, "SUBSET_CHUNK_ELEMENTS", 4 * 3 * 3)
    for e, f in bit_identity_cases()[:-1]:
        assert d_op_exact(e, f) == gray_code_d_op(e, f)


def test_stacked_exact_equals_solo_and_the_oracle(monkeypatch):
    # one reference against a list of same-shape estimates: each report is the solo one, bit for bit,
    # in chunks of 36 // d^2 subsets (4 at d = 3) and in groups of one pair too. The (d, L) shapes
    # are bit_identity_cases', where OpenBLAS sums in order: no d = 1, no d = 11 or 13 with L >= 9
    chunk, stack = distances.SUBSET_CHUNK_ELEMENTS, distances.SUBSET_STACK_ELEMENTS
    for chunk_elements, stack_elements in ((chunk, stack), (36, stack), (chunk, 1)):
        monkeypatch.setattr(distances, "SUBSET_CHUNK_ELEMENTS", chunk_elements)
        monkeypatch.setattr(distances, "SUBSET_STACK_ELEMENTS", stack_elements)
        cases = bit_identity_cases()
        for group in shape_groups(cases if chunk_elements > 36 else cases[:-1]):
            for kind in {isinstance(f, povm.Povm) for _, f in group}:  # a list holds one kind of estimate
                estimates = [f for _, f in group if isinstance(f, povm.Povm) == kind]
                for e, _ in group:
                    reports = d_op_exact(e, estimates)
                    assert reports == [d_op_exact(e, f) for f in estimates] == [gray_code_d_op(e, f) for f in estimates]


def test_stacked_exact_takes_a_povm_list_and_a_raw_list():
    # a list of POVMs enumerates 2^(L-1) subsets per pair, a list of raw estimates 2^L. Bitwise
    # against the oracle at (d, L) = (3, 6) only: OpenBLAS sums in order there, unlike at d = 1,
    # or at d = 11 and 13 with L >= 9
    e, f = random_povm(3, 6, 210), random_povm(3, 6, 211)
    raw = RawEstimate(f.elements + 1e-3 * np.eye(3))
    povms, raws = d_op_exact(e, [f, f]), d_op_exact(e, [raw, raw])
    assert povms == [gray_code_d_op(e, f)] * 2 and raws == [gray_code_d_op(e, raw)] * 2
    assert 5 not in povms[0].witness and 5 in raws[0].witness


def test_stacked_distances_reject_empty_mixed_and_oversized_lists():
    e = random_povm(2, 3, 212)
    for distance in (d_op_exact, d_av):
        with pytest.raises(ValueError, match="one or more estimates"):
            distance(e, [])
        with pytest.raises(ValueError, match="shape mismatch"):
            distance(e, [random_povm(2, 3, 213), random_povm(2, 4, 214)])
    big = RawEstimate(np.zeros((25, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match="exceeds the exact-enumeration cap"):
        d_op_exact(big, [big, big])
    with pytest.raises(ValueError, match="a list of POVMs or a list of raw estimates, not both"):
        d_op_exact(e, [random_povm(2, 3, 213), RawEstimate(random_povm(2, 3, 213).elements)])
    # the single-estimate distances refuse a list, also where d_op falls back to d_op_lower
    f, g = random_povm(2, 3, 213), random_povm(2, 3, 215)
    wide = [random_povm(2, 25, seed) for seed in (216, 217, 218)]
    for distance, first, rest in ((distances.d_op, e, [f, g]), (distances.d_op, wide[0], wide[1:]),
                                  (d_op_lower, e, [f]), (upper_surrogates, e, [f])):
        with pytest.raises(ValueError, match="take one estimate"):
            distance(first, rest)


def test_stacked_d_av_equals_solo_and_the_definition():
    finite = [(e, f) for e, f in bit_identity_cases() if np.abs(povm._as_element_stack(e)).max() < 1e100]
    for group in shape_groups(finite):  # without the pair whose squares overflow
        estimates = [f for _, f in group]
        for e, _ in group:
            reports = d_av(e, estimates)
            assert reports == [d_av(e, f) for f in estimates]
            for report, f in zip(reports, estimates):
                expected = definition_d_av(povm._as_element_stack(e), povm._as_element_stack(f))
                assert report.value == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_exact_prunes_most_subsets(monkeypatch):
    # every formed subset sum is eigensolved once; at most a tenth of each pair's 2047 subsets are
    evaluated, formed = [], {}
    norms, sums = distances._spectral_norms, distances._subset_sums

    def counting_norms(stack):
        evaluated.append(len(stack))
        return norms(stack)

    def counting_sums(bits, deltas):
        key = deltas.__array_interface__["data"][0]  # one pair of the stack
        formed[key] = formed.get(key, 0) + len(bits)
        return sums(bits, deltas)

    monkeypatch.setattr(distances, "_spectral_norms", counting_norms)
    monkeypatch.setattr(distances, "_subset_sums", counting_sums)
    pairs = [(random_povm(3, 12, (187, trial)), random_povm(3, 12, (188, trial))) for trial in range(5)]
    for e, f in pairs:
        evaluated.clear()
        d_op_exact(e, f)
        assert evaluated and sum(evaluated) <= 2047 // 10
    e = pairs[0][0]
    estimates = [pairs[0][1]] + [random_povm(3, 12, (188, trial)) for trial in range(1, 5)]
    evaluated.clear()
    formed.clear()
    d_op_exact(e, estimates)
    assert len(evaluated) <= 2 and len(formed) == 5
    assert sum(evaluated) == sum(formed.values()) and max(formed.values()) <= 2047 // 10


def test_exact_eigensolves_a_chunk_of_at_most_63_subsets_whole(monkeypatch):
    # below 64 subsets the trace bound costs more than the eigensolves it would skip: an ingest-like
    # pair (computational d = 7 target, dav projection) solves its 63 subsets in one call, unbounded.
    # Bitwise against the oracle at (d, L) = (7, 7), where OpenBLAS sums in order (unlike at d = 1,
    # or at d = 11 and 13 with L >= 9)
    evaluated = []
    norms = distances._spectral_norms
    monkeypatch.setattr(distances, "_bound_form", lambda deltas: pytest.fail("bounded a 63-subset chunk"))
    monkeypatch.setattr(distances, "_spectral_norms", lambda stack: evaluated.append(len(stack)) or norms(stack))
    target, ensemble = computational_povm(7), build_ensemble({"kind": "mub", "dim": 7})
    estimates = [project_onto_povms(lse_estimate(simulate_shots(target, ensemble, 5000, seed), ensemble), "dav")[0]
                 for seed in range(3)]
    reports = d_op_exact(target, estimates)
    assert evaluated == [3 * 63]
    assert reports == [gray_code_d_op(target, f) for f in estimates]


def test_exact_rejects_non_finite_effects():
    base = random_povm(3, 4, 189).elements
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        effects = base.copy()
        effects[2, 1, 1] = bad
        for distance in (d_op_exact, d_op_lower, d_av, upper_surrogates):
            with pytest.raises(ValueError, match="non-finite"):
                distance(effects, base)
    # finite subset sums whose squared entries overflow: their bounds are inf and are never pruned.
    # Bitwise against the oracle at (d, L) = (3, 4), where OpenBLAS sums in order (unlike at d = 1,
    # or at d = 11 and 13 with L >= 9)
    rng = np.random.default_rng(190)
    huge = 1e160 * np.array([random_hermitian(3, rng) for _ in range(4)])
    report = d_op_exact(huge, np.zeros_like(huge))
    assert report == gray_code_d_op(huge, np.zeros_like(huge)) and report.value > 1e159


@pytest.mark.parametrize("d", range(1, 9))
def test_subset_sums_are_exactly_hermitian(d):
    # A == A^H entry for entry, and hermitize returns every sum bit for bit: d_op_exact skips it.
    # Shapes d = 1..8 with L = 6: exact Hermitian sums need OpenBLAS to sum entries (a, b) and
    # (b, a) over the bits in one order. Unlike the oracle comparisons this holds at d = 1, as no
    # second product is compared; d = 11 and 13 with L >= 9 are left out
    rng = np.random.default_rng(196 + d)
    n_outcomes = 6
    pairs = [
        (random_povm(d, n_outcomes, (197, d)), random_povm(d, n_outcomes, (198, d))),
        (RawEstimate(np.array([random_hermitian(d, rng) for _ in range(n_outcomes)])), random_povm(d, n_outcomes, 199)),
    ]
    huge = 1e160 * np.array([random_hermitian(d, rng) for _ in range(n_outcomes)])
    pairs.append((huge, np.zeros_like(huge)))
    for e, f in pairs:
        (deltas,), _ = distances._delta_stack(e, f)
        sums = distances._subset_sums(distances._gray_bits(1, 2**n_outcomes, n_outcomes), deltas)
        assert np.array_equal(sums, sums.conj().swapaxes(1, 2))
        assert np.array_equal(linalg.hermitize(sums).view(np.uint64), sums.view(np.uint64))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 16])
def test_subset_sums_do_not_depend_on_the_rows_formed_with_them(d):
    # d_op_exact forms only the subsets it eigensolves: one row alone, or any few rows, give the
    # chunk's sums bit for bit (a one-row product would take a matrix-vector kernel). Shapes d = 1,
    # 2, 3, 7, 16 with L = 6: the bitwise match holds only where OpenBLAS sums each entry in order, so
    # d = 11 and 13 with L >= 9, where a few rows sum in another order than the chunk, are left
    # out. d = 1 holds here, as both sides take the same real product
    rng = np.random.default_rng(220 + d)
    n_bits = 6
    deltas = np.array([random_hermitian(d, rng, 10.0 ** rng.uniform(-3, 3)) for _ in range(n_bits)])
    bits = distances._gray_bits(1, 2**n_bits, n_bits)
    sums = distances._subset_sums(bits, deltas)
    for k in range(len(bits)):
        assert np.array_equal(distances._subset_sums(bits[[k]], deltas), sums[[k]])
    for rows in (rng.choice(len(bits), size, replace=False) for size in (2, 3, 8, 40)):
        assert np.array_equal(distances._subset_sums(bits[rows], deltas), sums[rows])


@settings(max_examples=60)
@given(
    d=st.integers(1, 8),
    exponent=st.floats(-8, 8),
    spread=st.floats(-12, 0),
    seed=st.integers(0, 2**16),
)
def test_trace_bound_on_the_spectral_norm(d, exponent, spread, seed):
    # ||D_S|| <= |m_S| + s_S sqrt(d-1) within the slack on every subset, also where D_1 ~ -D_0 makes
    # b^T G b cancel; equality on (m + (d-1)t, m - t, ..., m - t), t/m down to 1e-12, to the rounding
    # of the trace and the eigensolve alone
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    stack = np.array([random_hermitian(d, rng, scale) for _ in range(5)])
    cancelling = stack.copy()
    cancelling[1] = -stack[0] + random_hermitian(d, rng, scale * 10.0**spread)
    bits = distances._gray_bits(1, 2**5, 5).astype(float)
    for deltas in (stack, cancelling):
        form, slack = distances._bound_form(deltas)
        norms = distances._spectral_norms(distances._subset_sums(bits, deltas))
        assert np.all(norms <= distances._trace_bounds(bits, form) + slack)
    m = scale * rng.uniform(0.5, 1)
    t = m * 10.0**spread
    spectrum = np.full(d, m - t)
    spectrum[0] = m + (d - 1) * t
    u = haar_unitary(d, seed)
    tight = linalg.hermitize((u * spectrum) @ u.conj().T)[None]
    form, _ = distances._bound_form(tight)
    bound = distances._trace_bounds(np.ones((1, 1)), form)[0]
    rounding = 16 * d * d * np.finfo(float).eps * np.linalg.norm(tight)
    assert abs(bound - np.max(np.abs(np.linalg.eigvalsh(tight)))) <= rounding
