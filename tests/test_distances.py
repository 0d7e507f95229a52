import numpy as np
import pytest

from povmtomo import distances, povm
from povmtomo.distances import d_av, d_op_exact, d_op_lower, upper_surrogates
from povmtomo.packing_lab import haar_unitary
from povmtomo.povm import RawEstimate, computational_povm, depolarized, random_povm, rotated_povm
from oracles import definition_d_av, subset_enumeration_d_op

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
    assert d_op_lower(comp, comp, n_subsets=8, seed=1).value == 0.0


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
    grouped = povm.coarse_grain(e, report.witness) - povm.coarse_grain(f, report.witness)
    value = np.max(np.abs(np.linalg.eigvalsh((grouped + grouped.conj().T) / 2)))
    assert value == pytest.approx(report.value, abs=1e-12)


def test_complement_symmetry_on_valid_pairs():
    e = random_povm(2, 4, 90)
    f = random_povm(2, 4, 91)
    report = d_op_exact(e, f)
    complement = tuple(sorted(set(range(4)) - set(report.witness)))
    grouped = povm.coarse_grain(e, complement) - povm.coarse_grain(f, complement)
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
        grouped = povm.coarse_grain(e, report.witness) - povm.coarse_grain(f, report.witness)
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
        lower = d_op_lower(e, f, n_subsets=32, seed=trial).value
        assert lower <= exact + 1e-12


def test_lower_bound_witness_excludes_last_outcome_on_valid_pairs():
    # a subset and its complement tie for valid pairs, so only the one without L - 1 is kept
    for trial in range(20):
        n_outcomes = 2 + trial % 8
        e = random_povm(2 + trial % 3, n_outcomes, (140, trial))
        f = random_povm(2 + trial % 3, n_outcomes, (141, trial))
        report = d_op_lower(e, f, n_subsets=16, seed=trial)
        assert n_outcomes - 1 not in report.witness
        grouped = povm.coarse_grain(e, report.witness) - povm.coarse_grain(f, report.witness)
        value = np.max(np.abs(np.linalg.eigvalsh((grouped + grouped.conj().T) / 2)))
        assert value == pytest.approx(report.value, abs=1e-12)


def test_lower_bound_catches_packing_witness():
    proj = povm.leading_projector(4)
    u = haar_unitary(4, 130)
    v = haar_unitary(4, 131)
    eps = 0.4
    e = povm.packing_op_povm(u, eps, 2)
    f = povm.packing_op_povm(v, eps, 2)
    expected = eps / 2 * np.max(np.abs(np.linalg.eigvalsh(
        u @ proj @ u.conj().T - v @ proj @ v.conj().T)))
    lower = d_op_lower(e, f, n_subsets=4, seed=0).value
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
