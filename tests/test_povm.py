import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from povmtomo import distances, povm
from povmtomo._rng import haar_isometry, make_rng
from oracles import coarse_grain, dense_measurement_channel, haar_unitary, json_save_povm, pauli_strings


def test_computational_povm():
    comp = povm.computational_povm(4)
    report = povm.validate(comp)
    assert report.ok
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert report.completeness_residual == pytest.approx(0.0, abs=1e-12)


def test_computational_povm_equals_the_outer_products_bit_for_bit():
    for d in range(1, 14):
        eye = np.eye(d, dtype=complex)
        expected = povm.Povm(np.array([np.outer(eye[j], eye[j]) for j in range(d)])).elements
        assert np.array_equal(povm.computational_povm(d).elements.view(np.int64), expected.view(np.int64))


def test_random_povm_equals_the_einsum_form_within_a_few_ulps():
    # the batched matmul and einsum sum each entry in another order: both are exact
    # Hermitian parts of the same products, a few ulps of the unit scale apart
    for d, n_outcomes, seed in [(1, 2, 0), (2, 3, 70), (3, 12, 4), (7, 4, 1), (16, 4, 1), (32, 5, 9)]:
        blocks = haar_isometry(d * n_outcomes, d, make_rng(seed)).reshape(n_outcomes, d, d)
        expected = povm.Povm(np.einsum("jak,jal->jkl", blocks.conj(), blocks)).elements
        target = povm.random_povm(d, n_outcomes, seed)
        assert np.abs(target.elements - expected).max() <= 4 * np.finfo(float).eps
        assert povm.validate(target).ok


def test_validate_rejects_bad_candidate():
    candidate = np.array([np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])], dtype=complex)
    report = povm.validate(candidate)
    assert not report.ok
    assert report.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)
    with pytest.raises(povm.PovmValidationError):
        povm.Povm(candidate)


def test_povm_stack_validates_like_the_constructor():
    # one pass over a (T, L, d, d) stack: each value equals the solo one bit for bit, frozen; a
    # Povm is a RawEstimate whose checks also take in positivity and completeness
    rng = np.random.default_rng(40)
    candidates = np.stack([povm.random_povm(3, 5, (41, t)).elements for t in range(4)])
    skew = 1e-10j * rng.normal(size=candidates.shape)  # non-Hermitian within POVM_TOL
    candidates = candidates + skew
    for cls in (povm.Povm, povm.RawEstimate):
        stacked = cls.stack(candidates)
        for made, candidate in zip(stacked, candidates):
            solo = cls(candidate)
            assert type(made) is cls and isinstance(made, povm.RawEstimate)
            assert repr(made) == f"{cls.__name__}(dim=3, outcomes=5)"
            assert np.array_equal(made.elements, solo.elements) and (made.outcomes, made.dim) == (5, 3)
            assert not made.elements.flags.writeable
    # the first failing candidate raises the constructor's PovmValidationError, word for word;
    # a RawEstimate, which needs no positivity, takes those non-PSD Hermitian candidates
    for bad in (np.diag([1.2, -0.2, 0.0]), 1e-7 * np.eye(3)):
        broken = candidates.copy()
        broken[2, 0] += bad
        broken[3, 1] += 2 * bad
        with pytest.raises(povm.PovmValidationError) as solo:
            povm.Povm(broken[2])
        with pytest.raises(povm.PovmValidationError) as stacked:
            povm.Povm.stack(broken)
        assert str(stacked.value) == str(solo.value)
        for made, candidate in zip(povm.RawEstimate.stack(broken), broken):
            assert np.array_equal(made.elements, povm.RawEstimate(candidate).elements)
    broken = candidates.copy()
    broken[1, 0, 0, 1] += 1e-6
    for cls in (povm.Povm, povm.RawEstimate):
        with pytest.raises(ValueError, match="not Hermitian"):
            cls.stack(broken)


def test_constructors_all_validate():
    rng = np.random.default_rng(0)
    for trial in range(25):
        d = int(rng.choice([2, 4, 6]))
        n_flat = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.01, 0.5))
        u = haar_unitary(d, (1, trial))
        povm.packing_op_povm(u, eps, n_flat)
        us = [haar_unitary(d, (2, trial, k)) for k in range(2)]
        povm.packing_av_povm(us, eps)
        povm.random_povm(d, int(rng.integers(2, 6)), (3, trial))
        base = povm.computational_povm(d)
        povm.depolarized(base, float(rng.uniform(0, 1)))
        povm.rotated_povm(u)
    povm.sic_qubit_povm()


def test_packing_op_sums_to_identity():
    u = haar_unitary(4, 5)
    member = povm.packing_op_povm(u, 0.37, 3)
    assert member.outcomes == 5
    np.testing.assert_allclose(member.elements.sum(axis=0), np.eye(4), atol=1e-12)


def test_packing_op_born_probability():
    # U = I, P = diag(1..1,0..0), eps = 1/2, rho = |0><0|: outcome L+1 has p = 1/8
    d, eps, n_flat = 4, 0.5, 2
    member = povm.packing_op_povm(np.eye(d, dtype=complex), eps, n_flat)
    ket0 = np.zeros(d, dtype=complex)
    ket0[0] = 1
    probs = povm.born(member, ket0)
    assert probs[n_flat] == pytest.approx((1 - eps) / 4, abs=1e-12)
    assert probs[n_flat] == pytest.approx(1 / 8, abs=1e-12)


def test_depolarized_limits():
    comp = povm.computational_povm(2)
    fully_mixed = povm.depolarized(comp, 1.0)
    np.testing.assert_allclose(fully_mixed.elements[0], np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(fully_mixed.elements[1], np.eye(2) / 2, atol=1e-12)
    with pytest.raises(ValueError):
        povm.depolarized(comp, 1.5)


def test_born_examples():
    comp = povm.computational_povm(2)
    np.testing.assert_allclose(povm.born(comp, np.array([1, 0], dtype=complex)), [1, 0], atol=1e-12)

    sic = povm.sic_qubit_povm()
    probs = povm.born(sic, np.eye(2, dtype=complex) / 2)
    np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)

    for p in (0.05, 0.3):
        noisy = povm.depolarized(comp, p)
        probs = povm.born(noisy, np.array([1, 0], dtype=complex))
        np.testing.assert_allclose(probs, [1 - p / 2, p / 2], atol=1e-12)


def test_born_probability_vector_properties():
    rng = np.random.default_rng(8)
    for trial in range(30):
        d = int(rng.choice([2, 3, 4]))
        target = povm.random_povm(d, int(rng.integers(2, 6)), (10, trial))
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        probs = povm.born(target, psi)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_born_rejects_unnormalized():
    comp = povm.computational_povm(2)
    with pytest.raises(ValueError):
        povm.born(comp, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        povm.born(comp, np.eye(2, dtype=complex))  # trace 2


def test_coarse_grain():
    comp = povm.computational_povm(3)
    np.testing.assert_allclose(coarse_grain(comp, range(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(coarse_grain(comp, []), np.zeros((3, 3)), atol=1e-12)
    with pytest.raises(IndexError):
        coarse_grain(comp, [3])


def test_coarse_grain_packing_element():
    u = haar_unitary(4, 12)
    eps, n_flat = 0.4, 3
    member = povm.packing_op_povm(u, eps, n_flat)
    got = coarse_grain(member, [n_flat])
    proj = povm.leading_projector(4)
    expected = (1 + eps) / 4 * np.eye(4) - eps / 2 * (u @ proj @ u.conj().T)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_coarse_grain_additive():
    rng = np.random.default_rng(13)
    target = povm.random_povm(3, 5, 99)
    x, y = (0, 2), (1, 4)
    total = coarse_grain(target, x) + coarse_grain(target, y)
    np.testing.assert_allclose(coarse_grain(target, x + y), total, atol=1e-12)


def test_packing_op_distance_identity():
    # worst-case distance equals (eps/2) ||U P U+ - V P V+|| for any pair
    for d in (2, 4, 8):
        proj = povm.leading_projector(d)
        for trial in range(5):
            u = haar_unitary(d, (20, d, trial))
            v = haar_unitary(d, (21, d, trial))
            eps = 0.3
            member_u = povm.packing_op_povm(u, eps, 2)
            member_v = povm.packing_op_povm(v, eps, 2)
            got = distances.d_op_exact(member_u, member_v).value
            expected = eps / 2 * np.max(np.abs(np.linalg.eigvalsh(
                u @ proj @ u.conj().T - v @ proj @ v.conj().T)))
            assert got == pytest.approx(expected, abs=1e-9)


def test_measurement_channel_computational():
    comp = povm.computational_povm(2)
    matrix = povm.measurement_channel(comp, comp)
    np.testing.assert_allclose(matrix, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)


def test_measurement_channel_affine_in_noise():
    comp = povm.computational_povm(2)
    channels = {p: povm.measurement_channel(comp, povm.depolarized(comp, p)) for p in (0.0, 0.5, 1.0)}
    midpoint = (channels[0.0] + channels[1.0]) / 2
    np.testing.assert_allclose(channels[0.5], midpoint, atol=1e-12)


def test_measurement_channel_single_effect():
    trivial = povm.Povm(np.eye(2, dtype=complex)[None, :, :])
    matrix = povm.measurement_channel(trivial, trivial)
    expected = np.zeros((4, 4))
    expected[0, 0] = 2.0  # d at the identity-identity entry
    np.testing.assert_allclose(matrix, expected, atol=1e-12)


def test_measurement_channel_linear_in_estimate():
    ideal = povm.random_povm(2, 3, 30)
    f = povm.random_povm(2, 3, 31)
    g = povm.random_povm(2, 3, 32)
    alpha = 0.3
    mix = povm.Povm(alpha * f.elements + (1 - alpha) * g.elements)
    got = povm.measurement_channel(ideal, mix)
    expected = alpha * povm.measurement_channel(ideal, f) + (1 - alpha) * povm.measurement_channel(ideal, g)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_measurement_channel_matches_dense_pauli_strings(n):
    d = 2**n
    assert povm.pauli_labels(n) == pauli_strings(n)[0]
    for trial in range(3):
        ideal = povm.random_povm(d, 2 + trial, (33, n, trial))
        estimated = povm.random_povm(d, 2 + trial, (34, n, trial))
        got = povm.measurement_channel(ideal, estimated)
        assert got.shape == (4**n, 4**n)
        np.testing.assert_allclose(got, dense_measurement_channel(ideal, estimated), rtol=0, atol=1e-12)


def test_measurement_channel_shape_checks():
    comp2 = povm.computational_povm(2)
    comp4 = povm.computational_povm(4)
    with pytest.raises(ValueError):
        povm.measurement_channel(comp2, comp4)
    comp3 = povm.computational_povm(3)
    with pytest.raises(ValueError):
        povm.measurement_channel(comp3, comp3)


def test_povm_file_roundtrip_exact(tmp_path):
    target = povm.random_povm(3, 4, 77)
    path = tmp_path / "povm.json"
    povm.save_povm(target, path)
    loaded = povm.load_povm(path)
    assert np.array_equal(loaded.elements, target.elements)
    # a second write is byte-identical
    path2 = tmp_path / "povm2.json"
    povm.save_povm(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e22, -1e22, 1 / 3,
                  0.1, 1e-7, 1.7976931348623157e308, 123456789012345678.0)


def _hermitian_file_values(candidate) -> bool:
    """Whether ``save_povm`` writes the strings of a bitwise-Hermitian stack rather than its floats."""
    values = povm._element_values(povm._as_element_stack(candidate))
    return not any(isinstance(value, float) for value in values)


@settings(max_examples=60)
@given(
    n_outcomes=st.integers(1, 6),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-30, 30),
    specials=st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(SPECIAL_FLOATS)), max_size=16),
    hermitian=st.booleans(),
)
@example(n_outcomes=1, d=1, seed=0, exponent=0, specials=[(0, -0.0), (1, 5e-324)], hermitian=False)
@example(n_outcomes=6, d=8, seed=1, exponent=0, specials=list(enumerate(SPECIAL_FLOATS)), hermitian=False)
@example(n_outcomes=1, d=1, seed=0, exponent=0, specials=[(0, 1.7976931348623157e308), (1, -0.0)], hermitian=True)
@example(n_outcomes=6, d=8, seed=1, exponent=0, specials=list(enumerate(SPECIAL_FLOATS)), hermitian=True)
@example(n_outcomes=2, d=3, seed=2, exponent=0,  # +-0.0, +-5e-324 and the largest float on and above the diagonal
         specials=[(0, -0.0), (3, 0.0), (4, -0.0), (5, 5e-324), (10, -5e-324), (11, 1.7976931348623157e308),
                   (21, -0.0)],
         hermitian=True)
def test_povm_file_matches_json_dump(tmp_path_factory, n_outcomes, d, seed, exponent, specials, hermitian):
    values = np.random.default_rng(seed).normal(size=2 * n_outcomes * d * d) * 10.0**exponent
    for position, value in specials:
        values[position % values.size] = value
    stack = values[0::2] + 1j * values[1::2]
    stack = stack.reshape(n_outcomes, d, d)
    candidates = [stack]
    if hermitian:  # a real diagonal, and each entry below it the bitwise conjugate of its mirror
        rows, cols = np.triu_indices(d, 1)
        stack[:, cols, rows] = stack[:, rows, cols].conj()
        stack[:, range(d), range(d)] = stack[:, range(d), range(d)].real
        if np.abs(values).max() <= 1e307:  # RawEstimate's exact Hermitian part doubles each entry
            candidates.append(povm.RawEstimate(stack))
    target = povm.random_povm(d, max(n_outcomes, 2), seed)
    candidates.append(target)
    folder = tmp_path_factory.mktemp("povm")
    for candidate in candidates:
        povm.save_povm(candidate, folder / "template.json")
        json_save_povm(candidate, folder / "json.json")
        assert (folder / "template.json").read_bytes() == (folder / "json.json").read_bytes()
        assert np.array_equal(povm.read_povm_file(folder / "template.json"), povm._as_element_stack(candidate))
    # a RawEstimate's exact Hermitian part may give a zero imaginary part the same sign on both sides
    assert _hermitian_file_values(stack) == (hermitian or d == 1)
    assert _hermitian_file_values(target)


def test_povm_file_of_a_stack_hermitian_but_for_one_bit(tmp_path):
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    stack[0, 0, 1] = 0.25  # a real entry, whose mirror's imaginary part is -0.0
    rows, cols = np.triu_indices(4, 1)
    stack[:, cols, rows] = stack[:, rows, cols].conj()
    assert _hermitian_file_values(stack)
    # (effect, row, column, re or im) below the diagonal, and the bit of its float64 to flip
    for entry, bit in [((0, 1, 0, 1), 63), ((0, 1, 0, 0), 0), ((1, 3, 2, 1), 0), ((1, 3, 2, 0), 63)]:
        broken = stack.copy()
        broken.view(np.uint64).reshape(2, 4, 4, 2)[entry] ^= np.uint64(1 << bit)
        assert not _hermitian_file_values(broken)
        povm.save_povm(broken, tmp_path / "template.json")
        json_save_povm(broken, tmp_path / "json.json")
        assert (tmp_path / "template.json").read_bytes() == (tmp_path / "json.json").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
def test_non_finite_stacks_fail_early(tmp_path, bad):
    stack = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
    stack[1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        povm.validate(stack)  # no RuntimeWarning from hermitize first
    with pytest.raises(ValueError, match="non-finite"):
        povm.save_povm(stack, tmp_path / "povm.json")
    assert not (tmp_path / "povm.json").exists()


def test_empty_matrices_are_rejected():
    with pytest.raises(ValueError, match="d >= 1"):
        povm.validate(np.zeros((2, 0, 0)))


def test_build_povm_dispatch_strict():
    spec = {"kind": "depolarized", "base": {"kind": "computational", "dim": 2}, "p": 0.2}
    built = povm.build_povm(spec)
    assert built.outcomes == 2
    with pytest.raises(ValueError):
        povm.build_povm({"kind": "computational", "dim": 2, "extra": 1})
    with pytest.raises(ValueError):
        povm.build_povm({"kind": "unknown"})
    # matrix keys are nested [re, im] pairs, read the same way as by the direct constructors
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    pairs = np.stack([u.real, u.imag], axis=-1).tolist()
    for spec, expected in [
        ({"kind": "rotated", "unitary": pairs}, povm.rotated_povm(u)),
        ({"kind": "packing_op", "unitary": pairs, "epsilon": 0.2, "flat_outcomes": 2}, povm.packing_op_povm(u, 0.2, 2)),
        ({"kind": "packing_av", "unitaries": [pairs, pairs], "epsilon": 0.3}, povm.packing_av_povm([u, u], 0.3)),
    ]:
        assert np.array_equal(povm.build_povm(spec).elements, expected.elements)
    for bad in [
        {"kind": "rotated", "unitary": [[0.6, 0.8], [0.8, 0.6]]},  # one pair per row: not a matrix
        {"kind": "packing_op", "unitary": pairs, "epsilon": "0.2", "flat_outcomes": 2},
        {"kind": "random", "dim": 2, "outcomes": 2.5, "seed": 1},
        {"kind": "depolarized", "base": {"kind": "sic_qubit"}},
        {"dim": 2},
        [{"kind": "computational", "dim": 2}],
    ]:
        with pytest.raises(ValueError):
            povm.build_povm(bad)


def test_packing_parity_and_epsilon_checks():
    with pytest.raises(ValueError):
        povm.leading_projector(3)
    with pytest.raises(ValueError):
        povm.packing_op_povm(np.eye(3, dtype=complex), 0.3, 2)
    with pytest.raises(ValueError):
        povm.packing_op_povm(np.eye(4, dtype=complex), 0.7, 2)


def test_random_povm_needs_two_outcomes():
    with pytest.raises(ValueError):
        povm.random_povm(2, 1, 0)
