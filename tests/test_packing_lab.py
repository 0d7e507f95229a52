import numpy as np
import pytest

from povmtomo import povm
from povmtomo._rng import haar_isometry, make_rng
from povmtomo.distances import d_av, d_op_exact
from povmtomo.packing_lab import PackingBudgetError, PackingFamily, build_packing, verify_separation
import oracles
from oracles import haar_moment_check, haar_unitary


def test_haar_unitary_is_unitary():
    for d in (1, 2, 5, 8):
        u = haar_isometry(d, d, make_rng(d))
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-12
    scalar = haar_isometry(1, 1, make_rng(3))
    assert abs(abs(scalar[0, 0]) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="1 <= cols <= rows"):
        haar_isometry(0, 0, make_rng(0))


def test_haar_first_moment():
    # E |U_00|^2 = 1/d within 3 standard errors
    d, trials = 4, 10_000
    values = np.empty(trials)
    rng_seed = 42
    rng = make_rng(rng_seed)
    sequential = [haar_isometry(d, d, rng) for _ in range(trials)]
    for t in range(trials):
        values[t] = abs(sequential[t][0, 0]) ** 2
    se = values.std(ddof=1) / np.sqrt(trials)
    assert abs(values.mean() - 1 / d) <= 3 * se
    # one stacked draw is the sequential draws bit for bit
    stack = haar_isometry(d, d, make_rng(rng_seed), (trials // 2, 2))
    assert np.array_equal(stack.reshape(trials, d, d).view(np.uint64), np.array(sequential).view(np.uint64))


def test_build_packing_op_family():
    family = build_packing("op", 4, 2, 0.4, 8, 7)
    assert len(family.members) == 8
    for u, member in zip(family.unitaries, family.members):
        assert povm.validate(member).ok
        assert member.outcomes == 4
        # the last two effects differ by eps (U P U^dagger - I/2), P of rank d/2 = 2
        rotated = (member.elements[-1] - member.elements[-2]) / 0.4 + np.eye(4) / 2
        np.testing.assert_allclose(rotated, u @ povm.leading_projector(4) @ u.conj().T, atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(rotated), [0, 0, 1, 1], atol=1e-12)
    report = verify_separation(family)
    assert report.ok
    assert report.threshold == pytest.approx(0.05)
    assert report.min_pairwise >= 0.05


def test_packing_identity_transfer():
    family = build_packing("op", 4, 3, 0.3, 4, 11)
    proj = povm.leading_projector(4)
    solo = []
    for a in range(4):
        for b in range(a + 1, 4):
            u, v = family.unitaries[a], family.unitaries[b]
            expected = 0.3 / 2 * np.max(np.abs(np.linalg.eigvalsh(
                u @ proj @ u.conj().T - v @ proj @ v.conj().T)))
            got = d_op_exact(family.members[a], family.members[b]).value
            assert got == pytest.approx(expected, abs=1e-9)
            solo.append(got)
    assert verify_separation(family).min_pairwise == min(solo)  # bit for bit, from stacked calls


def test_build_packing_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_packing("op", 3, 2, 0.4, 4, 0)  # odd dimension
    with pytest.raises(ValueError):
        build_packing("op", 4, 2, 0.8, 4, 0)  # epsilon too large
    with pytest.raises(ValueError):
        build_packing("av", 4, 3, 0.4, 4, 0)  # odd outcome count
    with pytest.raises(ValueError):
        build_packing("nope", 4, 2, 0.4, 4, 0)


def test_duplicated_unitary_family_fails_separation():
    u = haar_unitary(4, 99)
    members = (povm.packing_op_povm(u, 0.4, 2), povm.packing_op_povm(u, 0.4, 2))
    family = PackingFamily("op", 4, 0.4, (u, u), members)
    report = verify_separation(family)
    assert report.min_pairwise == pytest.approx(0.0, abs=1e-12)
    assert not report.ok


def test_rejection_budget_error():
    # d=2 leaves no room for many 1/4-separated projectors, so the budget trips
    with pytest.raises(PackingBudgetError):
        build_packing("op", 2, 2, 0.4, 40, 3)


def test_av_family_constructs_and_mostly_separates():
    ok_count = 0
    for seed in range(10):
        family = build_packing("av", 4, 4, 0.4, 10, (5, seed))
        for member in family.members:
            assert member.outcomes == 4
            assert povm.validate(member).ok
        report = verify_separation(family)
        members = family.members
        solo = [np.sqrt(4) * d_av(a, b).value for i, a in enumerate(members) for b in members[i + 1:]]
        assert report.min_pairwise == min(solo)  # bit for bit, from stacked calls
        ok_count += report.ok
    assert ok_count >= 9


def test_haar_moment_check_targets(monkeypatch):
    report = haar_moment_check(4, 200, 0)
    assert report.f2_target == pytest.approx(2.0)
    assert report.f4_target == pytest.approx(256 / 60)
    # blocks of 7 pairs, the last one partial, give the moments of the sequential draws bit for bit
    rng, projector = make_rng(0), povm.leading_projector(4)
    f2 = np.empty(200)
    for t in range(200):
        u, v = haar_isometry(4, 4, rng), haar_isometry(4, 4, rng)
        f2[t] = np.linalg.norm(u @ projector @ u.conj().T - v @ projector @ v.conj().T) ** 2
    monkeypatch.setattr(oracles, "_MOMENT_BLOCK_ENTRIES", 7 * 4 * 4)
    assert haar_moment_check(4, 200, 0) == report
    assert (report.f2_mean, report.f4_mean) == (np.mean(f2), np.mean(f2**2))
    report = haar_moment_check(2, 10_000, 1)
    assert report.f2_target == pytest.approx(1.0)
    assert abs(report.f2_z) <= 3
    assert abs(report.f4_z) <= 3
    with pytest.raises(ValueError):
        haar_moment_check(3, 1000, 0)
    with pytest.raises(ValueError):
        haar_moment_check(4, 50, 0)


def test_packing_born_marginals_match_haar_averages():
    # averaged over Haar draws, the two tilted effects each see probability
    # 1/4 and every flat effect 1/(2L), for any fixed pure state
    trials = 3000
    d, n_flat, eps = 4, 2, 0.4
    rho = np.zeros(d, dtype=complex)
    rho[0] = 1.0
    rng = make_rng(77)
    tilted = np.empty(trials)
    flat = np.empty(trials)
    for t in range(trials):
        member = povm.packing_op_povm(haar_isometry(d, d, rng), eps, n_flat)
        probs = povm.born(member, rho)
        tilted[t] = probs[n_flat]
        flat[t] = probs[0]
    se = tilted.std(ddof=1) / np.sqrt(trials)
    assert abs(tilted.mean() - 0.25) <= 3 * se + 1e-12
    assert np.allclose(flat, 1 / (2 * n_flat), atol=1e-12)


def test_haar_invariance_of_difference_distribution():
    # replacing U by WU for fixed W leaves the distribution of
    # ||U P U+ - V P V+||_F unchanged (checked on the mean within MC error)
    d, trials = 4, 4000
    proj = povm.leading_projector(d)
    w = haar_unitary(d, 123)
    rng = make_rng(200)
    plain = np.empty(trials)
    shifted = np.empty(trials)
    for t in range(trials):
        u = haar_isometry(d, d, rng)
        v = haar_isometry(d, d, rng)
        plain[t] = np.linalg.norm(u @ proj @ u.conj().T - v @ proj @ v.conj().T)
        shifted[t] = np.linalg.norm((w @ u) @ proj @ (w @ u).conj().T - v @ proj @ v.conj().T)
    se = np.sqrt(plain.var(ddof=1) / trials + shifted.var(ddof=1) / trials)
    assert abs(plain.mean() - shifted.mean()) <= 4 * se
