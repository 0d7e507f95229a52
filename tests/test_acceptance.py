"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``[criterion N] PASS`` line on success (visible
with ``pytest -s`` or in captured output); a failing criterion shows up as a
normal pytest failure naming the violated bound.
"""

import json
import time

import numpy as np
import pytest

import povmtomo as pt
from povmtomo import cli, povm
from povmtomo.distances import d_av, d_op_exact, upper_surrogates
from povmtomo.tomography import lse_estimate, project_onto_povms, sample_size, simulate_shots
from oracles import bernstein_parameters, exact_frequencies, haar_moment_check, simplex_project, stabilizer_states


def _global_ensemble(d):
    if d == 4:
        return pt.build_ensemble(
            {
                "kind": "explicit",
                "states": [
                    [[x.real, x.imag] for x in state] for state in stabilizer_states(2)
                ],
            }
        )
    return pt.mub_ensemble(d)


def test_c01_frame_inversion_exactness():
    start = time.perf_counter()
    for d in (2, 3, 4, 5):
        ensemble = _global_ensemble(d)
        for trial in range(3):
            target = povm.random_povm(d, 2 + trial, (11, d, trial))
            raw = lse_estimate(exact_frequencies(target, ensemble), ensemble)
            for j in range(target.outcomes):
                err = np.linalg.norm(raw.elements[j] - target.elements[j])
                assert err < 1e-9, f"global d={d}: element {j} off by {err:.2e}"
    for n in (1, 2, 3):
        ensemble = pt.pauli6_product(n)
        for trial in range(2):
            target = povm.random_povm(2**n, 2 + trial, (12, n, trial))
            raw = lse_estimate(exact_frequencies(target, ensemble), ensemble)
            for j in range(target.outcomes):
                err = np.linalg.norm(raw.elements[j] - target.elements[j])
                assert err < 1e-9, f"local n={n}: element {j} off by {err:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"[criterion 1] PASS frame inversion exact to 1e-9 ({elapsed:.1f}s)")


def test_c02_worst_case_guarantee_empirical():
    start = time.perf_counter()
    target = povm.depolarized(povm.computational_povm(2), 0.1)
    ensemble = pt.pauli6_product(1)
    epsilon, delta = 0.25, 0.05
    n_shots = sample_size(2, 2, epsilon, delta, "global", "op")
    successes = 0
    for run in range(40):
        table = simulate_shots(target, ensemble, n_shots, (2025, run))
        estimated, _ = project_onto_povms(lse_estimate(table, ensemble))
        successes += d_op_exact(target, estimated).value <= epsilon
    assert successes >= 38, f"guarantee held in only {successes}/40 runs"
    # beyond d = 2: global MUBs against the global calculator, Pauli-6 products against the local one
    cases = [(pt.mub_ensemble(d), "global", None) for d in (3, 5, 7)]
    cases += [(pt.pauli6_product(n), "local", n) for n in (2, 3, 4, 5)]
    trials, tightness = 10, []
    for index, (ensemble, frame, n_qubits) in enumerate(cases):
        d = ensemble.dim
        projector = np.diag(np.arange(d) < d // 2).astype(complex)  # rank floor(d/2)
        target = povm.depolarized(povm.Povm([projector, np.eye(d) - projector]), 0.1)
        case_shots = sample_size(d, 2, epsilon, delta, frame, "op", n_qubits=n_qubits)
        errors = []
        for run in range(trials):
            table = simulate_shots(target, ensemble, case_shots, (2026, index, run))
            estimated, _ = project_onto_povms(lse_estimate(table, ensemble))
            errors.append(d_op_exact(target, estimated).value)
        held = sum(error <= epsilon for error in errors)
        assert held >= np.ceil((1 - delta) * trials), f"{frame} d={d}: guarantee held in only {held}/{trials} runs"
        tightness.append(f"{frame} d={d} {np.median(errors) / epsilon:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"[criterion 2] PASS d_op <= {epsilon} in {successes}/40 runs at d=2, N={n_shots}, and in at least "
          f"{1 - delta:.0%} of {trials} runs per case beyond; median d_op/epsilon {', '.join(tightness)} "
          f"({elapsed:.1f}s)")


def test_c03_scaling_law():
    start = time.perf_counter()
    target = povm.sic_qubit_povm()
    ensemble = pt.pauli6_product(1)
    n_list = [2**10, 2**12, 2**14, 2**16]
    medians_op, medians_av = [], []
    for n_index, n_shots in enumerate(n_list):
        errs_op, errs_av = [], []
        for trial in range(20):
            table = simulate_shots(target, ensemble, n_shots, (310, n_index, trial))
            estimated, _ = project_onto_povms(lse_estimate(table, ensemble))
            errs_op.append(d_op_exact(target, estimated).value)
            errs_av.append(d_av(target, estimated).value)
        medians_op.append(float(np.median(errs_op)))
        medians_av.append(float(np.median(errs_av)))
    log_n = np.log(n_list)
    slope_op = float(np.polyfit(log_n, np.log(medians_op), 1)[0])
    slope_av = float(np.polyfit(log_n, np.log(medians_av), 1)[0])
    elapsed = time.perf_counter() - start
    assert -0.65 <= slope_op <= -0.35, f"d_op slope {slope_op:.3f} outside [-0.65, -0.35]"
    assert -0.65 <= slope_av <= -0.35, f"d_av slope {slope_av:.3f} outside [-0.65, -0.35]"
    inversions = sum(medians_op[k + 1] > medians_op[k] for k in range(3))
    assert inversions <= 1, f"median d_op error not decreasing: {medians_op}"
    assert elapsed < 300
    print(
        f"[criterion 3] PASS slopes d_op {slope_op:.3f}, d_av {slope_av:.3f} ({elapsed:.1f}s)"
    )


def test_c04_projection_matches_simplex_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(100):
        d = (2, 4)[trial % 2]
        n_outcomes = (2, 3, 4)[trial % 3]
        diag = rng.normal(0.0, 1.0, size=(n_outcomes, d))
        raw = np.array([np.diag(diag[j]).astype(complex) for j in range(n_outcomes)])
        projected, diagnostics = project_onto_povms(raw)
        assert diagnostics.converged
        for k in range(d):
            gap = np.max(np.abs(simplex_project(diag[:, k]) - projected.elements[:, k, k].real))
            assert gap < 1e-8, f"trial {trial}, column {k}: oracle gap {gap:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"[criterion 4] PASS 100 diagonal projections match the simplex oracle ({elapsed:.1f}s)")


def test_c05_bernstein_parameter_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for trial in range(50):
        d = (2, 3, 4, 5)[trial % 4]
        ensemble = _global_ensemble(d)
        target = povm.random_povm(d, int(rng.integers(2, 5)), (21, trial))
        subset = [j for j in range(target.outcomes) if rng.integers(0, 2)]
        k_emp, sigma2_emp = bernstein_parameters(target, ensemble, subset)
        assert k_emp == pytest.approx(d**2, abs=1e-9)
        assert sigma2_emp <= d**3 + d**2 + 1e-9
    for trial in range(50):
        n = (1, 2, 3)[trial % 3]
        ensemble = pt.pauli6_product(n)
        target = povm.random_povm(2**n, int(rng.integers(2, 5)), (22, trial))
        subset = [j for j in range(target.outcomes) if rng.integers(0, 2)]
        k_emp, sigma2_emp = bernstein_parameters(target, ensemble, subset)
        assert k_emp == pytest.approx(4**n, abs=1e-9)
        assert sigma2_emp <= 10**n + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"[criterion 5] PASS 100 draws: K at the bound, sigma^2 below it ({elapsed:.1f}s)")


def test_c06_distance_fixed_values():
    start = time.perf_counter()
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    z_basis = povm.computational_povm(2)
    x_basis = povm.rotated_povm(hadamard)
    assert d_op_exact(z_basis, x_basis).value == pytest.approx(0.7071067811865476, abs=1e-9)
    for p in (0.05, 0.1, 0.3):
        noisy = povm.depolarized(z_basis, p)
        assert d_op_exact(z_basis, noisy).value == pytest.approx(p / 2, abs=1e-9)
        assert d_av(z_basis, noisy).value == pytest.approx(p / 2, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    print(f"[criterion 6] PASS fixed distance values ({elapsed:.2f}s)")


def test_c07_packing_separation():
    start = time.perf_counter()
    epsilon = 0.4
    for seed in range(10):
        family = pt.build_packing("op", 8, 2, epsilon, 20, (707, seed))
        report = pt.verify_separation(family)
        assert report.threshold == pytest.approx(epsilon / 8)
        assert report.ok, f"seed {seed}: min pairwise {report.min_pairwise:.4f} < {epsilon / 8}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"[criterion 7] PASS 10/10 seeds separated by eps/8 = {epsilon / 8} ({elapsed:.1f}s)")


def test_c08_haar_moments():
    start = time.perf_counter()
    for d in (2, 4, 6):
        report = haar_moment_check(d, 10_000, (808, d))
        assert abs(report.f2_z) <= 3, f"d={d}: f^2 z-score {report.f2_z:.2f}"
        assert abs(report.f4_z) <= 3, f"d={d}: f^4 z-score {report.f4_z:.2f}"
        assert report.f2_target == pytest.approx(d / 2)
        assert report.f4_target == pytest.approx(d**4 / (4 * (d**2 - 1)))
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"[criterion 8] PASS Haar moments within 3 standard errors ({elapsed:.1f}s)")


def test_c09_sample_size_calculators():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eps, delta = mp.mpf("0.1"), mp.mpf("0.01")
    # independent high-precision evaluation of the printed bounds
    op_bound = 8 * (2**3 + 2**2 * (1 + eps / 6)) / eps**2 * mp.log(2**3 * 2 / delta)
    av_bound = 8 * 2**2 * (2**2 + 2 * (1 + eps / 6)) / eps**2 * mp.log(4 * 2 * 2 / delta)
    assert sample_size(2, 2, 0.1, 0.01, "global", "op") == 71221
    assert sample_size(2, 2, 0.1, 0.01, "global", "av", "theorem") == 142441
    # the implementation returns one above the ceiling of the bound
    assert int(mp.ceil(op_bound)) + 1 == 71221
    assert int(mp.ceil(av_bound)) + 1 == 142441
    print("[criterion 9] PASS sample sizes 71221 / 142441 re-derived from the printed bounds")


def test_c10_metric_axioms_and_ordering():
    # d_av <= sqrt(d+1) * d_op is the ordering that holds for valid POVM pairs
    # (derivation in the povmtomo.distances docstring); d_av <= d_op does not.
    start = time.perf_counter()
    ordering_violations = []
    worst_ratio = 0.0
    for trial in range(200):
        d = (2, 3, 4)[trial % 3]
        n_outcomes = (2, 3, 4)[(trial // 3) % 3]
        e = povm.random_povm(d, n_outcomes, (31, trial))
        f = povm.random_povm(d, n_outcomes, (32, trial))
        g = povm.random_povm(d, n_outcomes, (33, trial))
        op_ef = d_op_exact(e, f).value
        op_fg = d_op_exact(f, g).value
        op_eg = d_op_exact(e, g).value
        av_ef = d_av(e, f).value
        av_fg = d_av(f, g).value
        av_eg = d_av(e, g).value
        assert op_eg <= op_ef + op_fg + 1e-10
        assert av_eg <= av_ef + av_fg + 1e-10
        assert 0.0 <= op_ef <= 1.0 + 1e-12
        for pair_op, pair_av, pair in (
            (op_ef, av_ef, (e, f)),
            (op_fg, av_fg, (f, g)),
            (op_eg, av_eg, (e, g)),
        ):
            assert pair_op <= upper_surrogates(*pair).spec_sum + 1e-10
            bound = np.sqrt(d + 1) * pair_op
            worst_ratio = max(worst_ratio, pair_av / bound)
            if pair_av > bound + 1e-10:
                ordering_violations.append((trial, d, n_outcomes, pair_av, bound))
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    if ordering_violations:
        trial, d, n_outcomes, pair_av, bound = ordering_violations[0]
        pytest.fail(
            f"d_av <= sqrt(d+1)*d_op violated on {len(ordering_violations)}/600 random "
            f"pairs (worst d_av/(sqrt(d+1)*d_op) = {worst_ratio:.4f}), first at trial "
            f"{trial} (d={d}, L={n_outcomes}): d_av={pair_av:.4f} > "
            f"sqrt(d+1)*d_op={bound:.4f}"
        )
    # {(1/2+t)I, (1/2-t)I} vs {I/2, I/2} attains the bound, so sqrt(d+1) is the
    # smallest constant that holds, and this pair breaks the bare d_av <= d_op.
    t = 0.3
    for d in (2, 3, 4):
        eye = np.eye(d, dtype=complex)
        shifted = povm.Povm(np.stack([(0.5 + t) * eye, (0.5 - t) * eye]))
        flat = povm.Povm(np.stack([0.5 * eye, 0.5 * eye]))
        op = d_op_exact(shifted, flat).value
        av = d_av(shifted, flat).value
        assert abs(op - t) <= 1e-12, f"d={d}: d_op={op!r}, expected {t}"
        bound = float(np.sqrt(d + 1)) * op
        assert abs(av - bound) <= 1e-12 * bound, (
            f"d={d}: d_av={av!r} != sqrt(d+1)*d_op={bound!r}"
        )
        assert av > op + 1e-10, f"d={d}: equality pair does not break d_av <= d_op"
    print(
        f"[criterion 10] PASS metric axioms and d_av <= sqrt(d+1)*d_op on 200 triples "
        f"(worst ratio {worst_ratio:.4f}; equality at d=2,3,4) ({elapsed:.1f}s)"
    )


def test_c11_reconstruction_determinism(tmp_path):
    config_doc = {
        "povm": {"kind": "depolarized", "base": {"kind": "computational", "dim": 2}, "p": 0.1},
        "ensemble": {"kind": "pauli6_product", "n_qubits": 1},
        "shots": 6000,
        "seed": 77,
        "projection": {"metric": "frobenius"},
        "outputs": {"dir": str(tmp_path / "a")},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    assert cli.main(["reconstruct", "--config", str(config_path)]) == 0
    assert cli.main(["reconstruct", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    for name in ("estimated_povm.json", "report.json", "counts.csv", "counts.csv.meta.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    print("[criterion 11] PASS reconstruct outputs are byte-identical across reruns")
