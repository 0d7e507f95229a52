import json

import numpy as np
import pytest

from povmtomo import cli, povm
from povmtomo.cli import ExperimentConfig, load_config, run_reconstruction, run_scaling


def write_config(tmp_path, **overrides):
    doc = {
        "povm": {"kind": "depolarized", "base": {"kind": "computational", "dim": 2}, "p": 0.1},
        "ensemble": {"kind": "pauli6_product", "n_qubits": 1},
        "shots": 4000,
        "seed": 5,
        "projection": {"metric": "frobenius"},
        "epsilon": 0.25,
        "delta": 0.05,
        "outputs": {"dir": str(tmp_path / "run")},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_parsing_strict(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config.shots == 4000
    assert config.projection.metric == "frobenius"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"povm": {}, "ensemble": {}, "shots": 1, "seed": 0, "oops": 1}))
    with pytest.raises(ValueError):
        load_config(bad)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"povm": {}, "ensemble": {}, "shots": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(
            {"povm": {}, "ensemble": {}, "shots": 0, "seed": 0}
        )


def test_config_dimension_consistency(tmp_path):
    path = write_config(tmp_path, povm={"kind": "computational", "dim": 3})
    with pytest.raises(ValueError):
        load_config(path).build()


def test_reconstruct_outputs_and_determinism(tmp_path):
    path = write_config(tmp_path)
    code = cli.main(["reconstruct", "--config", str(path)])
    assert code == 0
    run_dir = tmp_path / "run"
    report = json.loads((run_dir / "report.json").read_text())
    assert report["solver"]["converged"]
    assert report["distances"]["d_op"] <= 1.0
    estimated = povm.load_povm(run_dir / "estimated_povm.json")
    assert povm.validate(estimated, tol=1e-6).ok

    code = cli.main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "run2")])
    assert code == 0
    for name in ("estimated_povm.json", "report.json", "counts.csv", "counts.csv.meta.json"):
        assert (run_dir / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


def test_reconstruct_from_counts_and_hash_check(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["reconstruct", "--config", str(path)]) == 0
    counts = tmp_path / "run" / "counts.csv"

    code = cli.main(
        ["reconstruct", "--config", str(path), "--from-counts", str(counts), "--out", str(tmp_path / "ingest")]
    )
    assert code == 0
    first = json.loads((tmp_path / "run" / "report.json").read_text())
    second = json.loads((tmp_path / "ingest" / "report.json").read_text())
    assert first["distances"] == second["distances"]

    # a config with a different ensemble spec must be rejected
    other = write_config(tmp_path, ensemble={"kind": "sic_qubit"})
    code = cli.main(
        ["reconstruct", "--config", str(other), "--from-counts", str(counts), "--out", str(tmp_path / "bad")]
    )
    assert code == 1


def _assert_rejected_before_work(code, capsys, out_dir):
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ValueError"
    assert not (out_dir / "estimated_povm.json").exists()
    return record["error"]["message"]


def test_from_counts_requires_sidecar_hash(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    counts = tmp_path / "run" / "counts.csv"
    sidecar = counts.parent / "counts.csv.meta.json"
    meta = json.loads(sidecar.read_text())
    del meta["ensemble_spec"], meta["ensemble_spec_sha256"]
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    out = tmp_path / "ingest"
    code = cli.main(["reconstruct", "--config", str(path), "--from-counts", str(counts), "--out", str(out)])
    assert "ensemble_spec_sha256" in _assert_rejected_before_work(code, capsys, out)


def test_from_counts_rejects_outcome_mismatch(tmp_path, capsys):
    path = write_config(tmp_path)  # a two-outcome target
    assert cli.main(["simulate", "--config", str(path)]) == 0
    counts = tmp_path / "run" / "counts.csv"
    other = write_config(tmp_path, povm={"kind": "random", "dim": 2, "outcomes": 3, "seed": 1})
    capsys.readouterr()
    out = tmp_path / "ingest"
    code = cli.main(["reconstruct", "--config", str(other), "--from-counts", str(counts), "--out", str(out)])
    assert "outcomes" in _assert_rejected_before_work(code, capsys, out)


def test_reconstruct_beyond_exact_outcome_cap(tmp_path, capsys):
    path = write_config(tmp_path, povm={"kind": "random", "dim": 2, "outcomes": 25, "seed": 3}, shots=20000)
    assert cli.main(["reconstruct", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["distances"]["d_op_kind"] == "op_lower"
    assert report["distances"]["d_op"] <= report["distances"]["spec_sum"]


def test_scaling_beyond_exact_outcome_cap_fails_before_work(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, povm={"kind": "random", "dim": 2, "outcomes": 25, "seed": 3})
    simulated = []
    monkeypatch.setattr(cli, "simulate_shots", lambda *args: simulated.append(args))
    out = tmp_path / "scal"
    code = cli.main(["scaling", "--config", str(path), "--n-list", "100,200,400", "--trials", "5", "--out", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ValueError" and "24" in record["error"]["message"]
    assert not (out / "scaling.csv").exists()
    assert simulated == []


def test_seed_and_shot_overrides(tmp_path):
    path = write_config(tmp_path)
    config = load_config(path, {"seed": 9, "shots": 123})
    assert config.seed == 9 and config.shots == 123


def test_run_reconstruction_api(tmp_path):
    config = load_config(write_config(tmp_path))
    report = run_reconstruction(config)
    assert set(report) == {
        "shots",
        "seed",
        "ensemble_spec_sha256",
        "distances",
        "solver",
        "bernstein",
        "sample_size",
    }
    assert report["sample_size"]["local_op"] > 0
    assert report["bernstein"]["k_emp"] <= report["bernstein"]["k_bound"] + 1e-9


def test_scaling_requires_enough_points(tmp_path):
    config = load_config(write_config(tmp_path))
    with pytest.raises(ValueError):
        run_scaling(config, [1024], 5)
    with pytest.raises(ValueError):
        run_scaling(config, [256, 512, 1024], 2)


def test_scaling_command(tmp_path):
    path = write_config(tmp_path, shots=1)
    out = tmp_path / "scal"
    code = cli.main(
        [
            "scaling",
            "--config",
            str(path),
            "--n-list",
            "64,256,1024",
            "--trials",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "scaling.csv").read_text().strip().splitlines()
    assert lines[0] == "N,trial,d_op,d_av,runtime_ms"
    assert len(lines) == 1 + 3 * 5
    fit = json.loads((out / "scaling_report.json").read_text())["fit"]
    assert fit["slope_d_op"] < 0  # error decreases with shots
    medians = json.loads((out / "scaling_report.json").read_text())["medians"]
    assert medians["d_op"][-1] < medians["d_op"][0]


def test_bounds_command(capsys):
    code = cli.main(
        ["bounds", "--dim", "2", "--outcomes", "2", "--epsilon", "0.1", "--delta", "0.01", "--n-qubits", "1"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["global_op"] == 71221
    assert doc["global_av_theorem"] == 142441
    assert doc["local_op"] > 0


def test_distance_and_channel_commands(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    comp = povm.computational_povm(2)
    povm.save_povm(comp, a_path)
    povm.save_povm(povm.depolarized(comp, 0.2), b_path)
    code = cli.main(["distance", "--povm-a", str(a_path), "--povm-b", str(b_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_op"]["value"] == pytest.approx(0.1, abs=1e-9)
    assert doc["d_av"] == pytest.approx(0.1, abs=1e-9)

    code = cli.main(
        ["channel", "--ideal", str(a_path), "--estimated", str(b_path), "--out", str(tmp_path)]
    )
    assert code == 0
    channel = json.loads((tmp_path / "channel.json").read_text())
    assert channel["basis"] == ["I", "X", "Y", "Z"]
    matrix = np.array(channel["matrix"])
    np.testing.assert_allclose(matrix, np.diag([1.0, 0.0, 0.0, 0.8]), atol=1e-9)


def test_validate_command_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    povm.save_povm(povm.computational_povm(2), good)
    assert cli.main(["validate", "--povm", str(good)]) == 0
    capsys.readouterr()

    bad_elements = np.array([np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])], dtype=complex)
    bad = tmp_path / "bad.json"
    povm.save_povm(povm.RawEstimate(bad_elements), bad)
    assert cli.main(["validate", "--povm", str(bad)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["ok"]
    assert doc["min_eigenvalue"] == pytest.approx(-0.2, abs=1e-12)


def test_packing_command(tmp_path, capsys):
    code = cli.main(
        [
            "packing",
            "--kind",
            "op",
            "--dim",
            "4",
            "--outcomes",
            "2",
            "--epsilon",
            "0.4",
            "--members",
            "4",
            "--seeds",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "packing.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "kind,dim,outcomes,epsilon,members,seed,min_pairwise,threshold,ok"
    assert lines[3:] == [""]
    for seed, line in enumerate(lines[1:3]):
        fields = line.split(",")
        assert fields[:6] == ["op", "4", "2", "0.4", "4", str(seed)]
        assert fields[6] == repr(float(fields[6])) and float(fields[6]) >= 0.05
        assert fields[7:] == ["0.05", "1"]


def test_reconstruct_iteration_cap_is_an_error(tmp_path, capsys):
    path = write_config(tmp_path, shots=200, projection={"metric": "frobenius", "max_iterations": 1})
    code = cli.main(["reconstruct", "--config", str(path)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "RuntimeError"
    assert "max_iterations = 1" in record["error"]["message"]
    assert not (tmp_path / "run" / "estimated_povm.json").exists()


def test_cli_error_record(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = cli.main(["reconstruct", "--config", str(missing)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert "error" in record and record["error"]["type"]
