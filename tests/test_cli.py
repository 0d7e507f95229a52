import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from povmtomo import cli, frames, povm, tomography
from povmtomo._schema import dump, integer, real
from povmtomo.cli import ExperimentConfig, load_config, run_reconstruction, run_scaling


ABSENT = object()  # a write_config override that leaves its key out of the config


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
    doc = {key: value for key, value in {**doc, **overrides}.items() if value is not ABSENT}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_parsing_strict(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config.shots == 4000
    assert config.metric == "frobenius"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"povm": {}, "ensemble": {}, "shots": 1, "seed": 0, "oops": 1}))
    with pytest.raises(ValueError):
        load_config(bad)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"povm": {}, "ensemble": {}, "shots": 1})
    # shots is read only where shots are drawn: simulate_shots refuses 0, and an absent value is None
    assert ExperimentConfig.from_dict({"povm": {}, "ensemble": {}, "shots": 0, "seed": 0}).shots == 0
    assert ExperimentConfig.from_dict({"povm": {}, "ensemble": {}, "seed": 0}).shots is None


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


def test_reconstruct_stdout_is_the_report_file(tmp_path, capsys):
    path = write_config(tmp_path)
    capsys.readouterr()
    for extra in ([], ["--from-counts", str(tmp_path / "run" / "counts.csv"), "--out", str(tmp_path / "ingest")]):
        assert cli.main(["reconstruct", "--config", str(path), *extra]) == 0
        out_dir = Path(extra[-1]) if extra else tmp_path / "run"
        assert capsys.readouterr().out.encode() == (out_dir / "report.json").read_bytes()


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


def test_from_counts_parses_the_sidecar_once(tmp_path, monkeypatch):
    # the sidecar checked before the CSV is read is the one load_counts uses; the files are
    # byte for byte those of a run in which load_counts reads the sidecar again itself
    path = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    counts = tmp_path / "run" / "counts.csv"
    parsed, load_counts_meta, load_counts = [], tomography.load_counts_meta, tomography.load_counts

    def counting_meta(counts_path):
        parsed.append(counts_path)
        return load_counts_meta(counts_path)

    monkeypatch.setattr(tomography, "load_counts_meta", counting_meta)
    monkeypatch.setattr(cli, "load_counts_meta", counting_meta)
    argv = ["reconstruct", "--config", str(path), "--from-counts", str(counts), "--out"]
    assert cli.main([*argv, str(tmp_path / "once")]) == 0
    assert len(parsed) == 1
    monkeypatch.setattr(cli, "load_counts", lambda counts_path, meta=None: load_counts(counts_path))
    assert cli.main([*argv, str(tmp_path / "twice")]) == 0
    assert len(parsed) == 3
    for name in ("estimated_povm.json", "report.json"):
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "twice" / name).read_bytes()


def _assert_rejected_before_work(code, capsys, out_dir):
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ValueError"
    assert not (out_dir / "estimated_povm.json").exists()
    return record["error"]["message"]


def test_from_counts_requires_sidecar_hash(tmp_path, capsys):
    # an absent hash is refused as absent; a present hash must be a string and a present spec a JSON object
    path = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    counts = tmp_path / "run" / "counts.csv"
    sidecar = counts.parent / "counts.csv.meta.json"
    meta = json.loads(sidecar.read_text())
    absent = {key: value for key, value in meta.items() if key not in ("ensemble_spec", "ensemble_spec_sha256")}
    cases = [
        (absent, "counts sidecar has no ensemble_spec_sha256"),
        ({**meta, "ensemble_spec_sha256": 123}, "ensemble_spec_sha256 must be a string, got 123"),
        ({**meta, "ensemble_spec_sha256": None}, "ensemble_spec_sha256 must be a string, got None"),
        ({**meta, "ensemble_spec": 5}, "ensemble_spec must be a JSON object, got 5"),
        ({**meta, "ensemble_spec": None}, "ensemble_spec must be a JSON object, got None"),
        ({**absent, "ensemble_spec": 5}, "ensemble_spec must be a JSON object, got 5"),
    ]
    out = tmp_path / "ingest"
    for doc, message in cases:
        sidecar.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["reconstruct", "--config", str(path), "--from-counts", str(counts), "--out", str(out)])
        assert message in _assert_rejected_before_work(code, capsys, out)
        assert not out.exists()


def test_from_counts_rejects_a_sidecar_shape_before_allocating_the_table(tmp_path, capsys):
    # the sidecar claims 4 * 10^6 states for the 6-state ensemble; its rows are valid, so only
    # the sidecar check stops a dense (4 * 10^6, 2) table, 64 MB, from being built
    path = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    counts = tmp_path / "run" / "counts.csv"
    sidecar = counts.parent / "counts.csv.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n_states": 4_000_000}))
    out = tmp_path / "ingest"
    argv = ["reconstruct", "--config", str(path), "--from-counts", str(counts), "--out", str(out)]
    assert cli.main(argv) == 1  # first-call imports and caches stay out of the peak
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "4000000 states" in _assert_rejected_before_work(code, capsys, out)
    assert peak < 2**20


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


def test_scaling_rejects_a_one_outcome_target_before_work(tmp_path, capsys, monkeypatch):
    # the one-outcome POVM {I} is estimated exactly at every N: its errors are 0 and have no log-log slope
    path = write_config(tmp_path, povm={"kind": "computational", "dim": 1},
                        ensemble={"kind": "explicit", "states": [[[1, 0]]]})
    simulated = []
    monkeypatch.setattr(cli, "simulate_shots", lambda *args: simulated.append(args))
    out = tmp_path / "scal"
    code = cli.main(["scaling", "--config", str(path), "--n-list", "10,20,40", "--trials", "5", "--out", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ValueError" and ">= 2 outcomes" in record["error"]["message"]
    assert not out.exists()
    assert simulated == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_written_documents_hold_no_nan_or_infinity(tmp_path, value):
    # NaN and Infinity are not JSON: the writer of every JSON document rejects them before writing
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump({"fit": {"slope": value}}, path)
    assert not path.exists()


def test_reconstruct_reports_sample_sizes_beyond_the_float_range(tmp_path, capsys):
    # at L = 1100 the op bounds' 2**(L + 1) d / delta leaves the float range; the bound does not
    path = write_config(tmp_path, povm={"kind": "random", "dim": 2, "outcomes": 1100, "seed": 3}, shots=100000)
    assert cli.main(["reconstruct", "--config", str(path)]) == 0
    panel = json.loads((tmp_path / "run" / "report.json").read_text())["sample_size"]
    assert panel["global_op"] == tomography.sample_size(2, 1100, 0.25, 0.05) > 10**6
    for flags in (["--outcomes", "1020", "--epsilon", "0.1"], ["--outcomes", "4", "--epsilon", "1e-170"]):
        capsys.readouterr()
        assert cli.main(["bounds", "--dim", "2", *flags, "--delta", "0.1", "--n-qubits", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["local_op"] > 10**6


def test_scaling_reports_a_projection_at_its_cap(tmp_path, capsys, monkeypatch):
    # every trial of the stack needs more than 2 Newton steps, so the stacked
    # projection raises its cap error before any file is written
    path = write_config(tmp_path, povm={"kind": "random", "dim": 3, "outcomes": 12, "seed": 2},
                        ensemble={"kind": "mub", "dim": 3})
    monkeypatch.setattr(tomography, "MAX_NEWTON_STEPS", 2)
    out = tmp_path / "scal"
    argv = ["scaling", "--config", str(path), "--n-list", "1000,4000,16000", "--trials", "5", "--out", str(out)]
    assert cli.main(argv) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "RuntimeError"
    assert re.match(r"projection hit MAX_NEWTON_STEPS = 2 with residual .* last step", record["error"]["message"])
    assert not (out / "scaling.csv").exists() and not (out / "scaling_report.json").exists()


@pytest.mark.parametrize("metric", ["frobenius", "dav"])
@pytest.mark.parametrize("target", [
    {"povm": {"kind": "random", "dim": 3, "outcomes": 12, "seed": 4}, "ensemble": {"kind": "mub", "dim": 3}},
    {"povm": {"kind": "computational", "dim": 7}, "ensemble": {"kind": "mub", "dim": 7}},
])
def test_stacked_scaling_equals_one_trial_per_stack(tmp_path, monkeypatch, metric, target):
    # scaling projects its trials as stacks; with one trial per stack every
    # output is the same, byte for byte
    path = write_config(tmp_path, seed=9, projection={"metric": metric}, **target)
    calls, project = [], cli.project_onto_povms
    monkeypatch.setattr(cli, "project_onto_povms", lambda raws, *args: calls.append(len(raws)) or project(raws, *args))
    outputs = {}
    for name, elements in (("stacked", cli.SCALING_STACK_ELEMENTS), ("one", 1)):
        monkeypatch.setattr(cli, "SCALING_STACK_ELEMENTS", elements)
        out = tmp_path / name
        argv = ["scaling", "--config", str(path), "--n-list", "500,2000,8000", "--trials", "5", "--out", str(out)]
        assert cli.main(argv) == 0
        outputs[name] = (out / "scaling.csv").read_bytes(), (out / "scaling_report.json").read_bytes()
    assert calls == [15] + [1] * 15
    assert outputs["stacked"] == outputs["one"]


def test_scaling_stacks_are_bounded_by_count_cells(tmp_path, monkeypatch):
    # Pauli-6 n = 2 with L = 4: a trial holds 4 x 16 = 64 raw entries and 36 x 4 = 144 count cells
    target = {"povm": {"kind": "computational", "dim": 4}, "ensemble": {"kind": "pauli6_product", "n_qubits": 2}}
    config = load_config(write_config(tmp_path, **target))
    calls, project = [], cli.project_onto_povms
    monkeypatch.setattr(cli, "project_onto_povms", lambda raws, *args: calls.append(len(raws)) or project(raws, *args))
    monkeypatch.setattr(cli, "SCALING_STACK_ELEMENTS", 600)
    run_scaling(config, [500, 2000, 8000], 5)
    assert calls == [4, 4, 4, 3]


def test_seed_and_shot_overrides(tmp_path):
    path = write_config(tmp_path)
    config = load_config(path, {"seed": 9, "shots": 123})
    assert config.seed == 9 and config.shots == 123
    out = tmp_path / "elsewhere"
    config = load_config(path, {"metric": "dav", "out": out, "seed": None})
    assert config.metric == "dav"
    assert config.out_dir == str(out) and config.seed == 5


@pytest.mark.parametrize(
    "argv, config_values, message",
    [
        (["reconstruct", "--shots", "0"], {}, "n_shots must be >= 1"),
        (["reconstruct", "--seed", "-1"], {}, "seed must be >= 0"),
        (["simulate"], {"shots": ABSENT}, "config is missing required key 'shots'"),
        (["reconstruct"], {"seed": -1}, "seed must be >= 0"),
        (["reconstruct"], {"shots": 2.7}, "shots must be an integer, got 2.7"),
        (["reconstruct"], {"seed": True}, "seed must be an integer, got True"),
        (["reconstruct"], {"projection": {"max_iterations": 2.5}}, "unknown projection keys: ['max_iterations']"),
        (["reconstruct"], {"projection": {"tol_feasibility": "1e-9"}}, "unknown projection keys: ['tol_feasibility']"),
        (["reconstruct"], {"povm": {"kind": "computational", "dim": 2.7}}, "dim must be an integer, got 2.7"),
        (["reconstruct"], {"povm": {"kind": "computational", "dim": True}}, "dim must be an integer, got True"),
        (["reconstruct"], {"povm": {"kind": "computational"}}, "povm spec is missing required key 'dim'"),
        (["reconstruct"], {"ensemble": {"kind": "mub", "dim": "3"}}, "dim must be an integer, got '3'"),
        (
            ["reconstruct"],
            {"povm": {"kind": "depolarized", "base": {"kind": "computational", "dim": 2}, "p": "0.1"}},
            "p must be a number, got '0.1'",
        ),
        (["reconstruct"], {"epsilon": float("inf")}, "epsilon must be finite, got inf"),
        (
            ["reconstruct"],
            {"projection": {"metric": "dav", "tol_feasibility": 1e-9, "tol_step": 1e-10, "max_iterations": 10000}},
            "unknown projection keys: ['max_iterations', 'tol_feasibility', 'tol_step']",
        ),
        (["reconstruct"], {"projection": 5}, "projection must be a JSON object, got 5"),
        (["reconstruct"], {"outputs": "dir"}, "outputs must be a JSON object, got 'dir'"),
        (["reconstruct"], [1, 2], "config must be a JSON object, got [1, 2]"),
        (["reconstruct", "--metric", "dav"], {"projection": 5}, "projection must be a JSON object, got 5"),
        (["reconstruct", "--seed", "3"], [1, 2], "config must be a JSON object, got [1, 2]"),
        (
            ["reconstruct"],
            {"povm": {"kind": "rotated", "unitary": [[["1", "0"], [0, 0]], [[0, 0], [1, 0]]]}},
            "unitary must be an array of [re, im] pairs of numbers",
        ),
        (
            ["reconstruct"],
            {"povm": {"kind": "rotated", "unitary": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}},
            "unitary must be an array of [re, im] pairs of numbers",
        ),
        (
            ["reconstruct"],
            {"povm": {"kind": "packing_av", "unitaries": [[[[1, None], [0, 0]], [[0, 0], [1, 0]]]], "epsilon": 0.1}},
            "unitaries must be an array of [re, im] pairs of numbers",
        ),
        (
            ["reconstruct"],
            {"ensemble": {"kind": "explicit", "states": [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]}},
            "states must be an array of [re, im] pairs of numbers",
        ),
        (["reconstruct"], {"epsilon": 10**400}, "epsilon lies beyond the float range"),
        (["reconstruct"], {"seed": 10**400}, "seed lies outside the int64 range"),
        (["reconstruct"], {"shots": 2**63}, "shots lies outside the int64 range"),
        (["reconstruct"], {"povm": {"kind": "computational", "dim": 1e300}}, "dim lies outside the int64 range"),
        (
            ["reconstruct"],
            {"povm": {"kind": "rotated", "unitary": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}},
            "unitary has an entry beyond the float range",
        ),
        (["reconstruct"], {"projection": {"metric": "trace"}}, "metric must be one of ('frobenius', 'dav')"),
        (["reconstruct"], {"projection": {"tol_feasibility": 0}}, "unknown projection keys: ['tol_feasibility']"),
        (["reconstruct"], {"projection": {"tol_step": -1e-10}}, "unknown projection keys: ['tol_step']"),
        (["reconstruct"], {"projection": {"max_iterations": 0}}, "unknown projection keys: ['max_iterations']"),
        (["simulate"], {"outputs": {"dir": None}}, "dir must be a string, got None"),
        (["reconstruct"], {"outputs": {"dir": 5}}, "dir must be a string, got 5"),
        (
            ["reconstruct"],
            {"ensemble": {"kind": "explicit", "states": [[1, 0], [0, 1]]}},
            "ensemble states must be a non-empty 2-d (m, q) array, got shape (2,)",
        ),
        (["reconstruct"], {"shots": ABSENT}, "config is missing required key 'shots'"),
        (["simulate", "--shots", "0"], {}, "n_shots must be >= 1"),
        (["simulate"], {"shots": 0}, "n_shots must be >= 1"),
        (["reconstruct"], {"shots": 0}, "n_shots must be >= 1"),
        (["simulate"], {"shots": 2.7}, "shots must be an integer, got 2.7"),
    ],
)
def test_bad_config_values_fail_before_any_output(tmp_path, capsys, argv, config_values, message):
    path = tmp_path / "config.json"
    if isinstance(config_values, dict):
        write_config(tmp_path, **config_values)
    else:  # a document that is not a JSON object
        path.write_text(json.dumps(config_values))
    code = cli.main(argv + ["--config", str(path)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("ensemble_spec, povm_specs", [
    ({"kind": "mub", "dim": 7}, [{"kind": "computational", "dim": 7}, {"kind": "random", "dim": 7, "outcomes": 9, "seed": 3}]),
    ({"kind": "pauli6_product", "n_qubits": 4},
     [{"kind": "random", "dim": 16, "outcomes": 3, "seed": 4}, {"kind": "computational", "dim": 16}]),
], ids=["mub-7", "pauli6-4"])
def test_reconstruct_reports_the_ensembles_bernstein_block_for_every_target(tmp_path, ensemble_spec, povm_specs):
    # the grouping of every outcome is F = I, so the block is the probe ensemble's own, to the bit
    blocks = []
    for k, povm_spec in enumerate(povm_specs):
        out = tmp_path / f"run{k}"
        path = write_config(tmp_path, povm=povm_spec, ensemble=ensemble_spec, shots=2000, outputs={"dir": str(out)})
        assert cli.main(["reconstruct", "--config", str(path)]) == 0
        blocks.append(json.dumps(json.loads((out / "report.json").read_text())["bernstein"], sort_keys=True))
    assert blocks[0] == blocks[1]
    ensemble = frames.build_ensemble(ensemble_spec)
    assert blocks[0] == json.dumps(vars(tomography.bernstein_diagnostics(ensemble)), sort_keys=True)


def test_scaling_requires_enough_points(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path))
    with pytest.raises(ValueError):
        run_scaling(config, [1024], 5)
    with pytest.raises(ValueError):
        run_scaling(config, [256, 512, 1024], 2)

    def no_draw(*args):
        raise AssertionError("a shot count outside [1, 2**63) reached simulate_shots")

    # every shot count is an int64 >= 1, refused by name before any trial is drawn
    monkeypatch.setattr(cli, "simulate_shots", no_draw)
    for n_list, message in (([256, 512, 2**63], "n_list lies outside the int64 range"),
                            ([0, 512, 1024], r"n_list entries must be >= 1, got \[0, 512, 1024\]")):
        with pytest.raises(ValueError, match=message):
            run_scaling(config, n_list, 5)


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
    assert lines[0] == "N,trial,d_op,d_av"
    assert len(lines) == 1 + 3 * 5
    fit = json.loads((out / "scaling_report.json").read_text())["fit"]
    assert fit["slope_d_op"] < 0  # error decreases with shots
    medians = json.loads((out / "scaling_report.json").read_text())["medians"]
    assert medians["d_op"][-1] < medians["d_op"][0]


def test_scaling_reads_no_shots(tmp_path, capsys):
    # the shot counts come from --n-list: the config's shots may be absent or anything, and there is no --shots
    argv = ["scaling", "--n-list", "64,256,1024", "--trials", "5", "--config"]
    outputs = []
    for shots in (1000, ABSENT, 0, 10**9):
        path = write_config(tmp_path, shots=shots, outputs={"dir": str(tmp_path / f"scal{len(outputs)}")})
        assert cli.main([*argv, str(path)]) == 0
        out = tmp_path / f"scal{len(outputs)}"
        files = [(out / name).read_bytes() for name in ("scaling.csv", "scaling_report.json")]
        outputs.append((capsys.readouterr().out, *files))
    assert outputs[1:] == outputs[:1] * 3
    with pytest.raises(SystemExit) as usage:
        cli.main([*argv, str(path), "--shots", "5"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --shots 5" in capsys.readouterr().err


def test_from_counts_reads_no_shots(tmp_path):
    # ingested counts bring their own shot total: the config's shots may be absent or 0
    path = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    counts = tmp_path / "run" / "counts.csv"
    written = []
    for shots in (4000, ABSENT, 0):
        path = write_config(tmp_path, shots=shots)
        out = tmp_path / f"ingest{len(written)}"
        assert cli.main(["reconstruct", "--config", str(path), "--from-counts", str(counts), "--out", str(out)]) == 0
        written.append([(out / name).read_bytes() for name in ("estimated_povm.json", "report.json")])
        assert sorted(p.name for p in out.iterdir()) == ["estimated_povm.json", "report.json"]
    assert written[1:] == written[:1] * 2


@pytest.mark.parametrize("trials", [5, 6])
def test_scaling_medians_are_np_median_bit_for_bit(tmp_path, trials):
    # run_scaling takes its medians from one sort; odd and even trial counts must give np.median's bits
    config = load_config(write_config(tmp_path, seed=11))
    n_list = [64, 256, 1024]
    rows, report = run_scaling(config, n_list, trials)
    errors = np.array([row[2:4] for row in rows]).reshape(len(n_list), trials, 2)
    expected = np.median(errors, axis=1)
    for column, name in enumerate(("d_op", "d_av")):
        assert report["medians"][name] == expected[:, column].tolist()


def test_bounds_command(capsys):
    code = cli.main(
        ["bounds", "--dim", "2", "--outcomes", "2", "--epsilon", "0.1", "--delta", "0.01", "--n-qubits", "1"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["global_op"] == 71221
    assert doc["global_av_theorem"] == 142441
    assert doc["local_op"] > 0
    for flags, message in [
        (["--dim", "2", "--outcomes", "2", "--epsilon", "inf"], "epsilon must be finite, got inf"),
        (["--dim", "0", "--outcomes", "2", "--epsilon", "0.1"], "d must be >= 1, got 0"),
        (["--dim", "-2", "--outcomes", "2", "--epsilon", "0.1"], "d must be >= 1, got -2"),
        (["--dim", "2", "--outcomes", "0", "--epsilon", "0.1"], "n_outcomes must be >= 1, got 0"),
    ]:
        assert cli.main(["bounds", *flags, "--delta", "0.01"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == {"type": "ValueError", "message": message}


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


def _edited_counts(tmp_path, edit):
    """A simulated counts file whose sidecar ``edit`` changed; returns its path."""
    path = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
    sidecar = tmp_path / "sim" / "counts.csv.meta.json"
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))
    return tmp_path / "sim" / "counts.csv"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: meta.pop("n_outcomes"), "counts sidecar is missing required key 'n_outcomes'"),
        (lambda meta: meta.update(n_states=None), "n_states must be an integer, got None"),
        (lambda meta: meta.update(n_shots=4000.5), "n_shots must be an integer, got 4000.5"),
        (lambda meta: meta.update(n_states=0), "n_states must be >= 1, got 0"),
        (lambda meta: meta.update(note="x"), "unknown counts sidecar keys: ['note']"),
        # the hash matches, but the Pauli-6 n = 1 ensemble of the config has 6 states
        (lambda meta: meta.update(n_states=7), "counts table has 7 states, ensemble has 6"),
    ],
)
def test_bad_counts_sidecar_fails_before_any_output(tmp_path, capsys, edit, message):
    counts = _edited_counts(tmp_path, edit)
    capsys.readouterr()
    code = cli.main(["reconstruct", "--config", str(tmp_path / "config.json"), "--from-counts", str(counts)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "run").exists()


_NOT_PAIRS = "elements must be an array of [re, im] pairs of numbers"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("dim"), "POVM file is missing required key 'dim'"),
        (lambda doc: doc.update(outcomes=2.5), "outcomes must be an integer, got 2.5"),
        (lambda doc: doc.update(note=1), "unknown POVM file keys: ['note']"),
        (lambda doc: doc["elements"][0][0].__setitem__(0, ["1.0", 0]), _NOT_PAIRS),
        (lambda doc: doc["elements"][1][1].__setitem__(1, [0, False]), _NOT_PAIRS),
    ],
)
def test_bad_povm_file_fails_before_any_output(tmp_path, capsys, edit, message):
    path = tmp_path / "a.json"
    povm.save_povm(povm.computational_povm(2), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    for argv in (["validate", "--povm", str(path)],
                 ["distance", "--povm-a", str(path), "--povm-b", str(path), "--out", str(tmp_path / "run")]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "run").exists()


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

    # effects are not taken at their Hermitian part: a non-Hermitian E1 is an error, not "ok"
    e1 = np.array([[1, 0.1], [-0.1, 0]], dtype=complex)
    skew = tmp_path / "skew.json"
    povm.save_povm(np.array([e1, np.eye(2) - e1]), skew)
    assert cli.main(["validate", "--povm", str(skew)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)["error"]
    assert record["type"] == "ValueError" and "not Hermitian" in record["message"]
    with pytest.raises(ValueError, match="not Hermitian"):
        povm.load_povm(skew)

    for tol, message in (("-1", "tol must be >= 0, got -1.0"), ("nan", "tol must be finite, got nan")):
        assert cli.main(["validate", "--povm", str(good), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}


def test_packing_command(tmp_path, capsys):
    argv = ["packing", "--kind", "op", "--dim", "4", "--outcomes", "2", "--epsilon", "0.4", "--members", "4"]
    # no seed to check is an error, not a pass
    for seeds in ("0", "-1"):
        out = tmp_path / f"seeds{seeds}"
        assert cli.main(argv + ["--seeds", seeds, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error == {"type": "ValueError", "message": f"seeds must be >= 1, got {seeds}"}
        assert not out.exists()
    code = cli.main(argv + ["--seeds", "2", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "packing.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "kind,dim,outcomes,epsilon,members,seed,min_pairwise,threshold,ok"
    assert lines[3:] == [""]
    for seed, line in enumerate(lines[1:3]):
        fields = line.split(",")
        assert fields[:6] == ["op", "4", "2", "0.4", "4", str(seed)]
        assert fields[6] == repr(float(fields[6])) and float(fields[6]) >= 0.05
        assert fields[7:] == ["0.05", "1"]


def _shape(doc):
    """Each key of a JSON object, with the sorted keys of the objects it holds."""
    return {key: sorted(value) if isinstance(value, dict) else None for key, value in doc.items()}


_COUNTS_META = {"ensemble_spec": ["kind", "n_qubits"], "ensemble_spec_sha256": None, "n_outcomes": None,
                "n_shots": None, "n_states": None}
_POVM_FILE = {"dim": None, "elements": None, "outcomes": None}


# argv ({config}, {out}, {a} and {b} filled in), stdout (a list: compact JSON with keys in this order;
# a dict: sorted JSON indented by 2, of this shape) and each file written (a CSV's header line, or the
# shape of a JSON file)
_OUTPUT_FORMATS = [
    (["simulate", "--config", "{config}"], ["counts", "shots"],
     {"counts.csv": "state_index,outcome_index,count", "counts.csv.meta.json": _COUNTS_META}),
    (
        ["reconstruct", "--config", "{config}"],
        {"bernstein": ["k_bound", "k_emp", "sigma2_bound", "sigma2_emp"],
         "distances": ["d_av", "d_op", "d_op_kind", "frob_sum", "spec_sum"],
         "ensemble_spec_sha256": None,
         "sample_size": ["delta", "epsilon", "global_av_proof", "global_av_theorem", "global_op",
                         "local_av", "local_op"],
         "seed": None, "shots": None,
         "solver": ["converged", "duality_gap", "final_residual", "iterations", "metric"]},
        {"counts.csv": "state_index,outcome_index,count", "counts.csv.meta.json": _COUNTS_META,
         "estimated_povm.json": _POVM_FILE, "report.json": "stdout"},
    ),
    (
        ["distance", "--povm-a", "{a}", "--povm-b", "{b}", "--out", "{out}"],
        {"d_av": None, "d_op": ["kind", "value", "witness"], "frob_sum": None, "spec_sum": None},
        {"distance.json": "stdout"},
    ),
    (
        ["scaling", "--config", "{config}", "--n-list", "64,256,1024", "--trials", "5"],
        {"medians": ["d_av", "d_op", "n_list"], "slope_d_av": None, "slope_d_op": None},
        {"scaling.csv": "N,trial,d_op,d_av",
         "scaling_report.json": {"fit": ["intercept_d_av", "intercept_d_op", "slope_d_av", "slope_d_op"],
                                 "medians": ["d_av", "d_op", "n_list"]}},
    ),
    (
        ["bounds", "--dim", "2", "--outcomes", "2", "--epsilon", "0.1", "--delta", "0.01"],
        {key: None for key in ("delta", "dim", "epsilon", "global_av_proof", "global_av_theorem",
                               "global_op", "outcomes")},
        {},
    ),
    (
        ["packing", "--kind", "av", "--dim", "2", "--outcomes", "2", "--epsilon", "0.3", "--members", "2",
         "--seeds", "2", "--out", "{out}"],
        ["ok_seeds", "total_seeds"],
        {"packing.csv": "kind,dim,outcomes,epsilon,members,seed,min_pairwise,threshold,ok"},
    ),
    (["channel", "--ideal", "{a}", "--estimated", "{b}", "--out", "{out}"], ["dim", "basis_size"],
     {"channel.json": {"basis": None, "dim": None, "matrix": None}}),
    (["validate", "--povm", "{a}"], {"completeness_residual": None, "min_eigenvalue": None, "ok": None,
                                  "tol": None}, {}),
]


@pytest.mark.parametrize("argv, stdout, files", _OUTPUT_FORMATS, ids=[argv[0] for argv, _, _ in _OUTPUT_FORMATS])
def test_every_command_pins_its_output_format(tmp_path, capsys, argv, stdout, files):
    config = write_config(tmp_path, shots=300)
    povm.save_povm(povm.computational_povm(2), tmp_path / "a.json")
    povm.save_povm(povm.depolarized(povm.computational_povm(2), 0.2), tmp_path / "b.json")
    out = tmp_path / "run"  # the config's output directory
    paths = {"config": config, "out": out, "a": tmp_path / "a.json", "b": tmp_path / "b.json"}
    capsys.readouterr()
    assert cli.main([arg.format(**paths) for arg in argv]) in (0, 1)  # packing may miss its separation
    text = capsys.readouterr().out
    doc = json.loads(text)
    if isinstance(stdout, list):
        assert list(doc) == stdout and text == json.dumps(doc) + "\n"
    else:
        assert _shape(doc) == stdout and text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    written = sorted(str(path.relative_to(out)) for path in out.rglob("*")) if out.exists() else []
    assert written == sorted(files)
    for name, expected in files.items():
        content = (out / name).read_bytes().decode()
        if name.endswith(".csv"):
            assert content.startswith(expected + "\r\n") and content.endswith("\r\n")
            assert "\n" not in content.replace("\r\n", "")
        elif expected == "stdout":
            assert content == text
        else:
            file_doc = json.loads(content)
            assert _shape(file_doc) == expected
            assert content == json.dumps(file_doc, sort_keys=True, indent=2) + "\n"


# Runs each (name, argv) pair of the JSON list in argv[1] through cli.main and prints, as JSON, each
# name with its exit code, whether numpy.ma has been imported by then, and what it printed.
EVERY_COMMAND_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from povmtomo import cli

loaded = [["import", None, "numpy.ma" in sys.modules, ""]]
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    loaded.append([name, code, "numpy.ma" in sys.modules, stdout.getvalue()])
print(json.dumps(loaded))
"""


def _run_every_command(folder, **env) -> list:
    """Writes a config (output directory ``run``) and two POVM files into ``folder``, then runs every
    command path on them, with paths relative to ``folder``, through :data:`EVERY_COMMAND_IN_ONE_PROCESS`
    in a fresh interpreter started in ``folder`` with ``env`` added to its environment; returns the
    printed list."""
    write_config(folder, shots=300, outputs={"dir": "run"})
    povm.save_povm(povm.computational_povm(2), folder / "a.json")
    povm.save_povm(povm.depolarized(povm.computational_povm(2), 0.2), folder / "b.json")
    commands = [
        ("simulate", ["simulate", "--config", "config.json"]),
        ("reconstruct", ["reconstruct", "--config", "config.json"]),
        ("reconstruct --from-counts", ["reconstruct", "--config", "config.json", "--from-counts", "run/counts.csv",
                                       "--out", "ingest"]),
        ("scaling", ["scaling", "--config", "config.json", "--n-list", "64,256,1024", "--trials", "5"]),
        ("distance", ["distance", "--povm-a", "a.json", "--povm-b", "b.json"]),
        ("bounds", ["bounds", "--dim", "2", "--outcomes", "2", "--epsilon", "0.1", "--delta", "0.01"]),
        ("packing", ["packing", "--kind", "av", "--dim", "2", "--outcomes", "2", "--epsilon", "0.3",
                     "--members", "2", "--seeds", "1", "--out", "packing"]),
        ("channel", ["channel", "--ideal", "a.json", "--estimated", "b.json", "--out", "channel"]),
        ("validate", ["validate", "--povm", "a.json"]),
    ]
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", EVERY_COMMAND_IN_ONE_PROCESS, json.dumps(commands)],
                            cwd=folder, env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert [name for name, *_ in loaded] == ["import", *(name for name, _ in commands)]
    codes = {name: code for name, code, *_ in loaded[1:]}
    assert codes.pop("packing") in (0, 1)  # packing may miss its separation
    assert set(codes.values()) == {0}, result.stderr
    return loaded


def test_no_command_imports_numpy_ma(tmp_path):
    # np.median's NaN check imports numpy.ma, which raises a fresh process's peak memory; no
    # command needs masked arrays, so a fresh interpreter must never load them
    loaded = _run_every_command(tmp_path)
    assert [name for name, _, ma, _ in loaded if ma] == []


def test_every_command_reruns_byte_for_byte(tmp_path):
    # no output depends on a clock, the hash seed or the working directory: two fresh interpreters, with
    # PYTHONHASHSEED 0 and 1, each running every command path from its own directory with the same
    # relative paths, print the same text, exit with the same codes and write the same bytes
    runs = []
    for name, hash_seed in (("first", "0"), ("second", "1")):
        folder = tmp_path / name
        folder.mkdir()
        loaded = _run_every_command(folder, PYTHONHASHSEED=hash_seed)
        files = {str(path.relative_to(folder)): path.read_bytes() for path in folder.rglob("*") if path.is_file()}
        runs.append((loaded, files))
    written = {"run/counts.csv", "run/estimated_povm.json", "run/report.json", "run/scaling.csv",
               "run/scaling_report.json", "ingest/report.json", "packing/packing.csv", "channel/channel.json"}
    assert written <= set(runs[0][1])
    assert runs[0] == runs[1]


def test_reconstruct_iteration_cap_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tomography, "MAX_NEWTON_STEPS", 1)
    path = write_config(tmp_path)
    config = load_config(path)
    # 100 shots on each Pauli-6 state: +1 eigenstates of Z, X and Y give outcome 0, -1 eigenstates outcome 1
    counts = tmp_path / "counts.csv"
    counts.write_text("state_index,outcome_index,count\n" + "".join(f"{i},{i % 2},100\n" for i in range(6)))
    meta = {"n_states": 6, "n_outcomes": 2, "n_shots": 600, "ensemble_spec": config.ensemble_spec,
            "ensemble_spec_sha256": tomography.spec_hash(config.ensemble_spec)}
    (tmp_path / "counts.csv.meta.json").write_text(json.dumps(meta))
    # premise: equal per-state totals make the raw effects sum to I, so the projection starts at
    # the raw LSE itself; one of its effects is not PSD, so one Newton step cannot stop there
    raw = tomography.lse_estimate(tomography.load_counts(counts)[0], config.build()[1]).elements
    assert np.allclose(raw.sum(axis=0), np.eye(2), rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(raw).min() < -0.1
    code = cli.main(["reconstruct", "--config", str(path), "--from-counts", str(counts)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "RuntimeError"
    assert "MAX_NEWTON_STEPS = 1" in record["error"]["message"]
    assert not (tmp_path / "run" / "estimated_povm.json").exists()


@pytest.mark.parametrize("bad", [{"delta": 2}, {"delta": 0}, {"epsilon": 0}, {"epsilon": -0.1}])
def test_reconstruct_rejects_bad_epsilon_delta_before_writing(tmp_path, capsys, bad):
    path = write_config(tmp_path, **bad)
    code = cli.main(["reconstruct", "--config", str(path)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ValueError"
    assert next(iter(bad)) in record["error"]["message"]
    assert not any((tmp_path / "run").glob("*"))


def test_cli_error_record(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = cli.main(["reconstruct", "--config", str(missing)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert "error" in record and record["error"]["type"]


def test_readme_spec_lists_and_example_match_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = " ".join(readme.split())  # the lists wrap across lines
    for label, kinds in (("POVM specs:", povm.KINDS), ("Ensemble specs:", frames.KINDS)):
        listed = prose.split(label, 1)[1].split(";", 1)[0]
        documented = {
            kind: [key for key in keys.split(", ") if key]
            for kind, keys in re.findall(r"`(\w+)(?:\(([\w, ]*)\))?`", listed)
        }
        assert documented == {kind: list(parsers) for kind, (_, parsers) in kinds.items()}, label
    # the config keys before "spec keys" in each value-type list are exactly those read by that parser
    for label, parser in (("Integer values (", integer), ("Real values (", real)):
        listed = prose.split(label, 1)[1].split("spec keys", 1)[0]
        assert set(re.findall(r"`(\w+)`", listed)) == {key for key, parse in cli._CONFIG_SCHEMA.items()
                                                       if parse is parser}, label
    defaults = prose.split(" have defaults", 1)[0].rsplit("Only ", 1)[1]
    named = re.findall(r"`([\w.]+)` \(`([^`]*)`", defaults)  # `key` (`JSON value`), a nested key dotted
    assert {key.split(".")[0]: json.loads(value) for key, value in named} == cli._CONFIG_DEFAULTS
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    config = ExperimentConfig.from_dict(json.loads(example))
    assert config.shots == 8000 and config.out_dir == "runs/demo"
    target, ensemble = config.build()
    assert (target.outcomes, ensemble.size) == (2, 6)


def test_readme_command_synopsis_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {
        line.split()[1]: set(re.findall(r"--[\w-]+", line)) for line in re.findall(r"^povmtomo \w+ .*$", readme, re.M)
    }
    commands = next(action.choices for action in cli.build_parser()._actions if action.dest == "command")
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert documented == parsed
