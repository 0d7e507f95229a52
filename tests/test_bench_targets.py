"""The benchmark wraps pipeline functions by (module, attribute) name, imports
package names inside its setup and check paths, and reads solver fields from
their results and from report.json."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from povmtomo import cli
from povmtomo.tomography import project_onto_povms

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
RUN = SPANS.with_name("run.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve(spans):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, f"bench/spans.py wraps attributes that do not exist: {missing}"


def test_benchmark_imports_resolve():
    # run.py imports inside the functions that build inputs and check outputs,
    # so a removed name would only fail once the benchmark runs
    imported, missing = [], []
    for node in ast.walk(ast.parse(RUN.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "povmtomo":
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                imported.append(name)
                if not hasattr(module, alias.name) and importlib.util.find_spec(name) is None:
                    missing.append(name)
    assert "povmtomo.frames.build_ensemble" in imported
    assert not missing, f"bench/run.py imports names the package does not define: {missing}"


def test_solver_fields_the_benchmark_reads(spans, tmp_path):
    # spans._solver reads diagnostics.iterations and diagnostics.converged from
    # project_onto_povms, for one estimate and for a stack; run.py reads report["solver"]["converged"]
    raw = np.array([np.diag([0.7, -0.1]), np.diag([0.4, 1.2])])
    fields = spans._solver((raw,), {}, project_onto_povms(raw))
    assert fields["converged"] == 1 and fields["iterations"] >= 1
    raws = [raw, raw[::-1], np.array([np.eye(2), np.zeros((2, 2))])]
    fields = spans._solver((raws,), {}, project_onto_povms(raws))
    assert fields["converged"] == 1 and isinstance(fields["iterations"], int) and fields["iterations"] >= 1
    config = {
        "povm": {"kind": "computational", "dim": 2},
        "ensemble": {"kind": "pauli6_product", "n_qubits": 1},
        "shots": 500,
        "seed": 3,
        "projection": {"metric": "dav"},
        "outputs": {"dir": str(tmp_path / "op")},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["reconstruct", "--config", str(tmp_path / "config.json")]) == 0
    report = json.loads((tmp_path / "op" / "report.json").read_text())
    assert report["solver"]["converged"] is True


def test_traced_scaling_op_counts_its_projections(spans, tmp_path):
    # run.py divides the converged count of the project_onto_povms layer by its
    # calls, so scaling must project through cli.project_onto_povms
    config = {
        "povm": {"kind": "random", "dim": 3, "outcomes": 12, "seed": 1},
        "ensemble": {"kind": "mub", "dim": 3},
        "shots": 1000,
        "seed": 2,
        "outputs": {"dir": str(tmp_path / "op")},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["scaling", "--config", str(tmp_path / "config.json"), "--n-list", "1000,4000,16000", "--trials", "5"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.run_op(0, lambda: cli.main(argv)) == 0
    finally:
        tracer.uninstall()
    layer = tracer.breakdown()["tomography.project_onto_povms"]
    assert layer["calls"] >= 1 and layer["converged"] == layer["calls"]
    assert layer["iterations"] >= layer["calls"]
