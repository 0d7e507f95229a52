"""Command-line pipeline: simulate, reconstruct, compare, and calibrate.

Every command reads a JSON config (strict schema, unknown keys rejected) or
explicit flags, and writes deterministic artifacts: POVM files, counts CSVs
with metadata sidecars, result CSVs, and report JSONs. Identical configs and
seeds produce byte-identical reconstruction outputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import distances, packing_lab, povm as povm_mod
from ._schema import dump, integer, read, real
from .frames import build_ensemble
from .povm import build_povm, load_povm, measurement_channel, pauli_labels, save_povm, validate
from .tomography import (
    PROJECTION_METRICS,
    PROJECTION_SCHEMA,
    bernstein_diagnostics,
    lse_estimate,
    load_counts,
    project_onto_povms,
    sample_size,
    save_counts,
    simulate_shots,
    spec_hash,
)

# command-line flag -> (config section, key); None is the top level of the document
OVERRIDES = {
    "seed": (None, "seed"),
    "shots": (None, "shots"),
    "out": ("outputs", "dir"),
    "metric": ("projection", "metric"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    povm_spec: dict
    ensemble_spec: dict
    shots: int
    seed: int
    metric: str
    epsilon: float
    delta: float
    out_dir: str

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        config = cls(*read("config", doc, _CONFIG_SCHEMA, _CONFIG_DEFAULTS).values())
        if config.shots < 1:
            raise ValueError("shots must be >= 1")
        if config.seed < 0:
            raise ValueError("seed must be >= 0")
        if not config.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < config.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        return config

    def build(self):
        target = build_povm(self.povm_spec)
        ensemble = build_ensemble(self.ensemble_spec)
        if target.dim != ensemble.dim:
            raise ValueError(
                f"POVM dimension {target.dim} does not match ensemble dimension {ensemble.dim}"
            )
        return target, ensemble


def _path(name: str, value) -> str:
    """``value`` as a string; ``load_config``'s overrides may also pass a ``PathLike``."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return str(value)


# Parser of each config key, in the order of the ExperimentConfig fields they fill.
_CONFIG_SCHEMA = {
    "povm": lambda key, spec: spec,
    "ensemble": lambda key, spec: spec,
    "shots": integer,
    "seed": integer,
    "projection": lambda key, doc: read(key, doc, PROJECTION_SCHEMA, {"metric": "frobenius"})["metric"],
    "epsilon": real,
    "delta": real,
    "outputs": lambda key, doc: read(key, doc, {"dir": _path}, {"dir": "."})["dir"],
}
_CONFIG_DEFAULTS = {"projection": "frobenius", "epsilon": 0.1, "delta": 0.05, "outputs": "."}


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config and validate it once, after the non-None
    ``overrides`` (keys of :data:`OVERRIDES`) have replaced its values."""
    with open(path) as fh:
        doc = json.load(fh)
    for flag, (section, key) in OVERRIDES.items():
        value = (overrides or {}).get(flag)
        if value is not None and isinstance(doc, dict):  # from_dict rejects what is not an object
            part = doc if section is None else doc.setdefault(section, {})
            if isinstance(part, dict):
                part[key] = value
    return ExperimentConfig.from_dict(doc)


def _output(out_dir, name: str) -> Path:
    """``out_dir / name``, with ``out_dir`` made if it is missing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_csv(path, header: list, rows) -> None:
    """A CSV file with CRLF line ends; floats are written as their shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _sample_size_panel(d: int, n_outcomes: int, epsilon: float, delta: float, n_qubits) -> dict:
    panel = {
        "epsilon": epsilon,
        "delta": delta,
        "global_op": sample_size(d, n_outcomes, epsilon, delta, "global", "op"),
        "global_av_theorem": sample_size(d, n_outcomes, epsilon, delta, "global", "av", "theorem"),
        "global_av_proof": sample_size(d, n_outcomes, epsilon, delta, "global", "av", "proof"),
    }
    if n_qubits is not None:
        panel["local_op"] = sample_size(d, n_outcomes, epsilon, delta, "local", "op", n_qubits=n_qubits)
        panel["local_av"] = sample_size(d, n_outcomes, epsilon, delta, "local", "av", n_qubits=n_qubits)
    return panel


def _simulate_counts(config: ExperimentConfig, target, ensemble):
    """Draw the config's shots and write ``counts.csv`` under its output directory."""
    table = simulate_shots(target, ensemble, config.shots, config.seed)
    save_counts(table, _output(config.out_dir, "counts.csv"), ensemble_spec=config.ensemble_spec)
    return table


def run_reconstruction(config: ExperimentConfig, counts_path: str | None = None) -> dict:
    """Full pipeline: (simulate or ingest) -> least squares -> projection -> report.

    Writes ``estimated_povm.json`` and ``report.json`` (plus ``counts.csv``
    when simulating) under the config's output directory and returns the
    report dict. Ingested counts must carry the config's ensemble hash and
    match the ensemble and the target in shape; both are checked before any work.
    """
    target, ensemble = config.build()
    if counts_path is None:
        table = _simulate_counts(config, target, ensemble)
    else:
        table, meta = load_counts(counts_path)
        expected = spec_hash(config.ensemble_spec)
        recorded = meta["ensemble_spec_sha256"]
        if not isinstance(recorded, str):
            raise ValueError("counts sidecar has no ensemble_spec_sha256; cannot check the ensemble")
        if recorded != expected:
            raise ValueError(
                "counts file was produced for a different ensemble spec "
                f"(sidecar hash {recorded[:12]}..., config hash {expected[:12]}...)"
            )
        if table.n_states != ensemble.size:
            raise ValueError(
                f"counts table has {table.n_states} states, ensemble has {ensemble.size}"
            )
        if table.n_outcomes != target.outcomes:
            raise ValueError(
                f"counts table has {table.n_outcomes} outcomes, target POVM has {target.outcomes}"
            )

    raw = lse_estimate(table, ensemble)
    estimated, diagnostics = project_onto_povms(raw, config.metric)
    save_povm(estimated, _output(config.out_dir, "estimated_povm.json"))

    op = distances.d_op(target, estimated)
    report = {
        "shots": table.n_shots,
        "seed": config.seed,
        "ensemble_spec_sha256": spec_hash(config.ensemble_spec),
        "distances": {
            "d_op": op.value,
            "d_op_kind": op.kind,
            "d_av": distances.d_av(target, estimated).value,
            **vars(distances.upper_surrogates(target, estimated)),
        },
        "solver": {"metric": config.metric, **vars(diagnostics)},
        "bernstein": dict(vars(bernstein_diagnostics(target, ensemble, range(target.outcomes)))),
        "sample_size": _sample_size_panel(
            target.dim, target.outcomes, config.epsilon, config.delta, ensemble.n_qubits
        ),
    }
    dump(report, _output(config.out_dir, "report.json"))
    return report


#: Raw complex entries (trials x L x d^2) of one stacked projection in ``run_scaling``.
SCALING_STACK_ELEMENTS = 1 << 18


def run_scaling(config: ExperimentConfig, n_list, trials: int) -> tuple[list, dict]:
    """Repeat the pipeline over a shot ladder and fit log-log error slopes.

    Trial t at shot count N uses the derived stream (seed, index(N), t), so
    the study is reproducible and trials are independent. The trials run in
    consecutive stacks of at most :data:`SCALING_STACK_ELEMENTS` raw entries
    (at least one trial each): every trial of a stack is simulated on its
    own, then the stack is estimated by one ``lse_estimate`` call, projected
    by one ``project_onto_povms`` call and measured against the target by
    one ``d_op_exact`` and one ``d_av`` call. Stacking changes no estimate
    and no distance. Medians per N feed a least-squares line in
    log space; slopes near -1/2 reflect the shot-noise-limited regime.
    Returns the rows (N, trial, d_op, d_av, runtime_ms) of ``scaling.csv``
    and the ``scaling_report.json`` document. A row's ``runtime_ms`` is its
    trial's own simulate time plus an equal share of the stacked LSE,
    projection and distance calls it was part of.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or sorted(set(n_list)) != n_list:
        raise ValueError("need >= 3 strictly increasing shot counts")
    if trials < 5:
        raise ValueError("need >= 5 trials per shot count")
    target, ensemble = config.build()
    if target.outcomes > distances.MAX_EXACT_OUTCOMES:
        raise ValueError(
            f"scaling needs the exact d_op, which is capped at "
            f"{distances.MAX_EXACT_OUTCOMES} outcomes; the target has {target.outcomes}"
        )
    jobs = [(n_index, n_shots, trial) for n_index, n_shots in enumerate(n_list) for trial in range(trials)]
    per_stack = max(1, SCALING_STACK_ELEMENTS // (target.outcomes * target.dim**2))
    rows = []
    for first in range(0, len(jobs), per_stack):
        stack = jobs[first:first + per_stack]
        tables, seconds = [], []
        for n_index, n_shots, trial in stack:
            start = time.perf_counter()
            tables.append(simulate_shots(target, ensemble, n_shots, (config.seed, n_index, trial)))
            seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        estimates, _ = project_onto_povms(lse_estimate(tables, ensemble), config.metric)
        reports = zip(distances.d_op_exact(target, estimates), distances.d_av(target, estimates))
        share = (time.perf_counter() - start) / len(stack)
        for (_, n_shots, trial), (err_op, err_av), own in zip(stack, reports, seconds):
            rows.append((n_shots, trial, err_op.value, err_av.value, (own + share) * 1000))
    errors = np.array([row[2:4] for row in rows]).reshape(len(n_list), trials, 2)
    log_n = np.log(np.asarray(n_list, dtype=float))
    medians, fit = {"n_list": n_list}, {}
    for name, values in zip(("d_op", "d_av"), np.median(errors, axis=1).T):
        slope, intercept = np.polyfit(log_n, np.log(values), 1)
        medians[name] = values.tolist()
        fit |= {f"slope_{name}": float(slope), f"intercept_{name}": float(intercept)}
    return rows, {"medians": medians, "fit": fit}


def _cmd_simulate(args) -> int:
    config = load_config(args.config, vars(args))
    table = _simulate_counts(config, *config.build())
    print(json.dumps({"counts": str(Path(config.out_dir) / "counts.csv"), "shots": table.n_shots}))
    return 0


def _cmd_reconstruct(args) -> int:
    config = load_config(args.config, vars(args))
    sys.stdout.write(dump(run_reconstruction(config, counts_path=args.from_counts)))
    return 0


def _cmd_distance(args) -> int:
    first = load_povm(args.povm_a)
    second = load_povm(args.povm_b)
    op = distances.d_op(first, second)
    doc = {
        "d_op": {**vars(op), "witness": list(op.witness or ())},
        "d_av": distances.d_av(first, second).value,
        **vars(distances.upper_surrogates(first, second)),
    }
    sys.stdout.write(dump(doc))
    if args.out:
        dump(doc, _output(args.out, "distance.json"))
    return 0


def _cmd_scaling(args) -> int:
    config = load_config(args.config, vars(args))
    rows, report = run_scaling(config, [int(tok) for tok in args.n_list.split(",")], args.trials)
    _write_csv(_output(config.out_dir, "scaling.csv"), ["N", "trial", "d_op", "d_av", "runtime_ms"],
               ((*row[:4], f"{row[4]:.3f}") for row in rows))
    dump(report, _output(config.out_dir, "scaling_report.json"))
    fit = report["fit"]
    summary = {"slope_d_op": fit["slope_d_op"], "slope_d_av": fit["slope_d_av"], "medians": report["medians"]}
    sys.stdout.write(dump(summary))
    return 0


def _cmd_bounds(args) -> int:
    panel = _sample_size_panel(args.dim, args.outcomes, args.epsilon, args.delta, args.n_qubits)
    sys.stdout.write(dump({"dim": args.dim, "outcomes": args.outcomes, **panel}))
    return 0


def _cmd_packing(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {args.seeds}")
    header = ["kind", "dim", "outcomes", "epsilon", "members", "seed", "min_pairwise", "threshold", "ok"]
    rows = []
    for seed_offset in range(args.seeds):
        family = packing_lab.build_packing(
            args.kind, args.dim, args.outcomes, args.epsilon, args.members, (0, seed_offset)
        )
        report = packing_lab.verify_separation(family)
        fields = {**vars(args), **vars(report), "seed": seed_offset, "ok": int(report.ok)}
        rows.append([fields[key] for key in header])
    if args.out:
        _write_csv(_output(args.out, "packing.csv"), header, rows)
    n_ok = sum(row[-1] for row in rows)
    print(json.dumps({"ok_seeds": n_ok, "total_seeds": len(rows)}))
    return 0 if n_ok == len(rows) else 1


def _cmd_channel(args) -> int:
    ideal = load_povm(args.ideal)
    estimated = load_povm(args.estimated)
    matrix = measurement_channel(ideal, estimated)
    labels = pauli_labels(int(round(np.log2(ideal.dim))))
    doc = {"dim": ideal.dim, "basis": labels, "matrix": matrix.tolist()}
    if args.out:
        dump(doc, _output(args.out, "channel.json"))
    print(json.dumps({"dim": ideal.dim, "basis_size": len(labels)}))
    return 0


def _cmd_validate(args) -> int:
    report = validate(povm_mod.read_povm_file(args.povm), tol=args.tol)
    sys.stdout.write(dump({**vars(report), "tol": args.tol}))
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="povmtomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = command("simulate", _cmd_simulate, "sample shots and write a counts CSV")
    add_common(p)

    p = command("reconstruct", _cmd_reconstruct, "simulate or ingest counts, then reconstruct")
    add_common(p)
    p.add_argument("--from-counts", default=None, help="ingest an existing counts CSV")
    p.add_argument("--metric", choices=PROJECTION_METRICS, default=None)

    p = command("distance", _cmd_distance, "distances between two POVM files")
    p.add_argument("--povm-a", required=True)
    p.add_argument("--povm-b", required=True)
    p.add_argument("--out", default=None)

    p = command("scaling", _cmd_scaling, "error-vs-shots study with slope fit")
    add_common(p)
    p.add_argument("--n-list", required=True, help="comma-separated shot counts")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--metric", choices=PROJECTION_METRICS, default=None)

    p = command("bounds", _cmd_bounds, "evaluate the sample-size calculators")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--outcomes", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n-qubits", type=int, default=None)

    p = command("packing", _cmd_packing, "build packing families and verify separation")
    p.add_argument("--kind", choices=["op", "av"], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--outcomes", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--members", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", default=None)

    p = command("channel", _cmd_channel, "half-sided measurement channel of two POVMs")
    p.add_argument("--ideal", required=True)
    p.add_argument("--estimated", required=True)
    p.add_argument("--out", default=None)

    p = command("validate", _cmd_validate, "check a POVM file")
    p.add_argument("--povm", required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface every failure as a machine-readable record
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
