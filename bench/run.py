"""Closed-loop benchmark of the povmtomo command-line pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload recon_pauli6 --seed 1 --seconds 30 --trace 0

``bench/repeat.py`` runs every workload over several seeds.

One client in this process calls ``povmtomo.cli.main([...])`` in a closed
loop: the next op starts when the previous one returns. The program is
imported from ``src/`` of the checkout and only sees the configs and counts
files generated from ``--seed``. Every op's outputs are checked after its
timed region. End-to-end times are scaled to a reference host speed (see
``HostSpeed``); the raw times are kept in the results record. With
``--trace 0`` nothing is wrapped and the last stdout line carries the
end-to-end metrics; with ``--trace 1`` every other op runs with the layer
wrappers of ``spans.py`` installed and the last line carries the per-layer
metrics. Results, and the trace of a traced run, are written under
``.bench_out/``. Workload inputs and reasons live in ``workloads.json``;
metric names, units and bounds in ``BENCHMARK.json``.
"""

import os

# Pin BLAS to one thread before numpy is imported: on a 2-core box this
# leaves a core for the OS and runs about twice as fast as the default.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


class SetupError(RuntimeError):
    pass


class CheckFailed(Exception):
    """An op returned but its outputs are wrong."""


# --------------------------------------------------------------------------
# Workloads. Each one writes its inputs under a work directory, names the
# argv of op i, and checks the outputs of op i. Seeds for ops and files come
# from a random.Random seeded with the workload name and --seed.


class Workload:
    def __init__(self, name, spec, seed, work):
        self.inputs = spec["inputs"]
        self.rng = random.Random(f"{name}:{seed}")
        self.work = work
        self.out = work / "op"
        self.config_path = work / "config.json"

    def fresh_seed(self):
        return self.rng.randrange(2**31)

    def write_config(self, povm_spec, shots, metric, **extra):
        doc = {
            "povm": povm_spec,
            "ensemble": self.inputs["ensemble"],
            "shots": shots,
            "seed": self.fresh_seed(),
            "projection": {"metric": metric},
            "outputs": {"dir": str(self.out)},
            **extra,
        }
        write_json(doc, self.config_path)

    def setup(self):
        raise NotImplementedError

    def argv(self, i):
        raise NotImplementedError

    def check(self, i):
        """Raise CheckFailed unless the outputs of the op on input i are correct.

        Returns a dict of the checked quantities, stored with the op.
        """
        raise NotImplementedError

    def check_reconstruction(self):
        from povmtomo.povm import load_povm

        report = load_json(self.out / "report.json")
        if report["solver"]["converged"] is not True:
            raise CheckFailed(f"solver did not converge: {report['solver']}")
        return report, load_povm(self.out / "estimated_povm.json")


def frobenius_gap(a, b):
    """sum_j ||a_j - b_j||_F^2 over the effects of two POVM-like tuples."""
    import numpy

    return float(numpy.sum(numpy.abs(a.elements - b.elements) ** 2))


class ReconPauli6(Workload):
    def setup(self):
        from povmtomo.frames import build_ensemble
        from povmtomo.povm import build_povm
        from povmtomo.tomography import sample_size

        inputs = self.inputs
        povm = {**inputs["povm"], "seed": self.fresh_seed()}
        self.write_config(povm, inputs["shots"], inputs["metric"], epsilon=inputs["epsilon"], delta=inputs["delta"])
        self.target = build_povm(povm)
        self.ensemble = build_ensemble(inputs["ensemble"])
        n_qubits = inputs["ensemble"]["n_qubits"]
        d, outcomes, shots, delta = 2**n_qubits, povm["outcomes"], inputs["shots"], inputs["delta"]

        def enough(eps):
            return sample_size(d, outcomes, eps, delta, "local", "op", n_qubits=n_qubits) <= shots

        # Smallest epsilon the local_op calculator guarantees at N shots.
        low, high = 1e-6, 1e6
        for _ in range(200):
            mid = math.sqrt(low * high)
            low, high = (low, mid) if enough(mid) else (mid, high)
        self.epsilon_guaranteed = high

    def argv(self, i):
        return ["reconstruct", "--config", str(self.config_path), "--seed", str(self.fresh_seed()),
                "--out", str(self.out)]

    def check(self, i):
        from povmtomo.tomography import load_counts, lse_estimate

        report, estimate = self.check_reconstruction()
        if report["shots"] != self.inputs["shots"]:
            raise CheckFailed(f"report shots {report['shots']} != {self.inputs['shots']}")
        d_op = report["distances"]["d_op"]
        if not d_op <= self.epsilon_guaranteed:
            raise CheckFailed(f"d_op {d_op} exceeds the guaranteed epsilon {self.epsilon_guaranteed}")
        # The frobenius projection is the POVM nearest the raw LSE, so it is
        # no farther from it than the target, which is also a POVM.
        raw = lse_estimate(load_counts(self.out / "counts.csv")[0], self.ensemble)
        gap, target_gap = frobenius_gap(raw, estimate), frobenius_gap(raw, self.target)
        if not gap <= target_gap * (1 + 1e-9) + 1e-12:
            raise CheckFailed(f"frobenius projection is not optimal: ||raw - estimate||^2 {gap} "
                              f"> ||raw - target||^2 {target_gap}")
        return {"d_op": d_op, "frobenius_gap": gap, "frobenius_target_gap": target_gap}


class ScalingOutcomes(Workload):
    SLOPE_RANGE = (-0.75, -0.25)

    def setup(self):
        inputs = self.inputs
        povm = {**inputs["povm"], "seed": self.fresh_seed()}
        self.write_config(povm, inputs["shots"], inputs["metric"])
        self.rows_expected = len(inputs["n_list"].split(",")) * inputs["trials"]

    def argv(self, i):
        return [
            "scaling", "--config", str(self.config_path),
            "--n-list", self.inputs["n_list"], "--trials", str(self.inputs["trials"]),
            "--seed", str(self.fresh_seed()), "--out", str(self.out),
        ]

    def check(self, i):
        with open(self.out / "scaling.csv") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        if len(rows) != self.rows_expected:
            raise CheckFailed(f"scaling.csv has {len(rows)} rows, expected {self.rows_expected}")
        if not all(math.isfinite(float(x)) for row in rows for x in row):
            raise CheckFailed("scaling.csv has a non-finite entry")
        fit = load_json(self.out / "scaling_report.json")["fit"]
        low, high = self.SLOPE_RANGE
        for key in ("slope_d_op", "slope_d_av"):
            if not low <= fit[key] <= high:
                raise CheckFailed(f"{key} = {fit[key]} outside [{low}, {high}]")
        return {key: fit[key] for key in ("slope_d_op", "slope_d_av")}


class IngestDav(Workload):
    def setup(self):
        from povmtomo import cli
        from povmtomo.distances import d_av
        from povmtomo.frames import build_ensemble
        from povmtomo.povm import build_povm
        from povmtomo.tomography import load_counts, lse_estimate

        inputs = self.inputs
        self.write_config(inputs["povm"], inputs["shots"], "frobenius")
        target = build_povm(inputs["povm"])
        ensemble = build_ensemble(inputs["ensemble"])
        self.pool = []
        for k in range(inputs["pool_files"]):
            pool_dir = self.work / "pool" / str(k)
            argv = ["simulate", "--config", str(self.config_path), "--seed", str(self.fresh_seed()),
                    "--out", str(pool_dir)]
            code, _, err = run_cli(cli, argv)
            if code != 0:
                raise SetupError(f"writing counts file {k} failed: {err.strip()}")
            path = pool_dir / "counts.csv"
            raw = lse_estimate(load_counts(path)[0], ensemble)
            self.pool.append((path, raw, d_av(raw, target).value))

    def argv(self, i):
        path = self.pool[i % len(self.pool)][0]
        return ["reconstruct", "--config", str(self.config_path), "--from-counts", str(path),
                "--metric", self.inputs["metric"], "--out", str(self.out)]

    def check(self, i):
        from povmtomo.distances import d_av

        _, estimate = self.check_reconstruction()
        _, raw, target_gap = self.pool[i % len(self.pool)]
        gap = d_av(raw, estimate).value
        if not gap <= target_gap * (1 + 1e-9) + 1e-12:
            raise CheckFailed(f"dav projection is not optimal: d_av(raw, estimate) {gap} "
                              f"> d_av(raw, target) {target_gap}")
        return {"d_av_gap": gap, "d_av_target_gap": target_gap}


WORKLOADS = {"recon_pauli6": ReconPauli6, "scaling_outcomes": ScalingOutcomes, "ingest_dav": IngestDav}


# --------------------------------------------------------------------------
# Running ops


def run_cli(cli, argv, tracer=None, op_id=None):
    """One op: cli.main(argv) with its output captured. Returns (code, seconds, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.main(argv) if tracer is None else tracer.run_op(op_id, lambda: cli.main(argv))
        elapsed = time.perf_counter() - start
    return code, elapsed, stderr.getvalue()


def run_op(cli, workload, i, tracer=None, op_id=None):
    """Run and check the op on input i.

    Returns (ok, ms, failure reason or None, checked quantities or None).
    """
    shutil.rmtree(workload.out, ignore_errors=True)
    code, elapsed, err = run_cli(cli, workload.argv(i), tracer, op_id)
    if code != 0:
        return False, elapsed * 1000, f"exit code {code}: {err.strip()[:300]}", None
    try:
        checked = workload.check(i)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return False, elapsed * 1000, f"{type(exc).__name__}: {exc}", None
    return True, elapsed * 1000, None, checked


def set_up(cli, name, spec, seed):
    """Write the inputs and run one warm-up op, from cold. Returns (workload, seconds)."""
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    workload = WORKLOADS[name](name, spec, seed, work)
    workload.setup()
    ok, _, reason, _ = run_op(cli, workload, 0)
    elapsed = time.perf_counter() - start
    if not ok:
        raise SetupError(f"warm-up op failed: {reason}")
    return workload, elapsed


class HostSpeed:
    """A fixed reference kernel, timed between ops, to scale times by.

    The speed of a shared host drifts by up to 1.8x over minutes, and the
    drift slows the reference kernel (small eigensolves and a Python loop,
    like the pipeline's inner loops) as much as the ops: on a 2-vCPU Xeon
    10 s windows of ingest_dav ops took 71 to 116 ms while their ratio to the
    kernel stayed within 22 to 25. Times are reported as they would read on
    a host where the kernel takes REFERENCE_MS. The drift comes in bursts of
    under a second, and one 4 ms sample of the kernel is noisier than the
    drift, so a span is scaled by the median of the NEAREST samples nearest
    to it: about 1 s around an ingest_dav op and 10 to 15 s around the
    slower ops.
    """

    REFERENCE_MS = 4.0
    NEAREST = 9

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        a = rng.normal(size=(100, 8, 8)) + 1j * rng.normal(size=(100, 8, 8))
        self.eigvalsh = numpy.linalg.eigvalsh
        self.matrices = list(a + a.conj().transpose(0, 2, 1))
        self.samples = []  # (midpoint, kernel ms)

    def sample(self):
        """Time the kernel once."""
        start = time.perf_counter()
        for m in self.matrices:
            self.eigvalsh(m)
        x = 0
        for i in range(30000):
            x += i * i % 7
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, (end - start) * 1000))

    def kernel_ms(self, start, end):
        """Median kernel time of the samples nearest to the span from start to end."""
        middle = (start + end) / 2
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))[:self.NEAREST]
        return statistics.median(ms for _, ms in nearest)


def measure(cli, workload, seconds, tracer, host):
    """Closed loop for ``seconds``.

    The reference kernel is timed before the first op and after each op;
    op times are scaled once the loop ends. With a tracer, every other op is
    traced and repeats the input of the untraced op before it, so the two
    halves of the run see the same inputs.
    """
    ops, breakdowns, example_spans = [], [], None
    host.sample()
    deadline = time.perf_counter() + seconds
    i = 1  # op 0 was the warm-up
    while i < 3 or time.perf_counter() < deadline:  # ops 1 and 2: one untraced, one traced
        traced = tracer is not None and i % 2 == 0
        k = (i + 1) // 2 if tracer is not None else i
        start = time.perf_counter()
        if traced:
            tracer.install()
            try:
                ok, ms, reason, checked = run_op(cli, workload, k, tracer, i)
            finally:
                tracer.uninstall()
            breakdowns.append({"op": i, "ok": ok, "layers": tracer.breakdown()})
            if example_spans is None:
                example_spans = tracer.span_records()
        else:
            ok, ms, reason, checked = run_op(cli, workload, k)
        span = (start, time.perf_counter())
        host.sample()
        ops.append({"op": i, "ok": ok, "raw_ms": ms, "span": span, "traced": traced, "failure": reason,
                    "checked": checked})
        i += 1
    for op in ops:
        op["kernel_ms"] = host.kernel_ms(*op.pop("span"))
        op["ms"] = op["raw_ms"] * host.REFERENCE_MS / op["kernel_ms"]
    return ops, breakdowns, example_spans


# --------------------------------------------------------------------------
# Metrics


TAIL_BEYOND = 10


def tail(latencies_ms):
    """Highest percentile with at least 10 samples beyond it, never below the median.

    Returns (value, percentile, samples beyond it, note). With 10 samples or
    fewer it is the maximum, and with 11 to 21 the median; the note says so.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0, f"the maximum: only {n} samples, fewer than {TAIL_BEYOND} beyond it"
    value = ordered[n - 1 - TAIL_BEYOND]
    median = statistics.median(ordered)
    if value <= median:
        beyond = sum(x > median for x in ordered)
        return median, 50.0, beyond, f"the median: {n} samples leave no higher percentile with {TAIL_BEYOND} beyond it"
    return value, 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND, ""


def loop_stats(ops):
    ok_ms = [op["ms"] for op in ops if op["ok"]]
    busy_s = sum(op["ms"] for op in ops) / 1000
    stats = {"attempted": len(ops), "failed": len(ops) - len(ok_ms), "ops_per_s": len(ok_ms) / busy_s}
    if ok_ms:
        stats["op_ms_p50"] = statistics.median(ok_ms)
        stats["op_ms_tail"], stats["tail_percentile"], stats["tail_beyond"], stats["tail_note"] = tail(ok_ms)
    return stats


def end_to_end_metrics(ops, setup_s):
    stats = loop_stats(ops)
    values = {
        "ops_per_s": stats["ops_per_s"],
        "op_ms_p50": stats.get("op_ms_p50", 0.0),
        "op_ms_tail": stats.get("op_ms_tail", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return values, stats


def per_layer_value(name, breakdowns):
    """Per-op value of a per-layer metric, the median over traced ops."""
    per_op = [b["layers"] for b in breakdowns]

    def field(layer, key):
        return [layers.get(layer, {}).get(key, 0) for layers in per_op]

    if name == "cli.self_ms":
        return statistics.median(field("cli.main", "self_ms"))
    if name == "tomography.cells_observed":
        cells = [a + b for a, b in zip(field("tomography.simulate_shots", "cells_observed"),
                                       field("tomography.load_counts", "cells_observed"))]
        return statistics.median(cells)
    if name == "tomography.project_onto_povms.converged_ratio":
        calls = sum(field("tomography.project_onto_povms", "calls"))
        return sum(field("tomography.project_onto_povms", "converged")) / calls
    layer, key = name.rsplit(".", 1)
    return statistics.median(field(layer, key))


def layer_summary(breakdowns):
    """Median per-op calls, ms and self ms of every layer, and its share of the op."""
    names = sorted({layer for b in breakdowns for layer in b["layers"]})
    op_ms = statistics.median(b["layers"]["cli.main"]["ms"] for b in breakdowns)
    summary = {}
    for layer in names:
        row = {}
        for key in ("calls", "ms", "self_ms"):
            row[key] = statistics.median(b["layers"].get(layer, {}).get(key, 0) for b in breakdowns)
        row["share_of_op"] = row["ms"] / op_ms
        summary[layer] = row
    return summary


# --------------------------------------------------------------------------
# Machine and environment


def machine_info():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
        "cpu_model": None,
        "caches": [],
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            entry = {key: (index / key).read_text().strip() for key in ("level", "type", "size")}
            info["caches"].append(entry)
    except OSError:
        pass
    return info


# --------------------------------------------------------------------------
# Entry points


def import_program():
    """Import povmtomo from src/ of this checkout; returns (cli module, seconds since start)."""
    if not (SRC / "povmtomo" / "__init__.py").is_file():
        raise SetupError(f"no povmtomo package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import povmtomo
    from povmtomo import cli

    if Path(povmtomo.__file__).resolve().parent != SRC / "povmtomo":
        raise SetupError(f"imported povmtomo from {povmtomo.__file__}, not from {SRC}")
    return cli, time.perf_counter() - PROCESS_START


def run_workload(args, benchmark):
    spec = load_json(BENCH_DIR / "workloads.json")
    cli, import_s = import_program()
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    workload, warm_s = set_up(cli, args.workload, spec["workloads"][args.workload], args.seed)
    setup_span = (PROCESS_START, time.perf_counter())
    host = HostSpeed()
    for _ in range(5):
        host.sample()
    tracer = Tracer() if args.trace else None
    ops, breakdowns, example_spans = measure(cli, workload, args.seconds, tracer, host)
    setup_kernel_ms = host.kernel_ms(*setup_span)
    setup_s = (import_s + warm_s) * host.REFERENCE_MS / setup_kernel_ms

    failures = [op for op in ops if not op["ok"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "loop": spec["loop"],
        "clients": spec["clients"],
        "inputs": spec["workloads"][args.workload],
        "setup": {"import_s": import_s, "inputs_and_warm_up_s": warm_s, "kernel_ms": setup_kernel_ms,
                  "setup_s": setup_s},
        "reference_kernel_ms": HostSpeed.REFERENCE_MS,
        "failures": failures[:20],
    }
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        untraced = loop_stats([op for op in ops if not op["traced"]])
        traced = loop_stats([op for op in ops if op["traced"]])
        metrics = {m["name"]: (per_layer_value(m["name"], breakdowns), m["unit"]) for m in benchmark["per_layer"]}
        overhead = {
            "untraced_ops_per_s": untraced["ops_per_s"],
            "traced_ops_per_s": traced["ops_per_s"],
            "overhead_ratio": 1 - traced["ops_per_s"] / untraced["ops_per_s"],
            "untraced_ops": untraced["attempted"],
            "traced_ops": traced["attempted"],
        }
        trace_doc = {
            **record,
            "tracing_overhead": overhead,
            "layers_per_op": layer_summary(breakdowns),
            "ops": breakdowns,
            "example_op_spans": example_spans,
        }
        write_json(trace_doc, OUT / f"{stem}.trace.json")
        record["tracing_overhead"] = overhead
        stats = {"attempted": len(ops), "failed": len(failures)}
    else:
        values, stats = end_to_end_metrics(ops, setup_s)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in benchmark["end_to_end"]}
    record["loop_stats"] = stats
    record["fail_ratio"] = len(failures) / len(ops)
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["ops"] = [{key: op[key] for key in ("op", "ok", "ms", "raw_ms", "kernel_ms", "traced", "checked")}
                     for op in ops]
    write_json(record, OUT / f"{stem}-trace{args.trace}.json")

    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} ops attempted, {len(failures)} failed")
    print(f"  fail_ratio {record['fail_ratio']:.4g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if "tail_percentile" in stats:
        note = f"; {stats['tail_note']}" if stats["tail_note"] else ""
        print(f"  op_ms_tail is p{stats['tail_percentile']:.1f} of {len(ops) - len(failures)} ops "
              f"({stats['tail_beyond']} beyond it{note})")
    if args.trace:
        print(f"  tracing overhead {overhead['overhead_ratio']:.2%} of untraced ops_per_s "
              f"({overhead['untraced_ops_per_s']:.4g} untraced, {overhead['traced_ops_per_s']:.4g} traced)")
    for op in failures[:3]:
        print(f"  op {op['op']} failed: {op['failure']}")
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        benchmark = load_json(ROOT / "BENCHMARK.json")
        names = [entry["name"] for entry in benchmark["workloads"]]
        if args.workload not in names:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {names}")
        return run_workload(args, benchmark)
    except (SetupError, OSError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
