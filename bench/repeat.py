"""Repeat bench/run.py over several seeds and summarise each end-to-end metric.

Usage, from the root of a checkout:

    python3 bench/repeat.py --seeds 1-10 --seconds 30
    python3 bench/repeat.py --seeds 1-2 --seconds 10
    python3 bench/repeat.py --workloads ingest_dav --seeds 1-5 --seconds 30
    python3 bench/repeat.py --seeds 1-10 --seconds 30 --record "label"

For every workload and metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json. Seeds run in the outer loop, so
slow phases of the machine fall on every workload alike. ``--record`` adds
one traced run per workload on the first seed and appends the summary, the
layer breakdown and the machine record to ``bench/baseline.json``.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text):
    if "-" in text:
        first, last = (int(tok) for tok in text.split("-"))
        return list(range(first, last + 1))
    return [int(tok) for tok in text.split(",")]


def run_once(workload, seed, seconds, trace):
    """One bench/run.py process; returns its result line, or None if it exited non-zero."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--record", default=None, help="append the summary to bench/baseline.json")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    values = {w: {m["name"]: [] for m in benchmark["end_to_end"]} for w in workloads}
    failed = 0
    for seed in seeds:
        for workload in workloads:
            result = run_once(workload, seed, args.seconds, 0)
            if result is None:
                return 1
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            line = "  ".join(f"{n} {m['value']:.5g} {m['unit']}" for n, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed "
                  f"(fail_ratio {result['failed'] / result['attempted']:.3g})  {line}", flush=True)

    summary = {}
    print(f"\n{'workload':18} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        summary[workload] = {}
        for metric in benchmark["end_to_end"]:
            stats = summarise(values[workload][metric["name"]])
            summary[workload][metric["name"]] = {"unit": metric["unit"], **stats,
                                                 "values": values[workload][metric["name"]]}
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  <- above bound/3"
            print(f"{workload:18} {metric['name']:12} {stats['median']:10.5g} {stats['q1']:10.5g} "
                  f"{stats['q3']:10.5g} {stats['spread']:8.3%} {metric['bound']:6.2f}{flag}")
    print(f"failed ops: {failed}")

    if args.record:
        # One traced run per workload gives the layer breakdown behind the numbers.
        traced = {}
        for workload in workloads:
            result = run_once(workload, seeds[0], args.seconds, 1)
            if result is None:
                return 1
            failed += result["failed"]
            doc = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seeds[0]}.trace.json").read_text())
            traced[workload] = {"seed": seeds[0], "tracing_overhead": doc["tracing_overhead"],
                                "layers_per_op": doc["layers_per_op"]}
        path = BENCH_DIR / "baseline.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        results_file = ROOT / ".bench_out" / f"{workloads[0]}-seed{seeds[0]}-trace0.json"
        entries.append({
            "label": args.record,
            "date": datetime.date.today().isoformat(),
            "seconds": args.seconds,
            "seeds": seeds,
            "failed_ops": failed,
            "machine": json.loads(results_file.read_text())["machine"],
            "workloads": summary,
            "traced": traced,
        })
        path.write_text(json.dumps(entries, indent=1) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
