"""Run every workload, print every metric with its unit, and record the numbers.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/results/summary.json

Each workload runs untraced once per seed (0, 1, ...) and traced once with
seed 0, through ``run.py`` with ``run_seconds`` from ``BENCHMARK.json``, so
every answer is checked against the reference as in any benchmark run. For
each end-to-end metric it reports the median and quartiles over the seeds
and the spread (interquartile range over median) next to the metric's
bound; for each per-layer metric the traced value; and the share of traced
wall time spent in the evaluation and solver layers. Exits 1 if any run
is incorrect; known failures are counted, not fatal.

``perfbench/baseline.json`` holds this output for the commit that added the
benchmark, the first baseline later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", default=str(harness.RESULTS_DIR / "summary.json"))
    args = parser.parse_args()

    with open(harness.ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    seconds = declared["run_seconds"]
    runs = {w: [] for w in harness.WORKLOADS}
    for seed in range(args.seeds):
        for workload in harness.WORKLOADS:
            runs[workload].append(bench(workload, seed, 0, seconds))
            print(f"{workload} seed {seed}: "
                  f"{ {n: m['value'] for n, m in runs[workload][-1]['metrics'].items()} }",
                  flush=True)

    summary = {"command": " ".join(sys.argv), "run_seconds": seconds,
               "provenance": harness.provenance(0), "workloads": {}}
    ok = True
    for workload in harness.WORKLOADS:
        traced = bench(workload, 0, 1, seconds)
        entry = {"correct": all(r["correct"] for r in runs[workload] + [traced]),
                 "attempted": [r["attempted"] for r in runs[workload]],
                 "failed": [r["failed"] for r in runs[workload]],
                 "end_to_end": {}, "per_layer": {}}
        ok = ok and entry["correct"]
        print(f"\n{workload}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']}")
        for metric in declared["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            spread = (q3 - q1) / mid
            entry["end_to_end"][name] = {"unit": metric["unit"], "median": mid, "q1": q1,
                                         "q3": q3, "spread": spread, "bound": metric["bound"],
                                         "values": values}
            print(f"  {name:36s} {mid:>14.6g} {metric['unit']:10s} quartiles {q1:.6g}..{q3:.6g}"
                  f"  spread {spread:.4f} (bound {metric['bound']})")
        for name, metric in traced["metrics"].items():
            entry["per_layer"][name] = metric
            print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
        wall = traced["metrics"]["trace.wall_s"]["value"]
        entry["traced_share"] = {layer: traced["metrics"][f"{layer}.busy_s"]["value"] / wall
                                 for layer in ("evaluation", "solver")}
        print("  traced wall share: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in entry["traced_share"].items()))
        summary["workloads"][workload] = entry

    harness.write_json_atomic(Path(args.out).resolve(), summary)
    print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
