"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-p --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout. With ``--trace 0`` it times set-up
(fresh interpreters importing ``aoi_energy.cli``) and then the workload in a
fresh worker process, and reports the end-to-end metrics listed in
``BENCHMARK.json``. ``setup_s`` and ``wall_norm_s`` are corrected for host
speed (see ``calibration.py``); the raw times are printed and recorded.
With ``--trace 1`` the worker also runs the workload under the span
recorder and the per-layer metrics are reported instead.

Every answer is checked against ``perfbench/reference.json``. Counts and
output digests must repeat exactly between runs of the same code and seed;
they are kept in ``perfbench/results/ledger.json`` and a difference makes
the run incorrect. The full record of each run, with its provenance, is
written to ``perfbench/results/``. The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Exits non-zero without a result line when the checkout holds no package to
measure or the worker does not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import calibration
import harness

SETUP_SAMPLES = 5
# Calibration chunks timed before and after each interpreter start.
SETUP_CHUNKS = 30
WORKER_TIMEOUT_S = 150


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters up to ``aoi_energy.cli`` imported.

    Returns the raw times and the host-normalised ones: each start's time
    over the median calibration chunk timed just before and just after it
    (see ``calibration.py``). One unmeasured start first writes the bytecode
    caches, which a user pays once, not on every call.
    """
    argv = [sys.executable, "-c", "import aoi_energy.cli"]
    subprocess.run(argv, env=env, cwd=harness.ROOT, check=True)
    before = calibration.chunk_times(SETUP_CHUNKS)
    raw, normalised = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=harness.ROOT, check=True)
        wall = time.perf_counter() - start
        after = calibration.chunk_times(SETUP_CHUNKS)
        raw.append(wall)
        normalised.append(wall * calibration.CAL_REF_S / statistics.median(before + after))
        before = after
    return raw, normalised


def run_worker(args, env: dict) -> dict:
    out = harness.WORK_DIR / f"result-{args.workload}.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(harness.BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--out", str(out)]
    subprocess.run(argv, env=env, cwd=harness.ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    with open(out) as handle:
        return json.load(handle)


def check_ledger(key: str, exact: dict) -> list[str]:
    """Compare exact values with earlier runs of the same code and seed, then record them."""
    path = harness.RESULTS_DIR / "ledger.json"
    try:
        with open(path) as handle:
            ledger = json.load(handle)
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(key, {})
    differences = [f"{name}: {seen[name]!r} before, {value!r} now"
                   for name, value in exact.items() if name in seen and seen[name] != value]
    seen.update(exact)
    harness.write_json_atomic(path, ledger)
    return differences


def declared_metrics(kind: str) -> dict[str, str]:
    with open(harness.ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds, to test the harness")
    args = parser.parse_args()

    if not harness.package_present():
        print(f"perfbench: no aoi_energy package under {harness.SRC}", file=sys.stderr)
        return 2
    env = harness.child_env()
    try:
        setup, setup_norm = ([], []) if args.trace else measure_setup(env)
        result = run_worker(args, env)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = result["attempted"]
    failed = len(result["failures"])
    if args.trace:
        measured = dict(result["layer"], ops_failed_frac=failed / attempted)
        kind = "per_layer"
    else:
        measured = {
            "setup_s": statistics.median(setup_norm),
            "wall_norm_s": statistics.median(result["norm_walls"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        kind = "end_to_end"
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in declared_metrics(kind).items()}

    problems = [f"{f['id']}: {f['detail']}" for f in result["failures"] if not f["known"]]
    if result["exact_mismatch_bodies"]:
        problems.append(f"bodies {result['exact_mismatch_bodies']} differ in exact counts "
                        "from the first body of this run")
    key = f"{harness.code_digest()}/{args.workload}/{args.size}/seed={args.seed}"
    problems.extend(check_ledger(key, result["exact"]))

    record = {
        "workload": args.workload, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "provenance": harness.provenance(args.seed),
        "setup_samples_s": setup, "setup_norm_samples_s": setup_norm,
        "body_walls_s": result["walls"], "body_norm_walls_s": result["norm_walls"],
        "body_chunk_medians_s": result["chunk_medians"],
        "exact": result["exact"], "failures": result["failures"], "problems": problems,
        "mc_max_ci_multiple": result["mc_max_ci_multiple"],
        "metrics": metrics,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    harness.write_json_atomic(
        harness.RESULTS_DIR / f"{stamp}-{args.workload}-{args.size}-s{args.seed}-t{args.trace}.json",
        record,
    )

    for name, metric in metrics.items():
        print(f"{name:38s} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"raw set-up times (not normalised): {', '.join(f'{w:.3f}' for w in setup)} s")
        print(f"raw body wall times (not normalised): "
              f"{', '.join(f'{w:.3f}' for w in result['walls'])} s")
    tally: dict[str, list] = {}
    for failure in result["failures"]:
        tally.setdefault(failure["id"], [failure, 0])[1] += 1
    for failure, times in tally.values():
        tag = "known failure" if failure["known"] else "FAILED"
        print(f"{tag} (x{times}): {failure['id']}: {failure['detail']}")
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
