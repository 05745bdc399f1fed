"""Smoke tests of the benchmark harness; the package's own tests live in ``tests/``.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs at the tiny size, untraced and traced, in a few seconds
each, and must report exactly the metrics ``BENCHMARK.json`` declares, with
their units. A checkout without the package must be refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

DECLARED = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny"], harness.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert type(metric["value"]) in (int, float), name
        if not trace:
            assert metric["value"] > 0, name
        print(f"{workload} {name} {metric['value']} {metric['unit']}")


def test_spans_nest_and_uninstall_restores_the_package():
    sys.path.insert(0, str(harness.SRC))
    import aoi_energy
    from aoi_energy import solver

    import spans

    params = aoi_energy.SystemParams(0.5, 0.5, 1.0, 2.0, 2, 8)
    original = solver.solve
    with spans.Tracer() as tracer:
        v, q = solver.solve(params)
        tp = solver.extract_thresholds(solver.greedy_policy(v, q, params), params)
        solver.check_truncation_adequacy(tp, params)
    assert solver.solve is original and aoi_energy.solve is original

    names = tracer.names
    check = names.index("solver.check_truncation_adequacy")
    assert names.count("solver.solve") == 2
    assert tracer.parents[names.index("solver.solve", check)] == check
    # Every solve makes one extra backup after convergence to build the Q table.
    assert names.count("solver.bellman_qvalues") >= v.iterations + 1
    metrics = spans.layer_metrics(tracer, 1.0, 1.0, {})
    assert metrics["solver.solve_calls"] == 2
    assert metrics["solver.busy_s"] <= sum(
        tracer.ends[i] - tracer.starts[i] for i, parent in enumerate(tracer.parents) if parent < 0
    )


def test_checkout_without_package_is_refused():
    bare = harness.WORK_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    for path in harness.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run_bench(["--workload", "sweep-p", "--seed", "0", "--seconds", "1",
                      "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
