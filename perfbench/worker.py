"""One workload in one fresh single-threaded process.

Started by ``run.py`` with the checkout's ``src/`` on the path and BLAS
pools pinned. Untraced (``--trace 0``) it repeats the workload body until
``--seconds`` have passed and reports every body's wall time, its
host-normalised time and the process's peak RSS. Traced (``--trace 1``) it
runs the body once untraced, to warm up and to show that tracing leaves the
answers alone, and once with the span recorder installed, and reports
per-layer metrics and the tracing overhead. Every body's answers are scored;
the result goes to ``--out`` as JSON.

Host speed is sampled during each program call by
``calibration.HostSpeed``; a body's normalised time is its wall time over
the median calibration chunk time of that body, in reference-host seconds.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import harness

sys.path.insert(0, str(harness.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402


def timed_body(workload: workloads.Workload, host: calibration.HostSpeed | None = None):
    """Run one body; return its wall time (program calls only) and scored outcome."""
    timer = workloads.CallTimer(host)
    raw = workload.run(timer)
    if host is not None and not host.chunks:
        host.chunks.append(calibration.chunk())  # a body shorter than one sample interval
    return sum(timer.walls), workload.check(raw)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    reference = harness.load_reference()
    ref = reference[args.size][args.workload]
    workload = workloads.make(args.workload, args.size, args.seed, reference,
                              harness.WORK_DIR / args.workload)

    layer = {}
    chunk_medians = []
    if args.trace:
        bodies = [timed_body(workload)]
        span_cost = spans.span_cost_s()
        tracer = spans.Tracer()
        timer = workloads.CallTimer()
        start = time.perf_counter()
        with tracer:
            raw = workload.run(timer)
        traced_wall = time.perf_counter() - start
        bodies.append((traced_wall, workload.check(raw)))
        layer = spans.layer_metrics(tracer, traced_wall, span_cost, ref["solver_gains"])
        tracer.write_csv(harness.RESULTS_DIR / f"spans-{args.workload}-{args.size}.csv", start)
    else:
        calibration.chunk_times(3)  # warm up the chunk before it is sampled
        first = time.perf_counter()
        bodies = []
        while not bodies or time.perf_counter() - first < args.seconds:
            host = calibration.HostSpeed()
            bodies.append(timed_body(workload, host))
            chunk_medians.append(statistics.median(host.chunks))

    ops = [op for _, outcome in bodies for op in outcome.ops]
    known = ref["known_failures"]
    failures = [{"id": op.id, "detail": op.detail, "known": op.id in known}
                for op in ops if not op.ok]
    exact = bodies[0][1].exact
    mismatched = [i for i, (_, outcome) in enumerate(bodies) if outcome.exact != exact]
    exact = dict(exact, ops_per_body=len(bodies[0][1].ops))
    exact.update({name: layer[name] for name in spans.EXACT_COUNTS if name in layer})
    harness.write_json_atomic(Path(args.out), {
        "walls": [wall for wall, _ in bodies],
        "chunk_medians": chunk_medians,
        "norm_walls": [wall * calibration.CAL_REF_S / chunk
                       for (wall, _), chunk in zip(bodies, chunk_medians)],
        "attempted": len(ops),
        "failures": failures,
        "exact": exact,
        "exact_mismatch_bodies": mismatched,
        "mc_max_ci_multiple": max((op.ci_multiple for op in ops if op.ci_multiple is not None),
                                  default=None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": layer,
    })


if __name__ == "__main__":
    main()
