"""Generate ``reference.json``, the answers every benchmark run is checked against.

Run from the root of the checkout:

    python3 perfbench/make_reference.py

Reference answers are computed more carefully than the workloads compute
them, so that a workload answer is checked against something it did not
produce itself:

- optimal gains and thresholds come from a solve at four times the
  workload's age cap;
- exact policy costs come from exact evaluation starting one rung above
  the workload's cap ladder (caps 800, 1600, 3200), except zero-wait,
  whose cost has the closed form 1/(1-p) + omega*c_r*(1-lambda);
- the brute-force optimum at age cap 4 is recorded as computed, and must
  agree with ``solve`` within the gain tolerance.

Points where the program's own answer at the workload cap disagrees with
the reference are recorded under ``known_failures`` with the reason; they
count as failed operations in every run until the program is fixed.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import harness

sys.path.insert(0, str(harness.SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

from aoi_energy import (  # noqa: E402
    BoundaryMassError,
    SolverConfig,
    ZeroWait,
    check_truncation_adequacy,
    enumerate_optimal,
    evaluate_exact,
    extract_thresholds,
    greedy_policy,
    parse_policy_spec,
    solve,
)
from aoi_energy.cli import P_SOLVE_CLAMP  # noqa: E402
from aoi_energy.policies import ThresholdPolicy  # noqa: E402
from workloads import (  # noqa: E402
    ENUM_INSTANCE,
    SIZES,
    SWEEP_POLICIES,
    instance_params,
    params_key,
    point_id,
    solve_grid_points,
)

TOLERANCES = {
    # Relative agreement of an exact cost with the reference cost.
    "exact_rel": 1e-6,
    # Absolute agreement of a reported optimal gain with the reference gain.
    "gain_abs": 1e-6,
    # A Monte Carlo cost must lie within this many of its own 95% CI
    # halfwidths of the exact cost. With 5 replications the halfwidth is
    # t(0.975, 4) = 2.78 standard errors, so 6 halfwidths is ~17 standard
    # errors of Student t with 4 degrees of freedom: a false alarm has
    # probability below 1e-4 per check.
    "mc_ci_multiple": 6.0,
}
CFG = SolverConfig(epsilon=1e-9)
REF_CAP_FACTOR = 4


def solve_reference(params):
    """Gain and thresholds at four times the age cap."""
    big = replace(params, aoi_cap=REF_CAP_FACTOR * params.aoi_cap)
    v, q = solve(big, CFG)
    return v.gain, extract_thresholds(greedy_policy(v, q, big), big)


def exact_cost(policy, params) -> float:
    if isinstance(policy, ZeroWait):
        closed = 1.0 / (1.0 - params.erasure_prob) + (
            params.energy_weight * params.backup_cost * (1.0 - params.harvest_prob)
        )
        check = evaluate_exact(policy, replace(params, aoi_cap=max(params.aoi_cap, 400)))
        assert abs(check.avg_total_cost - closed) <= 1e-6, (check, closed)
        return closed
    base = 2 * max(params.aoi_cap, 400)
    for cap in (base, 2 * base, 4 * base):
        try:
            return evaluate_exact(policy, replace(params, aoi_cap=cap)).avg_total_cost
        except BoundaryMassError:
            continue
    raise RuntimeError(f"no cap up to {4 * base} holds {policy} at {params}")


def policy_costs(params, solved: ThresholdPolicy) -> dict[str, float]:
    return {
        text: exact_cost(solved if text == "solved" else parse_policy_spec(text), params)
        for text in SWEEP_POLICIES
    }


def sweep_reference(size: dict) -> dict:
    rows, gains = [], {}
    for p in size["p_values"]:
        point = instance_params(size["instance"], p=p)
        solver_point = replace(point, erasure_prob=P_SOLVE_CLAMP) if p == 0.0 else point
        gain, thresholds = solve_reference(solver_point)
        gains[params_key(solver_point)] = gain
        for text, cost in policy_costs(point, thresholds).items():
            rows.append({"p": p, "policy": text, "value": cost})
        print(f"sweep-p p={p} done", flush=True)
    return {"rows": rows, "solver_gains": gains, "known_failures": {}}


def grid_reference(size: dict) -> dict:
    points, gains, known = [], {}, {}
    for point in solve_grid_points(size):
        params = instance_params(size["instance"], **point)
        gain, thresholds = solve_reference(params)
        gains[params_key(params)] = gain
        entry = {"id": point_id(point), **point, "gain": gain,
                 "thresholds": list(thresholds.thresholds)}
        points.append(entry)
        v, q = solve(params, CFG)
        at_cap = extract_thresholds(greedy_policy(v, q, params), params)
        problems = []
        if at_cap.thresholds != thresholds.thresholds:
            diff = [(b, a, r) for b, (a, r) in enumerate(zip(at_cap.thresholds,
                                                             thresholds.thresholds)) if a != r]
            problems.append("thresholds at aoi_cap=%d differ from the converged ones "
                            "(battery, at cap, converged): %s" % (params.aoi_cap, diff))
        if abs(v.gain - gain) > TOLERANCES["gain_abs"]:
            problems.append(f"gain {v.gain!r} vs converged {gain!r}")
        if not check_truncation_adequacy(at_cap, params, CFG):
            problems.append("the --check-truncation doubling test fails (exit 5)")
        if problems:
            known[entry["id"]] = "; ".join(problems)
        print(f"solve-grid {entry['id']} done", flush=True)
    return {"points": points, "solver_gains": gains, "known_failures": known}


def cross_reference(size: dict) -> dict:
    enumeration, gains = [], {}
    for battery in size["batteries"]:
        params = instance_params(ENUM_INSTANCE, battery_cap=battery)
        _, best = enumerate_optimal(params)
        v, _ = solve(params, CFG)
        assert abs(v.gain - best) <= TOLERANCES["gain_abs"], (battery, best, v.gain)
        enumeration.append({"battery_cap": battery, "gain": best})
        gains[params_key(params)] = best
    params = instance_params(size["instance"])
    _, thresholds = solve_reference(params)
    costs = policy_costs(params, thresholds)
    print("cross-check done", flush=True)
    return {"enumeration": enumeration, "solved_thresholds": list(thresholds.thresholds),
            "eval": costs, "solver_gains": gains, "known_failures": {}}


def main() -> None:
    reference = {
        "command": "python3 perfbench/make_reference.py",
        "generated_with": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__, "git_sha": harness.git_sha()},
        "tolerances": TOLERANCES,
    }
    for size_name, sizes in SIZES.items():
        reference[size_name] = {
            "sweep-p": sweep_reference(sizes["sweep-p"]),
            "solve-grid": grid_reference(sizes["solve-grid"]),
            "cross-check": cross_reference(sizes["cross-check"]),
        }
    assert all(math.isfinite(r["value"]) for s in SIZES for r in reference[s]["sweep-p"]["rows"])
    harness.write_json_atomic(harness.REFERENCE_PATH, reference)
    print(f"wrote {harness.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
