"""Score the solved policy against the five baselines at one design point.

Everything here is evaluated exactly: each policy induces a Markov chain on
the (age, battery) states with the age unbounded, and the average cost is
the stage cost integrated against the chain's stationary distribution. The solved policy should win
at every design point; how much it wins by depends on how expensive backup
energy is.
"""

from aoi_energy import (
    EnergyFirst,
    Periodic,
    Randomized,
    SystemParams,
    ZeroWait,
    evaluate_exact,
    extract_thresholds,
    greedy_policy,
    solve,
)

params = SystemParams(
    erasure_prob=0.2,
    harvest_prob=0.5,
    energy_weight=10.0,
    backup_cost=2.0,
    battery_cap=20,
    aoi_cap=200,
)

v, q = solve(params)
solved = extract_thresholds(greedy_policy(v, q, params), params)

contenders = [
    ("solved", solved),
    ("zero-wait", ZeroWait()),
    ("energy-first", EnergyFirst()),
    ("periodic:5", Periodic(5)),
    ("periodic:10", Periodic(10)),
    ("random:0.5", Randomized(0.5)),
]

print(f"design point: p={params.erasure_prob}, lambda={params.harvest_prob}, "
      f"omega={params.energy_weight}, C_r={params.backup_cost}, B={params.battery_cap}")
print(f"{'policy':<14} {'avg cost':>10} {'age part':>10} {'energy part':>12}")
scored = []
for label, spec in contenders:
    report = evaluate_exact(spec, params)
    scored.append((report.avg_total_cost, label, report))
for cost, label, report in sorted(scored):
    print(f"{label:<14} {cost:>10.4f} {report.avg_aoi:>10.4f} "
          f"{report.avg_weighted_energy:>12.4f}")

best_cost = min(cost for cost, _, _ in scored)
print(f"\nsolved policy optimal here: {abs(scored[0][0] - best_cost) < 1e-9}")
print(f"solver gain for comparison: {v.gain:.4f}")
