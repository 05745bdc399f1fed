"""Cross-check the two evaluators and see the one policy exact evaluation refuses.

The Monte Carlo path simulates the real chain (age unbounded) with seeded,
reproducible replications; the exact path solves the same untruncated
chain through its renewals at each delivery. They agree to within the
confidence interval, including on a policy that transmits once every
fifty slots and lets the age run into the hundreds. A policy that never
transmits has an age tail that never dies: its average cost is infinite,
and the exact evaluator says so instead of returning a number.
"""

import dataclasses

from aoi_energy import (
    BoundaryMassError,
    Periodic,
    Randomized,
    SimConfig,
    SystemParams,
    ZeroWait,
    evaluate_exact,
    policy_label,
    simulate,
)

params = SystemParams(
    erasure_prob=0.25,
    harvest_prob=0.45,
    energy_weight=4.0,
    backup_cost=2.0,
    battery_cap=3,
    aoi_cap=300,
)
cfg = SimConfig(horizon=100_000, replications=8, seed=7)


def compare(specs, params, cfg):
    # One call scores every policy on the same draws of each replication.
    for spec, mc in zip(specs, simulate(specs, params, cfg)):
        exact = evaluate_exact(spec, params)
        gap = abs(mc.avg_total_cost - exact.avg_total_cost)
        print(f"{policy_label(spec):<12} {exact.avg_total_cost:>10.4f} "
              f"{mc.avg_total_cost:>12.4f} {mc.ci_halfwidth_95:>9.4f} "
              f"{gap / mc.ci_halfwidth_95:>7.2f}")


print(f"{'policy':<12} {'exact':>10} {'monte carlo':>12} {'ci95':>9} {'gap/ci':>7}")
compare([ZeroWait(), Periodic(3), Randomized(0.5)], params, cfg)

# Same seed, same report, bit for bit, alone or beside other policies.
again = simulate([ZeroWait()], params, cfg)
print(f"\nrepeat with seed {cfg.seed} reproduces the report: "
      f"{again == simulate([ZeroWait()], params, cfg)}")
print(f"and alone it matches its run beside Periodic(3): "
      f"{again[0] == simulate([Periodic(3), ZeroWait()], params, cfg)[1]}")

# A lossy channel and a lazy policy: one delivery every 250 slots on average.
# The age cap plays no part in exact evaluation, so a small one is fine.
lossy = dataclasses.replace(params, erasure_prob=0.8, aoi_cap=100)
print(f"\nat p={lossy.erasure_prob}, age cap {lossy.aoi_cap}:")
compare([Randomized(0.02)], lossy, SimConfig(horizon=100_000, replications=20, seed=7))

# A policy that never transmits: the age grows forever.
never = Randomized(0.0)
try:
    evaluate_exact(never, lossy)
except BoundaryMassError as err:
    print(f"\nexact evaluation of {policy_label(never)} refused: {err}")

# Simulation still returns a number, but it only grows with the horizon, so
# `eval` and `sweep` report such a policy as an exact row of infinite cost.
mc = simulate([never], lossy, cfg)[0]
print(f"monte carlo over {cfg.horizon} slots: {mc.avg_total_cost:.0f}")
