"""Solve one instance and read the policy off the value table.

The sensor pays its age every slot plus a weighted backup-energy price when
it transmits on an empty battery. The solver returns the long-run average
cost (the gain) and a value table whose greedy policy collapses to one age
threshold per battery level.
"""

import numpy as np

from aoi_energy import (
    SystemParams,
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
print(f"gain (average cost per slot): {v.gain:.6f}")
print(f"converged in {v.iterations} sweeps, final span {v.final_span:.2e}")

# One threshold per battery level; None means the policy never transmits
# at that charge. Thresholds shrink as the battery fills: stored energy is
# cheap, so the sensor updates sooner.
thresholds = extract_thresholds(greedy_policy(v, q, params), params)
print("\nbattery -> transmit once age reaches:")
for charge, bound in enumerate(thresholds.thresholds):
    print(f"  q={charge:2d}  {'never' if bound is None else bound}")

# The value table itself: differential cost-to-go, anchored at age 1 with a
# full battery. Rows grow with age, columns shrink as charge accumulates.
print("\nvalue table corner (ages 1..6, charges 0..5):")
with np.printoptions(precision=3, suppress=True):
    print(v.values[:6, :6])
