"""Certify the structure of a solved value table, then break it on purpose.

Five inequality families are checked numerically over the whole grid:
values grow with age, values fall as the battery charges, age increments
are at least one, charging damps age increments by at most the erasure
probability, and the idle-vs-transmit advantage grows with age. The last
one is what makes the greedy policy a threshold rule. Every check reports
its worst signed margin (negative = violated) and the witnessing states.
"""

from aoi_energy import (
    SolverConfig,
    SystemParams,
    certify_structure,
    solve,
    structure_checks,
)

params = SystemParams(
    erasure_prob=0.3,
    harvest_prob=0.4,
    energy_weight=5.0,
    backup_cost=2.0,
    battery_cap=8,
    aoi_cap=100,
)

v, q = solve(params, SolverConfig(epsilon=1e-9))

print("certificate                margin        witness")
for check in structure_checks(v, q, params):
    a, b = check.witness
    status = "ok " if check.passed else "BAD"
    print(f"{check.name:<22} {status} {check.worst_margin:+.3e}  {tuple(a)} vs {tuple(b)}")

report = certify_structure(v, q, params)
print(f"\nall certificates pass: {report.all_pass}")

# Now sabotage the table: push the age-2 row below the age-1 row. The
# monotone-in-age certificate localizes the damage exactly.
broken = v.values.copy()
broken[1, :] = broken[0, :] - 0.5
bad_age = structure_checks(broken, q, params)[0]
a, b = bad_age.witness
print("\nafter tampering with the age-2 row:")
print(f"  {bad_age.name}: passed={bad_age.passed}, margin {bad_age.worst_margin:+.3f}")
print(f"  witness pair: {tuple(a)} vs {tuple(b)}")
