"""Shared fixtures: the benchmark instance is solved once per session."""

import pytest

from aoi_energy import SolverConfig, SystemParams, solve

# Canonical comparison point used across the suite: moderate erasure, even
# harvesting odds, a backup expensive enough that the trade-off is real.
BENCH = SystemParams(
    erasure_prob=0.2,
    harvest_prob=0.5,
    energy_weight=10.0,
    backup_cost=2.0,
    battery_cap=20,
    aoi_cap=200,
)

# A small mid-range instance: four battery levels, age cap 300.
MID = SystemParams(
    erasure_prob=0.25,
    harvest_prob=0.45,
    energy_weight=4.0,
    backup_cost=2.0,
    battery_cap=3,
    aoi_cap=300,
)

EPSILON = 1e-9


@pytest.fixture(scope="session")
def bench_solution():
    return solve(BENCH, SolverConfig(epsilon=EPSILON))
