"""Certificate tests: real solves must pass, planted violations must not."""

import numpy as np
import pytest

from aoi_energy import (
    SolverConfig,
    State,
    SystemParams,
    bellman_qvalues,
    certify_structure,
    check_submodularity,
    check_value_increments,
    check_value_monotone,
    solve,
)
from conftest import BENCH
from reference import Action, stage_cost, states, structure_report_from_json, transition

TOL = 1e-8

TINY = SystemParams(
    erasure_prob=0.3,
    harvest_prob=0.4,
    energy_weight=2.0,
    backup_cost=1.5,
    battery_cap=2,
    aoi_cap=8,
)


def tiny_grid(fill):
    return np.full(TINY.grid_shape, float(fill))


def age_ramp():
    # V(d, q) = d for every battery level.
    return np.tile(np.arange(1, TINY.aoi_cap + 1, dtype=float)[:, None], (1, 3))


def test_benchmark_certificates_all_pass(bench_solution):
    v, q = bench_solution
    report = certify_structure(v, q, BENCH, TOL)
    assert report.all_pass
    assert report.monotone_in_aoi
    assert report.monotone_in_battery
    assert report.increment_lower_bound
    assert report.cross_increment
    assert report.submodular_q
    assert report.worst_violation >= -TOL
    assert report.witness is not None


def test_constant_table_is_weakly_monotone():
    aoi, battery = check_value_monotone(tiny_grid(3.0), TINY, TOL)
    assert aoi.passed and battery.passed
    assert aoi.worst_margin == 0.0
    assert battery.worst_margin == 0.0


def test_age_ramp_margins_are_exact():
    """On V(d,q) = d the checks have closed-form margins: the unit increment
    is tight at 0 and the cross increment equals 1 - p."""
    unit, cross = check_value_increments(age_ramp(), TINY, TOL)
    assert unit.passed
    assert unit.worst_margin == pytest.approx(0.0, abs=1e-15)
    assert cross.passed
    assert cross.worst_margin == pytest.approx(1.0 - TINY.erasure_prob, abs=1e-12)


def test_planted_age_violation_is_caught():
    values = age_ramp()
    values[1, :] = values[0, :] - 1.0  # the whole age-2 row dips below age 1
    aoi, battery = check_value_monotone(values, TINY, TOL)
    assert not aoi.passed
    assert aoi.worst_margin == pytest.approx(-1.0)
    assert aoi.witness == (State(1, 0), State(2, 0))
    assert battery.passed  # every row is still battery-flat


def test_planted_battery_violation_is_caught():
    values = age_ramp()
    values[3, 2] = values[3, 1] + 0.5  # V(4,2) above V(4,1)
    aoi, battery = check_value_monotone(values, TINY, TOL)
    assert aoi.passed
    assert not battery.passed
    assert battery.worst_margin == pytest.approx(-0.5)
    assert battery.witness == (State(4, 1), State(4, 2))


def test_planted_submodularity_violation_is_caught():
    q = np.zeros((TINY.aoi_cap, 3, 2))
    q[:, :, 0] = 1.0  # idle-minus-transmit advantage 1 everywhere...
    q[1, 1, 1] = 2.0  # ...except age 2, battery 1, where it dips to -1
    check = check_submodularity(q, TINY, TOL)
    assert not check.passed
    assert check.worst_margin == pytest.approx(-2.0)
    assert check.witness == (State(1, 1), State(2, 1))


def test_truncation_row_is_excluded_from_age_checks():
    values = age_ramp()
    values[-1] = values[-2]  # saturated top row: zero increment, by design
    aoi, _ = check_value_monotone(values, TINY, TOL)
    unit, _ = check_value_increments(values, TINY, TOL)
    assert aoi.passed and unit.passed


def test_qvalues_match_independent_recomputation():
    """The vectorized backup against a direct per-state sum over the
    transition law; also pins the submodularity margins to the same values."""
    v, q = solve(TINY, SolverConfig())
    q_idle, q_tx = bellman_qvalues(v.values, TINY)
    reference = np.empty_like(q)
    for s in states(TINY):
        for action in Action:
            total = stage_cost(s, action, TINY)
            for nxt, prob in transition(s, action, TINY):
                total += prob * v.values[nxt.aoi - 1, nxt.battery]
            reference[s.aoi - 1, s.battery, action] = total
    assert np.abs(reference[:, :, 0] - q_idle).max() < 1e-10
    assert np.abs(reference[:, :, 1] - q_tx).max() < 1e-10
    direct = check_submodularity(reference, TINY, TOL)
    vectorized = check_submodularity(q, TINY, TOL)
    assert direct.worst_margin == pytest.approx(vectorized.worst_margin, abs=1e-10)


def test_certify_aggregates_planted_failure():
    values = age_ramp()
    values[2, 1] = values[1, 1] - 3.0
    _, q = solve(TINY, SolverConfig())
    report = certify_structure(values, q, TINY, TOL)
    assert not report.all_pass
    assert report.worst_violation < 0.0
    assert report.witness is not None


def test_report_json_round_trip(bench_solution):
    v, q = bench_solution
    report = certify_structure(v, q, BENCH, TOL)
    back = structure_report_from_json(report.to_json())
    assert back == report
    assert isinstance(back.witness[0], State)


def test_shape_guards():
    with pytest.raises(ValueError):
        check_value_monotone(np.zeros((3, 3)), TINY, TOL)
    with pytest.raises(ValueError):
        check_submodularity(np.zeros((3, 3, 2)), TINY, TOL)
