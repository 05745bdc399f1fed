"""Certificate tests: real solves must pass, planted violations must not."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aoi_energy import SolverConfig, SystemParams, certify_structure, solve, structure_checks
from aoi_energy.model import State
from aoi_energy.solver import EPSILON, HowardTest, bellman_qvalues, policy_iteration
from aoi_energy.structure import DEFAULT_TOLERANCE, MarginCheck, StructureReport
from conftest import BENCH
from reference import (
    Action,
    extended_bias,
    stage_cost,
    states,
    structure_checks_by_pair,
    structure_report_from_json,
    transition,
)

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


def checks(values, q=None):
    """TINY's checks by name; a zero Q table stands in where only values are under test."""
    q = np.zeros((*TINY.grid_shape, 2)) if q is None else q
    return {check.name: check for check in structure_checks(values, q, TINY)}


def test_benchmark_certificates_all_pass(bench_solution):
    v, q = bench_solution
    report = certify_structure(v.values, q, BENCH)
    assert report.all_pass
    assert report.monotone_in_aoi
    assert report.monotone_in_battery
    assert report.increment_lower_bound
    assert report.cross_increment
    assert report.submodular_q
    assert report.worst_violation >= -DEFAULT_TOLERANCE
    assert report.witness is not None


def test_constant_table_is_weakly_monotone():
    found = checks(tiny_grid(3.0))
    aoi, battery = found["monotone_in_aoi"], found["monotone_in_battery"]
    assert aoi.passed and battery.passed
    assert aoi.worst_margin == 0.0
    assert battery.worst_margin == 0.0


def test_age_ramp_margins_are_exact():
    """On V(d,q) = d the checks have closed-form margins: the unit increment
    is tight at 0 and the cross increment equals 1 - p."""
    found = checks(age_ramp())
    unit, cross = found["increment_lower_bound"], found["cross_increment"]
    assert unit.passed
    assert unit.worst_margin == pytest.approx(0.0, abs=1e-15)
    assert cross.passed
    assert cross.worst_margin == pytest.approx(1.0 - TINY.erasure_prob, abs=1e-12)


def test_planted_age_violation_is_caught():
    values = age_ramp()
    values[1, :] = values[0, :] - 1.0  # the whole age-2 row dips below age 1
    found = checks(values)
    aoi, battery = found["monotone_in_aoi"], found["monotone_in_battery"]
    assert not aoi.passed
    assert aoi.worst_margin == pytest.approx(-1.0)
    assert aoi.witness == (State(1, 0), State(2, 0))
    assert battery.passed  # every row is still battery-flat


def test_planted_battery_violation_is_caught():
    values = age_ramp()
    values[3, 2] = values[3, 1] + 0.5  # V(4,2) above V(4,1)
    found = checks(values)
    aoi, battery = found["monotone_in_aoi"], found["monotone_in_battery"]
    assert aoi.passed
    assert not battery.passed
    assert battery.worst_margin == pytest.approx(-0.5)
    assert battery.witness == (State(4, 1), State(4, 2))


def test_planted_submodularity_violation_is_caught():
    q = np.zeros((TINY.aoi_cap, 3, 2))
    q[:, :, 0] = 1.0  # idle-minus-transmit advantage 1 everywhere...
    q[1, 1, 1] = 2.0  # ...except age 2, battery 1, where it dips to -1
    check = checks(age_ramp(), q)["submodular_q"]
    assert not check.passed
    assert check.worst_margin == pytest.approx(-2.0)
    assert check.witness == (State(1, 1), State(2, 1))


def test_truncation_row_is_excluded_from_age_checks():
    values = age_ramp()
    values[-1] = values[-2]  # saturated top row: zero increment, by design
    found = checks(values)
    aoi, unit = found["monotone_in_aoi"], found["increment_lower_bound"]
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
    direct = checks(v.values, reference)["submodular_q"]
    vectorized = checks(v.values, q)["submodular_q"]
    assert direct.worst_margin == pytest.approx(vectorized.worst_margin, abs=1e-10)


def test_cap_two_checks_only_battery_pairs():
    """At aoi_cap 2 no age pair lies below the cap: the four checks with an
    age step pass with no witness, and the report is the battery check's."""
    params = dataclasses.replace(TINY, aoi_cap=2)
    v, q = solve(params, SolverConfig())
    found = {check.name: check for check in structure_checks(v.values, q, params)}
    battery = found.pop("monotone_in_battery")
    assert battery.passed and battery.witness is not None
    assert list(found.values()) == [MarginCheck(name, True, math.inf, None) for name in found]
    report = certify_structure(v.values, q, params)
    assert report.all_pass
    assert report.worst_violation == battery.worst_margin
    assert report.witness == battery.witness


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    battery_cap=st.integers(1, 4),
    rows=st.integers(2, 12),
    erasure=st.floats(0.0, 1.0),
    ties=st.booleans(),
    slopes=st.tuples(st.floats(-1.0, 3.0), st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
    data=st.data(),
)
def test_structure_checks_match_pairwise_oracle(battery_cap, rows, erasure, ties, slopes, data):
    """Smooth tables, which pass or fail a check at every pair at once, and
    small-integer tables full of ties, each with up to three planted entries
    (NaN among them), of 2 to 12 age rows whatever the cap. Equal reprs mean
    the same flags, the same worst margins bit for bit (NaN included) and the
    same witnesses, as Python ints."""
    params = dataclasses.replace(TINY, erasure_prob=erasure, battery_cap=battery_cap)
    shape = (rows, battery_cap + 1, 3)  # V, Q idle and Q transmit
    if ties:
        small = st.integers(-3, 3).map(float)
        tables = np.array(data.draw(arrays(np.float64, shape, elements=small)))
    else:
        age, charge, advantage = slopes
        row, level = np.indices(shape[:2])
        tables = np.stack([age * (row + 1) - charge * level, advantage * (row + 1), 0.0 * row],
                          axis=-1)
    planted = st.tuples(st.integers(0, rows - 1), st.integers(0, battery_cap),
                        st.integers(0, 2), st.floats(-1e6, 1e6) | st.just(math.nan))
    for row, level, k, value in data.draw(st.lists(planted, max_size=3)):
        tables[row, level, k] = value
    values, q = tables[:, :, 0], tables[:, :, 1:]
    got = structure_checks(values, q, params)
    assert repr(got) == repr(structure_checks_by_pair(values, q, params, DEFAULT_TOLERANCE))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    battery_cap=st.integers(1, 3),
    p=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    omega=st.floats(0.0, 100.0),
)
def test_an_exact_bias_certifies_every_age_property(battery_cap, p, lam, omega):
    """Policy iteration's bias on its D+2 rows and the same bias carried on in closed form
    to 4(D+2) ages give the same five flags, each worst margin within 1e-9 relative (1e-9
    absolute for a margin of 0, such as the unit-rate margin p/(1-p) at p = 0): the rows
    past D+1 add no margin that the pair (D, D+1) does not already show."""
    params = SystemParams(p, lam, omega, 2.0, battery_cap, 40)
    test, policy, _ = policy_iteration(params)
    depth = max(policy.thresholds)
    long = extended_bias(test.values, test.q, depth, 4 * (depth + 2), params)
    own_checks = structure_checks(test.values, test.q, params)
    for own, far in zip(own_checks, structure_checks(*long, params)):
        assert own.passed == far.passed, (own, far)
        assert far.worst_margin == pytest.approx(own.worst_margin, rel=1e-9, abs=1e-9), (own, far)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    battery_cap=st.integers(1, 12),
    p=st.one_of(st.sampled_from([0.0, 0.9995]), st.floats(0.0, 0.9995)),
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    penalty=st.one_of(st.just(0.0), st.floats(0.1, 1000.0)),
)
def test_policy_iteration_answer_passes_every_certificate_property(battery_cap, p, lam, penalty):
    """The paper's theorem on the untruncated chain: over B up to 12, p up to 0.9995, lambda
    from 0 to 1 and omega * c_r up to 1,000, policy iteration's answer passes Howard's test
    (gap at most EPSILON) and its exact bias, on every age, all five certificates."""
    params = SystemParams(p, lam, penalty, 1.0, battery_cap, 40)
    test, _, _ = policy_iteration(params)
    assert isinstance(test, HowardTest) and test.gap <= EPSILON
    assert certify_structure(test.values, test.q, params).all_pass


def test_certify_aggregates_planted_failure():
    values = age_ramp()
    values[2, 1] = values[1, 1] - 3.0
    _, q = solve(TINY, SolverConfig())
    report = certify_structure(values, q, TINY)
    assert not report.all_pass
    assert report.worst_violation < 0.0
    assert report.witness is not None


def test_report_json_round_trip(bench_solution):
    v, q = bench_solution
    report = certify_structure(v.values, q, BENCH)
    back = structure_report_from_json(report.to_json())
    assert back == report
    assert isinstance(back.witness[0], State)


def test_shape_guards():
    """A table of any R >= 2 rows of the B+1 levels is checked; fewer rows, another width, or
    q on other rows is refused, naming both shapes."""
    assert len(checks(np.zeros((3, 3)), np.zeros((3, 3, 2)))) == 5
    for shape in ((1, 3), (8, 4)):
        with pytest.raises(ValueError) as raised:
            checks(np.zeros(shape))
        assert str(raised.value) == f"value shape {shape}, expected (R, 3) with R >= 2"
    with pytest.raises(ValueError, match=re.escape("q shape (3, 3, 2), expected (8, 3, 2)")):
        checks(age_ramp(), np.zeros((3, 3, 2)))


REPORT = StructureReport(
    monotone_in_aoi=True,
    monotone_in_battery=True,
    increment_lower_bound=True,
    cross_increment=True,
    submodular_q=True,
    worst_violation=0.25,
    witness=(State(3, 0), State(4, 1)),
    tolerance=DEFAULT_TOLERANCE,
)
FLAGS = ("monotone_in_aoi", "monotone_in_battery", "increment_lower_bound",
         "cross_increment", "submodular_q")


def test_report_json_bytes():
    """Keys in field order; the witness is written as [[aoi, battery], [aoi, battery]]."""
    assert REPORT.to_json() == (
        '{"monotone_in_aoi": true, "monotone_in_battery": true, '
        '"increment_lower_bound": true, "cross_increment": true, "submodular_q": true, '
        '"worst_violation": 0.25, "witness": [[3, 0], [4, 1]], "tolerance": 1e-08}'
    )
    assert dataclasses.replace(REPORT, witness=None).to_json().endswith(
        '"witness": null, "tolerance": 1e-08}'
    )


@pytest.mark.parametrize("flag", FLAGS)
def test_any_failed_certificate_fails_the_report(flag):
    assert REPORT.all_pass
    assert not dataclasses.replace(REPORT, **{flag: False}).all_pass


def test_checks_come_in_report_field_order(bench_solution):
    v, q = bench_solution
    assert tuple(check.name for check in structure_checks(v.values, q, BENCH)) == FLAGS
