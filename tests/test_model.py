"""Model-layer tests: transition law, stage cost, sampling, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from aoi_energy import SystemParams
from aoi_energy.model import State
from reference import (Action, StepOutcome, index_state, params_to_json, sample_step, sample_steps,
                       stage_cost, state_index, states, transition)

PARAMS = SystemParams(
    erasure_prob=0.2,
    harvest_prob=0.5,
    energy_weight=10.0,
    backup_cost=2.0,
    battery_cap=20,
    aoi_cap=200,
)


def dist_dict(state, action, params=PARAMS):
    return transition(state, action, params).as_dict()


# ---------------------------------------------------------------------------
# transition


def test_idle_empty_battery_splits_on_harvest():
    assert dist_dict(State(3, 0), Action.IDLE) == {
        State(4, 1): pytest.approx(0.5),
        State(4, 0): pytest.approx(0.5),
    }


def test_idle_full_battery_is_deterministic():
    # The harvested unit has nowhere to go, so both branches merge.
    d = dist_dict(State(3, 20), Action.IDLE)
    assert d == {State(4, 20): pytest.approx(1.0)}


def test_transmit_charged_battery_four_outcomes():
    assert dist_dict(State(2, 1), Action.TRANSMIT) == {
        State(3, 1): pytest.approx(0.10),
        State(1, 1): pytest.approx(0.40),
        State(3, 0): pytest.approx(0.10),
        State(1, 0): pytest.approx(0.40),
    }


def test_transmit_empty_battery_same_support():
    # The backup pays, the battery stays at 0 before the harvest credit, so
    # the successor law coincides with the charged case at battery 1.
    assert dist_dict(State(2, 0), Action.TRANSMIT) == dist_dict(State(2, 1), Action.TRANSMIT)


def test_age_saturates_at_cap():
    top = PARAMS.aoi_cap
    d = dist_dict(State(top, 5), Action.IDLE)
    assert set(d) == {State(top, 6), State(top, 5)}
    d = dist_dict(State(top, 5), Action.TRANSMIT)
    assert set(d) == {State(top, 5), State(1, 5), State(top, 4), State(1, 4)}


@pytest.mark.parametrize(
    "state",
    [State(0, 0), State(-1, 3), State(201, 0), State(3, -1), State(3, 21)],
)
def test_transition_rejects_off_grid_states(state):
    with pytest.raises(ValueError):
        transition(state, Action.IDLE, PARAMS)


def test_transition_distributions_are_proper_over_grid():
    small = SystemParams(
        erasure_prob=0.3,
        harvest_prob=0.4,
        energy_weight=2.0,
        backup_cost=1.5,
        battery_cap=3,
        aoi_cap=6,
    )
    for s in states(small):
        for action in Action:
            d = transition(s, action, small)
            assert len(d) <= 4
            assert sum(p for _, p in d) == pytest.approx(1.0, abs=1e-12)
            for nxt, p in d:
                assert 0.0 < p <= 1.0
                assert 1 <= nxt.aoi <= small.aoi_cap
                assert 0 <= nxt.battery <= small.battery_cap


def test_degenerate_probability_corners_drop_zero_branches():
    sure = SystemParams(
        erasure_prob=0.0,
        harvest_prob=1.0,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=2,
        aoi_cap=4,
    )
    # p=0: every transmission delivers; lambda=1: every slot harvests.
    assert dist_dict(State(2, 1), Action.TRANSMIT, sure) == {State(1, 1): pytest.approx(1.0)}
    assert dist_dict(State(2, 0), Action.IDLE, sure) == {State(3, 1): pytest.approx(1.0)}


# ---------------------------------------------------------------------------
# stage cost


def test_stage_cost_charges_backup_only_when_empty():
    assert stage_cost(State(5, 0), Action.TRANSMIT, PARAMS) == 25.0
    assert stage_cost(State(5, 3), Action.TRANSMIT, PARAMS) == 5.0
    assert stage_cost(State(7, 0), Action.IDLE, PARAMS) == 7.0


def test_stage_cost_scales_with_weight_and_price():
    cheap = SystemParams(
        erasure_prob=0.2,
        harvest_prob=0.5,
        energy_weight=3.0,
        backup_cost=0.5,
        battery_cap=2,
        aoi_cap=10,
    )
    assert stage_cost(State(4, 0), Action.TRANSMIT, cheap) == 4.0 + 3.0 * 0.5


# ---------------------------------------------------------------------------
# sample_step


def test_energy_arrival_frequency_matches_rate():
    rng = np.random.default_rng(7)
    n = 1_000_000
    hits = np.count_nonzero(sample_steps(State(1, 0), Action.IDLE, PARAMS, rng, n).energy_arrived)
    assert abs(hits / n - PARAMS.harvest_prob) < 0.002


def test_sampled_law_matches_transition_distribution():
    """Empirical successor histogram against the exact law, chi-square checked."""
    rng = np.random.default_rng(11)
    n = 1_000_000
    out = sample_steps(State(2, 1), Action.TRANSMIT, PARAMS, rng, n)
    aoi, battery = out.next_state
    tally = np.bincount((aoi - 1) * (PARAMS.battery_cap + 1) + battery)
    counts = {index_state(int(i), PARAMS): int(tally[i]) for i in np.flatnonzero(tally)}
    exact = dist_dict(State(2, 1), Action.TRANSMIT)
    assert set(counts) == set(exact)
    for nxt, prob in exact.items():
        assert abs(counts[nxt] / n - prob) < 0.002
    support = sorted(exact)
    chi2 = stats.chisquare(
        [counts[s] for s in support], [exact[s] * n for s in support]
    )
    assert chi2.pvalue > 1e-6


@pytest.mark.parametrize("action", list(Action))
@pytest.mark.parametrize("state", [State(1, 0), State(3, 2), State(200, 20)])
def test_batched_sampling_matches_one_slot_at_a_time(state, action):
    """The same outcomes slot for slot, and the generator left at the same draw."""
    one, many = np.random.default_rng(19), np.random.default_rng(19)
    slots = [sample_step(state, action, PARAMS, one) for _ in range(300)]
    batch = sample_steps(state, action, PARAMS, many, 300)
    columns = zip(*batch.next_state, *batch[1:])
    assert slots == [
        StepOutcome(State(int(aoi), int(battery)), bool(delivered), bool(arrived), paid, cost)
        for aoi, battery, delivered, arrived, paid, cost in columns
    ]
    assert one.random() == many.random()


def test_backup_paid_exactly_when_transmitting_empty():
    rng = np.random.default_rng(3)
    for aoi in (1, 4, 9):
        for battery in (0, 1, 5):
            for action in Action:
                out = sample_step(State(aoi, battery), action, PARAMS, rng)
                should_pay = action == Action.TRANSMIT and battery == 0
                assert out.reliable_cost_paid == (PARAMS.backup_cost if should_pay else 0.0)
                assert out.stage_cost == aoi + PARAMS.energy_weight * out.reliable_cost_paid


def test_delivery_resets_age_and_requires_transmit():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        out = sample_step(State(6, 2), Action.TRANSMIT, PARAMS, rng)
        assert out.next_state.aoi == (1 if out.delivered else 7)
        idle = sample_step(State(6, 2), Action.IDLE, PARAMS, rng)
        assert not idle.delivered
        assert idle.next_state.aoi == 7


def test_battery_stays_in_bounds_along_trajectory():
    small = SystemParams(
        erasure_prob=0.4,
        harvest_prob=0.6,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=3,
        aoi_cap=12,
    )
    rng = np.random.default_rng(13)
    s = State(1, 0)
    for _ in range(10_000):
        action = Action.TRANSMIT if rng.random() < 0.5 else Action.IDLE
        out = sample_step(s, action, small, rng)
        s = out.next_state
        assert 0 <= s.battery <= small.battery_cap
        assert 1 <= s.aoi <= small.aoi_cap


def test_sample_step_is_reproducible():
    a = [sample_step(State(2, 1), Action.TRANSMIT, PARAMS, np.random.default_rng(42))
         for _ in range(5)]
    b = [sample_step(State(2, 1), Action.TRANSMIT, PARAMS, np.random.default_rng(42))
         for _ in range(5)]
    assert a == b
    assert isinstance(a[0], StepOutcome)


# ---------------------------------------------------------------------------
# parameters and indexing


def test_params_json_round_trip():
    text = params_to_json(PARAMS)
    assert SystemParams.from_json(text) == PARAMS
    payload = json.loads(text)
    assert set(payload) == {"p", "lambda", "omega", "c_r", "battery_cap", "aoi_cap"}


@pytest.mark.parametrize(
    "text",
    [
        '{"p": NaN, "lambda": 0.5, "omega": 1, "c_r": 1, "battery_cap": 2, "aoi_cap": 4}',
        '{"p": Infinity, "lambda": 0.5, "omega": 1, "c_r": 1, "battery_cap": 2, "aoi_cap": 4}',
        '{"p": 0.2, "lambda": 0.5, "omega": 1, "c_r": 1, "battery_cap": 2}',
        '{"p": 0.2, "lambda": 0.5, "omega": 1, "c_r": 1, "battery_cap": 2.5, "aoi_cap": 4}',
        '[1, 2, 3]',
    ],
)
def test_params_json_rejects_bad_payloads(text):
    with pytest.raises(ValueError):
        SystemParams.from_json(text)


def test_params_json_refuses_unknown_keys():
    """A misspelt or extra key is refused by name; it is not silently dropped."""
    payload = json.loads(params_to_json(PARAMS)) | {"B": 9, "lamda": 0.9}
    with pytest.raises(ValueError, match=r"unknown keys: \['B', 'lamda'\]"):
        SystemParams.from_json(json.dumps(payload))


def test_params_json_refuses_a_repeated_key():
    """A repeated key is refused by name; the last value does not silently win."""
    text = params_to_json(PARAMS)[:-1] + ', "p": 0.9}'
    with pytest.raises(ValueError, match="JSON key 'p' is given twice"):
        SystemParams.from_json(text)


@pytest.mark.parametrize(
    "field,value",
    [
        ("erasure_prob", 1.5),
        ("erasure_prob", -0.1),
        ("harvest_prob", 2.0),
        ("energy_weight", -1.0),
        ("backup_cost", math.inf),
        ("battery_cap", 0),
        ("aoi_cap", 1),
        ("battery_cap", True),
        ("aoi_cap", True),
        ("erasure_prob", True),
        ("harvest_prob", False),
        ("energy_weight", True),
        ("backup_cost", False),
        ("harvest_prob", "0.5"),
        ("energy_weight", None),
    ],
)
def test_params_validation(field, value):
    kwargs = dict(
        erasure_prob=0.2,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=2,
        aoi_cap=4,
    )
    kwargs[field] = value
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


def test_solve_mode_rejects_degenerate_erasure():
    params = SystemParams(
        erasure_prob=1.0,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=2,
        aoi_cap=4,
    )
    with pytest.raises(ValueError, match="erasure_prob < 1"):
        params.validate_for_solve()
    dataclasses.replace(params, erasure_prob=0.0).validate_for_solve()  # p = 0 is solved


def test_state_indexing_round_trip():
    small = SystemParams(
        erasure_prob=0.2,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=3,
        aoi_cap=5,
    )
    listed = list(states(small))
    assert len(listed) == small.n_states
    assert listed[0] == State(1, 0)
    assert listed[-1] == State(5, 3)
    for i, s in enumerate(listed):
        assert state_index(s, small) == i
        assert index_state(i, small) == s
