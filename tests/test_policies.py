"""Policy abstraction tests: decisions, parsing, serialization."""

import dataclasses
import typing

import numpy as np
import pytest

from aoi_energy import (
    EnergyFirst,
    Periodic,
    Randomized,
    SimConfig,
    SolverConfig,
    SystemParams,
    ZeroWait,
    evaluate_exact,
    greedy_policy,
    parse_policy_spec,
    policy_label,
    simulate,
    solve,
)
from aoi_energy.evaluation import _transmit_rows
from aoi_energy.model import State
from aoi_energy.policies import PolicySpec, ThresholdPolicy
from conftest import refuse_allocation
from reference import Action, decide, read_threshold_csv, state_action, transmit_count

PARAMS = SystemParams(
    erasure_prob=0.2,
    harvest_prob=0.5,
    energy_weight=10.0,
    backup_cost=2.0,
    battery_cap=5,
    aoi_cap=40,
)

RNG = np.random.default_rng(0)


def test_zero_wait_always_transmits():
    for s in (State(1, 0), State(99, 5)):
        assert decide(ZeroWait(), s, 0, RNG) == Action.TRANSMIT


def test_energy_first_spares_the_backup():
    assert decide(EnergyFirst(), State(9, 0), 3, RNG) == Action.IDLE
    assert decide(EnergyFirst(), State(9, 1), 3, RNG) == Action.TRANSMIT


def test_periodic_follows_slot_index():
    spec = Periodic(5)
    assert decide(spec, State(1, 0), 0, RNG) == Action.TRANSMIT
    assert decide(spec, State(1, 0), 10, RNG) == Action.TRANSMIT
    assert decide(spec, State(1, 0), 11, RNG) == Action.IDLE


def test_threshold_cutoff_is_inclusive():
    spec = ThresholdPolicy(thresholds=(None, 3, 9, 7, 2, 1))
    assert decide(spec, State(7, 3), 0, RNG) == Action.TRANSMIT
    assert decide(spec, State(6, 3), 0, RNG) == Action.IDLE
    assert decide(spec, State(500, 0), 0, RNG) == Action.IDLE  # never at q=0


def test_randomized_extremes_and_rate():
    assert all(
        decide(Randomized(1.0), State(1, 0), t, RNG) == Action.TRANSMIT for t in range(50)
    )
    assert all(
        decide(Randomized(0.0), State(1, 0), t, RNG) == Action.IDLE for t in range(50)
    )
    rng = np.random.default_rng(17)
    rate = sum(decide(Randomized(0.5), State(1, 0), t, rng) for t in range(10_000)) / 10_000
    assert abs(rate - 0.5) < 0.02


def test_policy_table_lookup_clamps_old_ages():
    table = np.zeros((4, 3), dtype=np.int8)
    table[3, :] = 1
    assert state_action(table, State(4, 0)) == Action.TRANSMIT
    assert state_action(table, State(100, 0)) == Action.TRANSMIT  # beyond grid: top row
    assert state_action(table, State(3, 0)) == Action.IDLE
    assert transmit_count(table) == 3
    with pytest.raises(ValueError):
        state_action(table, State(0, 0))


def test_threshold_table_expansion_matches_decisions():
    """The evaluators' transmit rows of a threshold policy: one per age up to its largest
    finite threshold, the last for every older age too."""
    spec = ThresholdPolicy(thresholds=(None, 4, 2, 2, 1, 1))
    rows = _transmit_rows(spec, PARAMS)
    assert rows.shape == (4, PARAMS.battery_cap + 1)
    for aoi in range(1, PARAMS.aoi_cap + 1):
        for q in range(PARAMS.battery_cap + 1):
            assert rows[min(aoi, len(rows)) - 1, q] == state_action(spec, State(aoi, q))


def test_threshold_battery_mismatch_rejected():
    spec = ThresholdPolicy(thresholds=(1, 1))
    with pytest.raises(ValueError, match="battery 0..1"):
        _transmit_rows(spec, PARAMS)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize(
    "build",
    [
        lambda: Periodic(0),
        lambda: Periodic(-1),
        lambda: Periodic(2.5),
        lambda: Randomized(1.5),
        lambda: Randomized(-0.1),
        lambda: ThresholdPolicy(thresholds=(1,)),
        lambda: ThresholdPolicy(thresholds=(0, 1)),
        lambda: ThresholdPolicy(thresholds=(1.5, 1)),
        lambda: Randomized(True),
        lambda: Randomized(False),
        lambda: Randomized("0.5"),
    ],
)
def test_invalid_specs_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_periodic_refuses_bools():
    with pytest.raises(ValueError, match="period"):
        Periodic(True)


def test_periodic_has_its_period_only():
    """The offset of the transmit slots moves no long-run cost, so it is no field."""
    assert [field.name for field in dataclasses.fields(Periodic)] == ["period"]
    with pytest.raises(TypeError):
        Periodic(5, 2)


# ---------------------------------------------------------------------------
# parsing and labels


@pytest.mark.parametrize(
    "text,expected",
    [
        ("zero-wait", ZeroWait()),
        ("energy-first", EnergyFirst()),
        ("periodic:5", Periodic(5)),
        ("periodic:1", Periodic(1)),
        ("random:0.25", Randomized(0.25)),
    ],
)
def test_parse_policy_spec(text, expected):
    assert parse_policy_spec(text) == expected


def test_parse_labels_round_trip():
    # Coins that agree to 6 digits get distinct labels; what :g renders exactly keeps its form.
    for text in ("zero-wait", "energy-first", "periodic:5", "random:0.5",
                 "random:0", "random:1", "random:1e-07", "random:0.1234561", "random:0.1234562"):
        assert policy_label(parse_policy_spec(text)) == text


def test_solver_policies_have_fixed_labels():
    assert policy_label(ThresholdPolicy(thresholds=(None, 6, 2))) == "threshold"


def test_policy_spec_holds_the_kinds_the_parser_builds(tmp_path):
    """Every kind of ``PolicySpec`` has a command-line form, and every form builds one."""
    path = tmp_path / "tp.json"
    path.write_text(ThresholdPolicy(thresholds=(None, 6, 2)).to_json())
    texts = ["zero-wait", "energy-first", "periodic:5", "random:0.5", f"threshold:{path}"]
    assert set(typing.get_args(PolicySpec)) == {type(parse_policy_spec(t)) for t in texts}


def test_an_unknown_spec_is_refused_by_label_and_simulator(monkeypatch):
    """An object that is no policy spec is a TypeError, naming it, not a silent default.

    The solver's action table is no spec either: scoring it takes its thresholds first.
    """
    with pytest.raises(TypeError, match="unknown policy spec 'zero-wait'"):
        policy_label("zero-wait")
    with pytest.raises(TypeError, match="unknown policy spec 'zero-wait'"):
        simulate([ZeroWait(), "zero-wait"], PARAMS, SimConfig(horizon=10))
    table = greedy_policy(*solve(PARAMS, SolverConfig()), PARAMS)
    assert table.dtype == np.int8 and table.shape == PARAMS.grid_shape
    with pytest.raises(TypeError, match="unknown policy spec array"):
        policy_label(table)
    with pytest.raises(TypeError, match="unknown policy spec array"):
        evaluate_exact(table, PARAMS)
    refuse_allocation(monkeypatch)
    with pytest.raises(TypeError, match="unknown policy spec array"):
        simulate([ZeroWait(), table], PARAMS, SimConfig(horizon=10))


@pytest.mark.parametrize(
    "text", ["bogus", "periodic:zero", "periodic:7:3", "random:much", "threshold:"]
)
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(ValueError):
        parse_policy_spec(text)


def test_parse_threshold_file(tmp_path):
    spec = ThresholdPolicy(thresholds=(None, 6, 2))
    path = tmp_path / "tp.json"
    path.write_text(spec.to_json() + "\n")
    assert parse_policy_spec(f"threshold:{path}") == spec


def test_threshold_json_round_trip():
    spec = ThresholdPolicy(thresholds=(None, 12, 3, 1))
    assert ThresholdPolicy.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        ThresholdPolicy.from_json('{"cutoffs": [1, 2]}')


def test_threshold_json_refuses_unknown_keys():
    """A key other than ``thresholds`` is refused by name; it is not silently dropped."""
    with pytest.raises(ValueError, match=r"unknown keys: \['battery_cap'\]"):
        ThresholdPolicy.from_json('{"thresholds": [null, 2], "battery_cap": 1}')


def test_threshold_json_refuses_a_repeated_key():
    """A repeated key is refused by name; the last list does not silently win."""
    with pytest.raises(ValueError, match="JSON key 'thresholds' is given twice"):
        ThresholdPolicy.from_json('{"thresholds": [null, 2], "thresholds": [1, 1]}')


def test_threshold_csv_round_trip(tmp_path):
    spec = ThresholdPolicy(thresholds=(None, 12, 3, 1))
    path = tmp_path / "tp.csv"
    spec.write_csv(str(path))
    assert read_threshold_csv(str(path)) == spec
    lines = path.read_text().splitlines()
    assert lines[0] == "q,threshold"
    assert lines[1] == "0,never"


def test_threshold_csv_rejects_gaps(tmp_path):
    path = tmp_path / "tp.csv"
    path.write_text("q,threshold\n0,3\n2,1\n")
    with pytest.raises(ValueError):
        read_threshold_csv(str(path))


# ---------------------------------------------------------------------------
# declared behavioral guarantees


def test_energy_first_never_pays_for_energy():
    report = simulate(
        [EnergyFirst()], PARAMS, SimConfig(horizon=1_000_000, replications=1, seed=99)
    )[0]
    assert report.avg_weighted_energy == 0.0
    assert report.avg_total_cost == report.avg_aoi
