"""Discrete-time status-update model with a harvesting battery and paid backup.

State is ``(aoi, battery)``: the age of the newest update held by the receiver
and the charge level of a finite rechargeable battery. Each slot the sender
either idles or transmits a fresh update over an erasure channel. A
transmission spends one energy unit, taken from the battery when it is
charged and otherwise from an unlimited backup supply that costs
``backup_cost`` per use. Harvested energy arrives as a Bernoulli process and
is credited after the spend, so a unit arriving in the same slot never
rescues an already-empty battery.

The age axis is truncated at ``aoi_cap`` for finite-state computation: age
increments saturate there. Whether the truncation is adequate is checked by
the solver, not assumed here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "Action",
    "State",
    "SystemParams",
    "TransitionDist",
    "StepOutcome",
    "transition",
    "stage_cost",
    "sample_step",
    "states",
    "state_index",
    "index_state",
]

RandomStream = np.random.Generator

_PROB_ATOL = 1e-12

# Largest (age rows x battery levels) grid the solver or the simulator builds.
MAX_GRID_STATES = 1 << 20


def check_grid(rows: int, width: int, what: str) -> None:
    """Refuse a grid above :data:`MAX_GRID_STATES` states before it is allocated."""
    if rows * width > MAX_GRID_STATES:
        raise ValueError(
            f"the {rows} x {width} ({what}) grid of {rows * width} states exceeds "
            f"the limit of {MAX_GRID_STATES} states"
        )


class Action(IntEnum):
    """The two per-slot decisions."""

    IDLE = 0
    TRANSMIT = 1


class State(NamedTuple):
    """Age of the freshest delivered update and current battery charge."""

    aoi: int
    battery: int


@dataclass(frozen=True)
class SystemParams:
    """Model constants plus the age-truncation bound for finite solving.

    Attributes
    ----------
    erasure_prob:
        Probability a transmitted update is lost in the channel.
    harvest_prob:
        Per-slot probability that one energy unit is harvested.
    energy_weight:
        Weight of the backup-energy term in the stage cost.
    backup_cost:
        Cost charged per update sent on backup energy (empty battery).
    battery_cap:
        Battery capacity in energy units, at least 1.
    aoi_cap:
        Age value at which the finite state space saturates, at least 2.
    """

    erasure_prob: float
    harvest_prob: float
    energy_weight: float
    backup_cost: float
    battery_cap: int
    aoi_cap: int

    def __post_init__(self) -> None:
        for name in ("erasure_prob", "harvest_prob"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("energy_weight", "backup_cost"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite nonnegative real, got {value!r}")
        if not math.isfinite(self.energy_weight * self.backup_cost):
            raise ValueError(
                f"energy_weight * backup_cost overflows: {self.energy_weight!r} * "
                f"{self.backup_cost!r} is not a finite backup penalty"
            )
        for name, low in (("battery_cap", 1), ("aoi_cap", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")

    def validate_for_solve(self) -> None:
        """Reject parameter corners where the Bellman problem degenerates.

        Solving needs 0 < erasure_prob < 1: at 0 every transmission succeeds
        and at 1 none does, and both corners are reserved for evaluation-only
        experiments. energy_weight = 0 is allowed (the always-transmit test
        regime). The grid may hold at most :data:`MAX_GRID_STATES` states.
        """
        check_grid(self.aoi_cap, self.battery_cap + 1, "aoi_cap x battery levels")
        if not 0.0 < self.erasure_prob < 1.0:
            raise ValueError(
                "solving requires 0 < erasure_prob < 1; "
                f"got {self.erasure_prob!r} (degenerate values are eval-only)"
            )

    @property
    def n_states(self) -> int:
        return self.aoi_cap * (self.battery_cap + 1)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.aoi_cap, self.battery_cap + 1)

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.erasure_prob,
                "lambda": self.harvest_prob,
                "omega": self.energy_weight,
                "c_r": self.backup_cost,
                "battery_cap": self.battery_cap,
                "aoi_cap": self.aoi_cap,
            },
            allow_nan=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "SystemParams":
        def reject_constant(token: str) -> float:
            raise ValueError(f"non-finite value {token!r} not accepted in parameters")

        data = json.loads(text, parse_constant=reject_constant)
        if not isinstance(data, dict):
            raise ValueError("parameter JSON must be an object")
        required = {"p", "lambda", "omega", "c_r", "battery_cap", "aoi_cap"}
        missing = required - data.keys()
        if missing:
            raise ValueError(f"parameter JSON missing keys: {sorted(missing)}")
        # type(), not isinstance(): JSON true/false load as bool, a subclass of int.
        for key in ("p", "lambda", "omega", "c_r"):
            if type(data[key]) not in (int, float) or not math.isfinite(data[key]):
                raise ValueError(f"parameter {key!r} must be a finite real, got {data[key]!r}")
        for key in ("battery_cap", "aoi_cap"):
            if type(data[key]) is not int:
                raise ValueError(f"parameter {key!r} must be an integer, got {data[key]!r}")
        return cls(
            erasure_prob=float(data["p"]),
            harvest_prob=float(data["lambda"]),
            energy_weight=float(data["omega"]),
            backup_cost=float(data["c_r"]),
            battery_cap=data["battery_cap"],
            aoi_cap=data["aoi_cap"],
        )


@dataclass(frozen=True)
class TransitionDist:
    """Exact successor distribution with at most four support points."""

    entries: tuple[tuple[State, float], ...]

    def __post_init__(self) -> None:
        if len(self.entries) > 4:
            raise ValueError(f"transition support has {len(self.entries)} points, expected <= 4")
        seen = set()
        total = 0.0
        for state, prob in self.entries:
            if state in seen:
                raise ValueError(f"duplicate successor state {state}")
            seen.add(state)
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability {prob!r} for {state} outside [0, 1]")
            total += prob
        if abs(total - 1.0) > _PROB_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_PROB_ATOL}")

    def as_dict(self) -> dict[State, float]:
        return dict(self.entries)

    def __iter__(self) -> Iterator[tuple[State, float]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class StepOutcome:
    """Everything observable from one simulated slot."""

    next_state: State
    delivered: bool
    energy_arrived: bool
    reliable_cost_paid: float
    stage_cost: float


def _require_valid_state(state: State, params: SystemParams) -> None:
    if not (1 <= state.aoi <= params.aoi_cap):
        raise ValueError(f"aoi {state.aoi} outside [1, {params.aoi_cap}]")
    if not (0 <= state.battery <= params.battery_cap):
        raise ValueError(f"battery {state.battery} outside [0, {params.battery_cap}]")


def _successors(state: State, action: Action, params: SystemParams) -> list[tuple[State, float]]:
    """Raw successor list; probability-zero branches dropped, duplicates merged."""
    lam = params.harvest_prob
    p = params.erasure_prob
    aged = min(state.aoi + 1, params.aoi_cap)
    if action == Action.IDLE:
        charged = min(state.battery + 1, params.battery_cap)
        raw = [
            (State(aged, charged), lam),
            (State(aged, state.battery), 1.0 - lam),
        ]
    else:
        # Battery after the spend: one unit if charged, else the backup pays
        # and the battery stays empty. Harvest credit lands afterwards.
        spent = max(state.battery - 1, 0)
        raw = [
            (State(aged, spent + 1), p * lam),
            (State(1, spent + 1), (1.0 - p) * lam),
            (State(aged, spent), p * (1.0 - lam)),
            (State(1, spent), (1.0 - p) * (1.0 - lam)),
        ]
    merged: dict[State, float] = {}
    for nxt, prob in raw:
        if prob > 0.0:
            merged[nxt] = merged.get(nxt, 0.0) + prob
    return list(merged.items())


def transition(state: State, action: Action, params: SystemParams) -> TransitionDist:
    """Exact one-slot successor distribution of ``(aoi, battery)``.

    Idling ages the update and may charge the battery. Transmitting spends
    one unit (backup when empty), ages the update on erasure and resets the
    age to 1 on delivery. Age saturates at ``params.aoi_cap``.
    """
    _require_valid_state(state, params)
    return TransitionDist(tuple(_successors(state, Action(action), params)))


def stage_cost(state: State, action: Action, params: SystemParams) -> float:
    """Per-slot cost: current age plus the weighted backup-energy charge."""
    _require_valid_state(state, params)
    cost = float(state.aoi)
    if action == Action.TRANSMIT and state.battery == 0:
        cost += params.energy_weight * params.backup_cost
    return cost


def sample_step(
    state: State, action: Action, params: SystemParams, rng: RandomStream
) -> StepOutcome:
    """Draw one slot of the chain; ``next_state`` follows ``transition``.

    Draw order is fixed: the harvest Bernoulli first, then (only when
    transmitting) the erasure Bernoulli.
    """
    _require_valid_state(state, params)
    action = Action(action)
    energy_arrived = bool(rng.random() < params.harvest_prob)
    delivered = False
    paid = 0.0
    spend = 0
    if action == Action.TRANSMIT:
        delivered = bool(rng.random() >= params.erasure_prob)
        if state.battery > 0:
            spend = 1
        else:
            paid = params.backup_cost
    next_battery = min(state.battery - spend + int(energy_arrived), params.battery_cap)
    next_aoi = 1 if delivered else min(state.aoi + 1, params.aoi_cap)
    return StepOutcome(
        next_state=State(next_aoi, next_battery),
        delivered=delivered,
        energy_arrived=energy_arrived,
        reliable_cost_paid=paid,
        stage_cost=float(state.aoi) + params.energy_weight * paid,
    )


def states(params: SystemParams) -> Iterator[State]:
    """All grid states, age-major: (1,0), (1,1), ..., (aoi_cap, battery_cap)."""
    for aoi in range(1, params.aoi_cap + 1):
        for battery in range(params.battery_cap + 1):
            yield State(aoi, battery)


def state_index(state: State, params: SystemParams) -> int:
    """Flat age-major index matching :func:`states` order."""
    return (state.aoi - 1) * (params.battery_cap + 1) + state.battery


def index_state(index: int, params: SystemParams) -> State:
    width = params.battery_cap + 1
    return State(index // width + 1, index % width)
