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
increments saturate there. The cap truncates the solver's grid and
enumeration's chain; exact evaluation and the Monte Carlo simulator work on
the untruncated chain and ignore it. Whether the truncation is adequate is
tested by the solver, on the untruncated chain, not assumed here.

This module holds the parameters and the state. The slot law is written
where it runs, twice: in the solver's Bellman backup, and in
``evaluation._slot`` for the simulator, exact evaluation and enumeration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["State", "SystemParams"]

# Largest (age rows x battery levels) grid the solver or the simulator builds.
MAX_GRID_STATES = 1 << 20


def is_int(value) -> bool:
    """An int but not a bool, which ``isinstance(x, int)`` admits (JSON ``true`` loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int or a float but not a bool, which ``isinstance(x, (int, float))`` admits."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def unique_keys(pairs: list) -> dict:
    """A ``json.loads`` object hook that refuses a repeated key, of which the last would win."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"JSON key {key!r} is given twice")
        data[key] = value
    return data


def check_grid(rows: int, width: int, what: str) -> None:
    """Refuse a grid above :data:`MAX_GRID_STATES` states before it is allocated."""
    if rows * width > MAX_GRID_STATES:
        raise ValueError(
            f"the {rows} x {width} ({what}) grid of {rows * width} states exceeds "
            f"the limit of {MAX_GRID_STATES} states"
        )


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
            if not (is_real(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("energy_weight", "backup_cost"):
            value = getattr(self, name)
            if not (is_real(value) and math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite nonnegative real, got {value!r}")
        if not math.isfinite(self.energy_weight * self.backup_cost):
            raise ValueError(
                f"energy_weight * backup_cost overflows: {self.energy_weight!r} * "
                f"{self.backup_cost!r} is not a finite backup penalty"
            )
        for name, low in (("battery_cap", 1), ("aoi_cap", 2)):
            value = getattr(self, name)
            if not (is_int(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")

    def validate_for_solve(self) -> None:
        """The solver's domain, stated once: erasure_prob < 1 and a grid it can hold.

        At erasure_prob = 1 no update is ever delivered and every policy's
        average age is infinite, so that corner is evaluation-only; every
        p in [0, 1) is solved as given, p = 0 included. The grid may hold at
        most :data:`MAX_GRID_STATES` states.
        """
        check_grid(self.aoi_cap, self.battery_cap + 1, "aoi_cap x battery levels")
        if not self.erasure_prob < 1.0:
            raise ValueError(
                f"solving requires erasure_prob < 1, got {self.erasure_prob!r}: "
                "no update is ever delivered (p = 1 is eval-only)"
            )

    @property
    def n_states(self) -> int:
        return self.aoi_cap * (self.battery_cap + 1)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.aoi_cap, self.battery_cap + 1)

    @classmethod
    def from_json(cls, text: str) -> "SystemParams":
        def reject_constant(token: str) -> float:
            raise ValueError(f"non-finite value {token!r} not accepted in parameters")

        data = json.loads(text, parse_constant=reject_constant, object_pairs_hook=unique_keys)
        if not isinstance(data, dict):
            raise ValueError("parameter JSON must be an object")
        required = {"p", "lambda", "omega", "c_r", "battery_cap", "aoi_cap"}
        missing = required - data.keys()
        if missing:
            raise ValueError(f"parameter JSON missing keys: {sorted(missing)}")
        unknown = data.keys() - required
        if unknown:
            raise ValueError(f"parameter JSON has unknown keys: {sorted(unknown)}")
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
