"""Uniform policy abstraction: the solved policy and the baselines.

A policy spec is any of five kinds, the ones :func:`parse_policy_spec`
builds: ``ZeroWait`` (transmit every slot), ``Periodic`` (transmit every
m-th slot), ``Randomized`` (coin-flip each slot), ``EnergyFirst`` (transmit
whenever the battery is charged, so the backup supply is never touched), or
a ``ThresholdPolicy`` (transmit once the age reaches a per-battery-level
threshold). Each kind is plain data; the evaluators read its actions off it
directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import is_int, is_real, unique_keys

__all__ = [
    "ThresholdPolicy",
    "ZeroWait",
    "Periodic",
    "Randomized",
    "EnergyFirst",
    "PolicySpec",
    "parse_policy_spec",
    "policy_label",
]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Transmit exactly when age >= threshold for the current battery level.

    ``thresholds[q]`` is the age threshold at battery q; ``None`` means the
    policy never transmits at that battery level. A bool (JSON ``true``) is
    refused, not read as 1.
    """

    thresholds: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.thresholds) < 2:
            raise ValueError("need thresholds for battery levels 0..battery_cap with cap >= 1")
        cleaned = []
        for q, value in enumerate(self.thresholds):
            if value is None:
                cleaned.append(None)
            elif isinstance(value, (int, np.integer)) and type(value) is not bool and value >= 1:
                cleaned.append(int(value))
            else:
                raise ValueError(f"threshold at battery {q} must be an integer >= 1 or None")
        object.__setattr__(self, "thresholds", tuple(cleaned))

    @property
    def battery_cap(self) -> int:
        return len(self.thresholds) - 1

    def to_json(self) -> str:
        return json.dumps({"thresholds": list(self.thresholds)}, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ThresholdPolicy":
        data = json.loads(text, object_pairs_hook=unique_keys)
        if not isinstance(data, dict) or not isinstance(data.get("thresholds"), list):
            raise ValueError("threshold JSON must be an object with a 'thresholds' list")
        unknown = data.keys() - {"thresholds"}
        if unknown:
            raise ValueError(f"threshold JSON has unknown keys: {sorted(unknown)}")
        return cls(thresholds=tuple(data["thresholds"]))


@dataclass(frozen=True)
class ZeroWait:
    """Transmit a fresh update every slot."""


@dataclass(frozen=True)
class EnergyFirst:
    """Transmit whenever the battery is charged; never draw on the backup."""


@dataclass(frozen=True)
class Periodic:
    """Transmit in slots 0, m, 2m, ... of period m; no long-run cost depends on the offset."""

    period: int

    def __post_init__(self) -> None:
        if not (is_int(self.period) and self.period >= 1):
            raise ValueError(f"period must be an integer >= 1, got {self.period!r}")


@dataclass(frozen=True)
class Randomized:
    """Transmit with a fixed probability each slot, independently."""

    p_tx: float = 0.5

    def __post_init__(self) -> None:
        if not (is_real(self.p_tx) and 0.0 <= self.p_tx <= 1.0):
            raise ValueError(f"p_tx must lie in [0, 1], got {self.p_tx!r}")


PolicySpec = Union[ZeroWait, Periodic, Randomized, EnergyFirst, ThresholdPolicy]


def parse_policy_spec(text: str) -> PolicySpec:
    """Parse a command-line policy string.

    Accepted forms: ``zero-wait``, ``energy-first``, ``periodic:<period>``,
    ``random:<p_tx>``, and ``threshold:<file.json>``.
    """
    name, _, arg = text.partition(":")
    if name == "zero-wait":
        return ZeroWait()
    if name == "energy-first":
        return EnergyFirst()
    if name in ("periodic", "random"):
        try:
            return Periodic(int(arg)) if name == "periodic" else Randomized(float(arg))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {name} spec {text!r}: {exc}") from exc
    if name == "threshold":
        if not arg:
            raise ValueError("threshold spec needs a JSON file path, e.g. threshold:tp.json")
        with open(arg) as handle:
            return ThresholdPolicy.from_json(handle.read())
    raise ValueError(f"unknown policy spec {text!r}")


def policy_label(spec: PolicySpec) -> str:
    """Short stable name used in result rows; a baseline's parses back to it."""
    if isinstance(spec, ZeroWait):
        return "zero-wait"
    if isinstance(spec, EnergyFirst):
        return "energy-first"
    if isinstance(spec, Periodic):
        return f"periodic:{spec.period}"
    if isinstance(spec, Randomized):
        short = f"{spec.p_tx:g}"  # where :g is not exact, the shortest round-trip repr
        return f"random:{short if float(short) == spec.p_tx else repr(float(spec.p_tx))}"
    if isinstance(spec, ThresholdPolicy):
        return "threshold"
    raise TypeError(f"unknown policy spec {spec!r}")
