"""Uniform policy abstraction: the solved policy and the baselines.

A policy spec is any of six kinds: ``ZeroWait`` (transmit every slot),
``Periodic`` (transmit on a fixed slot pattern), ``Randomized`` (coin-flip
each slot), ``EnergyFirst`` (transmit whenever the battery is charged, so the
backup supply is never touched), a ``ThresholdPolicy`` (transmit once the age
reaches a per-battery-level threshold), or an explicit ``PolicyTable``.
Each kind is plain data; the evaluators read its actions off it directly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import SystemParams

__all__ = [
    "PolicyTable",
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
class PolicyTable:
    """Deterministic stationary policy as a dense (aoi, battery) action grid.

    ``actions[d - 1, q]`` is the action at age d, battery q. Exact evaluation
    and the simulator apply the top row at every older age too.
    """

    actions: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.actions)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError(f"action table shape {arr.shape} is not a valid (aoi, battery) grid")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("action table entries must be 0 (idle) or 1 (transmit)")
        object.__setattr__(self, "actions", arr.astype(np.int8))

    @property
    def aoi_cap(self) -> int:
        return self.actions.shape[0]

    @property
    def battery_cap(self) -> int:
        return self.actions.shape[1] - 1


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

    def to_table(self, params: SystemParams) -> PolicyTable:
        if params.battery_cap != self.battery_cap:
            raise ValueError(
                f"threshold policy covers battery 0..{self.battery_cap}, "
                f"params expect 0..{params.battery_cap}"
            )
        ages = np.arange(1, params.aoi_cap + 1)[:, None]
        bound = np.array(
            [params.aoi_cap + 1 if t is None else t for t in self.thresholds]
        )[None, :]
        return PolicyTable((ages >= bound).astype(np.int8))

    def to_json(self) -> str:
        return json.dumps({"thresholds": list(self.thresholds)}, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ThresholdPolicy":
        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("thresholds"), list):
            raise ValueError("threshold JSON must be an object with a 'thresholds' list")
        return cls(thresholds=tuple(data["thresholds"]))

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["q", "threshold"])
            for q, value in enumerate(self.thresholds):
                writer.writerow([q, "never" if value is None else value])


@dataclass(frozen=True)
class ZeroWait:
    """Transmit a fresh update every slot."""


@dataclass(frozen=True)
class EnergyFirst:
    """Transmit whenever the battery is charged; never draw on the backup."""


@dataclass(frozen=True)
class Periodic:
    """Transmit when the slot index hits the phase of a fixed period."""

    period: int
    phase: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.period, int) and self.period >= 1):
            raise ValueError(f"period must be an integer >= 1, got {self.period!r}")
        if not (isinstance(self.phase, int) and 0 <= self.phase < self.period):
            raise ValueError(f"phase must lie in [0, {self.period}), got {self.phase!r}")


@dataclass(frozen=True)
class Randomized:
    """Transmit with a fixed probability each slot, independently."""

    p_tx: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_tx <= 1.0:
            raise ValueError(f"p_tx must lie in [0, 1], got {self.p_tx!r}")


PolicySpec = Union[ZeroWait, Periodic, Randomized, EnergyFirst, ThresholdPolicy, PolicyTable]


def parse_policy_spec(text: str) -> PolicySpec:
    """Parse a command-line policy string.

    Accepted forms: ``zero-wait``, ``energy-first``, ``periodic:<period>``,
    ``periodic:<period>:<phase>``, ``random:<p_tx>``, and
    ``threshold:<file.json>``.
    """
    name, _, arg = text.partition(":")
    if name == "zero-wait":
        return ZeroWait()
    if name == "energy-first":
        return EnergyFirst()
    if name == "periodic":
        period, _, phase = arg.partition(":")
        try:
            return Periodic(int(period), int(phase) if phase else 0)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad periodic spec {text!r}: {exc}") from exc
    if name == "random":
        try:
            return Randomized(float(arg))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad random spec {text!r}: {exc}") from exc
    if name == "threshold":
        if not arg:
            raise ValueError("threshold spec needs a JSON file path, e.g. threshold:tp.json")
        with open(arg) as handle:
            return ThresholdPolicy.from_json(handle.read())
    raise ValueError(f"unknown policy spec {text!r}")


def policy_label(spec: PolicySpec) -> str:
    """Short stable name used in result rows."""
    if isinstance(spec, ZeroWait):
        return "zero-wait"
    if isinstance(spec, EnergyFirst):
        return "energy-first"
    if isinstance(spec, Periodic):
        if spec.phase:
            return f"periodic:{spec.period}:{spec.phase}"
        return f"periodic:{spec.period}"
    if isinstance(spec, Randomized):
        return f"random:{spec.p_tx:g}"
    if isinstance(spec, ThresholdPolicy):
        return "threshold"
    if isinstance(spec, PolicyTable):
        return "table"
    raise TypeError(f"unknown policy spec {spec!r}")
