"""Numerical certificates of value-function and policy structure.

Converged value tables of this model are expected to be monotone (worse with
age, better with charge), to grow at least unit-rate in age, to have
age-increments damped at most by the erasure probability when the battery
steps up, and to have a submodular action advantage in age, which is what
forces threshold-shaped optimal policies. Each check reports the worst
signed margin over the grid (negative = violated) and the witnessing state
pair, so a failure is directly inspectable.

Rows at the age cap are excluded from every age-difference check because
saturation distorts increments there.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .model import State, SystemParams
from .solver import ValueTable

__all__ = [
    "MarginCheck",
    "StructureReport",
    "check_value_monotone",
    "check_value_increments",
    "check_submodularity",
    "certify_structure",
    "DEFAULT_TOLERANCE",
]

DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class MarginCheck:
    """Outcome of one inequality family: pass flag, worst margin, witness."""

    name: str
    passed: bool
    worst_margin: float
    witness: tuple[State, State] | None


@dataclass(frozen=True)
class StructureReport:
    """All five certificate flags (its ``bool`` fields) plus the single worst margin seen."""

    monotone_in_aoi: bool
    monotone_in_battery: bool
    increment_lower_bound: bool
    cross_increment: bool
    submodular_q: bool
    worst_violation: float
    witness: tuple[State, State] | None
    tolerance: float

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self) if f.type == "bool")

    def to_json(self) -> str:
        """Fields in declaration order; the witness states are written as [aoi, battery]."""
        return json.dumps(asdict(self), allow_nan=False)


def _summarize(
    name: str,
    margins: np.ndarray,
    witness_at: "callable",
    tol: float,
) -> MarginCheck:
    if margins.size == 0:
        return MarginCheck(name=name, passed=True, worst_margin=np.inf, witness=None)
    flat = int(np.argmin(margins))
    worst = float(margins.reshape(-1)[flat])
    index = tuple(int(k) for k in np.unravel_index(flat, margins.shape))
    return MarginCheck(
        name=name,
        passed=worst >= -tol,
        worst_margin=worst,
        witness=witness_at(*index),
    )


def _grid(values: np.ndarray, params: SystemParams) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != params.grid_shape:
        raise ValueError(f"value shape {arr.shape}, expected {params.grid_shape}")
    return arr


def check_value_monotone(
    v: ValueTable | np.ndarray, params: SystemParams, tol: float = DEFAULT_TOLERANCE
) -> tuple[MarginCheck, MarginCheck]:
    """Values nondecreasing in age and nonincreasing in battery charge."""
    values = _grid(v.values if isinstance(v, ValueTable) else v, params)
    cap = params.aoi_cap
    # Age pairs (d, d+1) with d+1 <= cap-1; the saturated top row is skipped.
    aoi_margins = values[1 : cap - 1] - values[: cap - 2]
    aoi = _summarize(
        "monotone_in_aoi",
        aoi_margins,
        lambda i, q: (State(i + 1, q), State(i + 2, q)),
        tol,
    )
    battery_margins = values[:, :-1] - values[:, 1:]
    battery = _summarize(
        "monotone_in_battery",
        battery_margins,
        lambda i, q: (State(i + 1, q), State(i + 1, q + 1)),
        tol,
    )
    return aoi, battery


def check_value_increments(
    v: ValueTable | np.ndarray, params: SystemParams, tol: float = DEFAULT_TOLERANCE
) -> tuple[MarginCheck, MarginCheck]:
    """Age increments grow at least unit-rate, and battery-up damps them by
    at most the erasure probability:
    V(d+1, q+1) + p V(d, q) >= V(d, q+1) + p V(d+1, q)."""
    values = _grid(v.values if isinstance(v, ValueTable) else v, params)
    cap = params.aoi_cap
    p = params.erasure_prob
    unit_margins = values[1 : cap - 1] - values[: cap - 2] - 1.0
    unit = _summarize(
        "increment_lower_bound",
        unit_margins,
        lambda i, q: (State(i + 1, q), State(i + 2, q)),
        tol,
    )
    lower, upper = values[: cap - 2], values[1 : cap - 1]
    cross_margins = (
        upper[:, 1:] + p * lower[:, :-1] - lower[:, 1:] - p * upper[:, :-1]
    )
    cross = _summarize(
        "cross_increment",
        cross_margins,
        lambda i, q: (State(i + 1, q), State(i + 2, q + 1)),
        tol,
    )
    return unit, cross


def check_submodularity(
    q: np.ndarray, params: SystemParams, tol: float = DEFAULT_TOLERANCE
) -> MarginCheck:
    """The idle-minus-transmit advantage is nondecreasing in age.

    ``q`` is the (aoi_cap, B+1, 2) table :func:`solve` returns. This is the
    ordering that makes the greedy policy threshold-shaped: once
    transmitting wins at some age, it keeps winning at older ones.
    """
    q_values = np.asarray(q, dtype=float)
    cap, width = params.grid_shape
    if q_values.shape != (cap, width, 2):
        raise ValueError(f"q shape {q_values.shape}, expected {(cap, width, 2)}")
    advantage = q_values[:, :, 0] - q_values[:, :, 1]
    margins = advantage[1 : cap - 1] - advantage[: cap - 2]
    return _summarize(
        "submodular_q",
        margins,
        lambda i, battery: (State(i + 1, battery), State(i + 2, battery)),
        tol,
    )


def certify_structure(
    v: ValueTable | np.ndarray,
    q: np.ndarray,
    params: SystemParams,
    tol: float = DEFAULT_TOLERANCE,
) -> StructureReport:
    """Run every certificate and fold the results into one report."""
    checks = [
        *check_value_monotone(v, params, tol),
        *check_value_increments(v, params, tol),
        check_submodularity(q, params, tol),
    ]
    worst = min((c for c in checks if c.witness is not None), key=lambda c: c.worst_margin,
                default=None)
    return StructureReport(
        **{check.name: check.passed for check in checks},
        worst_violation=np.inf if worst is None else worst.worst_margin,
        witness=None if worst is None else worst.witness,
        tolerance=tol,
    )
