"""Numerical certificates of value-function and policy structure.

A converged value table V over the states (d, b) of age and battery charge,
and its action advantage A(d, b) = Q(d, b, idle) - Q(d, b, transmit), are
expected to satisfy five inequalities; the last is what forces
threshold-shaped optimal policies. Each is a margin over a pair of states,
(d, b) and (d, b) plus a step, that must be at least ``-tol``, with p the
erasure probability:

- ``monotone_in_aoi``, step (1, 0): V(d+1, b) - V(d, b);
- ``monotone_in_battery``, step (0, 1): V(d, b) - V(d, b+1);
- ``increment_lower_bound``, step (1, 0): V(d+1, b) - V(d, b) - 1;
- ``cross_increment``, step (1, 1): V(d+1, b+1) + p V(d, b) - V(d, b+1) - p V(d+1, b);
- ``submodular_q``, step (1, 0): A(d+1, b) - A(d, b).

Each check reports its worst signed margin (negative = violated) and the
first pair, ages before batteries, that attains it. Age pairs stop at
d+1 = aoi_cap-1 because saturation distorts increments at the cap, so at
aoi_cap 2 the four checks with an age step pass with margin ``inf`` and no
witness.
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
    "structure_checks",
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


def structure_checks(
    v: ValueTable | np.ndarray,
    q: np.ndarray,
    params: SystemParams,
    tol: float = DEFAULT_TOLERANCE,
) -> list[MarginCheck]:
    """The five certificates of the module docstring, in :class:`StructureReport` field order.

    ``v`` is the (aoi_cap, B+1) value table and ``q`` the (aoi_cap, B+1, 2)
    table :func:`solve` returns.
    """
    values = np.asarray(v.values if isinstance(v, ValueTable) else v, dtype=float)
    q_values = np.asarray(q, dtype=float)
    cap, width = params.grid_shape
    for what, table, shape in (("value", values, (cap, width)), ("q", q_values, (cap, width, 2))):
        if table.shape != shape:
            raise ValueError(f"{what} shape {table.shape}, expected {shape}")
    p = params.erasure_prob
    lower, upper = values[: cap - 2], values[1 : cap - 1]  # V(d, b) and V(d+1, b)
    advantage = q_values[:, :, 0] - q_values[:, :, 1]
    rows = (
        ("monotone_in_aoi", upper - lower, (1, 0)),
        ("monotone_in_battery", values[:, :-1] - values[:, 1:], (0, 1)),
        ("increment_lower_bound", upper - lower - 1.0, (1, 0)),
        ("cross_increment",
         upper[:, 1:] + p * lower[:, :-1] - lower[:, 1:] - p * upper[:, :-1], (1, 1)),
        ("submodular_q", advantage[1 : cap - 1] - advantage[: cap - 2], (1, 0)),
    )
    checks = []
    for name, margins, (age_step, battery_step) in rows:
        if margins.size == 0:
            checks.append(MarginCheck(name, True, np.inf, None))
            continue
        row, b = (int(k) for k in np.unravel_index(np.argmin(margins), margins.shape))
        worst = float(margins[row, b])
        witness = (State(row + 1, b), State(row + 1 + age_step, b + battery_step))
        checks.append(MarginCheck(name, worst >= -tol, worst, witness))
    return checks


def certify_structure(
    v: ValueTable | np.ndarray,
    q: np.ndarray,
    params: SystemParams,
    tol: float = DEFAULT_TOLERANCE,
) -> StructureReport:
    """Run every certificate and fold the results into one report."""
    checks = structure_checks(v, q, params, tol)
    worst = min((c for c in checks if c.witness is not None), key=lambda c: c.worst_margin,
                default=None)
    return StructureReport(
        **{check.name: check.passed for check in checks},
        worst_violation=np.inf if worst is None else worst.worst_margin,
        witness=None if worst is None else worst.witness,
        tolerance=tol,
    )
