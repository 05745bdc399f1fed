"""Average-cost solver: relative value iteration and threshold extraction.

The optimality equation for the long-run average cost is solved by value
iteration with re-anchoring at (1, battery_cap), the cheapest corner. Each
sweep applies the Bellman operator synchronously over the whole grid,
measures the span of the raw difference T(V) - V (whose min and max bracket
the optimal gain), and subtracts the anchor entry so the iterates stay
bounded. Convergence is declared when the span drops to ``epsilon``; the
returned gain is the midpoint of the final difference's extremes.

The full span pass runs only on sweeps that may stop. A sweep first forms
the difference at the two slots that held the extremes at the last full
pass, a lower bound on the span: for any i, j, fl(d_i - d_j) <= fl(max -
min), since rounding is monotone. While that bound exceeds ``epsilon`` the
plain loop could not stop either, so the pass is skipped; NaN fails the
comparison and takes the pass. The last sweep ``max_iters`` allows always
takes it, so values, gain, sweep count and span stay bit for bit those of
the loop that measures every sweep.

A solve starts from zero, or from a given table re-anchored the same way;
RVI reaches the same fixed point from any start (Puterman 1994, section
8.5), so a nearby table only shortens the run. The truncation check uses
this: it re-solves at twice the age cap from the cap solution.

Sweeps run in one flat workspace: V battery-major, padded by a saturation
column (age ``cap``) and row (battery ``min(q+1, B)``), so one age older is
offset +1 and one battery up +row. The row stride is cap+1 rounded up to
whole 64-byte lines, and every buffer a sweep writes starts on a line; the
columns past age ``cap`` are extra pads that no real slot reads. Pad slots of
a result are garbage: the span overwrites them with age ``cap`` first, and
V's saturation pads are refreshed after each sweep. The backup's float
association is part of its contract: results repeat bit for bit.

A sweep is about fifteen numpy calls, and on the default grid their fixed
dispatch cost is about half its time. So each call is bound once per solve
(``functools.partial``); the weights lam, 1-lam, p, 1-p and the anchor entry
are 0-d arrays, which a ufunc takes faster than a Python float or a numpy
scalar; and the two-slot bound reads Python floats. None of this changes an
operation, its operands' values or their order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .model import State, SystemParams, is_int
from .policies import PolicyTable, ThresholdPolicy

__all__ = [
    "SolverConfig",
    "ValueTable",
    "ConvergenceError",
    "ThresholdStructureError",
    "solve",
    "bellman_qvalues",
    "greedy_policy",
    "extract_thresholds",
    "check_truncation_adequacy",
    "write_value_csv",
    "read_value_csv",
]


class ConvergenceError(RuntimeError):
    """Value iteration ran out of sweeps before the span closed."""

    def __init__(self, message: str, span: float, iterations: int):
        super().__init__(message)
        self.span = span
        self.iterations = iterations


class ThresholdStructureError(RuntimeError):
    """A policy claimed to be threshold-shaped is not."""

    def __init__(self, message: str, witnesses: list[State]):
        super().__init__(message)
        self.witnesses = witnesses


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the relative value iteration."""

    epsilon: float = 1e-9
    max_iters: int = 500_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not (is_int(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class ValueTable:
    """Converged relative values (V(1, battery_cap) pinned to zero) and gain."""

    values: np.ndarray
    gain: float
    iterations: int
    final_span: float


class _Workspace:
    """Flat padded buffers and views for the sweeps on one grid, built once.

    ``values[q*row + d-1]`` holds V(d, q), then the saturation row and one
    slot never written; ``row`` is ``cap+1`` rounded up to whole 64-byte
    lines. ``backup`` runs ``calls``, the ``steps`` bound once, to fill
    ``q_idle``, ``q_tx``, and ``refresh`` copies V's saturation pads; pad
    slots of a result, and V's columns past ``cap``, hold garbage that no
    real slot reads. Every buffer a sweep writes is from ``alloc``, which
    starts it on a line: on AVX-512 hosts a ufunc runs up to twice as slow
    when its output does not.
    """

    @staticmethod
    def alloc(size: int) -> np.ndarray:
        raw = np.zeros(size + 7)
        skip = -raw.ctypes.data // 8 % 8  # doubles to the next 64-byte line
        return raw[skip : skip + size]

    def __init__(self, params: SystemParams, table: np.ndarray):
        cap, width = params.grid_shape
        row = -(-(cap + 1) // 8) * 8
        n = width * row
        lam, p = params.harvest_prob, params.erasure_prob
        # 0-d arrays: a ufunc takes one faster than a Python float, with the same bits
        lam, dry, p, sent = (np.array(x) for x in (lam, 1.0 - lam, p, 1.0 - p))
        values, scaled = self.alloc(n + row + 1), self.alloc(n + row + 1)
        rest, mix, fresh = self.alloc(n + 1), self.alloc(n + 1), self.alloc(width)
        self.q_idle, self.q_tx = self.alloc(n), self.alloc(n)
        costs = np.tile(np.arange(1.0, row + 1), width + 1)
        costs[:cap] += params.energy_weight * params.backup_cost  # only row 0 pays the backup
        ages, stage = costs[row:], costs[:n]  # idle and transmit stage costs
        self.cap, self.row, self.real = cap, row, values[:n]
        self.grid, tx_rows = values[:n].reshape(width, row), self.q_tx.reshape(width, row)
        self.diff_pad = (tx_rows[:, cap:], tx_rows[:, cap - 1 : cap])
        self.steps = (
            (np.multiply, values, lam, scaled),
            (np.multiply, values[: n + 1], dry, rest),
            (np.add, scaled[row : n + 1], rest[: n + 1 - row], mix[row:]),  # S at q >= 1
            (np.add, scaled[row : 2 * row], rest[:row], mix[:row]),  # S at q = 0 equals q = 1
            (np.add, ages, scaled[row + 1 :], self.q_idle),
            (np.add, self.q_idle, rest[1:], self.q_idle),  # (age + lam*V'[charged]) + (1-lam)*V'
            (np.multiply, mix[1:], p, self.q_tx),
            (np.add, self.q_tx, stage, self.q_tx),  # p*S' + (age + backup)
            (np.multiply, mix[:n:row], sent, fresh),
            (np.add, tx_rows, fresh[:, None], tx_rows),  # ... + (1-p)*S[age 1]
        )
        self.calls = [partial(*step) for step in self.steps]
        pads = ((self.grid[:, cap], self.grid[:, cap - 1]), (values[n:-1], self.grid[-1]))
        self.refresh = [partial(np.copyto, *pad) for pad in pads]  # age column, then battery row
        self.grid[:, :cap] = table.T
        for call in self.refresh:
            call()

    def backup(self) -> None:
        for call in self.calls:
            call()

    def table(self, flat: np.ndarray) -> np.ndarray:
        """A fresh (aoi_cap, battery levels) table of the real entries of ``flat``."""
        return flat.reshape(-1, self.row)[:, : self.cap].T.copy()


def bellman_qvalues(values: np.ndarray, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous backup: fresh (idle, transmit) state-action tables.

    With V' the table one age older (saturating at the cap) and the transmit
    mix S = lam*V[spent+1] + (1-lam)*V[spent], built once on unshifted ages,
    exactly ``q_idle = (age + lam*V'[charged]) + (1-lam)*V'`` and
    ``q_tx = ((age + backup) + p*S') + (1-p)*S[age 1]``. Accepts C- or
    Fortran-ordered ``values``.
    """
    if values.shape != params.grid_shape:
        raise ValueError(f"value table shape {values.shape}, expected {params.grid_shape}")
    ws = _Workspace(params, values)
    ws.backup()
    return ws.table(ws.q_idle), ws.table(ws.q_tx)


def solve(
    params: SystemParams, cfg: SolverConfig | None = None, start: np.ndarray | None = None
) -> tuple[ValueTable, np.ndarray]:
    """Relative value iteration to a span of ``cfg.epsilon``.

    Starts from ``start`` (finite, on the params grid) re-anchored at
    (1, battery_cap), or from zero. Returns the anchored value table (with
    the gain estimate) and the (aoi_cap, B+1, 2) state-action table q of the
    converged values: q[d-1, b, a] is the stage cost of action a (0 idle,
    1 transmit) plus the expected next value, so its min over actions is
    gain + V up to epsilon. Raises :class:`ConvergenceError` carrying the
    last span when ``max_iters`` sweeps do not suffice. Every sweep works in
    one :class:`_Workspace`.

    A sweep measures the full span only when the two-slot bound at the last
    extremes, ``(T(V) - V)[hi] - (T(V) - V)[lo]``, is at most ``epsilon``
    (or NaN), or on the last allowed sweep. The bound never exceeds the
    span, so a skipped sweep is one the full measure would not stop at.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    params.validate_for_solve()
    start = np.zeros(params.grid_shape) if start is None else np.asarray(start, dtype=np.float64)
    if start.shape != params.grid_shape or not np.isfinite(start).all():
        raise ValueError(f"start table must be finite with shape {params.grid_shape}")
    ws = _Workspace(params, start - start[0, -1])
    ref_at = params.battery_cap * ws.row  # V(1, battery_cap) in the flat workspace
    updated, diff, real = ws.q_idle, ws.q_tx, ws.real  # T(V) and T(V) - V overwrite the backup
    sweep = [*ws.calls, partial(np.minimum, updated, ws.q_tx, out=updated)]
    # re-anchor on a 0-d view of the anchor, then refresh the pads: age column first
    reanchor = [partial(np.subtract, updated, updated[ref_at, ...], real), *ws.refresh]
    new, old = updated.item, real.item
    gain, span, iterations = np.nan, np.inf, 0
    hi = lo = 0  # real slots of the last full check's extremes; equal, so sweep 1 checks
    epsilon, last = cfg.epsilon, cfg.max_iters
    for iterations in range(1, last + 1):
        for call in sweep:
            call()
        # span >= this bound, as rounding is monotone; NaN fails the test and checks
        bound = (new(hi) - old(hi)) - (new(lo) - old(lo))
        if not bound > epsilon or iterations == last:
            np.subtract(updated, real, out=diff)
            np.copyto(*ws.diff_pad)
            high, low = float(diff.max()), float(diff.min())
            span, gain = high - low, 0.5 * (high + low)
            # First occurrences, never a pad: each diff pad copies the real slot
            # just before it, and a pad of ``updated`` is garbage.
            hi, lo = int(diff.argmax()), int(diff.argmin())
        for call in reanchor:
            call()
        if span <= epsilon:
            break
    else:
        raise ConvergenceError(
            f"span {span:.3e} > epsilon {cfg.epsilon:.3e} after {cfg.max_iters} sweeps",
            span=span,
            iterations=cfg.max_iters,
        )

    ws.backup()
    q_values = np.stack([ws.table(ws.q_idle), ws.table(ws.q_tx)], axis=-1)
    return ValueTable(ws.table(ws.real), float(gain), iterations, float(span)), q_values


def greedy_policy(v: ValueTable, q: np.ndarray, params: SystemParams) -> PolicyTable:
    """Argmin-over-actions policy of the state-action table ``q``; exact ties resolve to Idle."""
    if q.shape[:2] != v.values.shape or v.values.shape != params.grid_shape:
        raise ValueError("value, q and params grids disagree")
    return PolicyTable((q[:, :, 1] < q[:, :, 0]).astype(np.int8))


def extract_thresholds(policy: PolicyTable, params: SystemParams) -> ThresholdPolicy:
    """Read per-battery age thresholds off a policy table.

    Fails with :class:`ThresholdStructureError` when any battery column is
    not of the form idle-below / transmit-at-and-above a single age, which
    makes a successful extraction an executable certificate of threshold
    structure.
    """
    if policy.actions.shape != params.grid_shape:
        raise ValueError(f"policy shape {policy.actions.shape}, expected {params.grid_shape}")
    thresholds: list[int | None] = []
    for battery in range(params.battery_cap + 1):
        column = policy.actions[:, battery]
        transmit_rows = np.flatnonzero(column)
        if transmit_rows.size == 0:
            thresholds.append(None)
            continue
        first = int(transmit_rows[0])
        gaps = np.flatnonzero(column[first:] == 0)
        if gaps.size:
            witnesses = [State(first + 1, battery), State(first + int(gaps[0]) + 1, battery)]
            raise ThresholdStructureError(
                f"battery {battery}: transmit at age {first + 1} but idle again at "
                f"age {first + int(gaps[0]) + 1}; column is not threshold-shaped",
                witnesses=witnesses,
            )
        thresholds.append(first + 1)
    return ThresholdPolicy(thresholds=tuple(thresholds))


def check_truncation_adequacy(
    tp: ThresholdPolicy,
    params: SystemParams,
    cfg: SolverConfig | None = None,
    values: np.ndarray | None = None,
) -> bool:
    """True when ``tp`` stays optimal after doubling ``aoi_cap``.

    The doubled grid is solved with the same ``cfg``, starting from
    ``values`` (the cap solution's table, its top age row repeated up to
    twice the cap) when given, else from zero. ``tp`` passes when it is
    greedy for the doubled state-action table within ``cfg.epsilon`` at
    every state: a threshold may move only where the doubled solve cannot
    tell the two actions apart, an exact tie that rounding breaks either
    way. Every finite threshold must also sit strictly below the original
    cap; a threshold pinned at the boundary is a truncation artifact.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    doubled = replace(params, aoi_cap=2 * params.aoi_cap)
    start = None if values is None else np.pad(values, ((0, params.aoi_cap), (0, 0)), "edge")
    _, q2 = solve(doubled, cfg, start)
    chosen = np.take_along_axis(q2, tp.to_table(doubled).actions[..., None], axis=-1)
    if (chosen[..., 0] - q2.min(axis=-1)).max() > cfg.epsilon:
        return False
    return all(t < params.aoi_cap for t in tp.thresholds if t is not None)


def write_value_csv(path: str, v: ValueTable) -> None:
    """Dump values as (delta, q, value) rows, age-major, full float precision."""
    rows = v.values.tolist()
    lines = [f"{d},{q},{x!r}\n" for d, row in enumerate(rows, 1) for q, x in enumerate(row)]
    with open(path, "w", newline="") as handle:
        handle.write("delta,q,value\n" + "".join(lines))


def read_value_csv(path: str) -> np.ndarray:
    """Rebuild the dense value grid from (delta, q, value) rows; every value must be finite."""
    entries: dict[tuple[int, int], float] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["delta", "q", "value"]:
            raise ValueError(f"unexpected value CSV header {reader.fieldnames}")
        for row in reader:
            cell, value = (int(row["delta"]), int(row["q"])), float(row["value"])
            if not math.isfinite(value):
                raise ValueError(f"value CSV cell (delta, q) = {cell} is not finite: {value!r}")
            entries[cell] = value
    if not entries:
        raise ValueError("value CSV has no rows")
    cap = max(d for d, _ in entries)
    width = max(q for _, q in entries) + 1
    if len(entries) != cap * width:
        raise ValueError(f"value CSV covers {len(entries)} cells, expected {cap * width}")
    values = np.empty((cap, width))
    for (delta, battery), value in entries.items():
        if not (1 <= delta and 0 <= battery):
            raise ValueError(f"bad cell ({delta}, {battery})")
        values[delta - 1, battery] = value
    return values
