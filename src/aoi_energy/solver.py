"""Average-cost solvers: RVI for ``solve``, policy iteration for ``sweep``; thresholds.

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
8.5), so a nearby table only shortens the run.

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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .evaluation import _closure, _cycles, _slot_kernels, _transmit_rows, stationary_distribution
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
    "policy_iteration",
    "write_value_csv",
    "read_value_csv",
]


class ConvergenceError(RuntimeError):
    """A solve did not converge; ``span`` is RVI's last span, NaN from policy iteration."""

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
    """Tolerance and budget: RVI's span and sweeps, or policy iteration's margin and rounds."""

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
            f"value iteration did not converge: span {span:.3e} > epsilon "
            f"{cfg.epsilon:.3e} after {cfg.max_iters} sweeps",
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


def _exact_bias(
    rows: np.ndarray, params: SystemParams, cfg: SolverConfig, ages: int = 0
) -> tuple[float, np.ndarray, np.ndarray, float] | None:
    """Gain, bias h (ages 1..n+1), q table (ages 1..n) and Howard's gap of ``rows``.

    Every level transmits at the last row D, p < 1 and n = max(D, ``ages``).
    With S_d = diag(1-a_d) idle + p diag(a_d) tx, h_d = c_d - g + S_d h_(d+1) +
    (1-p) diag(a_d) tx h_1, and (I - M) h_1 = C - g L by :func:`_cycles`, with
    nu h_1 = 0 on each recurrent class of M. Past D, h grows by 1/(1-p) per age
    and the advantage of idling by 1, so the gap (the most an action of ``rows``
    loses) is over rows 1..D. None when class gains differ by more than epsilon.
    """
    p = params.erasure_prob
    idle, tx, _ = _slot_kernels(params, 1)
    deliveries, length, age_sum, spend, _, tail = _cycles(rows, idle, tx, params)
    reach = _closure(deliveries != 0.0)
    # A recurrent state reaches just its class; the lowest member stands for it.
    lowest = ~(reach & ~reach.T).any(axis=1) & (reach.argmax(axis=1) == np.arange(len(idle)))
    laws = np.array([stationary_distribution(deliveries, i) for i in np.flatnonzero(lowest)])
    gains = laws @ (age_sum + spend) / (laws @ length)
    if not gains.max() - gains.min() <= cfg.epsilon:
        return None
    renewal = np.eye(len(idle)) - deliveries + reach[lowest].T @ laws  # + 1_k nu_k: invertible
    first = np.linalg.solve(renewal, age_sum + spend - gains[0] * length)
    backup = params.energy_weight * params.backup_cost * (np.arange(len(idle)) == 0)
    fresh = (1.0 - p) * (tx @ first)  # a delivery lands on h_1
    depth, n = len(rows), max(len(rows), ages)
    age = np.arange(1.0, n + 1)[:, None]
    cost = age[:depth] + rows * (backup + fresh) - gains[0]
    h = np.empty((n + 1, len(idle)))
    h[depth - 1] = tail @ (cost[-1] + p / (1.0 - p))  # tail = (I - p tx)^-1: all transmit at D
    h[depth:] = h[depth - 1] + np.arange(1.0, n + 2 - depth)[:, None] / (1.0 - p)
    for d in range(depth - 2, -1, -1):
        h[d] = cost[d] + (1.0 - rows[d]) * (idle @ h[d + 1]) + p * rows[d] * (tx @ h[d + 1])
    q = np.stack([age + h[1:] @ idle.T, age + backup + p * h[1:] @ tx.T + fresh], axis=-1)
    gap = np.where(rows, q[:depth, :, 1], q[:depth, :, 0]) - q[:depth].min(axis=-1)
    return float(gains[0]), h, q, float(gap.max())


def check_truncation_adequacy(
    tp: ThresholdPolicy, params: SystemParams, cfg: SolverConfig | None = None
) -> bool:
    """True when ``tp`` is greedy, within ``cfg.epsilon``, for its own exact bias.

    Howard's (1960) policy-improvement test on the untruncated chain
    (:func:`_exact_bias`). A level that never transmits fails: a slot delivers
    with chance at most 1-p, so the wait T for delivery is at least
    1 + 1/(1-p) at an idle level, and at the idle level m of longest wait
    idling loses at least (1-p) T_m - 1 > 0 more per age.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    rows = _transmit_rows(tp, params)
    bias = _exact_bias(rows, params, cfg) if rows[-1].all() and params.erasure_prob < 1.0 else None
    return bias is not None and bias[3] <= cfg.epsilon


def policy_iteration(
    params: SystemParams, cfg: SolverConfig | None = None
) -> tuple[ValueTable, np.ndarray, ThresholdPolicy]:
    """Howard's policy iteration over threshold policies, on the untruncated chain.

    From ZeroWait (always of finite cost), a round keeps each action unless the
    other wins by more than ``cfg.epsilon`` on the exact bias. A new threshold
    is the first transmitting age; a level idle at the last row D by G moves to
    D + floor(G - eps) + 1, at most 2D, so each grid stays under the bound. A
    cumulative min makes them non-increasing in battery, the paper's structure.
    Stops when they stop moving and pass :func:`check_truncation_adequacy`'s
    test, else raises :class:`ConvergenceError`. Returns the bias and q table on
    the ``aoi_cap`` grid anchored at (1, battery_cap), and the thresholds.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    params.validate_for_solve()
    thresholds, seen = (1,) * (params.battery_cap + 1), []
    why = f"still move after {cfg.max_iters} rounds"  # unless a round breaks off
    for rounds in range(1, cfg.max_iters + 1):
        seen.append(thresholds)
        rows = _transmit_rows(ThresholdPolicy(thresholds), params)
        exact = _exact_bias(rows, params, cfg, params.aoi_cap)
        if exact is None:
            why = "have recurrent classes of unequal gain"
            break
        gain, h, q, gap = exact
        advantage = q[: len(rows), :, 0] - q[: len(rows), :, 1]  # > 0: transmitting is cheaper
        tx = np.where(rows, advantage >= -cfg.epsilon, advantage > cfg.epsilon)
        late = np.minimum(len(rows) + np.floor(-advantage[-1] - cfg.epsilon) + 1, 2 * len(rows))
        firsts = np.where(tx.any(axis=0), tx.argmax(axis=0) + 1, late)
        thresholds = tuple(int(t) for t in np.minimum.accumulate(firsts))
        if thresholds in seen:
            why = "" if thresholds == seen[-1] else "repeat an earlier round's"
            break
    if not (why or gap <= cfg.epsilon):
        why = "fail Howard's improvement test"
    if why:
        raise ConvergenceError(f"policy iteration did not converge: thresholds "
                               f"{list(thresholds)} {why}", span=math.nan, iterations=rounds)
    values, q = h[: params.aoi_cap] - h[0, -1], q[: params.aoi_cap] - h[0, -1]
    span = float(np.ptp(q.min(axis=-1) - values))
    return ValueTable(values, gain, rounds, span), q, ThresholdPolicy(thresholds)


def write_value_csv(path: str, v: ValueTable) -> None:
    """Dump values as (delta, q, value) rows, age-major, full float precision."""
    rows = v.values.tolist()
    lines = [f"{d},{q},{x!r}\n" for d, row in enumerate(rows, 1) for q, x in enumerate(row)]
    with open(path, "w", newline="") as handle:
        handle.write("delta,q,value\n" + "".join(lines))


def read_value_csv(path: str) -> np.ndarray:
    """Rebuild the dense value grid from (delta, q, value) rows: each cell once, and finite."""
    entries: dict[tuple[int, int], float] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["delta", "q", "value"]:
            raise ValueError(f"unexpected value CSV header {reader.fieldnames}")
        for row in reader:
            cell, value = (int(row["delta"]), int(row["q"])), float(row["value"])
            if not (cell[0] >= 1 and cell[1] >= 0):
                raise ValueError(f"value CSV cell (delta, q) = {cell} is not delta >= 1, q >= 0")
            if not math.isfinite(value):
                raise ValueError(f"value CSV cell (delta, q) = {cell} is not finite: {value!r}")
            if cell in entries:
                raise ValueError(f"value CSV cell (delta, q) = {cell} is given twice")
            entries[cell] = value
    if not entries:
        raise ValueError("value CSV has no rows")
    cap = max(d for d, _ in entries)
    width = max(q for _, q in entries) + 1
    if len(entries) != cap * width:
        raise ValueError(f"value CSV covers {len(entries)} cells, expected {cap * width}")
    values = np.empty((cap, width))
    for (delta, battery), value in entries.items():
        values[delta - 1, battery] = value
    return values
