"""Average-cost solvers: RVI for ``solve``, policy iteration for ``sweep``; Howard's test.

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

Sweeps run in one flat workspace (:class:`_Workspace`). The backup's float
association is part of its contract: results repeat bit for bit.

A sweep is about fifteen numpy calls, and on the default grid their fixed
dispatch cost is about half its time. So each call is bound once per solve
(``functools.partial``); the weights lam, 1-lam, p, 1-p and the anchor entry
are 0-d arrays, which a ufunc takes faster than a Python float or a numpy
scalar; and the two-slot bound reads Python floats. None of this changes an
operation, its operands' values or their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .evaluation import _closure, _cycles, _slot_kernels, _stationary, _transmit_rows
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
    "HowardTest",
    "threshold_bias",
    "check_truncation_adequacy",
    "policy_iteration",
    "write_value_csv",
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

    ``values[q*row + d-1]`` holds V(d, q), then the saturation row (battery
    ``min(q+1, B)``) and one slot never written; age ``cap`` is the saturation
    column, so one age older is offset +1 and one battery up +row, and ``row``
    is ``cap+1`` rounded up to whole 64-byte lines. ``backup`` runs ``calls``,
    the ``steps`` bound once, to fill ``q_idle``, ``q_tx``, and ``refresh``
    copies V's saturation pads; pad slots of a result, and V's columns past
    ``cap``, hold garbage that no real slot reads. Every buffer a sweep writes
    is from ``alloc``, which starts it on a line: on AVX-512 hosts a ufunc runs
    up to twice as slow when its output does not.
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

    No package code calls it: ``perfbench/spans.py`` traces it by name, which
    ``tests/test_api.py`` requires to resolve, and tests hold it to an oracle.

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


def solve(params: SystemParams, cfg: SolverConfig | None = None) -> tuple[ValueTable, np.ndarray]:
    """Relative value iteration from the zero table to a span of ``cfg.epsilon``.

    Returns the anchored value table (with the gain estimate) and the
    (aoi_cap, B+1, 2) state-action table q of the converged values:
    q[d-1, b, a] is the stage cost of action a (0 idle, 1 transmit) plus the
    expected next value, so its min over actions is gain + V up to epsilon.
    Raises :class:`ConvergenceError` carrying the last span when ``max_iters``
    sweeps do not suffice. Every sweep works in one :class:`_Workspace`, and
    measures the full span only on sweeps that may stop (module docstring).
    """
    cfg = cfg if cfg is not None else SolverConfig()
    params.validate_for_solve()
    ws = _Workspace(params, np.zeros(params.grid_shape))
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


class HowardTest(NamedTuple):
    """A threshold policy's exact bias, ``values`` (ages 1..aoi_cap, its cost as gain) and ``q``.

    ``losses`` is what each action of the transmit ``rows`` (ages 1..D) loses
    on it, at most ``gap``, first at ``witness`` (ages before batteries). The
    optimal cost lies in [gain - gap, gain] (Odoni 1969).
    """

    values: ValueTable
    q: np.ndarray
    rows: np.ndarray
    losses: np.ndarray
    gap: float
    witness: State


def _exact_bias(rows: np.ndarray, params: SystemParams, cfg: SolverConfig) -> tuple | None:
    """Gain, bias h (ages 1..n+1) and q table (ages 1..n) of ``rows``, n = max(D, aoi_cap).

    Every level transmits at the last row D and p < 1. With T_d = diag(1-a_d)
    idle + p diag(a_d) tx, built by :func:`_cycles` once per run of equal rows,
    h_d = c_d - g + T_d h_(d+1) + (1-p) diag(a_d) tx h_1, and (I - M) h_1 =
    C - g L by :func:`_cycles`, with nu h_1 = 0 on each recurrent class of M
    (one closure of M serves every class). Past D, h grows by 1/(1-p) per age.
    None when class gains differ by more than epsilon.
    """
    p = params.erasure_prob
    idle, tx, _ = _slot_kernels(params, 1)
    deliveries, length, age_sum, spend, _, tail, steps = _cycles(rows, idle, tx, params)
    reach = _closure(deliveries != 0.0)
    # A recurrent state reaches just its class; the lowest member stands for it.
    lowest = ~(reach & ~reach.T).any(axis=1) & (reach.argmax(axis=1) == np.arange(len(idle)))
    stack, closures = deliveries[None], reach[None]
    laws = np.concatenate([_stationary(stack, i, closures) for i in np.flatnonzero(lowest)])
    gains = laws @ (age_sum + spend) / (laws @ length)
    if not gains.max() - gains.min() <= cfg.epsilon:
        return None
    renewal = np.eye(len(idle)) - deliveries + reach[lowest].T @ laws  # + 1_k nu_k: invertible
    first = np.linalg.solve(renewal, age_sum + spend - gains[0] * length)
    backup = params.energy_weight * params.backup_cost * (np.arange(len(idle)) == 0)
    fresh = (1.0 - p) * (tx @ first)  # a delivery lands on h_1
    depth, n = len(rows), max(len(rows), params.aoi_cap)
    age = np.arange(1.0, n + 1)[:, None]
    cost = age[:depth] + rows * (backup + fresh) - gains[0]
    h = np.empty((n + 1, len(idle)))
    h[depth - 1] = tail @ (cost[-1] + p / (1.0 - p))  # tail = (I - p tx)^-1: all transmit at D
    h[depth:] = h[depth - 1] + np.arange(1.0, n + 2 - depth)[:, None] / (1.0 - p)
    for d in range(depth - 2, -1, -1):
        h[d] = cost[d] + steps[d] @ h[d + 1]
    q = np.stack([age + h[1:] @ idle.T, age + backup + p * h[1:] @ tx.T + fresh], axis=-1)
    return float(gains[0]), h, q


def threshold_bias(
    tp: ThresholdPolicy, params: SystemParams, cfg: SolverConfig | None = None
) -> HowardTest | None:
    """Howard's (1960) improvement test of ``tp`` on its exact bias (:func:`_exact_bias`).

    None unless every level transmits at the last row D, p < 1 and the class
    gains agree. A level that never transmits fails the test anyway: a slot
    delivers with chance at most 1-p, so the wait T for delivery is at least
    1 + 1/(1-p) at an idle level, and at the idle level m of longest wait
    idling loses at least (1-p) T_m - 1 > 0 more per age. Past D the advantage
    of idling grows by 1 per age, so rows 1..D hold the gap.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    rows = _transmit_rows(tp, params)
    exact = _exact_bias(rows, params, cfg) if rows[-1].all() and params.erasure_prob < 1.0 else None
    if exact is None:
        return None
    gain, h, q = exact
    head, best = q[: len(rows)], np.minimum(q[..., 0], q[..., 1])  # min(axis=-1) is 30x slower
    losses = np.where(rows, head[..., 1], head[..., 0]) - best[: len(rows)]
    cap, anchor = params.aoi_cap, h[0, -1]
    values, q = h[:cap] - anchor, q[:cap] - anchor
    v = ValueTable(values, gain, 0, float(np.ptp(best[:cap] - anchor - values)))
    age, battery = np.unravel_index(losses.argmax(), losses.shape)
    return HowardTest(v, q, rows, losses, float(losses.max()), State(int(age) + 1, int(battery)))


def check_truncation_adequacy(
    tp: ThresholdPolicy, params: SystemParams, cfg: SolverConfig | None = None
) -> bool:
    """True when Howard's gap of ``tp`` (:func:`threshold_bias`) is within ``cfg.epsilon``."""
    cfg = cfg if cfg is not None else SolverConfig()
    test = threshold_bias(tp, params, cfg)
    return test is not None and test.gap <= cfg.epsilon


def policy_iteration(
    params: SystemParams, cfg: SolverConfig | None = None, start: ThresholdPolicy | None = None
) -> tuple[ValueTable, np.ndarray, ThresholdPolicy]:
    """Howard's policy iteration over threshold policies, on the untruncated chain.

    From the thresholds of ``start`` (a neighbour's answer, say), else from
    ZeroWait (always of finite cost), a round keeps each action unless the
    other wins by more than ``cfg.epsilon`` on the exact bias. A new threshold
    is the first transmitting age; a level idle at the last row D by G moves to
    D + floor(G - eps) + 1, at most 2D, so each grid stays under the bound. A
    cumulative min makes them non-increasing in battery, the paper's structure.
    Stops when they stop moving and pass :func:`threshold_bias`'s test, else
    raises :class:`ConvergenceError`. A threshold at an exact tie may depend on
    the start, the cost not. Returns the last round's bias and q table on the
    ``aoi_cap`` grid anchored at (1, battery_cap), and the thresholds.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    params.validate_for_solve()
    thresholds, seen = (1,) * (params.battery_cap + 1) if start is None else start.thresholds, []
    if None in thresholds:
        raise ValueError(f"a start must transmit at every battery level, got {start!r}")
    why = f"still move after {cfg.max_iters} rounds"  # unless a round breaks off
    for rounds in range(1, cfg.max_iters + 1):
        seen.append(thresholds)
        test = threshold_bias(ThresholdPolicy(thresholds), params, cfg)
        if test is None:
            why = "have recurrent classes of unequal gain"
            break
        tx = test.rows ^ (test.losses > cfg.epsilon)  # an action that loses by more switches
        late = np.minimum(len(tx) + np.floor(test.losses[-1] - cfg.epsilon) + 1, 2 * len(tx))
        firsts = np.where(tx.any(axis=0), tx.argmax(axis=0) + 1, late)
        thresholds = tuple(int(t) for t in np.minimum.accumulate(firsts))
        if thresholds in seen:
            why = "" if thresholds == seen[-1] else "repeat an earlier round's"
            break
    if not (why or test.gap <= cfg.epsilon):
        why = "fail Howard's improvement test"
    if why:
        raise ConvergenceError(f"policy iteration did not converge: thresholds "
                               f"{list(thresholds)} {why}", span=math.nan, iterations=rounds)
    return replace(test.values, iterations=rounds), test.q, ThresholdPolicy(thresholds)


def write_value_csv(path: str, v: ValueTable) -> None:
    """Dump values as (delta, q, value) rows, age-major, full float precision."""
    rows = v.values.tolist()
    lines = [f"{d},{q},{x!r}\n" for d, row in enumerate(rows, 1) for q, x in enumerate(row)]
    with open(path, "w", newline="") as handle:
        handle.write("delta,q,value\n" + "".join(lines))
