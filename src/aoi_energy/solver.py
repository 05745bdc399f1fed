"""Average-cost solvers: RVI for ``solve``, policy iteration for ``sweep``; Howard's test.

The optimality equation for the long-run average cost is solved by value
iteration with re-anchoring at (1, battery_cap), the cheapest corner. Each
sweep applies the Bellman operator synchronously over the whole grid,
measures the span of the raw difference T(V) - V (whose min and max bracket
the optimal gain), and subtracts the anchor entry so the iterates stay
bounded. Convergence is declared when the span drops to ``epsilon``; the
returned gain is the midpoint of the final difference's extremes, in a
:class:`ValueTable`. Only this solver builds the ``aoi_cap`` grid, so only
:func:`solve` holds it to ``model.MAX_GRID_STATES``.

The full span pass runs only on sweeps that may stop. A sweep first forms
the difference at the two slots that held the extremes at the last full
pass, a lower bound on the span: for any i, j, fl(d_i - d_j) <= fl(max -
min), since rounding is monotone. While that bound exceeds ``epsilon`` the
plain loop could not stop either, so the pass is skipped; NaN fails the
comparison and takes the pass. The last sweep ``MAX_SWEEPS`` allows always
takes it, so values, gain, sweep count and span stay bit for bit those of
the loop that measures every sweep.

Sweeps run in one flat workspace (:class:`_Workspace`). The backup's float
association is part of its contract: results repeat bit for bit.

Policy iteration (Howard 1960) works on boolean action rows, age by battery
level, the last row standing for every older age. A round
(:func:`_exact_bias`) builds the exact bias on those rows' ages alone and
switches every action that loses by more than epsilon; no round projects
onto thresholds, which are read off the rows once they stop switching. A
round returns one :class:`HowardTest`: gain, bias and q on ages 1..D+2 at
every ``aoi_cap``, D its last row (past D they grow in closed form, so the
structure certificates read every age off them), and Howard's gap and
witness. Howard's test of a threshold policy (:func:`threshold_bias`) is one
such round on its rows, so both give the same result bit for bit.

A sweep is about fifteen numpy calls, and on the default grid their fixed
dispatch cost is about half its time. So each call is bound once per solve
(``functools.partial``); the weights lam, 1-lam, p, 1-p and the anchor entry
are 0-d arrays, which a ufunc takes faster than a Python float or a numpy
scalar; and the two-slot bound reads Python floats. None of this changes an
operation, its operands' values or their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import NamedTuple

import numpy as np

from .evaluation import _closure, _cycles, _slot_kernels, _stationary, _transmit_rows
from .model import State, SystemParams, check_grid
from .policies import ThresholdPolicy, ZeroWait

__all__ = [
    "EPSILON",
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
]

EPSILON = 1e-9  # RVI's span tolerance, policy iteration's margin, Howard's largest gap
MAX_SWEEPS = 500_000  # RVI's sweep budget, read by each solve


class ConvergenceError(RuntimeError):
    """RVI ran out of sweeps (``span`` its last span) or policy iteration broke off (NaN)."""

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
    """RVI's span tolerance (:func:`solve`) and the gap :func:`check_truncation_adequacy` passes."""

    epsilon: float = EPSILON

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")


@dataclass(frozen=True)
class ValueTable:
    """RVI's converged relative values (V(1, battery_cap) pinned to zero), gain, sweeps, span."""

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
    Raises :class:`ConvergenceError` carrying the last span when ``MAX_SWEEPS``
    sweeps do not suffice. An (aoi_cap, B+1) grid over ``MAX_GRID_STATES``
    states is refused before anything is allocated, then p = 1. Every sweep
    works in one :class:`_Workspace`, and measures the full span only on
    sweeps that may stop (module docstring).
    """
    cfg = cfg if cfg is not None else SolverConfig()
    check_grid(params.aoi_cap, params.battery_cap + 1, "aoi_cap x battery levels")
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
    epsilon, last = cfg.epsilon, MAX_SWEEPS
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
            f"{epsilon:.3e} after {last} sweeps",
            span=span,
            iterations=last,
        )

    ws.backup()
    q_values = np.stack([ws.table(ws.q_idle), ws.table(ws.q_tx)], axis=-1)
    return ValueTable(ws.table(ws.real), float(gain), iterations, float(span)), q_values


def greedy_policy(v: ValueTable, q: np.ndarray, params: SystemParams) -> np.ndarray:
    """Argmin-over-actions table of ``q``: int8 (aoi_cap, B+1), 1 = transmit, exact ties idle."""
    if q.shape[:2] != v.values.shape or v.values.shape != params.grid_shape:
        raise ValueError("value, q and params grids disagree")
    return (q[:, :, 1] < q[:, :, 0]).astype(np.int8)


def extract_thresholds(actions: np.ndarray, params: SystemParams) -> ThresholdPolicy:
    """Read per-battery age thresholds off an (aoi_cap, B+1) action table, 1 = transmit.

    Fails with :class:`ThresholdStructureError` when any battery column is
    not of the form idle-below / transmit-at-and-above a single age, which
    makes a successful extraction an executable certificate of threshold
    structure.
    """
    if actions.shape != params.grid_shape:
        raise ValueError(f"policy shape {actions.shape}, expected {params.grid_shape}")
    return _thresholds(actions)


def _thresholds(actions: np.ndarray) -> ThresholdPolicy:
    """:func:`extract_thresholds` of a table of any number of age rows."""
    transmits, first = actions.any(axis=0), actions.argmax(axis=0)
    idle_again = (np.arange(len(actions))[:, None] > first) & (actions == 0) & transmits
    if idle_again.any():
        battery = int(idle_again.any(axis=0).argmax())
        start, gap = int(first[battery]) + 1, int(idle_again[:, battery].argmax()) + 1
        raise ThresholdStructureError(
            f"battery {battery}: transmit at age {start} but idle again at age {gap}; "
            "column is not threshold-shaped",
            witnesses=[State(start, battery), State(gap, battery)],
        )
    return ThresholdPolicy(tuple(int(f) + 1 if t else None for f, t in zip(first, transmits)))


class HowardTest(NamedTuple):
    """One Howard round on a policy's rows: its exact bias and how much its actions lose.

    ``gain`` is the policy's cost, ``values`` its bias h on ages 1..D+2 and
    ``q`` the (D+2, B+1, 2) state-action table of h, both anchored at
    h(1, battery_cap) = 0, D the last action row. ``gap`` is the most an
    action of rows 1..D loses on q, first at ``witness`` (ages before
    batteries). The optimal cost lies in [gain - gap, gain] (Odoni 1969).
    """

    gain: float
    values: np.ndarray
    q: np.ndarray
    gap: float
    witness: State


def _exact_bias(rows: np.ndarray, params: SystemParams) -> tuple[HowardTest, np.ndarray] | None:
    """One Howard round on ``rows``: its :class:`HowardTest` and each action's loss.

    ``rows`` are boolean action rows, 1 = transmit, the last row D for every
    older age too. None unless every level transmits at row D, p < 1 and the
    class gains agree within ``EPSILON``. With T_d = diag(1-a_d) idle +
    p diag(a_d) tx, built by :func:`_cycles` once per run of equal rows,
    h_d = c_d - g + T_d h_(d+1) + diag(a_d) fresh, where fresh = (1-p) tx h_1
    is what a delivery lands on, and (I - M) h_1 = C - g L by :func:`_cycles`,
    with nu h_1 = 0 on each recurrent class of M (one closure of M serves
    every class). Past D, h grows by 1/(1-p) per age, and the idle advantage
    by 1, so rows D+1..D+3 of h follow in closed form, q is read on ages
    1..D+2, and the pair (D, D+1) stands for every older one. The losses,
    one per action of ``rows``, are what it loses to the better one on q.
    """
    p = params.erasure_prob
    if not (rows[-1].all() and p < 1.0):
        return None
    idle, tx, _ = _slot_kernels(params, 1)
    deliveries, length, age_sum, spend, _, tail, steps = _cycles(rows, idle, tx, params)
    reach = _closure(deliveries != 0.0)
    # A recurrent state reaches just its class; the lowest member stands for it.
    lowest = ~(reach & ~reach.T).any(axis=1) & (reach.argmax(axis=1) == np.arange(len(idle)))
    stack, closures = deliveries[None], reach[None]
    laws = np.concatenate([_stationary(stack, i, closures) for i in np.flatnonzero(lowest)])
    gains = laws @ (age_sum + spend) / (laws @ length)
    if not gains.max() - gains.min() <= EPSILON:
        return None
    renewal = np.eye(len(idle)) - deliveries + reach[lowest].T @ laws  # + 1_k nu_k: invertible
    first = np.linalg.solve(renewal, age_sum + spend - gains[0] * length)
    fresh = (1.0 - p) * (tx @ first)  # a delivery lands on h_1
    depth, backup = len(rows), _backup(params)
    ages = np.arange(1.0, depth + 3)[:, None]
    cost = ages[:depth] + rows * (backup + fresh) - gains[0]
    h = np.empty((depth + 3, len(idle)))
    h[depth - 1] = tail @ (cost[-1] + p / (1.0 - p))  # tail = (I - p tx)^-1: all transmit at D
    h[depth:] = h[depth - 1] + np.arange(1.0, 4.0)[:, None] / (1.0 - p)
    for d in range(depth - 2, -1, -1):
        h[d] = cost[d] + steps[d] @ h[d + 1]
    later = h[1:]
    q = np.stack([ages + later @ idle.T, ages + backup + p * later @ tx.T + fresh], -1)
    idles, sends = q[:depth, :, 0], q[:depth, :, 1]
    losses = np.where(rows, sends, idles) - np.minimum(idles, sends)
    age, battery = np.unravel_index(losses.argmax(), losses.shape)
    anchor = h[0, -1]
    test = HowardTest(float(gains[0]), h[:-1] - anchor, q - anchor, float(losses.max()),
                      State(int(age) + 1, int(battery)))
    return test, losses


def _backup(params: SystemParams) -> np.ndarray:
    """The weighted backup cost of transmitting, by battery level: paid at an empty one."""
    return params.energy_weight * params.backup_cost * (np.arange(params.battery_cap + 1) == 0)


def threshold_bias(tp: ThresholdPolicy, params: SystemParams) -> HowardTest | None:
    """Howard's (1960) improvement test of ``tp``: one round (:func:`_exact_bias`) on its rows.

    None unless every level transmits at the last row D, p < 1 and the class
    gains agree. A level that never transmits fails the test anyway: a slot
    delivers with chance at most 1-p, so the wait T for delivery is at least
    1 + 1/(1-p) at an idle level, and at the idle level m of longest wait
    idling loses at least (1-p) T_m - 1 > 0 more per age. Past D the advantage
    of idling grows by 1 per age, so rows 1..D hold the gap. Returns the
    round's :class:`HowardTest`, its tables on ages 1..D+2 at every ``aoi_cap``.
    """
    exact = _exact_bias(_transmit_rows(tp, params), params)
    return None if exact is None else exact[0]


def check_truncation_adequacy(
    tp: ThresholdPolicy, params: SystemParams, cfg: SolverConfig | None = None
) -> bool:
    """True when Howard's gap of ``tp`` (:func:`threshold_bias`) is within ``cfg.epsilon``.

    No package code calls it: ``perfbench/make_reference.py`` does, and
    ``perfbench/spans.py`` traces it by name, which ``tests/test_api.py``
    requires to resolve.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    test = threshold_bias(tp, params)
    return test is not None and test.gap <= cfg.epsilon


def policy_iteration(
    params: SystemParams, start: ThresholdPolicy | None = None
) -> tuple[HowardTest, ThresholdPolicy, int]:
    """Howard's policy iteration on boolean action rows, on the untruncated chain.

    From the rows of ``start`` (a neighbour's answer, say), else of ZeroWait
    (always of finite cost), each round (:func:`_exact_bias`) switches every
    action that loses by more than ``EPSILON``. A level that then idles at
    the last row D by G idles on to D + floor(G - eps), and transmits from
    the next age, at most 2D, so each grid stays under the bound; trailing
    all-transmit rows are trimmed, so threshold rows have the depth of
    :func:`_transmit_rows`. Each round switches only actions that lose by
    more than epsilon, so the gain never rises and no rows repeat: the rounds
    need no budget. Stops when no action switches, so Howard's gap is within
    epsilon, and reads the thresholds off the rows: rows that are not
    threshold-shaped raise :class:`ThresholdStructureError`. Raises
    :class:`ConvergenceError`, naming each level's first transmitting age,
    when rounding makes the rows repeat an earlier round's or a round's class
    gains differ. A threshold at an exact tie may depend on the start, the
    cost not. Returns the last round's :class:`HowardTest`, the same as
    :func:`threshold_bias` of the thresholds, the thresholds and the number
    of rounds. ``aoi_cap`` plays no part.
    """
    params.validate_for_solve()
    if start is not None and None in start.thresholds:
        raise ValueError(f"a start must transmit at every battery level, got {start!r}")
    rows = _transmit_rows(start if start is not None else ZeroWait(), params)
    seen = set()
    for rounds in count(1):
        seen.add(rows.tobytes())  # the width is fixed, so the bytes fix the rows
        exact = _exact_bias(rows, params)
        if exact is None:
            why = "have recurrent classes of unequal gain"
            break
        test, losses = exact
        switch = losses > EPSILON
        if not switch.any():
            return test, _thresholds(rows), rounds
        rows, depth = rows ^ switch, len(rows)
        idle = ~rows[-1]
        if idle.any():  # idle on while idling still wins, then transmit
            late = np.minimum(depth + np.floor(losses[-1] - EPSILON) + 1, 2 * depth)
            top = int(late[idle].max())
            check_grid(top, rows.shape[1], "threshold age rows x battery levels")
            older = np.arange(depth + 1, top + 1)[:, None]
            rows = np.concatenate([rows, np.where(idle, older >= late, rows[-1])])
        mixed = np.flatnonzero(~rows.all(axis=1))
        rows = rows[: mixed[-1] + 2 if mixed.size else 1]  # trim trailing all-transmit rows
        if rows.tobytes() in seen:
            why = "repeat an earlier round's"
            break
    raise ConvergenceError(f"policy iteration did not converge: thresholds "
                           f"{(rows.argmax(axis=0) + 1).tolist()} {why}",
                           span=math.nan, iterations=rounds)
