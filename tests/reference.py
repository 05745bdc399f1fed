"""Independent oracles the package is checked against.

Model: the slot law per state. ``transition`` is the exact successor law
(age saturating at ``aoi_cap``), ``sample_step`` draws one slot, and
``decide`` gives any policy's action at a state and slot, ages uncapped.
The package's three statements of the law (the solver's backup, the
evaluation kernels, the simulator's automaton) are checked against these.
So do the (de)serialisers of CLI files that the package never needs, and
the ``csv.writer`` form of the value CSV writer, which the package's
joined-string writer must match byte for byte.

Exact evaluation: the policy-induced kernel is built state by state from
``transition`` on the (aoi_cap x battery) grid, where age saturates at the
cap; ``Periodic`` gets a slot-phase coordinate and ``Randomized`` mixes the
two action kernels. Its stationary law is found by iterating the half-lazy
map from the start state. Where the stationary mass at the cap is
negligible, the truncated chain's cost equals the untruncated one that
``evaluate_exact`` computes by the renewal recursion, so the two can be
compared; where it is not, the oracle still scores the truncated chain the
solver works on.

Class analysis: scipy's breadth-first search and strongly connected
components find the reachable set and the closed classes of a kernel, for
the package's dense closure to agree with.

Bellman backup and relative value iteration: the age-major kernel that
gathers each neighbour with fancy indexing, and the plain loop over it,
anchored at (1, battery_cap) as the solver is; the package's battery-major
kernel and in-place loop must agree bit for bit.

Enumeration: every action table scored one at a time, each through
``stationary_distribution`` on its own kernel, which the batched scoring
of ``enumerate_optimal`` must match.

Policy extraction: a short-circuit scan that inherits Transmit from the
next-younger age, which agrees with the full argmin when the action
advantage is submodular.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from enum import IntEnum
from typing import Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from aoi_energy import (
    ConvergenceError,
    EnergyFirst,
    Periodic,
    PolicyTable,
    Randomized,
    SolverConfig,
    State,
    StructureReport,
    SystemParams,
    ThresholdPolicy,
    ZeroWait,
    stationary_distribution,
)
from aoi_energy.evaluation import _truncated_kernels

_PROB_ATOL = 1e-12


class Action(IntEnum):
    """The two per-slot decisions."""

    IDLE = 0
    TRANSMIT = 1


class TransitionDist(tuple):
    """Exact successor distribution: at most four distinct (state, probability) pairs."""

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        probs = [prob for _, prob in self]
        if len(self) > 4 or len(dict(self)) < len(self):
            raise ValueError(f"transition support {[s for s, _ in self]} repeats or exceeds 4")
        if not all(0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > _PROB_ATOL:
            raise ValueError(f"probabilities {probs} are not a distribution within {_PROB_ATOL}")
        return self

    def as_dict(self) -> dict[State, float]:
        return dict(self)


class StepOutcome(NamedTuple):
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
    state: State, action: Action, params: SystemParams, rng: np.random.Generator
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


def state_action(spec: ThresholdPolicy | PolicyTable, state: State) -> Action:
    """Action of a threshold policy or a table; ages beyond a table use its top row."""
    if state.aoi < 1:
        raise ValueError(f"aoi {state.aoi} < 1")
    if isinstance(spec, PolicyTable):
        row = min(state.aoi, spec.aoi_cap) - 1
        return Action(int(spec.actions[row, state.battery]))
    threshold = spec.thresholds[state.battery]
    if threshold is not None and state.aoi >= threshold:
        return Action.TRANSMIT
    return Action.IDLE


def transmit_count(table: PolicyTable) -> int:
    return int(table.actions.sum())


def decide(spec, s: State, t: int, rng: np.random.Generator) -> Action:
    """Action of ``spec`` at state ``s`` in slot ``t``; ``rng`` only serves ``Randomized``."""
    if s.aoi < 1 or s.battery < 0:
        raise ValueError(f"invalid state {s}")
    if isinstance(spec, ZeroWait):
        return Action.TRANSMIT
    if isinstance(spec, EnergyFirst):
        return Action.TRANSMIT if s.battery > 0 else Action.IDLE
    if isinstance(spec, Periodic):
        return Action.TRANSMIT if t % spec.period == spec.phase else Action.IDLE
    if isinstance(spec, Randomized):
        return Action.TRANSMIT if rng.random() < spec.p_tx else Action.IDLE
    if isinstance(spec, (ThresholdPolicy, PolicyTable)):
        return state_action(spec, s)
    raise TypeError(f"unknown policy spec {spec!r}")


def params_to_json(params: SystemParams) -> str:
    """The parameter JSON that ``SystemParams.from_json`` reads."""
    keys = {"erasure_prob": "p", "harvest_prob": "lambda", "energy_weight": "omega",
            "backup_cost": "c_r"}
    return json.dumps({keys.get(k, k): v for k, v in asdict(params).items()}, allow_nan=False)


def write_value_csv_rows(path: str, v) -> None:
    """Value CSV through ``csv.writer``, one ``repr(float(cell))`` per row, age-major."""
    cap, width = v.values.shape
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["delta", "q", "value"])
        for row in range(cap):
            for battery in range(width):
                writer.writerow([row + 1, battery, repr(float(v.values[row, battery]))])


def read_threshold_csv(path: str) -> ThresholdPolicy:
    """Read back what ``ThresholdPolicy.write_csv`` wrote."""
    rows: dict[int, int | None] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["q", "threshold"]:
            raise ValueError(f"unexpected threshold CSV header {reader.fieldnames}")
        for row in reader:
            value = row["threshold"]
            rows[int(row["q"])] = None if value == "never" else int(value)
    if sorted(rows) != list(range(len(rows))):
        raise ValueError("threshold CSV battery levels are not contiguous from 0")
    return ThresholdPolicy(thresholds=tuple(rows[q] for q in sorted(rows)))


def structure_report_from_json(text: str) -> StructureReport:
    """Read back what ``StructureReport.to_json`` wrote."""
    data = json.loads(text)
    witness = data["witness"]
    if witness is not None:
        witness = (State(*witness[0]), State(*witness[1]))
    return StructureReport(**{**data, "witness": witness})


def transmit_probability(spec, state: State, phase: int) -> float:
    """Chance that ``spec`` transmits at ``state`` in a slot of the given phase."""
    if isinstance(spec, Periodic):
        return 1.0 if phase == spec.phase else 0.0
    if isinstance(spec, Randomized):
        return spec.p_tx
    return float(decide(spec, state, phase, None))


def truncated_chain(spec, params: SystemParams):
    """Kernel, per-state age and weighted backup cost, and the cap mask.

    States are phase-major, then in ``states`` order; the start state
    (1, 0) in phase 0 has index 0.
    """
    period = spec.period if isinstance(spec, Periodic) else 1
    n_base = params.n_states
    n = n_base * period
    backup = params.energy_weight * params.backup_cost
    aoi = np.empty(n)
    energy = np.zeros(n)
    at_cap = np.zeros(n, dtype=bool)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for phase in range(period):
        next_base = ((phase + 1) % period) * n_base
        for s in states(params):
            i = phase * n_base + state_index(s, params)
            aoi[i] = s.aoi
            at_cap[i] = s.aoi == params.aoi_cap
            tx = transmit_probability(spec, s, phase)
            if s.battery == 0:
                energy[i] = tx * backup
            for weight, action in ((1.0 - tx, Action.IDLE), (tx, Action.TRANSMIT)):
                if weight == 0.0:
                    continue
                for nxt, prob in transition(s, action, params):
                    rows.append(i)
                    cols.append(next_base + state_index(nxt, params))
                    vals.append(weight * prob)
    kernel = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return kernel, aoi, energy, at_cap


def iterated_stationary(
    kernel: sp.csr_matrix, start: int, residual_tol: float = 1e-12, max_iters: int = 1_000_000
) -> np.ndarray:
    """Fixed point of mu <- (mu + mu P)/2 from a point mass at ``start``.

    The half-lazy map shares P's stationary vectors but cannot cycle on a
    periodic chain; the residual ||mu P - mu||_1 is measured against P.
    Started at ``start``, it converges to the stationary law of the closed
    class reached from there, when there is only one.
    """
    transpose = kernel.T.tocsr()
    mu = np.zeros(kernel.shape[0])
    mu[start] = 1.0
    for _ in range(max_iters):
        pushed = transpose @ mu
        if np.abs(pushed - mu).sum() < residual_tol:
            return mu / mu.sum()
        mu = 0.5 * (mu + pushed)
    raise AssertionError(f"no stationary fixed point after {max_iters} iterations")


def truncated_cost(spec, params: SystemParams) -> tuple[float, float, float]:
    """(mean age, mean weighted backup cost, stationary mass at the cap) from (1, 0)."""
    kernel, aoi, energy, at_cap = truncated_chain(spec, params)
    mu = iterated_stationary(kernel, 0)
    return float(mu @ aoi), float(mu @ energy), float(mu[at_cap].sum())


def enumeration_costs(params: SystemParams) -> np.ndarray:
    """Cost of every action table on the truncated-saturating chain, indexed by bitmask.

    One ``stationary_distribution`` call per table, from the start state
    (1, 0); the first mask whose chain reaches more than one closed class
    raises its ``ReducibilityError``.
    """
    n = params.n_states
    width = params.battery_cap + 1
    idle, tx = _truncated_kernels(params)
    ages = np.repeat(np.arange(1.0, params.aoi_cap + 1), width)
    backup = params.energy_weight * params.backup_cost * (np.arange(n) % width == 0)
    costs = np.empty(1 << n)
    bit_weights = 1 << np.arange(n)
    for mask in range(costs.size):
        bits = (mask & bit_weights) > 0
        mu = stationary_distribution(np.where(bits[:, None], tx, idle), 0)
        costs[mask] = mu @ ages + mu @ (bits * backup)
    return costs


def csgraph_classes(kernel: np.ndarray, start: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Reachable mask from ``start`` and the closed classes reachable from it.

    Each class is its sorted member indices; classes are ordered by their
    lowest member. A strongly connected component is closed when no edge
    leaves it.
    """
    graph = sp.csr_matrix(kernel)
    n = graph.shape[0]
    order = csgraph.breadth_first_order(graph, start, directed=True, return_predecessors=False)
    reachable = np.zeros(n, dtype=bool)
    reachable[order] = True
    n_comp, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    rows, cols = graph.nonzero()
    closed = np.ones(n_comp, dtype=bool)
    closed[np.unique(labels[rows[labels[rows] != labels[cols]]])] = False
    classes = [np.flatnonzero(labels == c) for c in np.unique(labels[reachable]) if closed[c]]
    return reachable, sorted(classes, key=lambda members: members[0])


def greedy_policy_shortcircuit(q: np.ndarray, params: SystemParams) -> PolicyTable:
    """Policy extraction that inherits Transmit from the next-younger age.

    Scans ages upward per battery level and skips the argmin once a Transmit
    has appeared below; under a submodular action advantage this agrees with
    the full argmin.
    """
    cap, width = params.grid_shape
    if q.shape != (cap, width, 2):
        raise ValueError(f"q table shape {q.shape}, expected {(cap, width, 2)}")
    actions = np.zeros((cap, width), dtype=np.int8)
    for battery in range(width):
        transmitting = False
        for row in range(cap):
            if not transmitting:
                transmitting = bool(q[row, battery, 1] < q[row, battery, 0])
            actions[row, battery] = 1 if transmitting else 0
    return PolicyTable(actions)


def bellman_qvalues_gathered(
    values: np.ndarray, params: SystemParams
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous backup on the age-major grid by fancy-index gathers.

    Age increments saturate at the top row, harvest credit lands after the
    transmit spend.
    """
    cap, width = params.aoi_cap, params.battery_cap + 1
    if values.shape != (cap, width):
        raise ValueError(f"value table shape {values.shape}, expected {(cap, width)}")
    lam = params.harvest_prob
    p = params.erasure_prob
    q_levels = np.arange(width)
    charged = np.minimum(q_levels + 1, params.battery_cap)
    spent = np.maximum(q_levels - 1, 0)
    ages = np.arange(1, cap + 1, dtype=float)[:, None]

    aged = np.empty_like(values)
    aged[:-1] = values[1:]
    aged[-1] = values[-1]
    fresh = values[0]

    q_idle = ages + lam * aged[:, charged] + (1.0 - lam) * aged
    backup_penalty = params.energy_weight * params.backup_cost * (q_levels == 0)
    q_tx = (
        ages
        + backup_penalty
        + p * (lam * aged[:, spent + 1] + (1.0 - lam) * aged[:, spent])
        + (1.0 - p) * (lam * fresh[spent + 1] + (1.0 - lam) * fresh[spent])
    )
    return q_idle, q_tx


def relative_value_iteration(params: SystemParams, cfg: SolverConfig, start=None):
    """(values, q_values, gain, iterations, final_span) by the plain RVI loop.

    Starts from ``start`` (default zero) and re-anchors at (1, battery_cap)
    before the first sweep and after every sweep, with a fresh table each
    time.
    """
    params.validate_for_solve()
    ref_idx = (0, params.battery_cap)
    values = np.zeros(params.grid_shape) if start is None else np.array(start, dtype=float)
    values -= values[ref_idx]
    gain = np.nan
    span = np.inf
    for iterations in range(1, cfg.max_iters + 1):
        q_idle, q_tx = bellman_qvalues_gathered(values, params)
        updated = np.minimum(q_idle, q_tx)
        diff = updated - values
        high = float(diff.max())
        low = float(diff.min())
        span = high - low
        gain = 0.5 * (high + low)
        values = updated - updated[ref_idx]
        if span <= cfg.epsilon:
            break
    else:
        raise ConvergenceError("reference RVI ran out of sweeps", span=span, iterations=iterations)
    q_idle, q_tx = bellman_qvalues_gathered(values, params)
    return values, np.stack([q_idle, q_tx], axis=-1), float(gain), iterations, float(span)
