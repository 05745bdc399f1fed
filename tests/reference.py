"""Independent oracles the package is checked against.

Model: the slot law per state. ``transition`` is the exact successor law
(age saturating at ``aoi_cap``), ``sample_step`` draws one slot
(``sample_steps`` many from one state, with the same draws), and
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

Kernels: :func:`dense_kernel` builds an action's kernel state by state
from ``transition``, over the first few age rows; the package's kernels,
which ``evaluation._slot`` builds, must equal it entry for entry.

Periodic renewal: ``Periodic`` scored on the dense (phase, battery) chain
at age 1, the phase advancing every slot, by the package's renewal sums
(``_cycles``) over Kronecker products of :func:`dense_kernel`'s battery
kernels, for the closed form of ``evaluate_exact`` to agree with.

Class analysis: scipy's breadth-first search and strongly connected
components find the reachable set and the closed classes of a kernel, for
the package's dense closure to agree with.

Bellman backup and relative value iteration: the age-major kernel that
gathers each neighbour with fancy indexing, and the plain loop over it,
anchored at (1, battery_cap) as the solver is; the package's battery-major
kernel and in-place loop must agree bit for bit.

Enumeration: every action table over :func:`dense_kernel`'s kernels
scored one at a time, each by a stationary solve on its own kernel
restricted to its closed class, found by a bitset closure (checked against
scipy's), which the batched scoring of ``enumerate_optimal`` must match.

Structure certificates: the five margins of ``aoi_energy.structure``,
each computed from its formula in that module's docstring at one state
pair after another, for ``structure_checks`` to agree with exactly.

Policy extraction: a short-circuit scan that inherits Transmit from the
next-younger age, which agrees with the full argmin when the action
advantage is submodular.

Optimality of a threshold policy, two ways. :func:`exact_bias_violation`
solves the policy's bias densely on ages 1..K, K at least twice its largest
finite threshold, from ``transition``; a successor one age past K is folded
onto age K plus the exact age tail (the expected slots to delivery, 1/(1-p)
when every level transmits), so the bias is that of the untruncated chain.
``check_truncation_adequacy`` must agree with its largest violation.
:func:`doubled_cap_adequacy` asks a narrower question, which cannot see
past twice the cap: whether the thresholds stay greedy for a second
relative value iteration at twice the age cap.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, replace
from enum import IntEnum
from typing import Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from aoi_energy import (
    ConvergenceError,
    EnergyFirst,
    MarginCheck,
    Periodic,
    PolicyTable,
    Randomized,
    ReducibilityError,
    SolverConfig,
    State,
    StructureReport,
    SystemParams,
    ThresholdPolicy,
    ZeroWait,
    solve,
    stationary_distribution,
)
from aoi_energy.evaluation import _cycles

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


def sample_steps(
    state: State, action: Action, params: SystemParams, rng: np.random.Generator, n: int
) -> StepOutcome:
    """``n`` slots drawn from ``state`` under ``action``, as ``n`` calls of :func:`sample_step`.

    Each field of the outcome is an array over the slots, ``next_state`` a
    ``State`` of two arrays. The uniforms come in :func:`sample_step`'s
    order, a slot's harvest and then, only when transmitting, its erasure:
    ``rng.random(2n).reshape(n, 2)``, or ``rng.random(n)`` when idling, so
    the two forms agree draw for draw.
    """
    _require_valid_state(state, params)
    transmit = Action(action) == Action.TRANSMIT
    draws = rng.random(n * (1 + transmit)).reshape(n, 1 + transmit)
    energy_arrived = draws[:, 0] < params.harvest_prob
    delivered = draws[:, 1] >= params.erasure_prob if transmit else np.zeros(n, dtype=bool)
    spend = int(transmit and state.battery > 0)
    paid = params.backup_cost if transmit and state.battery == 0 else 0.0
    return StepOutcome(
        next_state=State(
            np.where(delivered, 1, min(state.aoi + 1, params.aoi_cap)),
            np.minimum(state.battery - spend + energy_arrived, params.battery_cap),
        ),
        delivered=delivered,
        energy_arrived=energy_arrived,
        reliable_cost_paid=np.full(n, paid),
        stage_cost=np.full(n, float(state.aoi) + params.energy_weight * paid),
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


def threshold_table(tp: ThresholdPolicy, params: SystemParams) -> PolicyTable:
    """The (aoi_cap, battery levels) action table of ``tp``; None never transmits."""
    if params.battery_cap != tp.battery_cap:
        raise ValueError(
            f"threshold policy covers battery 0..{tp.battery_cap}, "
            f"params expect 0..{params.battery_cap}"
        )
    ages = np.arange(1, params.aoi_cap + 1)[:, None]
    bound = np.array([params.aoi_cap + 1 if t is None else t for t in tp.thresholds])[None, :]
    return PolicyTable((ages >= bound).astype(np.int8))


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


def structure_checks_by_pair(values, q, params: SystemParams, tol: float) -> list[MarginCheck]:
    """The five certificates, one state pair at a time.

    Each check visits the pairs (s, s + step) in :func:`states` order, the
    second state on the grid and, for an age step, below ``aoi_cap``. It
    keeps the first least margin, or the first NaN once one is met, and
    passes when that margin is at least ``-tol``; with no pairs it passes
    with margin ``inf`` and no witness.
    """
    p = params.erasure_prob

    def V(d, b):
        return float(values[d - 1, b])

    def A(d, b):
        return float(q[d - 1, b, 0]) - float(q[d - 1, b, 1])

    rules = {
        "monotone_in_aoi": ((1, 0), lambda d, b: V(d + 1, b) - V(d, b)),
        "monotone_in_battery": ((0, 1), lambda d, b: V(d, b) - V(d, b + 1)),
        "increment_lower_bound": ((1, 0), lambda d, b: V(d + 1, b) - V(d, b) - 1),
        "cross_increment": (
            (1, 1), lambda d, b: V(d + 1, b + 1) + p * V(d, b) - V(d, b + 1) - p * V(d + 1, b)
        ),
        "submodular_q": ((1, 0), lambda d, b: A(d + 1, b) - A(d, b)),
    }
    checks = []
    for name, ((age_step, battery_step), margin) in rules.items():
        worst, witness = math.inf, None
        for s in states(params):
            if s.battery + battery_step > params.battery_cap:
                continue
            if age_step and s.aoi + age_step > params.aoi_cap - 1:
                continue
            m = margin(s.aoi, s.battery)
            if witness is None or m < worst or (math.isnan(m) and not math.isnan(worst)):
                worst, witness = m, (s, State(s.aoi + age_step, s.battery + battery_step))
        checks.append(MarginCheck(name, worst >= -tol, worst, witness))
    return checks


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


def dense_kernel(params: SystemParams, action: Action, depth: int) -> np.ndarray:
    """Kernel of ``action`` from :func:`transition` over the first ``depth`` age rows.

    States are age-major as in :func:`state_index`. A successor older than
    ``depth`` lands in the last row, so at depth 1 this is the battery law.
    """
    width = params.battery_cap + 1
    kernel = np.zeros((depth * width, depth * width))
    for s in states(params):
        if s.aoi <= depth:
            for nxt, prob in transition(s, action, params):
                older = State(min(nxt.aoi, depth), nxt.battery)
                kernel[state_index(s, params), state_index(older, params)] += prob
    return kernel


def dense_periodic_cost(spec: Periodic, params: SystemParams) -> tuple[float, float]:
    """(mean age, mean weighted backup cost) of ``spec`` on its (phase, battery) renewal chain.

    States are phase-major, (phase, battery) at index phase (B+1) + battery,
    and the chain starts at (phase 0, battery 0). The kernels are dense over
    period x (B+1) states, so keep the period small. Needs p < 1.
    """
    # A transmission's battery law does not depend on its delivery; at p = 0 every one delivers.
    idle = dense_kernel(params, Action.IDLE, 1)
    tx = dense_kernel(replace(params, erasure_prob=0.0), Action.TRANSMIT, 1)
    advance = np.roll(np.eye(spec.period), 1, axis=1)
    on_phase = np.arange(spec.period) == spec.phase
    actions = np.repeat(on_phase, params.battery_cap + 1)[None, :].astype(float)
    deliveries, length, age_sum, spend, trapped, _ = _cycles(
        actions, np.kron(advance, idle), np.kron(advance, tx), params
    )
    assert not trapped.any(), "a phase slot comes every period, so delivery is certain at p < 1"
    nu = stationary_distribution(deliveries, 0)
    cycle = float(nu @ length)
    return float(nu @ age_sum) / cycle, float(nu @ spend) / cycle


def enumeration_costs(params: SystemParams) -> np.ndarray:
    """Cost of every action table on the truncated-saturating chain, indexed by bitmask.

    One :func:`class_stationary` solve per table, from the start state
    (1, 0); the first mask whose chain reaches more than one closed class
    raises its ``ReducibilityError``.
    """
    n = params.n_states
    width = params.battery_cap + 1
    idle, tx = (dense_kernel(params, action, params.aoi_cap) for action in Action)
    ages = np.repeat(np.arange(1.0, params.aoi_cap + 1), width)
    backup = params.energy_weight * params.backup_cost * (np.arange(n) % width == 0)
    costs = np.empty(1 << n)
    bit_weights = 1 << np.arange(n)
    for mask in range(costs.size):
        bits = (mask & bit_weights) > 0
        mu = class_stationary(np.where(bits[:, None], tx, idle), 0)
        costs[mask] = mu @ ages + mu @ (bits * backup)
    return costs


def class_stationary(kernel: np.ndarray, start: int) -> np.ndarray:
    """Stationary law of the one closed class reachable from ``start``, solved on that class.

    The classes come from :func:`bitset_classes`. More than one raises
    ``ReducibilityError`` with the package's message and the lowest state of
    each class. On the class alone, mu P = mu with its last balance equation
    replaced by sum(mu) = 1 is solved directly; rounding below zero is clipped.
    """
    classes = bitset_classes(kernel, start)
    if len(classes) != 1:
        offending = [members[0] for members in classes]
        raise ReducibilityError(
            f"{len(classes)} closed recurrent classes reachable from state "
            f"{start}; representatives {offending}",
            offending=offending,
        )
    member = classes[0]
    balance = np.eye(len(member)) - kernel[np.ix_(member, member)].T
    balance[-1] = 1.0
    mu = np.clip(np.linalg.solve(balance, np.eye(len(member))[-1]), 0.0, None)
    full = np.zeros(kernel.shape[0])
    full[member] = mu / mu.sum()
    return full


def bitset_classes(kernel: np.ndarray, start: int) -> list[list[int]]:
    """The closed classes reachable from ``start``, each its sorted members, by lowest member.

    Warshall's closure over one Python int per row, bit j set when state j
    can be reached: a state is recurrent when every state it reaches reaches
    it back, and its class is then the set it reaches. Up to 63 states.
    """
    n = kernel.shape[0]
    rows = ((kernel != 0.0) @ (1 << np.arange(n, dtype=np.int64))).tolist()
    reach = [row | 1 << i for i, row in enumerate(rows)]
    for m in range(n):
        for i in range(n):
            if reach[i] >> m & 1:
                reach[i] |= reach[m]
    members = [[j for j in range(n) if row >> j & 1] for row in reach]
    closed = {
        tuple(members[i])
        for i in members[start]
        if all(reach[j] >> i & 1 for j in members[i])
    }
    return [list(c) for c in sorted(closed)]


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


def doubled_cap_adequacy(
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
    chosen = np.take_along_axis(q2, threshold_table(tp, doubled).actions[..., None], axis=-1)
    if (chosen[..., 0] - q2.min(axis=-1)).max() > cfg.epsilon:
        return False
    return all(t < params.aoi_cap for t in tp.thresholds if t is not None)


def exact_bias_violation(
    tp: ThresholdPolicy, params: SystemParams
) -> tuple[float, np.ndarray, float]:
    """(largest Q(tp's action) - min Q, the (K, B+1, 2) Q table, gain) of ``tp``'s exact bias.

    States are (age, battery) at ages 1..K, K = max(2D, 4) with D the
    largest finite threshold (1 when there is none), age-major. With a the
    action of ``tp``, the dense system g + h(s) - sum P(s, s') h(s') = c(s)
    is solved with h(1, 0) = 0; a successor at age K + 1 is read as
    h(K, b) + T(b), T the expected slots to delivery from age K under
    ``tp``'s actions there (T = 1/(1-p) when every level transmits). Past
    age K each level's advantage of idling moves by its step from age K - 1
    to K, so a level whose action loses by more at every older age makes
    the violation ``inf``; so does a level from which delivery is not
    certain. Needs p < 1 and a policy with one recurrent class (the harvest
    chance below 1 gives one): the dense solve is dense, so keep B small.
    """
    width = params.battery_cap + 1
    finite = [t for t in tp.thresholds if t is not None]
    depth = max(2 * max(finite, default=1), 4)
    deep = replace(params, aoi_cap=depth + 1)  # so that age K's successors reach age K + 1
    n = depth * width
    p = params.erasure_prob
    kernels = np.zeros((2, n, n))
    beyond = np.zeros((2, n, width))  # mass on age K + 1, by battery
    costs = np.zeros((2, n))
    for s in states(replace(params, aoi_cap=depth)):
        i = state_index(s, params)
        for action in Action:
            costs[action, i] = stage_cost(s, action, deep)
            for nxt, prob in transition(s, action, deep):
                if nxt.aoi > depth:
                    beyond[action, i, nxt.battery] += prob
                    kernels[action, i, state_index(State(depth, nxt.battery), params)] += prob
                else:
                    kernels[action, i, state_index(nxt, params)] += prob
    acts = np.array([state_action(tp, s) for s in states(replace(params, aoi_cap=depth))])
    rows = np.arange(n)
    tail = beyond[acts[-width:], rows[-width:]]  # no-delivery law from age K under tp
    leaking = acts[-width:] == Action.TRANSMIT
    hops = csgraph.shortest_path(sp.csr_matrix(tail > 0.0), unweighted=True)
    if not np.isfinite(hops[:, leaking]).any(axis=1).all():
        return math.inf, np.full((depth, width, 2), np.nan), math.inf
    slope = np.linalg.solve(np.eye(width) - tail, np.ones(width))
    chosen = kernels[acts, rows]
    system = np.eye(n) - chosen
    system[:, 0] = 1.0  # h(1, 0) = 0 frees its column for the gain
    solution = np.linalg.solve(system, costs[acts, rows] + beyond[acts, rows] @ slope)
    gain, bias = solution[0], np.concatenate([[0.0], solution[1:]])
    q = costs + kernels @ bias + beyond @ slope
    gap = q[acts, rows] - q.min(axis=0)
    step = (q[0] - q[1])[-width:] - (q[0] - q[1])[-2 * width : -width]
    if np.where(leaking, step < 0.0, step > 0.0).any():
        return math.inf, q.T.reshape(depth, width, 2), float(gain)
    return float(gap.max()), q.T.reshape(depth, width, 2), float(gain)
