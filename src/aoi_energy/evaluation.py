"""Policy evaluation three ways.

Monte Carlo and exact evaluation score the chain from (1, 0), age 1 with
an empty battery. Seeded Monte Carlo simulates the real chain (age
unbounded, battery finite), leaves the first tenth of each replication
uncounted, and reports replication means with a 95% confidence
halfwidth; the policies of one call share each replication's draws. It
runs the slot rule as a finite automaton over words of k slots, walked in
side-by-side lanes that advance together, a word position at a time, from
guessed starts, a wrong guess being walked again, so the bits are the same
as stepping slot by slot. Exact
evaluation works on the same untruncated chain: age resets on delivery
and otherwise grows by one, so the chain renews at each delivery, and the
average cost follows from the stationary law of a small renewal kernel
over the battery plus closed forms for the age tail, or for ``Periodic``
and ``Randomized`` a closed form. A policy whose age tail never dies
(delivery not certain, e.g. never transmitting) has infinite cost and is
refused with :class:`BoundaryMassError`. Exhaustive
enumeration scores every deterministic stationary policy of the
truncated-saturating chain the solver works on, on desk-size instances,
as a ground-truth oracle for the solver. One solver, :func:`_stationary`,
gives every stationary law: a threshold rule's renewal kernel, in exact
evaluation and Howard's test, passes it the closure already built, and the
rest go through :func:`stationary_distribution`.
All three run the slot law of :func:`_slot`, its one statement here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import State, SystemParams, check_grid, is_int
from .policies import (
    EnergyFirst,
    Periodic,
    PolicySpec,
    Randomized,
    ThresholdPolicy,
    ZeroWait,
)

__all__ = [
    "SimConfig",
    "EvalReport",
    "BoundaryMassError",
    "ReducibilityError",
    "simulate",
    "evaluate_exact",
    "enumerate_optimal",
    "stationary_distribution",
    "CSV_COLUMNS",
    "METHOD_MONTE_CARLO",
    "METHOD_EXACT",
]

METHOD_MONTE_CARLO = "monte_carlo"
METHOD_EXACT = "exact_stationary"

CSV_COLUMNS = [
    "policy",
    "p",
    "lambda",
    "omega",
    "c_r",
    "B",
    "method",
    "avg_total",
    "avg_aoi",
    "avg_energy",
    "ci95",
    "seed",
    "note",
]


class BoundaryMassError(RuntimeError):
    """The policy's age tail never dies, so its average cost is infinite."""


class ReducibilityError(RuntimeError):
    """More than one closed recurrent class is reachable from the start state."""

    def __init__(self, message: str, offending: list[int]):
        super().__init__(message)
        self.offending = offending


# Slots per replication: the simulator keeps one byte per slot, so 1 GiB of symbols.
MAX_HORIZON = 1 << 30
MAX_REPLICATIONS = 1 << 20  # each replication keeps two float means per policy


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run shape: replications start at (1, 0), the first tenth uncounted.

    At most :data:`MAX_HORIZON` slots and :data:`MAX_REPLICATIONS`; the seed is an int >= 0.
    """

    horizon: int
    replications: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (is_int(self.horizon) and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if self.horizon > MAX_HORIZON:
            raise ValueError(
                f"horizon of {self.horizon} slots exceeds the limit of {MAX_HORIZON} slots "
                "(a byte per slot)"
            )
        if not (is_int(self.replications) and self.replications >= 1):
            raise ValueError(f"replications must be an integer >= 1, got {self.replications!r}")
        if self.replications > MAX_REPLICATIONS:
            raise ValueError(
                f"{self.replications} replications exceed the limit of {MAX_REPLICATIONS}"
            )
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class EvalReport:
    """Average cost split into its age and weighted-energy components."""

    avg_total_cost: float
    avg_aoi: float
    avg_weighted_energy: float
    ci_halfwidth_95: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in (METHOD_MONTE_CARLO, METHOD_EXACT):
            raise ValueError(f"unknown method {self.method!r}")
        parts = self.avg_aoi + self.avg_weighted_energy
        if abs(self.avg_total_cost - parts) > 1e-9:
            raise ValueError(
                f"total {self.avg_total_cost!r} != aoi {self.avg_aoi!r} + "
                f"energy {self.avg_weighted_energy!r}"
            )


# Int32 entries of the k-slot word table; past about this size its lookups leave the cache.
_WORD_ENTRIES = 1 << 17
# Slots drawn per random-number call, which bounds the float buffers of a replication.
_CHUNK_SLOTS = 1 << 16
# Slots walked per span; its codes and lane grid take at most 4 + 4 bytes per word at once.
_SPAN_SLOTS = 1 << 20
# Words per lane of the speculative walk, and words walked from state 0 to guess a lane's start.
_LANE_WORDS = 256
_LOOKBACK_WORDS = 128
# Action tables scored per batched solve by enumeration, and its cost tie tolerance.
_ENUM_BLOCK = 1 << 10
_ENUM_TIE = 1e-9


def _bounds(spec: PolicySpec, params: SystemParams) -> list | None:
    """Per-battery age thresholds of the policy's slot rule, checked before any allocation.

    ZeroWait and EnergyFirst are thresholds of 1 (EnergyFirst's is inf at
    an empty battery), and a ThresholdPolicy's None is inf. None for the one
    age row of ``Periodic`` and ``Randomized``, which read the outside bit.
    Thresholds for another battery size, or an (age rows x battery levels)
    grid over ``MAX_GRID_STATES``, are a ``ValueError`` (the rows run to the
    largest finite threshold, see :func:`_transmit_rows`), and what is no
    spec, an action array say, a ``TypeError``.
    """
    width = params.battery_cap + 1
    if isinstance(spec, ThresholdPolicy) and spec.battery_cap != params.battery_cap:
        raise ValueError(
            f"policy covers battery 0..{spec.battery_cap}, params expect 0..{params.battery_cap}"
        )
    if isinstance(spec, (Periodic, Randomized)):
        check_grid(1, width, "outside-bit age rows x battery levels")
        return None
    if isinstance(spec, ZeroWait):
        bounds = [1] * width
    elif isinstance(spec, EnergyFirst):
        bounds = [math.inf] + [1] * params.battery_cap
    elif isinstance(spec, ThresholdPolicy):
        bounds = [math.inf if t is None else t for t in spec.thresholds]
    else:
        raise TypeError(f"unknown policy spec {spec!r}")
    check_grid(_depth(bounds), width, "threshold age rows x battery levels")
    return bounds


def _depth(bounds: list) -> int:
    """Age rows of a threshold rule: its largest finite threshold, or 1 when there is none."""
    return max((t for t in bounds if t != math.inf), default=1)


def _transmit_rows(spec: PolicySpec, params: SystemParams) -> np.ndarray | None:
    """The one checked decoder of a policy: transmit flags by age row and battery level.

    Row d-1 holds age d and the last row every older age too: :func:`_depth`
    rows of a threshold rule. None for ``Periodic`` and ``Randomized``; every
    kind is held to :func:`_bounds` first.
    """
    bounds = _bounds(spec, params)
    if bounds is None:
        return None
    return np.arange(1, _depth(bounds) + 1)[:, None] >= np.array(bounds)[None, :]


def _word_slots(n_sym: int, n_z: int) -> int:
    """Slots k per word: the most (at least 1) whose n_sym^k n_z entries fit ``_WORD_ENTRIES``."""
    k = 1
    while n_sym ** (k + 1) * n_z <= _WORD_ENTRIES:
        k += 1
    return k


def _slot(row, battery, tx, harvest, erased, depth: int, width: int) -> tuple:
    """The slot law: the next state index row * width + battery, and the delivery flag.

    A transmission spends a charged unit (the backup pays at an empty
    battery); harvest is credited after the spend, up to width - 1. Delivery
    resets the age row to 0, else it grows by one, saturating at depth - 1.
    The arguments broadcast; ``tx`` and ``erased`` are boolean arrays.
    """
    delivered = tx & ~erased
    charge = np.minimum(battery - (tx & (battery > 0)) + harvest, width - 1)
    older = np.where(delivered, 0, np.minimum(row + 1, depth - 1))
    return older * width + charge, delivered


def _automaton(rows: np.ndarray | None, params: SystemParams) -> tuple:
    """The slot rule of :func:`_slot` as a finite automaton over words of k slots.

    ``rows`` are decoded by :func:`_transmit_rows`, None for the one row of
    Periodic and Randomized. The state is z = (min(age, D) - 1) (B + 1) +
    battery, D the row count. A slot's symbol is s = harvest + 2 erased + 4
    outside, the outside bit being the Periodic slot or the Randomized coin.
    A slot's flags have bit 0 set when it pays the backup, bit 1 when it
    delivers. The word of k slots
    s_0..s_{k-1} has the code w = n_z sum_i s_i n^i over n symbols, and at
    w + z the int32 array ``table`` holds the state
    k slots on, and ``outcomes`` the flags of slot i at bits 2i and 2i+1.
    Row f of the (4^k, k) uint8 array ``unpack`` holds the k slot flags in word flags f.
    k is :func:`_word_slots`. Returns (walk, table, outcomes, unpack, n, n_z, k),
    ``walk`` a memoryview of ``table`` that gives Python ints one lookup at a time.
    """
    width = params.battery_cap + 1
    act = np.arange(2)[:, None, None] > np.zeros((1, width)) if rows is None else rows[None]
    depth = act.shape[1]
    sym = np.arange(4 * act.shape[0])[:, None, None]
    row, battery = np.arange(depth)[:, None], np.arange(width)
    tx = act[sym >> 2, row, battery]
    step, delivered = _slot(row, battery, tx, sym & 1, (sym & 2) > 0, depth, width)
    n_z = depth * width
    step = step.reshape(sym.size, n_z).astype(np.int32)
    # 2k bits fit 16: n >= 4 symbols and n_z >= 2 states cap k at 7 under _WORD_ENTRIES.
    flags = ((tx & (battery == 0)) | delivered << 1).reshape(sym.size, n_z).astype(np.uint16)
    words, outcomes, k = step, flags, _word_slots(sym.size, n_z)
    for i in range(1, k):
        # The new slot i comes after the word: its symbol is the top digit.
        words, outcomes = (
            step[:, words].reshape(-1, n_z),
            (outcomes | flags[:, words] << 2 * i).reshape(-1, n_z),
        )
    table = words.ravel()
    unpack = (np.arange(4**k)[:, None] >> np.arange(0, 2 * k, 2) & 3).astype(np.uint8)
    return memoryview(table), table, outcomes.ravel(), unpack, sym.size, n_z, k


def _lane_walk(grid: np.ndarray, z: int, walk: list, table: np.ndarray) -> None:
    """Add into each code of the lane ``grid`` the state before its word, walked from ``z``.

    A speculative data-parallel walk (Mytkowicz, Musuvathi and Schulte,
    ASPLOS 2014). ``grid`` is position-major: row i holds word i of every
    lane, so column j is lane j, the last lane padded with code 0. Each lane
    after the first starts from a guess: the state reached by walking the
    last ``_LOOKBACK_WORDS`` words of the lane before it from state 0. All
    lanes then advance together, one contiguous row per word position: the
    row's states are added into its codes, which then gather the next states
    from ``table``. The lanes are checked in order against the true end of
    the lane before, and one whose guess was wrong is walked again, one
    lookup of ``walk`` at a time, until it meets a guessed state (gathered
    from its summed codes): the automaton is deterministic, so from there on
    its states and end are true.
    """
    width, lanes = grid.shape
    guess = np.zeros(lanes, np.int32)
    for row in grid[width - min(_LOOKBACK_WORDS, width) :, :-1]:
        guess[1:] = table.take(row + guess[1:])
    guess[0] = z
    state = guess
    for row in grid:
        row += state
        state = table.take(row)
    ends = state.tolist()
    for j, start in enumerate(guess.tolist()):
        if start != z:
            col, path = grid[:, j], []
            for code, guessed in zip(col.tolist(), [start, *table[col[:-1]].tolist()]):
                if z == guessed:
                    break
                path.append(code - guessed + z)
                z = walk[path[-1]]
            else:
                ends[j] = z
            col[: len(path)] = path
        z = ends[j]


def _draw(
    symbols: np.ndarray, horizon: int, rng: np.random.Generator, prob: float, bit: int
) -> None:
    """Add ``bit`` to the symbol of each of the first ``horizon`` slots with probability ``prob``.

    The uniforms are drawn ``_CHUNK_SLOTS`` at a time, which bounds the float buffers.
    """
    for lo in range(0, horizon, _CHUNK_SLOTS):
        part = symbols[lo : min(lo + _CHUNK_SLOTS, horizon)]
        part += (rng.random(part.size) < prob) * np.uint8(bit)


def _simulate_rep(
    policies: list[PolicySpec],
    params: SystemParams,
    cfg: SimConfig,
    rng: np.random.Generator,
    automata: list[tuple],
) -> list[tuple[float, float]]:
    """One replication of every policy; returns (mean age, mean weighted backup cost) of each.

    Draws the harvest row, then the erasure row, over the whole horizon, as
    bits 0 and 1 of one symbol per slot, once for all the policies. Each
    policy then adds its outside bit: ``Periodic`` its slot hits, and
    ``Randomized`` its transmit coins, drawn from the generator state the two
    shared rows left, so every policy sees the draws it would see alone. The
    symbols are walked (:func:`_walk_rep`) with the policy's automaton from
    ``automata``, and the outside bit is cleared before the next policy.
    """
    horizon = cfg.horizon
    # Room for every policy's last word: k is largest at the fewest symbols and states.
    symbols = np.zeros(horizon + _word_slots(4, params.battery_cap + 1), np.uint8)
    _draw(symbols, horizon, rng, params.harvest_prob, 1)
    _draw(symbols, horizon, rng, params.erasure_prob, 2)
    shared = rng.bit_generator.state
    means = []
    for spec, automaton in zip(policies, automata):
        if isinstance(spec, Randomized):
            rng.bit_generator.state = shared
            _draw(symbols, horizon, rng, spec.p_tx, 4)
        elif isinstance(spec, Periodic):
            symbols[: horizon : spec.period] += 4
        means.append(_walk_rep(symbols, params, cfg, automaton))
        symbols &= 3
    return means


def _walk_rep(
    symbols: np.ndarray, params: SystemParams, cfg: SimConfig, automaton
) -> tuple[float, float]:
    """(mean age, mean weighted backup cost) of one replication's symbols under ``automaton``.

    Span by span, the symbols become word codes of the :func:`_automaton`,
    built in word order, zero-padded to whole lanes and copied once into
    the position-major grid of :func:`_lane_walk`, which adds each word's
    start into its code: the index of the word's flags in ``outcomes``.
    The flags are gathered position-major and transposed back to word
    order, one gather from ``unpack`` spreads them over the slots, and a
    span's arrays are freed before the next. The symbols past the
    horizon, up to a whole word, are zero and left uncounted. The age is
    never truncated: over the counted slots it sums t - (latest delivery
    before t), an exact integer taken in closed form between deliveries.
    The start (1, 0) is state 0, its age 1 a delivery in the slot before slot 0.
    """
    walk, table, outcomes, unpack, n_sym, n_z, k = automaton
    horizon, warm = cfg.horizon, cfg.horizon // 10
    symbols = symbols[: -(-horizon // k) * k]
    z, last = 0, -1  # the automaton state and the latest delivery slot
    age_sum = pay_count = 0
    per = _CHUNK_SLOTS // k  # words tallied at a time
    span = _SPAN_SLOTS // k * k
    for lo in range(0, horizon, span):
        block = symbols[lo : lo + span].reshape(-1, k)
        words = np.zeros(-(-len(block) // _LANE_WORDS) * _LANE_WORDS, np.int32)
        codes = words[: len(block)]  # the padding words past them stay code 0
        for i in range(k - 1, -1, -1):
            codes *= n_sym
            codes += block[:, i]
        codes *= n_z
        grid = words.reshape(-1, _LANE_WORDS).T.copy()  # position-major
        del words, codes
        _lane_walk(grid, z, walk, table)
        found, z = outcomes[grid], walk[int(grid.T.flat[len(block) - 1])]
        del grid
        found = found.T.ravel()[: len(block)]
        for word in range(0, found.size, per):
            at = lo + word * k
            out = np.take(unpack, found[word : word + per], axis=0)
            pays, ages, last = _tally(out.ravel()[: horizon - at], at, warm, last)
            pay_count += pays
            age_sum += ages
        del found

    slots = horizon - warm
    backup_rate = params.energy_weight * params.backup_cost * pay_count / slots
    return age_sum / slots, backup_rate


def _tally(out: np.ndarray, lo: int, warm: int, last: int) -> tuple[int, int, int]:
    """Backup payments and age sum over the counted slots of ``out``, and the latest delivery.

    ``out`` holds the flags of slots lo, lo+1, ...; slots before ``warm``
    are not counted, and ``last`` is the latest delivery slot before lo.
    """
    first = min(max(warm - lo, 0), out.size)
    pays = np.count_nonzero(out[first:] & 1)
    hits = np.flatnonzero(out >= 2)
    cut = int(np.searchsorted(hits, first))
    last = lo + int(hits[cut - 1]) if cut else last
    marks = np.append(hits[cut:], out.size - 1)
    gaps = np.diff(marks)
    # Ages run x-last..m-last up to the first mark m, then 1..g over each gap g.
    x, m = lo + first, lo + int(marks[0])
    runs = int(gaps @ gaps) + int(marks[-1] - marks[0])
    ages = ((m - x + 1) * (m + x - 2 * last) + runs) // 2
    return pays, ages, lo + int(marks[-2]) if marks.size > 1 else last


def _t_quantile_975(df: int) -> float:
    """0.975 quantile of Student's t with ``df`` degrees of freedom, as a Python float.

    Newton's method, from the normal quantile, on the finite closed form of
    P(|T| <= t) for integer df (Abramowitz and Stegun 26.7.3-4). With
    c = df/(df+t^2) it is sqrt(1-c) sum a_k c^k for even df and
    (2/pi)(atan(t/sqrt(df)) + sqrt(c(1-c)) sum b_k c^k) for odd df, where
    a_k = a_{k-1}(2k-1)/(2k), b_k = b_{k-1}(2k)/(2k+1), a_0 = b_0 = 1. The
    form is concave for t > 0, so the steps climb to the root without
    overshooting. Within 4e-15 relative of exact up to df = 1000, 1e-13 to 2^20.
    """
    odd = df % 2
    k = np.arange(df // 2)  # the series' powers of c: none for df = 1
    coef = np.cumprod(np.append(1.0, (2 * k[1:] - 1 + odd) / (2 * k[1:] + odd)))[: k.size]
    log_scale = math.lgamma(0.5 * df + 0.5) - math.lgamma(0.5 * df) - 0.5 * math.log(math.pi * df)
    t = 1.959963984540054
    for _ in range(100):
        u = t * t / df
        log_c = -math.log1p(u)  # c^k as exp(k log c): a running product of c would drift
        series = coef @ np.exp(k * log_c)
        if odd:
            inside = 2 / math.pi * (math.atan(t / math.sqrt(df)) + math.sqrt(u) / (1 + u) * series)
        else:
            inside = math.sqrt(u / (1 + u)) * series
        density = math.exp(log_scale + 0.5 * (df + 1) * log_c)  # half the slope of ``inside``
        step = (0.95 - inside) / (2 * density)
        t += step
        if step < 1e-14 * t:
            break
    return float(t)


def simulate(
    policies: list[PolicySpec], params: SystemParams, cfg: SimConfig
) -> list[EvalReport]:
    """Monte Carlo average cost of each of ``policies`` over seeded independent replications.

    Returns one report per policy, in order. Each replication starts at
    (1, 0), its first tenth uncounted. Replication seeds are spawned
    deterministically from ``cfg.seed``, so a repeated call reproduces the
    reports bit for bit. Replication i draws its harvest and erasure rows
    once and every policy walks them (common random numbers), so a
    policy's report is the same whichever policies share the call. The
    halfwidth is a Student-t 95% interval over the replication means, its
    quantile found once per call by :func:`_t_quantile_975`. It assumes
    those means are near normal: for heavy-tailed ages at few replications
    it under-covers (``random:0.02`` at p=0.8, 8 replications of 200k
    slots, missed the exact 250 by 3.0 halfwidths at seed 5). Every
    policy is held to :func:`_bounds` before any allocation: an (age rows x
    battery levels) grid above ``MAX_GRID_STATES`` (2^20), a threshold of
    10^9 say, or one row of 2^20 + 1 levels, is refused with ``ValueError``.
    Each is then decoded once and its automaton built once per call and
    kept for every replication, about 0.5 MB each at B = 20 (the rules
    without rows, ``Periodic`` and ``Randomized``, share one). Each
    replication keeps one byte per slot of the horizon and walks it in
    spans of 2^20 slots (:func:`_walk_rep`), at most 8 bytes per word of k
    slots in flight, so a replication of up to 2^20 slots is one span. A
    bare policy, not in a list, or a list item that is none of the five
    kinds (an action array, say) is refused with ``TypeError``.
    """
    if not isinstance(policies, (list, tuple)):
        raise TypeError(
            f"simulate takes a list of policies, got {policies!r}; "
            "score one policy with simulate([spec], params, cfg)[0]"
        )
    for spec in policies:
        _bounds(spec, params)
    decoded = [_transmit_rows(spec, params) for spec in policies]
    # The rules without rows share one automaton: they read only the outside bit.
    outside = _automaton(None, params) if any(rows is None for rows in decoded) else None
    automata = [outside if rows is None else _automaton(rows, params) for rows in decoded]
    age_means = np.empty((len(policies), cfg.replications))
    energy_means = np.empty((len(policies), cfg.replications))
    for i in range(cfg.replications):
        child = np.random.SeedSequence(cfg.seed, spawn_key=(i,))  # SeedSequence.spawn's child i
        rep = _simulate_rep(policies, params, cfg, np.random.default_rng(child), automata)
        for j, (age, energy) in enumerate(rep):
            age_means[j, i], energy_means[j, i] = age, energy
    avg_aoi, avg_energy = age_means.mean(axis=1), energy_means.mean(axis=1)
    ci = np.full(len(policies), math.nan)
    if cfg.replications > 1:
        spread = np.std(age_means + energy_means, axis=1, ddof=1)
        ci = _t_quantile_975(cfg.replications - 1) * spread / math.sqrt(cfg.replications)
    return [
        EvalReport(float(aoi + energy), float(aoi), float(energy), float(half), METHOD_MONTE_CARLO)
        for aoi, energy, half in zip(avg_aoi, avg_energy, ci)
    ]


def _closure(edges: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure of the boolean adjacency ``edges``, or of each in a stack.

    Entry (i, j) is True when j can be reached from i in zero or more
    steps. Each squaring doubles the path length covered, so about log2(n)
    dense products reach the fixed point.
    """
    reach = edges | np.eye(edges.shape[-1], dtype=bool)
    while True:
        weights = reach.astype(np.float32)
        grown = weights @ weights > 0.0
        if (grown == reach).all():
            return reach
        reach = grown


def stationary_distribution(kernel: np.ndarray, start: int) -> np.ndarray:
    """Stationary law of the closed class reachable from ``start``, of one kernel or a stack.

    ``kernel`` is a dense (n, n) array or a stack (..., n, n). Exactly one
    closed class must be reachable from ``start`` (see :func:`_closure`), else
    :class:`ReducibilityError` names the lowest state of each class of the first
    such kernel. Rows that ``start`` cannot reach are pointed at it, leaving that
    class the only closed one, so mu P = mu with its last balance equation
    replaced by sum(mu) = 1 is nonsingular and the stack is one batched solve.
    Transient states get zero mass up to rounding; mass below zero is clipped.
    """
    dense = np.asarray(kernel, dtype=float)
    if dense.ndim < 2 or dense.shape[-2] != dense.shape[-1]:
        raise ValueError(f"kernel must be square, got {dense.shape}")
    n = dense.shape[-1]
    if not 0 <= start < n:
        raise ValueError(f"start index {start} outside [0, {n})")
    stack = dense.reshape(-1, n, n)
    return _stationary(stack, start, _closure(stack != 0.0)).reshape(dense.shape[:-1])


def _stationary(stack: np.ndarray, start: int, reach: np.ndarray) -> np.ndarray:
    """:func:`stationary_distribution` of a (k, n, n) ``stack`` whose closures are ``reach``."""
    # A state is recurrent when everything it reaches reaches it back.
    recurrent = ~(reach & ~reach.swapaxes(1, 2)).any(axis=2)
    held = reach[:, start] & recurrent
    # One class: every reachable recurrent state reaches every other.
    single = (reach | ~held[:, :, None] | ~held[:, None, :]).all(axis=(1, 2))
    if not single.all():
        first = int(np.argmin(single))
        # The lowest state a recurrent state reaches is the lowest of its class.
        offending = np.unique(reach[first][held[first]].argmax(axis=1)).tolist()
        raise ReducibilityError(
            f"{len(offending)} closed recurrent classes reachable from state "
            f"{start}; representatives {offending}",
            offending=offending,
        )

    unit = np.eye(stack.shape[-1])
    balance = unit - stack.swapaxes(1, 2)
    # Column i of the balance is row i of the kernel: point the rows start cannot reach at it.
    lost, state = np.nonzero(~reach[:, start])
    balance[lost, :, state] = unit[state] - unit[start]
    balance[:, -1] = 1.0
    rhs = np.broadcast_to(unit[-1, :, None], (*stack.shape[:2], 1))
    mu = np.clip(np.linalg.solve(balance, rhs)[..., 0], 0.0, None)
    mu /= mu.sum(axis=1, keepdims=True)
    return mu


def _check_kernels(params: SystemParams, depth: int = 1) -> None:
    """Refuse :func:`_slot_kernels` above ``MAX_GRID_STATES`` entries (B >= 1024 at depth 1)."""
    side = depth * (params.battery_cap + 1)
    check_grid(side, side, "slot kernel rows x columns")


def _slot_kernels(params: SystemParams, depth: int) -> np.ndarray:
    """Idle, erased-transmit and delivered-transmit kernels of :func:`_slot`, stacked.

    States are (age row, battery), age-major, over ``depth`` age rows. At
    depth 1 the age is gone and the two transmit kernels are the one battery
    kernel of exact evaluation; at ``aoi_cap`` enumeration mixes them by p.
    Read-only, built once per (B, lambda, depth) by :func:`_kernels`, which keeps the last.
    """
    _check_kernels(params, depth)
    return _kernels(params.battery_cap, params.harvest_prob, depth)


@lru_cache(maxsize=1)  # one stack in memory, at most 25 MB under the bound
def _kernels(battery_cap: int, harvest_prob: float, depth: int) -> np.ndarray:
    width = battery_cap + 1
    state = np.arange(depth * width)
    tx, erased = np.array([[[False], [True], [True]], [[False], [True], [False]]])
    kernels = np.zeros((3, state.size, state.size))
    for harvest, chance in ((0, 1.0 - harvest_prob), (1, harvest_prob)):
        step, _ = _slot(state // width, state % width, tx, harvest, erased, depth, width)
        kernels[np.arange(3)[:, None], state, step] += chance
    kernels.flags.writeable = False
    return kernels


def _cycles(actions: np.ndarray, idle: np.ndarray, tx: np.ndarray, params: SystemParams) -> tuple:
    """Sums over one delivery cycle from each auxiliary state at age 1.

    Row d-1 of the boolean ``actions`` holds the transmit flag per
    auxiliary state at age d, its last row at every older age too. Row i of
    the walk is the occupation of the auxiliary states, starting from state
    i at age 1.
    Until the next delivery it evolves by the no-delivery kernel
    T_d = diag(1-a_d) idle + p diag(a_d) tx, built once per run of equal rows
    (at most B+2 in a threshold table). Before the last action row the ages
    are walked one by one; from there T is constant, and the tail sums
    use N = (I-T)^-1: visits = walk N, and sum_k k walk T^k = (walk N - walk) N.
    Returns the delivery law (the renewal kernel), the expected cycle
    length, age sum and weighted backup spend (paid where state 0, the empty
    battery, transmits), a mask of the states from
    which delivery is not certain (their walk reaches states from which the
    tail never leaks), N on the states from which the tail leaks, and T_d by row.
    When every level transmits at the last row and p < 1, every state leaks,
    so the tail's closure is not built.
    """
    p = params.erasure_prob
    n = idle.shape[0]
    walk = np.eye(n)
    length = np.zeros(n)
    age_sum = np.zeros(n)
    sent = np.zeros((n, n))
    steps = []  # each run's rows share one T
    for a, new in zip(actions, [True, *(actions[1:] != actions[:-1]).any(axis=1).tolist()]):
        steps.append((1.0 - a)[:, None] * idle + p * a[:, None] * tx if new else steps[-1])
    for age, (a, stay) in enumerate(zip(actions[:-1], steps), 1):
        visits = walk.sum(axis=1)
        length += visits
        age_sum += age * visits
        sent += walk * a
        walk = walk @ stay

    a, stay, age = actions[-1], steps[-1], len(actions)
    if a.all() and p < 1.0:  # every state leaks: all are good and none trapped
        good, trapped, kept = np.ones(n, dtype=bool), np.zeros(n, dtype=bool), stay
    else:
        leaks = (a > 0.0) & (p < 1.0)
        reach = _closure(stay > 0.0)
        good = ~reach[:, ~reach[:, leaks].any(axis=1)].any(axis=1)
        trapped = (walk[:, ~good] > 0.0).any(axis=1)
        kept = stay[np.ix_(good, good)]
    fundamental = np.linalg.inv(np.eye(len(kept)) - kept)
    entry = walk[:, good]  # a column gather: Fortran-ordered, which the product's bits follow
    visits = entry @ fundamental
    later = (visits - entry) @ fundamental
    length += visits.sum(axis=1)
    age_sum += age * visits.sum(axis=1) + later.sum(axis=1)
    sent[:, good] += visits * a[good]

    deliveries = (1.0 - p) * sent @ tx
    spend = params.energy_weight * params.backup_cost * sent[:, 0]
    return deliveries, length, age_sum, spend, trapped, fundamental, steps


def evaluate_exact(spec: PolicySpec, params: SystemParams) -> EvalReport:
    """Stationary average cost of a policy on the untruncated age axis.

    Age resets to 1 on delivery and otherwise grows by one, so the chain
    renews at each delivery. The renewal kernel M over the battery level at
    age 1, and the expected length, age sum and backup spend of a cycle,
    come from :func:`_cycles`; the cost is nu (A + E) / nu L with nu the
    stationary law of M on the class reachable from (1, 0). ``aoi_cap`` plays
    no part. The kinds :func:`_transmit_rows` decodes to no rows have closed forms:

    ``Periodic`` with period m delivers only in its slots 0, m, 2m, ..., so
    a cycle is G m slots, G geometric with success 1-p: the average age is
    (m (1+p)/(1-p) + 1)/2. Between attempts the battery moves by
    A = idle^(m-1) tx, whose stationary law nu is also that of the renewal
    kernel (1-p) A (I-pA)^-1, so the backup rate is
    omega c_r (nu idle^(m-1))[0] / m. A period whose average age overflows
    a float is refused with ``ValueError``.

    ``Randomized`` with chance q delivers each slot with chance q (1-p),
    whatever the battery: the average age is 1/(q (1-p)), refused with
    ``ValueError`` if that overflows a float, and the backup rate is
    omega c_r q nu[0], nu the stationary law of (1-q) idle + q tx.

    Raises :class:`BoundaryMassError` when delivery from a reachable state
    is not certain, as for a policy that never transmits or ``Periodic`` at
    p = 1: the age tail never dies and the average cost is infinite.
    """
    _check_kernels(params)  # B >= 1024 is refused before any array exists
    rows = _transmit_rows(spec, params)  # a refused spec builds no kernels and evicts none
    idle, tx, _ = _slot_kernels(params, 1)
    p = params.erasure_prob
    if rows is None:
        dies = p < 1.0 and (isinstance(spec, Periodic) or spec.p_tx > 0.0)
    else:
        deliveries, length, age_sum, spend, trapped, _, _ = _cycles(rows, idle, tx, params)
        reach = _closure(deliveries != 0.0)
        dies = not trapped[reach[0]].any()
    if not dies:
        raise BoundaryMassError(
            f"the age tail never dies: from {State(1, 0)} this policy reaches states "
            "from which delivery is not certain, so its average age is infinite"
        )
    if rows is not None:
        nu = _stationary(deliveries[None], 0, reach[None])[0]
        cycle = float(nu @ length)
        avg_aoi = float(nu @ age_sum) / cycle
        avg_energy = float(nu @ spend) / cycle
    elif isinstance(spec, Periodic):
        m = spec.period
        if not m < 2.0**1023 * (1.0 - p):  # else the average age m / (1-p) overflows
            raise ValueError(f"period {m} is too long to score: its average age overflows a float")
        avg_aoi = m / (1.0 - p) - (m - 1) / 2
        wait = np.linalg.matrix_power(idle, m - 1)
        nu = stationary_distribution(wait @ tx, 0)
        avg_energy = params.energy_weight * params.backup_cost * float((nu @ wait)[0]) / m
    else:
        q = spec.p_tx
        avg_aoi = 1.0 / (q * (1.0 - p))
        if avg_aoi == math.inf:
            raise ValueError(f"p_tx {q!r} is too small to score: its average age overflows")
        nu = stationary_distribution((1.0 - q) * idle + q * tx, 0)
        avg_energy = params.energy_weight * params.backup_cost * q * float(nu[0])
    return EvalReport(
        avg_total_cost=avg_aoi + avg_energy,
        avg_aoi=avg_aoi,
        avg_weighted_energy=avg_energy,
        ci_halfwidth_95=0.0,
        method=METHOD_EXACT,
    )


def _table_costs(params: SystemParams) -> np.ndarray:
    """Average cost of every action table on the truncated-saturating chain, by bitmask.

    Bit i of the mask is the action at state i (age-major, as in
    :func:`_slot_kernels`); the chain starts at (1, 0), state 0. The
    tables are scored ``_ENUM_BLOCK`` at a time: a block's kernels are
    stacked and go to :func:`stationary_distribution` in one call, which
    raises :class:`ReducibilityError` for the lowest mask whose chain
    reaches more than one closed class.
    """
    n = params.n_states
    p = params.erasure_prob
    idle, erased, delivered = _slot_kernels(params, params.aoi_cap)
    tx = p * erased + (1.0 - p) * delivered
    width = params.battery_cap + 1
    ages = np.repeat(np.arange(1.0, params.aoi_cap + 1), width)
    backup = params.energy_weight * params.backup_cost * (np.arange(n) % width == 0)
    costs = np.empty(1 << n)
    for lo in range(0, costs.size, _ENUM_BLOCK):
        masks = np.arange(lo, min(lo + _ENUM_BLOCK, costs.size))
        bits = (masks[:, None] >> np.arange(n) & 1).astype(bool)
        mu = stationary_distribution(np.where(bits[:, :, None], tx, idle), 0)
        costs[lo : lo + masks.size] = mu @ ages + (mu * bits) @ backup
    return costs


def enumerate_optimal(params: SystemParams) -> tuple[np.ndarray, float]:
    """Best deterministic stationary policy by brute force.

    Scores all 2^(states) action tables on the truncated-saturating chain at
    ``params.aoi_cap`` (the model the solver works on) from the start state
    (1, 0), in batched solves (see :func:`_table_costs`), and returns the
    cheapest, as an int8 (aoi_cap, B+1) array with 1 for transmit, and its
    cost. Cost ties within ``_ENUM_TIE`` resolve to the table with fewer
    Transmit entries, then the lowest bitmask. Raises
    :class:`ReducibilityError` for the lowest mask whose chain reaches more
    than one closed class. Refuses instances above 24 states: the policy
    count doubles per state, so anything larger is no longer a desk-size
    oracle.
    """
    n = params.n_states
    if n > 24:
        raise ValueError(
            f"enumeration needs <= 24 states, got {n} "
            f"(aoi_cap={params.aoi_cap} x battery levels {params.battery_cap + 1}: "
            f"2^{n} policies)"
        )
    costs = _table_costs(params)
    best_cost = float(costs.min())
    tied = np.flatnonzero(costs <= best_cost + _ENUM_TIE)
    best_mask = int(min(tied, key=lambda m: (int(m).bit_count(), int(m))))
    bits = (best_mask >> np.arange(n) & 1).astype(np.int8)
    return bits.reshape(params.grid_shape), float(costs[best_mask])


def report_row_values(
    policy: str,
    params: SystemParams,
    report: EvalReport,
    seed: int | None,
    note: str = "",
) -> list:
    """One CSV row in :data:`CSV_COLUMNS` order; a seed of None is written blank.

    Floats are rendered with ``repr`` so equal runs produce identical bytes.
    """
    return [
        policy,
        repr(float(params.erasure_prob)),
        repr(float(params.harvest_prob)),
        repr(float(params.energy_weight)),
        repr(float(params.backup_cost)),
        params.battery_cap,
        report.method,
        repr(report.avg_total_cost),
        repr(report.avg_aoi),
        repr(report.avg_weighted_energy),
        repr(report.ci_halfwidth_95),
        seed,
        note,
    ]


def write_report_rows(path: str, rows: list[list]) -> None:
    """Write the :data:`CSV_COLUMNS` header and ``rows`` at once, replacing any earlier file."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
