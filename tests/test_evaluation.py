"""Evaluation tests: Monte Carlo, exact stationary analysis, enumeration.

The closed forms used as oracles are derived from the chain itself. Under
the always-transmit policy the age renews on each delivery, so the average
age is 1/(1-p). Its battery holds at most one unit (every charged slot
spends one), giving a two-state charge chain with stationary empty
probability 1-lambda, so the backup is paid at rate omega*c_r*(1-lambda).
"""

import csv
import dataclasses
import functools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from aoi_energy import (
    BoundaryMassError,
    EnergyFirst,
    Periodic,
    Randomized,
    SimConfig,
    SolverConfig,
    SystemParams,
    ZeroWait,
    enumerate_optimal,
    evaluate_exact,
    extract_thresholds,
    greedy_policy,
    simulate,
    solve,
)
from aoi_energy import evaluation, solver
from aoi_energy.evaluation import (
    CSV_COLUMNS,
    EvalReport,
    METHOD_EXACT,
    ReducibilityError,
    _closure,
    _t_quantile_975,
    report_row_values,
    stationary_distribution,
    write_report_rows,
)
from aoi_energy.model import State
from aoi_energy.policies import ThresholdPolicy
from conftest import BENCH, MID
from reference import (
    Action,
    bitset_classes,
    csgraph_classes,
    decide,
    dense_kernel,
    dense_periodic_cost,
    enumeration_costs,
    truncated_cost,
)

EVAL_BENCH = dataclasses.replace(BENCH, aoi_cap=400)

ZERO_WAIT_COST = 1.0 / (1.0 - BENCH.erasure_prob) + (
    BENCH.energy_weight * BENCH.backup_cost * (1.0 - BENCH.harvest_prob)
)

MID_400 = dataclasses.replace(MID, aoi_cap=400)

LOSSY = dataclasses.replace(MID, erasure_prob=0.9, harvest_prob=0.1, aoi_cap=40)

DESK = SystemParams(
    erasure_prob=0.5,
    harvest_prob=0.5,
    energy_weight=1.0,
    backup_cost=2.0,
    battery_cap=1,
    aoi_cap=4,
)


# ---------------------------------------------------------------------------
# the slot law's kernels


@pytest.mark.parametrize("battery_cap", [1, 2, 3])
@pytest.mark.parametrize("harvest", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("erasure", [0.0, 0.2, 1.0])
def test_slot_kernels_equal_transition_kernels(battery_cap, harvest, erasure):
    """``_slot``'s kernels equal ``transition``'s entry for entry, at every state and action.

    At depth 1 (exact evaluation) and at ``aoi_cap`` (enumeration): the idle
    kernel is ``transition``'s, and the erased and delivered transmit kernels
    are its transmit kernels at p = 1 and p = 0. Enumeration's mix of the
    two by p is ``transition``'s transmit kernel at p.
    """
    params = SystemParams(erasure, harvest, 1.0, 2.0, battery_cap, 3)
    for depth in (1, params.aoi_cap):
        idle, erased, delivered = evaluation._slot_kernels(params, depth)
        assert np.array_equal(idle, dense_kernel(params, Action.IDLE, depth))
        for kernel, p in ((erased, 1.0), (delivered, 0.0)):
            law = dataclasses.replace(params, erasure_prob=p)
            assert np.array_equal(kernel, dense_kernel(law, Action.TRANSMIT, depth))
    mixed = erasure * erased + (1.0 - erasure) * delivered
    assert np.array_equal(mixed, dense_kernel(params, Action.TRANSMIT, params.aoi_cap))


def test_slot_kernels_are_read_only_and_built_once_per_battery_law():
    """The stack reads only B, lambda and the depth: params that differ in p, omega or the
    age cap share one cache entry, which equals a fresh build and cannot be written."""
    evaluation._kernels.cache_clear()
    params = SystemParams(0.2, 0.4, 1.0, 2.0, 3, 30)
    kernels = evaluation._slot_kernels(params, 1)
    fresh = evaluation._kernels.__wrapped__(3, 0.4, 1)
    assert fresh is not kernels and np.array_equal(kernels, fresh)
    for kernel in (kernels, *kernels):
        assert not kernel.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kernel[0, 0] = 1.0
    for change in ({"erasure_prob": 0.7}, {"energy_weight": 9.0}, {"aoi_cap": 60}):
        assert evaluation._slot_kernels(dataclasses.replace(params, **change), 1) is kernels
    info = evaluation._kernels.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (3, 1, 1, 1)
    other = evaluation._slot_kernels(dataclasses.replace(params, harvest_prob=0.5), 1)
    assert not np.array_equal(other, kernels)
    assert evaluation._kernels.cache_info()[1:3] == (2, 1)  # misses, then the one stack kept


def test_a_refused_spec_builds_no_kernels():
    """Exact evaluation checks the spec before it builds the (B+1) x (B+1) slot kernels, so
    at B = 1000 an action array or a threshold past the grid bound leaves the cache empty."""
    params = dataclasses.replace(MID, battery_cap=1000)
    for spec, error in ((np.ones(params.grid_shape, np.int8), TypeError),
                        (ThresholdPolicy((10**9,) * 1001), ValueError)):
        evaluation._kernels.cache_clear()
        with pytest.raises(error):
            evaluate_exact(spec, params)
        assert evaluation._kernels.cache_info().currsize == 0


# The README instance's thresholds, and reprs recorded before the renewal tail skipped its
# reachability closure when every level transmits at the last row: zero-wait and the
# solved thresholds take that branch, energy-first (idle at an empty battery) the general one.
README_SOLVED = ThresholdPolicy((11, 4) + (3,) * 7 + (2,) * 11 + (1,))
RECORDED_BITS = {
    0.0: {"zero-wait": (1.0, 10.0), "energy-first": (2.0, 0.0),
          "solved": (1.5203106757591494, 1.5228047440204055e-09),
          "bias-zero-wait": (11.0, 19.0), "bias-solved": (1.520310677281954, 0.4224431058253373)},
    0.3: {"zero-wait": (1.4285714285714286, 10.0), "energy-first": (2.8571428571428568, 0.0),
          "solved": (2.0816301940872104, 0.0004859335575458567),
          "bias-zero-wait": (11.428571428571429, 19.000000000000057),
          "bias-solved": (2.082116127644756, 0.02250193404713885)},
    0.9: {"zero-wait": (10.0, 9.999999999999998), "energy-first": (19.99999999999998, 0.0),
          "solved": (11.227526501534046, 4.127134870016505),
          "bias-zero-wait": (20.0, 19.000000000000057),
          "bias-solved": (15.354661371550549, 9.788136381223353)},
}


@pytest.mark.parametrize("p", sorted(RECORDED_BITS))
def test_renewal_tail_keeps_its_recorded_bits(p):
    """evaluate_exact's (avg_aoi, avg_weighted_energy) and threshold_bias's (gain, gap) at
    the README instance's p axis repeat the recorded reprs exactly."""
    params = dataclasses.replace(BENCH, erasure_prob=p)
    found = {}
    for name, spec in (("zero-wait", ZeroWait()), ("energy-first", EnergyFirst()),
                       ("solved", README_SOLVED)):
        report = evaluate_exact(spec, params)
        found[name] = (report.avg_aoi, report.avg_weighted_energy)
    for name, spec in (("zero-wait", ThresholdPolicy((1,) * 21)), ("solved", README_SOLVED)):
        test = solver.threshold_bias(spec, params)
        found[f"bias-{name}"] = (test.gain, test.gap)
    assert repr(found) == repr(RECORDED_BITS[p])


# ---------------------------------------------------------------------------
# closed-form anchors


def test_zero_wait_exact_closed_form():
    report = evaluate_exact(ZeroWait(), EVAL_BENCH)
    assert report.method == METHOD_EXACT
    assert report.ci_halfwidth_95 == 0.0
    assert report.avg_total_cost == pytest.approx(ZERO_WAIT_COST, abs=1e-6)
    assert report.avg_aoi == pytest.approx(1.25, abs=1e-6)
    assert report.avg_weighted_energy == pytest.approx(10.0, abs=1e-6)


def test_perfect_channel_keeps_age_at_one():
    params = dataclasses.replace(BENCH, erasure_prob=0.0)
    report = simulate([ZeroWait()], params, SimConfig(horizon=50_000, replications=2, seed=5))[0]
    assert report.avg_aoi == 1.0


def test_energy_first_pays_nothing_exactly():
    report = evaluate_exact(EnergyFirst(), EVAL_BENCH)
    assert report.avg_weighted_energy == 0.0


def test_solved_policy_exact_cost_matches_gain(bench_solution):
    v, q = bench_solution
    thresholds = extract_thresholds(greedy_policy(v, q, BENCH), BENCH)
    report = evaluate_exact(thresholds, EVAL_BENCH)
    assert report.avg_total_cost == pytest.approx(v.gain, abs=1e-6)


@pytest.mark.parametrize(
    "spec",
    [ZeroWait(), EnergyFirst(), Periodic(3), Randomized(0.5)],
    ids=["zero-wait", "energy-first", "periodic", "random"],
)
def test_exact_agrees_with_monte_carlo(spec):
    mc = simulate([spec], MID, SimConfig(horizon=100_000, replications=8, seed=31))[0]
    exact = evaluate_exact(spec, MID)
    assert abs(mc.avg_total_cost - exact.avg_total_cost) <= 3 * mc.ci_halfwidth_95


@pytest.mark.parametrize("params", [EVAL_BENCH, MID, LOSSY], ids=["bench", "mid", "lossy"])
def test_closed_forms_hold_to_rounding(params):
    p, lam = params.erasure_prob, params.harvest_prob
    zero_wait = evaluate_exact(ZeroWait(), params)
    target = 1.0 / (1.0 - p) + params.energy_weight * params.backup_cost * (1.0 - lam)
    assert zero_wait.avg_total_cost == pytest.approx(target, rel=0.0, abs=1e-12)
    assert zero_wait.avg_aoi == pytest.approx(1.0 / (1.0 - p), rel=0.0, abs=1e-12)
    assert abs(evaluate_exact(EnergyFirst(), params).avg_weighted_energy) <= 1e-12
    always = evaluate_exact(Randomized(1.0), params)  # in closed form, not through _cycles
    assert always.avg_aoi == 1.0 / (1.0 - p)
    assert always.avg_total_cost == pytest.approx(target, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("params", [EVAL_BENCH, MID_400], ids=["bench", "mid"])
@pytest.mark.parametrize("kind", ["zero-wait", "energy-first", "periodic", "random", "threshold"])
def test_exact_matches_truncated_oracle(params, kind):
    battery = params.battery_cap
    spec = {
        "zero-wait": ZeroWait(),
        "energy-first": EnergyFirst(),
        "periodic": Periodic(3),
        "random": Randomized(0.5),
        "threshold": ThresholdPolicy(thresholds=(6,) + (3,) * (battery - 1) + (1,)),
    }[kind]
    age, energy, mass = truncated_cost(spec, params)
    assert mass <= 1e-9  # the cap is invisible, so both score the same chain
    report = evaluate_exact(spec, params)
    assert report.avg_aoi == pytest.approx(age, rel=1e-9)
    assert report.avg_weighted_energy == pytest.approx(energy, rel=1e-9, abs=1e-12)
    assert report.avg_total_cost == pytest.approx(age + energy, rel=1e-9)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(
    battery_cap=st.sampled_from([1, 2, 3, 20]) | st.integers(1, 20),
    erasure=st.sampled_from([0.0, 0.2, 0.5, 0.9]) | st.floats(0.0, 0.95),
    harvest=st.sampled_from([0.0, 1.0, 0.3, 0.5]) | st.floats(0.0, 1.0),
    omega=st.sampled_from([0.0, 1.0, 10.0]),
    period=st.integers(1, 12),
)
@example(battery_cap=20, erasure=0.0, harvest=0.0, omega=10.0, period=12)
@example(battery_cap=20, erasure=0.0, harvest=1.0, omega=10.0, period=7)
@example(battery_cap=20, erasure=0.5, harvest=0.3, omega=10.0, period=1)
def test_periodic_closed_form_matches_dense_oracle(battery_cap, erasure, harvest, omega, period):
    """The battery-chain closed form scores ``Periodic`` as the dense (phase, battery) chain.

    The age agrees within 1e-12 relative and the backup cost within 1e-12
    of the total.
    """
    params = SystemParams(
        erasure_prob=erasure,
        harvest_prob=harvest,
        energy_weight=omega,
        backup_cost=2.0,
        battery_cap=battery_cap,
        aoi_cap=10,
    )
    spec = Periodic(period)
    report = evaluate_exact(spec, params)
    age, energy = dense_periodic_cost(spec, params)
    assert report.avg_aoi == pytest.approx(age, rel=1e-12, abs=0.0)
    assert abs(report.avg_weighted_energy - energy) <= 1e-12 * (age + energy)


def test_long_period_agrees_with_monte_carlo():
    """At period 200 Monte Carlo lands within 3 halfwidths of the closed form."""
    params = SystemParams(
        erasure_prob=0.3,
        harvest_prob=0.004,
        energy_weight=10.0,
        backup_cost=2.0,
        battery_cap=3,
        aoi_cap=10,
    )
    spec = Periodic(200)
    exact = evaluate_exact(spec, params)
    assert exact.avg_weighted_energy > 0.0  # the battery is often empty at an attempt
    mc = simulate([spec], params, SimConfig(horizon=400_000, replications=8, seed=31))[0]
    assert abs(mc.avg_total_cost - exact.avg_total_cost) <= 3 * mc.ci_halfwidth_95


# ---------------------------------------------------------------------------
# infinite age tails


@pytest.mark.parametrize(
    "spec,params",
    [
        (Randomized(0.0), MID),
        (ThresholdPolicy(thresholds=(None,) * 4), MID),
        (EnergyFirst(), dataclasses.replace(MID, harvest_prob=0.0, erasure_prob=1.0)),
        (ThresholdPolicy(thresholds=(2, 2, 2, None)), MID),
    ],
    ids=["random-0", "never", "energy-first-no-harvest", "none-at-full-battery"],
)
def test_never_transmitting_has_infinite_cost(spec, params):
    with pytest.raises(BoundaryMassError, match="never dies"):
        evaluate_exact(spec, params)


@pytest.mark.parametrize("q", [1e-3, 1e-9, 1e-12, 1e-14, 1e-16, 1e-18, 1e-160, 1e-300])
def test_rare_random_transmission_keeps_its_closed_form_age(q):
    """Delivery comes each slot with chance q (1-p), whatever the battery: age 1/(q (1-p))."""
    params = dataclasses.replace(MID, erasure_prob=0.3, harvest_prob=0.4, energy_weight=2.0,
                                 backup_cost=1.5, battery_cap=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate_exact(Randomized(q), params)
    assert report.avg_aoi == pytest.approx(1.0 / (q * 0.7), rel=1e-12)
    assert 0.0 <= report.avg_weighted_energy <= params.energy_weight * params.backup_cost * q


def test_random_transmission_too_rare_to_score_is_refused():
    with pytest.raises(ValueError, match="p_tx 5e-324 is too small to score"):
        evaluate_exact(Randomized(5e-324), MID)


def test_unreachable_idle_state_keeps_cost_finite():
    # Transmitting at every lower charge keeps the battery at 0 or 1, so the
    # never-transmitting full battery is never reached from (1, 0).
    spec = ThresholdPolicy(thresholds=(1, 1, 1, None))
    report = evaluate_exact(spec, MID)
    assert report.avg_total_cost == pytest.approx(
        evaluate_exact(ZeroWait(), MID).avg_total_cost, rel=0.0, abs=1e-12
    )


def test_heavy_tail_is_exact_at_any_cap():
    for cap in (40, 600):
        lossy = dataclasses.replace(MID, erasure_prob=0.9, aoi_cap=cap)
        report = evaluate_exact(ZeroWait(), lossy)
        assert report.avg_aoi == pytest.approx(10.0, rel=0.0, abs=1e-12)  # 1/(1-p)


def test_eval_report_decomposition_enforced():
    with pytest.raises(ValueError):
        EvalReport(
            avg_total_cost=5.0,
            avg_aoi=1.0,
            avg_weighted_energy=1.0,
            ci_halfwidth_95=0.0,
            method=METHOD_EXACT,
        )
    with pytest.raises(ValueError):
        EvalReport(
            avg_total_cost=2.0,
            avg_aoi=1.0,
            avg_weighted_energy=1.0,
            ci_halfwidth_95=0.0,
            method="guesswork",
        )


# ---------------------------------------------------------------------------
# stationary distributions


def stationary(kernel, start=0):
    mu = stationary_distribution(np.asarray(kernel, dtype=float), start)
    assert mu.min() >= 0.0
    assert abs(mu.sum() - 1.0) <= 1e-12
    return mu


def test_two_state_chain_analytic():
    mu = stationary([[0.5, 0.5], [0.25, 0.75]])
    assert np.allclose(mu, [1.0 / 3.0, 2.0 / 3.0], atol=1e-10)


def test_period_two_cycle():
    # Plain power iteration would oscillate forever on this kernel.
    mu = stationary([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(mu, [0.5, 0.5], atol=1e-10)


def test_absorbing_singleton():
    mu = stationary([[1.0]])
    assert mu[0] == 1.0


def test_large_birth_death_chain_geometric():
    """Detailed balance gives a geometric stationary law with ratio up/down,
    spanning 37 orders of magnitude over 100 states."""
    n, up, down = 100, 0.3, 0.7
    kernel = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            kernel[i, i + 1] = up
        if i > 0:
            kernel[i, i - 1] = down
        kernel[i, i] = 1.0 - kernel[i].sum()
    mu = stationary(kernel, start=50)
    expected = (up / down) ** np.arange(n)
    expected /= expected.sum()
    assert np.allclose(mu, expected, atol=1e-9)


def test_competing_closed_classes_rejected():
    kernel = [[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ReducibilityError) as err:
        stationary(kernel)
    assert sorted(err.value.offending) == [1, 2]


def test_unreachable_closed_class_is_ignored():
    kernel = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
    mu = stationary(kernel, start=1)
    assert np.allclose(mu, [0.0, 0.5, 0.5], atol=1e-12)


def test_stationary_input_guards():
    with pytest.raises(ValueError):
        stationary([[1.0]], start=3)
    for bad in (np.ones((2, 3)), np.ones((4, 2, 3)), np.ones(3), 1.0):
        with pytest.raises(ValueError, match="square"):
            stationary_distribution(bad, 0)


def test_stack_is_solved_kernel_by_kernel():
    """A (2, 3, n, n) stack gives each kernel's own law, bit for bit, and is
    refused for its first kernel with more than one closed class."""
    rng = np.random.default_rng(7)
    stack = rng.random((2, 3, 5, 5)) * (rng.random((2, 3, 5, 5)) < 0.6)
    stack[..., 0, 1] = stack[..., 1, 0] = 1.0  # states 0 and 1 communicate
    stack[..., :, 0] += 0.5  # every state reaches 0, so one class
    stack /= stack.sum(axis=-1, keepdims=True)
    mu = stationary_distribution(stack, 1)
    assert mu.shape == (2, 3, 5)
    for at in np.ndindex(2, 3):
        assert np.array_equal(mu[at], stationary_distribution(stack[at], 1))
    one = np.eye(4)[[1, 1, 2, 3]]  # 0 -> 1, and 1, 2 and 3 absorb
    low, high = one.copy(), one.copy()
    low[0], high[0] = [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]
    for kernels, first in (([one, low, high], [1, 2]), ([one, high, low], [2, 3])):
        with pytest.raises(ReducibilityError) as err:
            stationary_distribution(np.array(kernels), 0)
        assert err.value.offending == first
    assert stationary_distribution(one[None], 0).tolist() == [[0.0, 1.0, 0.0, 0.0]]


def random_kernels(count, max_states=40):
    """Seeded random nonnegative kernels of 1..max_states states with a start
    state; sparse ones fall apart into several closed classes and transient
    states, dense ones are mostly one class."""
    rng = np.random.default_rng(20261018)
    for _ in range(count):
        n = int(rng.integers(1, max_states + 1))
        density = rng.choice([0.02, 0.05, 0.1, 0.3])
        yield rng.random((n, n)) * (rng.random((n, n)) < density), int(rng.integers(n))


def test_stationary_on_a_given_closure_is_stationary_distribution():
    """``_stationary`` with the stack's own closure, as exact evaluation and the exact bias
    call it, gives ``stationary_distribution``'s law bit for bit, or its refusal."""
    refused = 0
    for kernel, start in random_kernels(300):
        stack = kernel[None]
        try:
            want = stationary_distribution(kernel, start)
        except ReducibilityError as err:
            with pytest.raises(ReducibilityError) as again:
                evaluation._stationary(stack, start, _closure(stack != 0.0))
            assert again.value.offending == err.offending
            refused += 1
            continue
        got = evaluation._stationary(stack, start, _closure(stack != 0.0))
        assert got.shape == (1, len(kernel))
        assert np.array_equal(got[0].view(np.uint64), want.view(np.uint64))
    assert 0 < refused < 300


def test_class_analysis_matches_csgraph_oracle():
    """The closure's reachable set, the enumeration oracle's classes, the
    refusal's class representatives, and, for one class, a stationary law of
    the row-normalised kernel that lives on that class alone."""
    class_counts = set()
    for kernel, start in random_kernels(600):
        want_reachable, want_classes = csgraph_classes(kernel, start)
        assert np.array_equal(_closure(kernel != 0.0)[start], want_reachable)
        assert bitset_classes(kernel, start) == [c.tolist() for c in want_classes]
        if len(want_classes) > 1:
            with pytest.raises(ReducibilityError) as err:
                stationary_distribution(kernel, start)
            assert err.value.offending == [int(c[0]) for c in want_classes]
        else:
            # A self-loop on each zero row keeps the classes and lets every row sum to 1.
            chain = kernel + np.diag(kernel.sum(axis=1) == 0.0)
            chain /= chain.sum(axis=1, keepdims=True)
            mu = stationary(chain, start)
            outside = np.ones(len(mu), dtype=bool)
            outside[want_classes[0]] = False
            assert mu[outside].sum() <= 1e-12
            np.testing.assert_allclose(mu @ chain, mu, rtol=0.0, atol=1e-12)
        class_counts.add(min(len(want_classes), 2))
    assert class_counts == {1, 2}


# ---------------------------------------------------------------------------
# enumeration oracle


def test_enumeration_matches_solver_gain():
    table, best = enumerate_optimal(DESK)
    v, _ = solve(DESK, SolverConfig())
    assert best == pytest.approx(v.gain, abs=1e-6)
    extract_thresholds(table, DESK)  # raises if not threshold-shaped


def test_enumeration_free_energy_keeps_zero_wait_optimal():
    free = dataclasses.replace(DESK, energy_weight=0.0)
    _, best = enumerate_optimal(free)
    always = np.ones(free.grid_shape, dtype=np.int8)
    age, energy, _ = truncated_cost(always, free)  # the chain enumeration scores
    assert energy == 0.0
    assert age <= best + 1e-9


def test_enumeration_huge_weight_never_buys_energy():
    dear = dataclasses.replace(DESK, energy_weight=1e6)
    table, best = enumerate_optimal(dear)
    v, _ = solve(dear, SolverConfig())
    assert best == pytest.approx(v.gain, abs=1e-6)
    assert not table[:, 0].any()


def seeded_enumeration_case(p_kind, lam_kind, seed):
    """A small instance with p and lambda at 0, 1 or an interior draw."""
    rng = np.random.default_rng(seed)
    interior = {"0": lambda: 0.0, "1": lambda: 1.0, "u": lambda: float(rng.uniform(0.05, 0.95))}
    return SystemParams(
        erasure_prob=interior[p_kind](),
        harvest_prob=interior[lam_kind](),
        energy_weight=float(rng.uniform(0.0, 5.0)),
        backup_cost=float(rng.uniform(0.5, 3.0)),
        battery_cap=int(rng.integers(1, 3)),
        aoi_cap=int(rng.integers(2, 5)),
    )


ENUM_B2 = dataclasses.replace(DESK, energy_weight=1.0, battery_cap=2)
ENUMERATION_CASES = {
    "desk": DESK,
    "B=1": dataclasses.replace(DESK, energy_weight=1.0),
    "B=2": ENUM_B2,
    "p=1,B=2": dataclasses.replace(ENUM_B2, erasure_prob=1.0),
    **{
        f"p={p_kind},lam={lam_kind},seed={seed}": seeded_enumeration_case(p_kind, lam_kind, seed)
        for seed, (p_kind, lam_kind) in enumerate(
            (p_kind, lam_kind) for p_kind in "01u" for lam_kind in "01u"
        )
    },
}


def scored_or_refused(score, params):
    """``score(params)``, or the message and offending states of its ReducibilityError."""
    try:
        return score(params), None
    except ReducibilityError as exc:
        return None, (str(exc), exc.offending)


@functools.cache
def oracle_enumeration(params):
    """The per-table oracle's costs or refusal for one case, computed once per session."""
    return scored_or_refused(enumeration_costs, params)


@pytest.mark.parametrize("params", ENUMERATION_CASES.values(), ids=ENUMERATION_CASES.keys())
def test_batched_enumeration_matches_per_table_oracle(params):
    """Every table's cost to 1e-12 relative, the same chosen table, and the same refusals."""
    expected, expected_error = oracle_enumeration(params)
    costs, error = scored_or_refused(evaluation._table_costs, params)
    assert error == expected_error
    if expected_error is not None:
        with pytest.raises(ReducibilityError, match="closed recurrent classes"):
            enumerate_optimal(params)
        return
    np.testing.assert_allclose(costs, expected, rtol=1e-12, atol=0.0)
    tied = np.flatnonzero(expected <= expected.min() + 1e-9)
    mask = int(min(tied, key=lambda m: (int(m).bit_count(), int(m))))
    table, best = enumerate_optimal(params)
    assert table.ravel().tolist() == [mask >> i & 1 for i in range(params.n_states)]
    assert best == pytest.approx(expected[mask], rel=1e-12, abs=0.0)


def test_enumeration_cases_cover_refusals():
    """The oracle refuses some of the cases above and scores the rest."""
    refused = {name for name, params in ENUMERATION_CASES.items()
               if oracle_enumeration(params)[1] is not None}
    assert refused and refused != set(ENUMERATION_CASES)
    assert {"desk", "B=1", "B=2"}.isdisjoint(refused)


def test_enumeration_refuses_large_instances():
    big = SystemParams(
        erasure_prob=0.5,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=2.0,
        battery_cap=4,
        aoi_cap=5,
    )
    with pytest.raises(ValueError, match="24"):
        enumerate_optimal(big)


# ---------------------------------------------------------------------------
# simulation mechanics


def test_simulate_is_seed_deterministic():
    cfg = SimConfig(horizon=20_000, replications=3, seed=12)
    a = simulate([ZeroWait()], MID, cfg)[0]
    b = simulate([ZeroWait()], MID, cfg)[0]
    assert a == b
    c = simulate([ZeroWait()], MID, dataclasses.replace(cfg, seed=13))[0]
    assert c.avg_total_cost != a.avg_total_cost


# Every kind, two Periodic, and Randomized before and after a Periodic.
SHARED_DRAWS = [
    Randomized(0.3),
    ZeroWait(),
    Periodic(4),
    EnergyFirst(),
    Randomized(0.7),
    Periodic(3),
    ThresholdPolicy(thresholds=(4, 2, 1, 1)),
]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
@pytest.mark.parametrize("replications", [1, 3])
@pytest.mark.parametrize("horizon", [40, 170, 65_537])
def test_simulate_many_policies_equals_one_at_a_time(horizon, replications, order):
    """Scored together on shared draws, each policy gets the bits of its own call.

    65,537 slots is one draw chunk and one slot; the CI of one replication
    is nan, so the reports are compared by repr.
    """
    params = SystemParams(
        erasure_prob=0.3,
        harvest_prob=0.4,
        energy_weight=2.0,
        backup_cost=1.5,
        battery_cap=3,
        aoi_cap=5,
    )
    cfg = SimConfig(horizon=horizon, replications=replications, seed=21)
    policies = SHARED_DRAWS[::order]
    together = simulate(policies, params, cfg)
    alone = [simulate([spec], params, cfg)[0] for spec in policies]
    assert [repr(report) for report in together] == [repr(report) for report in alone]


def test_simulate_refuses_a_bare_policy():
    """The one-policy call of old names the list it now needs."""
    with pytest.raises(TypeError, match=r"list of policies.*simulate\(\[spec\], params, cfg\)"):
        simulate(ZeroWait(), MID, SimConfig(horizon=10))


def test_t_quantile_matches_scipy():
    dfs = np.arange(1, 1001)
    ours = [_t_quantile_975(int(df)) for df in dfs]
    np.testing.assert_allclose(ours, stats.t.ppf(0.975, dfs), rtol=1e-12, atol=0.0)
    large = [10**4, 10**5, 10**6, 2**20 - 2, 2**20 - 1]  # the last: MAX_REPLICATIONS - 1
    ours = [_t_quantile_975(df) for df in large]
    np.testing.assert_allclose(ours, stats.t.ppf(0.975, large), rtol=1e-9, atol=0.0)


def test_single_replication_has_no_interval():
    report = simulate([ZeroWait()], MID, SimConfig(horizon=10_000, replications=1, seed=3))[0]
    assert math.isnan(report.ci_halfwidth_95)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0)
    with pytest.raises(ValueError):
        SimConfig(horizon=100, replications=0)
    for seed in (-1, True, 1.0):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(horizon=100, seed=seed)


@pytest.mark.parametrize("field", ["horizon", "replications"])
def test_sim_config_refuses_bool_counts(field):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{"horizon": 5, field: True})


def reference_replication(spec, params, cfg, rep=0):
    """Re-derivation of replication ``rep`` from the per-slot contract.

    Its seed is child ``rep`` of ``SeedSequence(cfg.seed).spawn(cfg.replications)``.
    Starts at (1, 0) and leaves the first horizon // 10 slots uncounted.
    Mirrors the documented randomness layout (harvest row, erasure row, then
    transmit coins) but steps the chain through decide() and explicit
    delivered/spend bookkeeping rather than the tuned loop.
    """
    child = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)[rep]
    rng = np.random.default_rng(child)
    horizon = cfg.horizon
    warm = horizon // 10
    harvest = rng.random(horizon) < params.harvest_prob
    erase = rng.random(horizon) < params.erasure_prob
    coins = rng.random(horizon) < spec.p_tx if isinstance(spec, Randomized) else None
    decider = np.random.default_rng(0)  # never consulted for these specs

    age, battery = 1, 0
    age_sum = 0
    pay_count = 0
    for t in range(horizon):
        if coins is not None:
            transmit = bool(coins[t])
        else:
            transmit = decide(spec, State(age, battery), t, decider) == 1
        if t >= warm:
            age_sum += age
            if transmit and battery == 0:
                pay_count += 1
        delivered = transmit and not erase[t]
        spend = 1 if transmit and battery > 0 else 0
        battery = min(battery - spend + int(harvest[t]), params.battery_cap)
        age = 1 if delivered else age + 1
    slots = horizon - warm
    return age_sum / slots, params.energy_weight * params.backup_cost * pay_count / slots


@pytest.mark.parametrize(
    "spec",
    [
        ZeroWait(),
        EnergyFirst(),
        Periodic(3),
        Randomized(0.3),
        ThresholdPolicy(thresholds=(None, 2, 1, 1)),
    ],
    ids=["zero-wait", "energy-first", "periodic", "random", "threshold"],
)
def test_fast_loops_match_reference_stepping(spec):
    params = SystemParams(
        erasure_prob=0.3,
        harvest_prob=0.4,
        energy_weight=2.0,
        backup_cost=1.5,
        battery_cap=3,
        aoi_cap=5,
    )
    # Nine slots have no warm-up, so every slot from the start state on counts.
    for horizon in (5_000, 9):
        cfg = SimConfig(horizon=horizon, replications=1, seed=77)
        report = simulate([spec], params, cfg)[0]
        ref_age, ref_energy = reference_replication(spec, params, cfg)
        assert report.avg_aoi == ref_age
        assert report.avg_weighted_energy == ref_energy


def test_replication_seeds_are_the_spawned_children():
    """Each replication's means are the oracle's under its spawned child seed."""
    params = SystemParams(erasure_prob=0.3, harvest_prob=0.4, energy_weight=2.0,
                          backup_cost=1.5, battery_cap=3, aoi_cap=5)
    spec = Randomized(0.3)
    cfg = SimConfig(horizon=500, replications=4, seed=11)
    report = simulate([spec], params, cfg)[0]
    ages, energy = zip(*(reference_replication(spec, params, cfg, i) for i in range(4)))
    assert report.avg_aoi == float(np.array(ages).mean())
    assert report.avg_weighted_energy == float(np.array(energy).mean())


@st.composite
def policy_specs(draw, battery_cap):
    """Any of the five policy kinds over batteries 0..battery_cap."""
    width = battery_cap + 1
    kind = draw(st.sampled_from(["zero-wait", "energy-first", "periodic", "random",
                                 "threshold"]))
    if kind == "zero-wait":
        return ZeroWait()
    if kind == "energy-first":
        return EnergyFirst()
    if kind == "periodic":
        return Periodic(draw(st.integers(1, 6)))
    if kind == "random":
        return Randomized(draw(st.sampled_from([0.0, 1.0, 0.3, 0.77])))
    levels = st.none() | st.integers(1, 7)
    return ThresholdPolicy(tuple(draw(st.lists(levels, min_size=width, max_size=width))))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    battery_cap=st.sampled_from([1, 2, 3, 6]),
    erasure=st.sampled_from([0.0, 1.0, 0.25, 0.6]),
    harvest=st.sampled_from([0.0, 1.0, 0.4, 0.85]),
    horizon=st.sampled_from([1, 2, 3, 5, 7, 64, 101, 160, 170, 400, 401]) | st.integers(1, 2_500),
    chunk=st.sampled_from([evaluation._CHUNK_SLOTS, 16, 40]),
    span=st.sampled_from([evaluation._SPAN_SLOTS, 16, 40]),
    lane=st.sampled_from([1, 2, 3, 8, evaluation._LANE_WORDS]),
    look=st.sampled_from([0, 1, 4, evaluation._LOOKBACK_WORDS]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_automaton_matches_reference_stepping_property(
    battery_cap, erasure, harvest, horizon, chunk, span, lane, look, seed, data,
):
    """The k-slot automaton gives the per-slot oracle's means bit for bit.

    Horizons shorter than one word or not a multiple of its length, and
    (through small chunks and spans) deliveries and the warm-up boundary on
    either side of a tally chunk edge or a walk span edge; horizons 160,
    170, 400 and 401 end the warm-up (horizon // 10) at or next to 16 and
    40 slots, the small chunk sizes. Small lanes and lookbacks make spans
    of many lanes, whose guessed starts are often wrong and get repaired.
    """
    params = SystemParams(
        erasure_prob=erasure,
        harvest_prob=harvest,
        energy_weight=2.0,
        backup_cost=1.5,
        battery_cap=battery_cap,
        aoi_cap=5,
    )
    spec = data.draw(policy_specs(battery_cap))
    cfg = SimConfig(horizon=horizon, replications=1, seed=seed)
    with mock.patch.multiple(evaluation, _CHUNK_SLOTS=chunk, _SPAN_SLOTS=span,
                             _LANE_WORDS=lane, _LOOKBACK_WORDS=look):
        report = simulate([spec], params, cfg)[0]
    ref_age, ref_energy = reference_replication(spec, params, cfg)
    assert report.avg_aoi == ref_age
    assert report.avg_weighted_energy == ref_energy


def lane_walk(codes, z, walk, table, lane, look):
    """``_lane_walk`` of ``codes`` laid into lanes of ``lane`` words, padded with code 0.

    The grid is position-major, column j lane j. Returns the state before
    each word, read back as the walked grid minus the codes, and the state
    after the last, with ``look`` words of lookback.
    """
    lanes = np.zeros((-(-codes.size // lane), lane), np.int32)
    lanes.reshape(-1)[: codes.size] = codes
    grid = lanes.T.copy()
    with mock.patch.object(evaluation, "_LOOKBACK_WORDS", look):
        evaluation._lane_walk(grid, z, walk, table)
    starts = (grid.T - lanes).reshape(-1)[: codes.size]
    return starts, walk[int(codes[-1]) + int(starts[-1])]


# The README instance with a harvest every slot: under ZeroWait the battery
# never moves, so walks from different battery levels never merge.
NEVER_MERGING = SystemParams(
    erasure_prob=0.2,
    harvest_prob=1.0,
    energy_weight=10.0,
    backup_cost=2.0,
    battery_cap=20,
    aoi_cap=200,
)


@pytest.mark.parametrize("lane, look", [(evaluation._LANE_WORDS, evaluation._LOOKBACK_WORDS),
                                        (3, 1), (8, 0)])
def test_never_merging_walk_matches_reference_stepping(lane, look):
    """Every lane's guessed start is wrong and is repaired; the walk stays at state 5."""
    walk, table, _, _, n_sym, n_z, k = evaluation._automaton(
        evaluation._transmit_rows(ZeroWait(), NEVER_MERGING), NEVER_MERGING
    )
    digits = np.arange(n_sym**k)[:, None] // n_sym ** np.arange(k) % n_sym
    words = np.flatnonzero((digits & 1).all(axis=1)) * n_z  # every slot harvests
    assert (table[words + 5] == 5).all()  # the true walk stays at battery 5
    assert (table[words] != 5).all()  # a walk from state 0 never reaches it
    assert (table[words + table[words]] == table[words]).all()  # nor leaves where it lands
    codes = np.resize(words, 4 * lane + 3).astype(np.int32)  # five lanes, the last partial
    z, expected = 5, []
    for w in codes.tolist():
        expected.append(z)
        z = walk[w + z]
    starts, end = lane_walk(codes, 5, walk, table, lane, look)
    # Battery levels 1 and 5 have the same flags here, so check the states themselves.
    assert starts.tolist() == expected and set(expected) == {5}
    assert end == z == 5


@pytest.mark.parametrize("lane", [1, 2, 3, 8])
@pytest.mark.parametrize("look", [0, 1, 4])
def test_lane_walk_matches_list_walk(lane, look):
    """On a random automaton: the list walk's state before each word and after the last."""
    rng = np.random.default_rng(lane * 10 + look)
    n_z, n_words = 7, 5
    table = rng.integers(0, n_z, n_words * n_z).astype(np.int32)
    walk = table.tolist()
    for size in (1, lane, lane + 1, 5 * lane + 2, 200):
        codes = (rng.integers(0, n_words, size) * n_z).astype(np.int32)
        z = int(rng.integers(0, n_z))
        expected = []
        for w in codes.tolist():
            expected.append(z)
            z = walk[w + z]
        starts, end = lane_walk(codes, expected[0], walk, table, lane, look)
        assert starts.tolist() == expected
        assert end == z


def test_flag_table_unpacks_every_word_flags():
    """For k = 1..7, row f of ``unpack`` is the k 2-bit slot flags of f, lowest first.

    B = 1 and thresholds of 4^(8-k) give 2 * 4^(8-k) states, which sets k
    slots per word under ``_WORD_ENTRIES``; every row is checked.
    """
    params = dataclasses.replace(NEVER_MERGING, battery_cap=1, aoi_cap=5)
    for k in range(1, 8):
        spec = ThresholdPolicy((4 ** (8 - k),) * 2)
        rows = evaluation._transmit_rows(spec, params)
        *_, unpack, _, _, slots = evaluation._automaton(rows, params)
        assert slots == k and unpack.dtype == np.uint8 and unpack.shape == (4**k, k)
        rows = unpack.tolist()
        assert all(rows[f] == [f >> 2 * i & 3 for i in range(k)] for f in range(4**k))


class CountingWalk:
    """A ``walk`` that counts its lookups."""

    def __init__(self, walk):
        self.walk, self.lookups = walk, 0

    def __getitem__(self, index):
        self.lookups += 1
        return self.walk[index]


def test_wrong_guess_is_repaired_only_until_it_meets_the_guessed_walk():
    """Lane 1 starts at 1 against a guess of 0 and meets it at the reset word.

    Two states and three words: keep (code 0), reset to 0 (code 2) and set
    to 1 (code 4). With no lookback every lane after the first guesses 0.
    The repair walks lane 1 up to its reset word, three lookups, and the
    guessed states after it stand; lane 2 starts from lane 1's true end.
    """
    table = np.array([0, 1, 0, 0, 1, 1], np.int32)
    walk = CountingWalk(memoryview(table))
    lanes = [[4, 0, 0, 0, 0, 0, 0, 0], [0, 0, 2, 0, 4, 0, 2, 0], [4, 0, 0, 0, 0, 0, 0, 2]]
    codes = np.array(lanes, np.int32)
    z, expected = 0, []
    for w in codes.ravel().tolist():
        expected.append(z)
        z = walk.walk[w + z]
    grid = codes.T.copy()  # position-major: column j is lane j
    with mock.patch.object(evaluation, "_LOOKBACK_WORDS", 0):
        evaluation._lane_walk(grid, 0, walk, table)
    starts = grid.T - codes
    assert starts.ravel().tolist() == expected
    assert expected[8:11] == [1, 1, 1] and expected[16] == 0  # lane 1 wrong, lane 2 right
    assert walk.lookups == 3 < len(lanes[1])


def test_real_span_edge_matches_small_spans():
    """2^20 + 2^18 + 3 slots cross one real span edge and end in a partial lane.

    The per-slot oracle takes seconds per policy at this horizon, so the
    reference is the same call walked in 4096-slot spans, which the property
    test above checks against that oracle at small horizons.
    """
    specs = [ZeroWait(), Randomized(0.5), ThresholdPolicy((2,) + (1,) * BENCH.battery_cap)]
    cfg = SimConfig(horizon=(1 << 20) + (1 << 18) + 3, replications=1, seed=3)
    assert evaluation._SPAN_SLOTS < cfg.horizon < 2 * evaluation._SPAN_SLOTS
    reports = simulate(specs, BENCH, cfg)
    with mock.patch.object(evaluation, "_SPAN_SLOTS", 4096):
        small = simulate(specs, BENCH, cfg)
    for report, expected in zip(reports, small):
        assert report.avg_aoi == expected.avg_aoi
        assert report.avg_weighted_energy == expected.avg_weighted_energy


# cross-check's six policies at the README instance; SOLVED are its solved thresholds.
SOLVED = (11, 4, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1)
PINNED_REPORTS = [
    (ZeroWait(), "1.25055546089479", "9.998584327059444"),
    (Periodic(5), "4.252403465092642", "0.0"),
    (Periodic(10), "8.010061450378121", "0.0"),
    (Randomized(0.5), "2.507094047307212", "0.23966410404433175"),
    (EnergyFirst(), "2.5010524299135932", "0.0"),
    (ThresholdPolicy(SOLVED), "1.8529319264765596", "3.390833390553647e-05"),
]


def test_two_span_reports_are_pinned():
    """(1 << 20) + (1 << 18) + 3 slots, seed 3: two spans, the last lane partial.

    The per-slot oracle is too slow at this horizon, so each report's
    means are pinned to reprs from the earlier word-order lane grid, whose
    walk the property test above checked slot by slot at small horizons.
    """
    specs, aoi, energy = zip(*PINNED_REPORTS)
    cfg = SimConfig(horizon=(1 << 20) + (1 << 18) + 3, replications=1, seed=3)
    reports = simulate(list(specs), BENCH, cfg)
    assert [repr(r.avg_aoi) for r in reports] == list(aoi)
    assert [repr(r.avg_weighted_energy) for r in reports] == list(energy)


def test_walk_holds_under_3_5_mib_besides_the_horizon():
    """Each span peaks under 3.5 MiB beyond the horizon bytes, for 3 x 2^20 slots of random:0.5.

    A 2^20-slot span of k = 4 slots per word builds its int32 word codes
    in word order and copies them into the position-major lane grid, 8
    bytes per word (2 MiB) for that moment; the walk adds the starts into
    the grid in place, and its uint16 flags take 2 bytes per word twice,
    position-major and back in word order. The automaton and the draw
    buffers sit beside them. The peak is reset as each span's walk begins,
    and the memory traced then must not grow from span to span: a previous
    span's grid (1 MiB) or flags (0.5 MiB) kept alive into the next fails.
    """
    simulate([Randomized(0.5)], BENCH, SimConfig(horizon=10))  # imports on first use, untraced
    cfg = SimConfig(horizon=3 << 20, replications=1)
    held, peaks = [], []
    real_walk = evaluation._lane_walk

    def measured(*args):
        current, peak = tracemalloc.get_traced_memory()
        held.append(current)
        peaks.append(peak)
        tracemalloc.reset_peak()
        return real_walk(*args)

    tracemalloc.start()
    try:
        with mock.patch.object(evaluation, "_lane_walk", measured):
            simulate([Randomized(0.5)], BENCH, cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(held) == 3
    assert max(peaks) - cfg.horizon <= 7 << 19
    assert max(held) - held[0] <= 1 << 18


# ---------------------------------------------------------------------------
# result rows


def test_report_rows_round_trip(tmp_path):
    report = evaluate_exact(ZeroWait(), EVAL_BENCH)
    row = report_row_values("zero-wait", EVAL_BENCH, report, seed=42, note="x")
    assert len(row) == len(CSV_COLUMNS)
    assert float(row[7]) == report.avg_total_cost  # repr survives the trip

    path = tmp_path / "rows.csv"
    for seed in (42, 43):  # each write replaces the file: the header, then its own rows
        values = report_row_values("zero-wait", EVAL_BENCH, report, seed)
        write_report_rows(str(path), [values])
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS
    assert [row[CSV_COLUMNS.index("seed")] for row in rows[1:]] == ["43"]

    bulk = tmp_path / "bulk.csv"
    write_report_rows(str(bulk), [row])
    with open(bulk, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert parsed[0]["policy"] == "zero-wait"
    assert float(parsed[0]["avg_total"]) == report.avg_total_cost
