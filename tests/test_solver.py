"""Solver tests: iteration mechanics, greedy extraction, serialization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aoi_energy import (
    BoundaryMassError,
    ConvergenceError,
    PolicyTable,
    SolverConfig,
    State,
    SystemParams,
    ThresholdPolicy,
    ThresholdStructureError,
    ValueTable,
    bellman_qvalues,
    certify_structure,
    check_truncation_adequacy,
    evaluate_exact,
    extract_thresholds,
    greedy_policy,
    read_value_csv,
    solve,
    solver,
    write_value_csv,
)
from conftest import BENCH, EPSILON, MID
from reference import bellman_qvalues_gathered, greedy_policy_shortcircuit, relative_value_iteration
from reference import doubled_cap_adequacy, exact_bias_violation, threshold_table
from reference import state_action, write_value_csv_rows

SMALL = SystemParams(
    erasure_prob=0.3,
    harvest_prob=0.4,
    energy_weight=2.0,
    backup_cost=1.5,
    battery_cap=4,
    aoi_cap=60,
)

# At cap 6 the solve leaves the empty battery without a threshold, which sits
# beyond the grid: on the untruncated chain transmitting wins there at some
# age, so the adequacy check must fail.
CRAMPED = SystemParams(
    erasure_prob=0.2,
    harvest_prob=0.3,
    energy_weight=5.0,
    backup_cost=2.0,
    battery_cap=2,
    aoi_cap=6,
)


def test_free_transmission_chain_has_geometric_age():
    """With a free backup the solver must transmit everywhere.

    The age then renews each delivery, so the long-run average age (and the
    whole cost) is 1/(1-p). Independent closed form, no solver input.
    """
    params = SystemParams(
        erasure_prob=0.2,
        harvest_prob=0.5,
        energy_weight=0.0,
        backup_cost=2.0,
        battery_cap=3,
        aoi_cap=60,
    )
    v, q = solve(params, SolverConfig())
    assert v.gain == pytest.approx(1.0 / (1.0 - params.erasure_prob), abs=1e-6)
    assert greedy_policy(v, q, params).actions.all()


def test_converged_tables_satisfy_fixed_point(bench_solution):
    v, q = bench_solution
    residual = np.abs(q.min(axis=-1) - v.gain - v.values).max()
    assert residual <= 10 * EPSILON
    assert v.final_span <= EPSILON
    assert v.values[0, BENCH.battery_cap] == 0.0  # reference entry pinned
    assert v.gain >= 1.0  # the age term alone contributes one per slot


def test_benchmark_policy_is_threshold_shaped(bench_solution):
    v, q = bench_solution
    thresholds = extract_thresholds(greedy_policy(v, q, BENCH), BENCH)
    assert len(thresholds.thresholds) == BENCH.battery_cap + 1
    for t in thresholds.thresholds:
        assert t is not None and 1 <= t < BENCH.aoi_cap


def test_benchmark_policy_idles_on_fresh_updates(bench_solution):
    """A just-delivered update is not worth re-sending unless the battery is
    full, where idling would waste the next harvested unit."""
    v, q = bench_solution
    policy = greedy_policy(v, q, BENCH)
    for battery in range(1, BENCH.battery_cap):
        assert state_action(policy, State(1, battery)) == 0
    assert state_action(policy, State(1, BENCH.battery_cap)) == 1


def test_greedy_matches_thresholds_everywhere(bench_solution):
    v, q = bench_solution
    policy = greedy_policy(v, q, BENCH)
    thresholds = extract_thresholds(policy, BENCH)
    assert np.array_equal(policy.actions, threshold_table(thresholds, BENCH).actions)


def test_greedy_ties_resolve_to_idle():
    params = SystemParams(
        erasure_prob=0.2,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=2,
        aoi_cap=4,
    )
    v = ValueTable(values=np.zeros((4, 3)), gain=0.0, iterations=0, final_span=0.0)
    policy = greedy_policy(v, np.zeros((4, 3, 2)), params)
    assert not policy.actions.any()


def test_shortcircuit_extraction_agrees_with_argmin(bench_solution):
    v, q = bench_solution
    fast = greedy_policy_shortcircuit(q, BENCH)
    full = greedy_policy(v, q, BENCH)
    assert np.array_equal(fast.actions, full.actions)


def test_gain_monotone_in_energy_weight():
    gains = []
    for omega in (0.5, 2.0, 8.0):
        params = SystemParams(
            erasure_prob=0.3,
            harvest_prob=0.4,
            energy_weight=omega,
            backup_cost=1.5,
            battery_cap=4,
            aoi_cap=60,
        )
        v, _ = solve(params, SolverConfig())
        gains.append(v.gain)
    assert gains == sorted(gains)


def test_solve_is_bitwise_reproducible():
    va, qa = solve(SMALL, SolverConfig())
    vb, qb = solve(SMALL, SolverConfig())
    assert np.array_equal(va.values, vb.values)
    assert np.array_equal(qa, qb)
    assert va.gain == vb.gain and va.iterations == vb.iterations


def test_solve_reports_non_convergence_with_span():
    """The last allowed sweep always measures the full span, so the error
    carries the plain loop's span bit for bit, whichever sweeps were skipped."""
    for params in (SMALL, BENCH):
        for max_iters in (1, 2, 3, 57):
            cfg = SolverConfig(max_iters=max_iters)
            with pytest.raises(ConvergenceError) as err:
                solve(params, cfg)
            with pytest.raises(ConvergenceError) as expected:
                relative_value_iteration(params, cfg)
            assert err.value.iterations == expected.value.iterations == max_iters
            assert same_bits(np.float64(err.value.span), np.float64(expected.value.span))
            assert err.value.span > 0.0


def test_solve_rejects_bad_inputs():
    degenerate = SystemParams(
        erasure_prob=1.0,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=2,
        aoi_cap=4,
    )
    with pytest.raises(ValueError):
        solve(degenerate, SolverConfig())
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=bad)
    for bad in (float("inf"), float("nan"), float("-inf")):
        start = np.zeros(SMALL.grid_shape)
        start[7, 2] = bad
        with pytest.raises(ValueError, match="start table"):
            solve(SMALL, SolverConfig(), start)
    for shape in ((SMALL.aoi_cap + 1, SMALL.battery_cap + 1), SMALL.grid_shape[::-1], (3,)):
        with pytest.raises(ValueError, match="start table"):
            solve(SMALL, SolverConfig(), np.zeros(shape))


def test_max_iters_refuses_bool():
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=True)


def test_bellman_qvalues_shape_guard():
    with pytest.raises(ValueError):
        bellman_qvalues(np.zeros((3, 3)), SMALL)


# ---------------------------------------------------------------------------
# the battery-major kernel against the gathered oracle, bit for bit


def same_bits(a, b):
    """Equal shapes and equal IEEE bit patterns (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def assert_kernel_matches_oracle(table, params):
    before = table.copy()
    got = bellman_qvalues(table, params)
    expected = bellman_qvalues_gathered(np.ascontiguousarray(table), params)
    assert np.array_equal(table, before)  # the input is not written to
    for new, old in zip(got, expected):
        assert same_bits(new, old)


@pytest.mark.parametrize("battery_cap, aoi_cap", [(1, 2), (2, 4), (3, 30), (20, 200), (20, 400)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_bellman_qvalues_matches_gathered_oracle(battery_cap, aoi_cap, order):
    params = dataclasses.replace(SMALL, battery_cap=battery_cap, aoi_cap=aoi_cap)
    rng = np.random.default_rng(1000 * battery_cap + aoi_cap)
    table = np.asarray(rng.normal(scale=100.0, size=params.grid_shape), order=order)
    assert table.flags.f_contiguous == (order == "F")
    assert_kernel_matches_oracle(table, params)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    battery_cap=st.integers(1, 6),
    aoi_cap=st.integers(2, 40),
    erasure=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    harvest=st.floats(0.0, 1.0),
    weight=st.floats(0.0, 1e3),
    cost=st.floats(0.0, 1e3),
    order=st.sampled_from("CF"),
    data=st.data(),
)
def test_bellman_qvalues_property(
    battery_cap, aoi_cap, erasure, harvest, weight, cost, order, data
):
    params = SystemParams(
        erasure_prob=erasure,
        harvest_prob=harvest,
        energy_weight=weight,
        backup_cost=cost,
        battery_cap=battery_cap,
        aoi_cap=aoi_cap,
    )
    table = data.draw(arrays(np.float64, params.grid_shape, elements=st.floats(-1e6, 1e6)))
    assert_kernel_matches_oracle(np.asarray(table, order=order), params)


def rvi_outcome(run, params, cfg, start):
    """(values, q, gain, iterations, span) of a converged run, or the
    (iterations, span) of its ConvergenceError."""
    try:
        return run(params, cfg, start)
    except ConvergenceError as err:
        return err.iterations, np.float64(err.span)


def solve_outcome(params, cfg, start):
    v, q = solve(params, cfg, start)
    return v.values, q, v.gain, v.iterations, v.final_span


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    battery_cap=st.integers(1, 4),
    aoi_cap=st.integers(2, 12),
    erasure=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    harvest=st.floats(0.0, 1.0),
    weight=st.floats(0.0, 1e3),
    cost=st.floats(0.0, 1e3),
    scale=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from("CF"),
    epsilon=st.sampled_from([1e-9, 1e-6, 1e-3]),
    max_iters=st.integers(1, 3000),
)
def test_solve_matches_reference_rvi_property(
    battery_cap, aoi_cap, erasure, harvest, weight, cost, scale, seed, order, epsilon, max_iters
):
    """Random start tables make the extremes of T(V) - V jump between
    sweeps, so the skipped span passes must still stop, or run out, exactly
    where the plain loop does."""
    params = SystemParams(
        erasure_prob=erasure,
        harvest_prob=harvest,
        energy_weight=weight,
        backup_cost=cost,
        battery_cap=battery_cap,
        aoi_cap=aoi_cap,
    )
    cfg = SolverConfig(epsilon=epsilon, max_iters=max_iters)
    rng = np.random.default_rng(seed)
    start = np.asarray(rng.normal(scale=scale, size=params.grid_shape), order=order)
    got = rvi_outcome(solve_outcome, params, cfg, start)
    expected = rvi_outcome(relative_value_iteration, params, cfg, start)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert same_bits(np.asarray(a), np.asarray(b))


B1_CAP2 = dataclasses.replace(SMALL, battery_cap=1, aoi_cap=2)

# "init-value" starts from a seeded random table, Fortran-ordered, which the
# solve re-anchors at (1, battery_cap). "lam-0", "lam-1" and "omega-0" sit next
# to the workspace's pads: the corners where lam*V or (1-lam)*V is all zeros or
# the backup costs nothing. A workspace row is cap+1 slots rounded up to 8: at
# cap 7 it holds only the saturation pad, at cap 8 seven more pad columns.
RVI_CASES = {
    "readme": (BENCH, SolverConfig(epsilon=EPSILON), None),
    "mid": (MID, SolverConfig(), None),
    "b1-cap2": (B1_CAP2, SolverConfig(), None),
    "init-value": (
        SMALL,
        SolverConfig(),
        np.asfortranarray(np.random.default_rng(125).normal(scale=50.0, size=SMALL.grid_shape)),
    ),
    "lam-0": (dataclasses.replace(SMALL, harvest_prob=0.0), SolverConfig(), None),
    "lam-1": (dataclasses.replace(SMALL, harvest_prob=1.0), SolverConfig(), None),
    "omega-0": (dataclasses.replace(SMALL, energy_weight=0.0), SolverConfig(), None),
    "cap-7": (dataclasses.replace(SMALL, aoi_cap=7), SolverConfig(), None),
    "cap-8": (dataclasses.replace(SMALL, aoi_cap=8), SolverConfig(), None),
    "p-0": (dataclasses.replace(SMALL, erasure_prob=0.0), SolverConfig(), None),
}


def assert_solve_matches_reference_rvi(params, cfg, start):
    before = None if start is None else start.copy()
    v, q = solve(params, cfg, start)
    values, q_values, gain, iterations, span = relative_value_iteration(params, cfg, start)
    assert same_bits(v.values, values)
    assert same_bits(q, q_values)
    assert (v.gain, v.iterations, v.final_span) == (gain, iterations, span)
    assert v.values.flags.c_contiguous and q.flags.c_contiguous
    assert start is None or same_bits(start, before)  # the start table is not written to


@pytest.mark.parametrize("params, cfg, start", RVI_CASES.values(), ids=RVI_CASES.keys())
def test_solve_matches_reference_rvi(params, cfg, start):
    assert_solve_matches_reference_rvi(params, cfg, start)


def test_perfect_channel_is_solved_as_given():
    """At p = 0 the README instance takes as many sweeps, and gives the same thresholds, as
    a solve at p = 1e-9 did."""
    perfect = dataclasses.replace(BENCH, erasure_prob=0.0)
    v, q = solve(perfect, SolverConfig(epsilon=EPSILON))
    assert v.iterations == 4874
    thresholds = extract_thresholds(greedy_policy(v, q, perfect), perfect)
    assert thresholds.thresholds == (11, 3, 3, *[2] * 17, 1)


def test_start_table_changes_the_run_not_the_answer():
    """A random start takes a different path to the zero start's fixed point."""
    _, cfg, start = RVI_CASES["init-value"]
    cold, _ = solve(SMALL, cfg)
    warm, _ = solve(SMALL, cfg, start)
    assert warm.iterations != cold.iterations
    assert warm.gain == pytest.approx(cold.gain, abs=1e-8)
    assert np.allclose(warm.values, cold.values, atol=1e-6)
    again, _ = solve(SMALL, cfg, cold.values)  # the fixed point itself converges at once
    assert again.iterations == 1


def test_start_table_is_reanchored_before_the_first_sweep():
    """A start of multiples of 256 moved by 2^60 is still exact (floats near
    2^60 are 256 apart), and re-anchored at (1, battery_cap) it is the same
    table, so every bit of the run is the same. Unanchored, its values would
    carry 2^60 through every sweep and round at 256."""
    rng = np.random.default_rng(20261019)
    start = 256.0 * rng.integers(-1000, 1000, size=SMALL.grid_shape)
    shifted = start + 2.0**60
    assert np.array_equal(shifted - 2.0**60, start)  # the shift itself lost nothing
    v, q = solve(SMALL, SolverConfig(), start)
    moved, moved_q = solve(SMALL, SolverConfig(), shifted)
    assert same_bits(moved.values, v.values)
    assert same_bits(moved_q, q)
    assert (moved.gain, moved.iterations, moved.final_span) == (v.gain, v.iterations, v.final_span)


@pytest.mark.parametrize("params, cfg, start", RVI_CASES.values(), ids=RVI_CASES.keys())
def test_poisoned_workspace_changes_no_bit(monkeypatch, params, cfg, start):
    """Every workspace buffer starts as NaN, so a pad slot or a slot the
    backup never writes that reached a real entry would show in the values,
    the action values, the gain or the span."""
    monkeypatch.setattr(solver._Workspace, "alloc", staticmethod(lambda size: np.full(size, np.nan)))
    assert_solve_matches_reference_rvi(params, cfg, start)
    rng = np.random.default_rng(params.aoi_cap)
    for order in "CF":
        assert_kernel_matches_oracle(
            np.asarray(rng.normal(scale=100.0, size=params.grid_shape), order=order), params
        )


@pytest.mark.parametrize("aoi_cap", [7, 8, 200])
def test_workspace_outputs_start_on_cache_lines(aoi_cap):
    """Every buffer a sweep writes, and each battery row, starts on a 64-byte line."""
    params = dataclasses.replace(BENCH, aoi_cap=aoi_cap)
    ws = solver._Workspace(params, np.zeros(params.grid_shape))
    assert ws.row % 8 == 0
    for out in [step[-1] for step in ws.steps] + [ws.real]:
        assert out.ctypes.data % 64 == 0


# ---------------------------------------------------------------------------
# threshold extraction


def test_extract_thresholds_uniform_tables():
    params = SystemParams(
        erasure_prob=0.2,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=2,
        aoi_cap=5,
    )
    ones = PolicyTable(np.ones(params.grid_shape, dtype=np.int8))
    assert extract_thresholds(ones, params).thresholds == (1, 1, 1)
    zeros = PolicyTable(np.zeros(params.grid_shape, dtype=np.int8))
    assert extract_thresholds(zeros, params).thresholds == (None, None, None)


def test_extract_thresholds_flags_gap_with_witnesses():
    params = SystemParams(
        erasure_prob=0.2,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=1,
        aoi_cap=5,
    )
    actions = np.zeros(params.grid_shape, dtype=np.int8)
    actions[:, 0] = [0, 1, 0, 1, 1]  # transmit at age 2, idle again at age 3
    with pytest.raises(ThresholdStructureError) as err:
        extract_thresholds(PolicyTable(actions), params)
    assert err.value.witnesses == [State(2, 0), State(3, 0)]


# ---------------------------------------------------------------------------
# truncation adequacy


def test_truncation_adequacy_at_benchmark(bench_solution):
    v, q = bench_solution
    thresholds = extract_thresholds(greedy_policy(v, q, BENCH), BENCH)
    assert check_truncation_adequacy(thresholds, BENCH, SolverConfig())


def test_truncation_check_forgives_only_unresolved_ties():
    """A threshold passes a gap only within epsilon: an exact tie that rounding breaks.

    At p=0.5, lambda=0.9, omega=10 the solved thresholds are greedy for their
    own exact bias up to a gap of about 2.2e-12, so the check passes at
    epsilon 1e-9 and fails at 1e-12. At the (0.9, 0.9, 100) corner the
    empty-battery threshold 182 loses by 0.88 at age 181, and CRAMPED hides
    a threshold behind its cap.
    """
    cfg = SolverConfig(epsilon=EPSILON)
    tie = dataclasses.replace(BENCH, erasure_prob=0.5, harvest_prob=0.9, energy_weight=10.0)
    v, q = solve(tie, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, tie), tie)
    gap, _, gain = exact_bias_violation(thresholds, tie)
    assert 1e-12 < gap < 1e-11  # the tie this test is about
    assert abs(gain - v.gain) < 1e-8
    assert check_truncation_adequacy(thresholds, tie, cfg)
    assert not check_truncation_adequacy(thresholds, tie, SolverConfig(epsilon=1e-12))

    corner = dataclasses.replace(BENCH, erasure_prob=0.9, harvest_prob=0.9, energy_weight=100.0)
    v, q = solve(corner, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, corner), corner)
    assert thresholds.thresholds[0] == 182
    assert not check_truncation_adequacy(thresholds, corner, cfg)
    assert check_truncation_adequacy(thresholds, corner, SolverConfig(epsilon=0.9))

    v, q = solve(CRAMPED, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, CRAMPED), CRAMPED)
    assert not check_truncation_adequacy(thresholds, CRAMPED, SolverConfig(epsilon=1e6))


def test_warm_doubled_solve_is_short_and_reaches_the_cold_gain(bench_solution):
    """Started from the cap solution, the doubled solve needs few sweeps (1,529 from zero)."""
    v, _ = bench_solution
    cfg = SolverConfig(epsilon=EPSILON)
    doubled = dataclasses.replace(BENCH, aoi_cap=2 * BENCH.aoi_cap)
    warm, _ = solve(doubled, cfg, np.pad(v.values, ((0, BENCH.aoi_cap), (0, 0)), "edge"))
    assert warm.values.shape == (2 * BENCH.aoi_cap, BENCH.battery_cap + 1)
    assert warm.iterations <= 50
    cold, _ = solve(doubled, cfg)
    assert abs(warm.gain - cold.gain) <= 1e-9


def test_truncation_inadequacy_detected():
    v, q = solve(CRAMPED, SolverConfig())
    thresholds = extract_thresholds(greedy_policy(v, q, CRAMPED), CRAMPED)
    assert thresholds.thresholds[0] is None  # the cap hides this threshold
    assert not check_truncation_adequacy(thresholds, CRAMPED, SolverConfig())


def test_truncation_check_sees_a_threshold_beyond_twice_the_cap():
    """At cap 30 the empty-battery threshold is hidden; the doubled cap of 60 misses it too.

    On the untruncated chain that threshold is 102: the check fails the
    cap-30 thresholds, which a re-solve at twice the cap would still accept,
    and passes the cap-200 ones, as that re-solve does.
    """
    hidden = SystemParams(
        erasure_prob=0.5,
        harvest_prob=0.5,
        energy_weight=100.0,
        backup_cost=2.0,
        battery_cap=3,
        aoi_cap=30,
    )
    cfg = SolverConfig(epsilon=EPSILON)
    v, q = solve(hidden, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, hidden), hidden)
    assert thresholds.thresholds == (None, 5, 4, 1)
    assert not check_truncation_adequacy(thresholds, hidden, cfg)
    assert doubled_cap_adequacy(thresholds, hidden, cfg, v.values)

    roomy = dataclasses.replace(hidden, aoi_cap=200)
    v, q = solve(roomy, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, roomy), roomy)
    assert thresholds.thresholds[0] == 102
    assert check_truncation_adequacy(thresholds, roomy, cfg)
    assert doubled_cap_adequacy(thresholds, roomy, cfg, v.values)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    p=st.one_of(st.just(0.0), st.floats(0.05, 0.95)),
    lam=st.floats(0.05, 0.95),
    omega=st.floats(0.0, 60.0),
    battery_cap=st.integers(1, 3),
    aoi_cap=st.integers(3, 40),
    shift=st.tuples(st.integers(0, 3), st.integers(-1, 1)),
)
def test_truncation_check_agrees_with_the_exact_bias_oracle(
    p, lam, omega, battery_cap, aoi_cap, shift
):
    """The check passes exactly where the dense exact-bias oracle's largest gap is within epsilon.

    The thresholds are solved on a small grid, so some hide behind the cap,
    and then one of them may move by one age. Verdicts are compared only
    where the oracle's gap is more than 1e-6 away from the check's epsilon,
    1e-4 here so that the gaps of rounding size at optimal thresholds count.
    A draw whose solve does not converge is skipped.
    """
    params = SystemParams(p, lam, omega, 2.0, battery_cap, aoi_cap)
    try:
        v, q = solve(params, SolverConfig(epsilon=EPSILON))
    except ConvergenceError:
        return
    cfg = SolverConfig(epsilon=1e-4)
    try:
        solved = extract_thresholds(greedy_policy(v, q, params), params).thresholds
    except ThresholdStructureError:
        return
    level, step = shift[0] % (battery_cap + 1), shift[1]
    moved = list(solved)
    if moved[level] is not None and moved[level] + step >= 1:
        moved[level] += step
    thresholds = ThresholdPolicy(tuple(moved))
    gap, _, _ = exact_bias_violation(thresholds, params)
    if abs(gap - cfg.epsilon) > 1e-6:
        assert check_truncation_adequacy(thresholds, params, cfg) == (gap <= cfg.epsilon)


def test_truncation_check_certifies_a_certain_harvest():
    """With lambda = 1 a charged level that transmits every slot keeps its charge.

    So the renewal kernel has a recurrent class per such level. Their gains
    agree, and the solved thresholds pass, as a re-solve at twice the cap
    agrees. A full battery that waits one slot has a class of its own with a
    higher gain, and fails.
    """
    params = SystemParams(0.5, 1.0, 1.0, 2.0, 2, 20)
    cfg = SolverConfig(epsilon=EPSILON)
    v, q = solve(params, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, params), params)
    assert thresholds.thresholds == (3, 1, 1)
    assert check_truncation_adequacy(thresholds, params, cfg)
    assert doubled_cap_adequacy(thresholds, params, cfg, v.values)
    assert not check_truncation_adequacy(ThresholdPolicy((3, 1, 2)), params, cfg)


def test_truncation_check_passes_a_threshold_that_wins_by_a_hair():
    """Transmitting at the last threshold wins by about 2e-3, less than p: the check passes.

    Moving that threshold one age either way fails it.
    """
    params = SystemParams(0.7, 0.6, 3.0, 2.0, 1, 100)
    cfg = SolverConfig(epsilon=EPSILON)
    v, q = solve(params, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, params), params)
    assert thresholds.thresholds == (5, 1)
    _, exact_q, _ = exact_bias_violation(thresholds, params)
    assert 1e-3 < exact_q[4, 0, 0] - exact_q[4, 0, 1] < 1e-2
    assert check_truncation_adequacy(thresholds, params, cfg)
    for moved in ((4, 1), (6, 1)):
        assert not check_truncation_adequacy(ThresholdPolicy(moved), params, cfg), moved


def test_raising_a_threshold_past_a_clear_advantage_fails_the_check():
    """A level that transmits one age late, where transmitting wins by 1e-3 or more, fails."""
    cfg = SolverConfig(epsilon=EPSILON)
    v, q = solve(MID, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, MID), MID)
    assert check_truncation_adequacy(thresholds, MID, cfg)
    _, exact_q, _ = exact_bias_violation(thresholds, MID)
    raised = 0
    for level, age in enumerate(thresholds.thresholds):
        if exact_q[age - 1, level, 0] - exact_q[age - 1, level, 1] >= 1e-3:
            late = list(thresholds.thresholds)
            late[level] += 1
            assert not check_truncation_adequacy(ThresholdPolicy(tuple(late)), MID, cfg), level
            raised += 1
    assert raised >= 2


def test_truncation_adequate_once_cap_covers_thresholds():
    import dataclasses

    roomy = dataclasses.replace(CRAMPED, aoi_cap=20)
    v, q = solve(roomy, SolverConfig())
    thresholds = extract_thresholds(greedy_policy(v, q, roomy), roomy)
    assert thresholds.thresholds == (5, 4, 2)
    assert check_truncation_adequacy(thresholds, roomy, SolverConfig())


# ---------------------------------------------------------------------------
# policy iteration


def rvi_cost(params, cfg):
    """Exact report of RVI's thresholds at ``params.aoi_cap``, or None where there is no
    finite cost to compare with: RVI does not converge within 10,000 sweeps (it never does
    at p = lambda = 0, where the chain is periodic), its greedy table is not
    threshold-shaped, or a level never transmits."""
    try:
        v, q = solve(params, dataclasses.replace(cfg, max_iters=10_000))
        return evaluate_exact(extract_thresholds(greedy_policy(v, q, params), params), params)
    except (ConvergenceError, ThresholdStructureError, BoundaryMassError):
        return None


def assert_policy_iteration_is_optimal(params, cfg):
    """Howard's test passes, the gain is the policy's exact cost, the thresholds fall with
    the battery level, and the cost is no more than that of RVI's thresholds."""
    v, q, policy = solver.policy_iteration(params, cfg)
    assert check_truncation_adequacy(policy, params, cfg)
    cost = evaluate_exact(policy, params).avg_total_cost
    assert v.gain == pytest.approx(cost, rel=1e-9)
    assert list(policy.thresholds) == sorted(policy.thresholds, reverse=True)
    assert v.values.shape == params.grid_shape and q.shape == (*params.grid_shape, 2)
    assert v.values[0, -1] == 0.0
    rvi = rvi_cost(params, cfg)
    assert rvi is None or cost <= rvi.avg_total_cost * (1.0 + 1e-12)
    return v, q, policy, rvi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    battery_cap=st.integers(1, 4),
    p=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    omega=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
)
def test_policy_iteration_never_loses_to_rvi_property(battery_cap, p, lam, omega):
    assert_policy_iteration_is_optimal(
        SystemParams(p, lam, omega, 2.0, battery_cap, 40), SolverConfig(epsilon=EPSILON)
    )


# Points of BENCH by (p, lambda, omega), and three instances of their own. With
# neither the cumulative min over battery levels nor the 2D cap per round, "tie"
# grows a threshold to about 1.5e9, past the grid bound; either guard alone keeps
# it. Without the 2D cap, "no-harvest" overshoots the bound too. RVI's grid hides
# three of these answers: 182 at "corner", None at "tiny" (cap 30), and
# (None, None), of infinite cost, at "no-harvest" (cap 50).
PI_CASES = {
    "tie": (
        dataclasses.replace(BENCH, erasure_prob=0.5, harvest_prob=0.9), (19,) + (2,) * 19 + (1,)
    ),
    "corner": (
        dataclasses.replace(BENCH, erasure_prob=0.9, harvest_prob=0.9, energy_weight=100.0),
        (181, 10, 8, 6, 5, 4, 4) + (3,) * 6 + (2,) * 7 + (1,),
    ),
    "tiny": (SystemParams(0.5, 0.5, 100.0, 2.0, 3, 30), (102, 5, 4, 1)),
    "no-harvest": (SystemParams(0.2, 0.0, 1000.0, 1000.0, 1, 50), (1581, 1581)),
    "sure-harvest": (dataclasses.replace(BENCH, harvest_prob=1.0), (20,) + (1,) * 20),
    "perfect-channel": (
        dataclasses.replace(BENCH, erasure_prob=0.0), (11, 3, 3) + (2,) * 17 + (1,)
    ),
    "free-backup": (dataclasses.replace(BENCH, energy_weight=0.0), (1,) * 21),
}


@pytest.mark.parametrize("params, expected", PI_CASES.values(), ids=PI_CASES.keys())
def test_policy_iteration_pinned_cases(params, expected):
    cfg = SolverConfig(epsilon=EPSILON)
    v, q, policy, rvi = assert_policy_iteration_is_optimal(params, cfg)
    assert policy.thresholds == expected
    assert certify_structure(v, q, params).all_pass
    if params.harvest_prob == 0.0:
        assert rvi is None
        assert evaluate_exact(policy, params).avg_total_cost == pytest.approx(1581.64, abs=5e-3)


def test_policy_iteration_stops_at_max_iters_and_repeats_its_answer():
    """ZeroWait is optimal when backup is free: one round. SMALL needs more than two."""
    free = dataclasses.replace(SMALL, energy_weight=0.0)
    assert solver.policy_iteration(free)[0].iterations == 1
    with pytest.raises(ConvergenceError, match=r"thresholds \[.*\] still move after 2 rounds"):
        solver.policy_iteration(SMALL, SolverConfig(max_iters=2))
    first, second = solver.policy_iteration(SMALL), solver.policy_iteration(SMALL)
    assert first[2] == second[2] and same_bits(first[1], second[1])


def test_policy_iteration_refuses_what_it_cannot_certify(monkeypatch):
    """A stopping policy that fails Howard's test, or a round whose recurrent classes
    have unequal gains, raises ConvergenceError naming the thresholds."""
    exact_bias = solver._exact_bias
    monkeypatch.setattr(solver, "_exact_bias", lambda *args: (*exact_bias(*args)[:3], 1.0))
    with pytest.raises(ConvergenceError, match=r"\[3, 3, 3, 2, 1\] fail Howard's improvement"):
        solver.policy_iteration(SMALL)
    monkeypatch.setattr(solver, "_exact_bias", lambda *args: None)
    with pytest.raises(ConvergenceError, match=r"\[1, 1, 1, 1, 1\] have recurrent classes of"):
        solver.policy_iteration(SMALL)


# ---------------------------------------------------------------------------
# value table serialization


def test_value_csv_round_trip(tmp_path, bench_solution):
    v, _ = bench_solution
    path = tmp_path / "values.csv"
    write_value_csv(str(path), v)
    back = read_value_csv(str(path))
    assert back.shape == v.values.shape
    assert np.array_equal(back, v.values)  # repr round-trips floats exactly


@pytest.mark.parametrize("order", ["C", "F"])
def test_value_csv_matches_csv_writer_bytes(tmp_path, order):
    cells = [-0.0, 0.0, 1e-300, 5e-324, -5e-324, 1.7976931348623157e308, -1e308, 3.0, -7.0,
             2.0**53, 1e16, 0.1, 1 / 3, 123456.789, float("inf"), float("nan")]
    v = ValueTable(np.asarray(np.reshape(cells, (4, 4)), order=order), 0.0, 0, 0.0)
    write_value_csv(str(tmp_path / "joined.csv"), v)
    write_value_csv_rows(str(tmp_path / "rows.csv"), v)
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_value_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_value_csv(str(path))


def test_value_csv_refuses_a_repeated_cell(tmp_path):
    """A cell given twice is refused by name, even when the cell count still matches."""
    path = tmp_path / "twice.csv"
    path.write_text("delta,q,value\n1,0,1.0\n1,1,5.0\n2,0,2.0\n1,1,-7.0\n")
    with pytest.raises(ValueError, match=r"\(delta, q\) = \(1, 1\) is given twice"):
        read_value_csv(str(path))


def test_value_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("delta,q,value\n")
    with pytest.raises(ValueError):
        read_value_csv(str(path))
