"""Solver tests: iteration mechanics, greedy extraction, serialization."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aoi_energy import (
    BoundaryMassError,
    SolverConfig,
    SystemParams,
    certify_structure,
    check_truncation_adequacy,
    evaluate_exact,
    extract_thresholds,
    greedy_policy,
    solve,
    solver,
)
from aoi_energy.model import State
from aoi_energy.policies import ThresholdPolicy
from aoi_energy.solver import (
    ConvergenceError,
    ThresholdStructureError,
    ValueTable,
    bellman_qvalues,
)
from conftest import BENCH, EPSILON, MID
from reference import bellman_qvalues_gathered, greedy_policy_shortcircuit, relative_value_iteration
from reference import column_thresholds, doubled_cap_adequacy, exact_bias_violation
from reference import threshold_table
from reference import state_action

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
    assert greedy_policy(v, q, params).all()


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
    assert np.array_equal(policy, threshold_table(thresholds, BENCH))


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
    assert not policy.any()


def test_greedy_and_extraction_refuse_grids_that_disagree():
    """A q table, value table or action table of another grid than the params' is refused."""
    params = SystemParams(
        erasure_prob=0.2,
        harvest_prob=0.5,
        energy_weight=1.0,
        backup_cost=1.0,
        battery_cap=2,
        aoi_cap=4,
    )
    v = ValueTable(values=np.zeros((4, 3)), gain=0.0, iterations=0, final_span=0.0)
    with pytest.raises(ValueError, match="value, q and params grids disagree"):
        greedy_policy(v, np.zeros((5, 3, 2)), params)
    with pytest.raises(ValueError, match="value, q and params grids disagree"):
        greedy_policy(v, np.zeros((4, 3, 2)), dataclasses.replace(params, aoi_cap=5))
    with pytest.raises(ValueError, match=r"policy shape \(5, 3\), expected \(4, 3\)"):
        extract_thresholds(np.zeros((5, 3), dtype=np.int8), params)


def test_shortcircuit_extraction_agrees_with_argmin(bench_solution):
    v, q = bench_solution
    fast = greedy_policy_shortcircuit(q, BENCH)
    full = greedy_policy(v, q, BENCH)
    assert np.array_equal(fast, full)


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
        for sweeps in (1, 2, 3, 57):
            with mock.patch.object(solver, "MAX_SWEEPS", sweeps), \
                    pytest.raises(ConvergenceError) as err:
                solve(params)
            with pytest.raises(ConvergenceError) as expected:
                relative_value_iteration(params, SolverConfig(), sweeps=sweeps)
            assert err.value.iterations == expected.value.iterations == sweeps
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
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=bad)


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


def rvi_outcome(run, *args, **kwargs):
    """(values, q, gain, iterations, span) of a converged run, or the
    (iterations, span) of its ConvergenceError."""
    try:
        return run(*args, **kwargs)
    except ConvergenceError as err:
        return err.iterations, np.float64(err.span)


def solve_outcome(params, cfg):
    v, q = solve(params, cfg)
    return v.values, q, v.gain, v.iterations, v.final_span


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    battery_cap=st.integers(1, 4),
    aoi_cap=st.integers(2, 12),
    erasure=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    harvest=st.floats(0.0, 1.0),
    weight=st.floats(0.0, 1e3),
    cost=st.floats(0.0, 1e3),
    epsilon=st.sampled_from([1e-9, 1e-6, 1e-3]),
    sweeps=st.integers(1, 3000),
)
def test_solve_matches_reference_rvi_property(
    battery_cap, aoi_cap, erasure, harvest, weight, cost, epsilon, sweeps
):
    """On random instances, tolerances and budgets the skipped span passes
    stop, or run out, exactly where the plain loop does."""
    params = SystemParams(
        erasure_prob=erasure,
        harvest_prob=harvest,
        energy_weight=weight,
        backup_cost=cost,
        battery_cap=battery_cap,
        aoi_cap=aoi_cap,
    )
    cfg = SolverConfig(epsilon=epsilon)
    with mock.patch.object(solver, "MAX_SWEEPS", sweeps):
        got = rvi_outcome(solve_outcome, params, cfg)
    expected = rvi_outcome(relative_value_iteration, params, cfg, sweeps=sweeps)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert same_bits(np.asarray(a), np.asarray(b))


B1_CAP2 = dataclasses.replace(SMALL, battery_cap=1, aoi_cap=2)

# "lam-0", "lam-1" and "omega-0" sit next to the workspace's pads: the corners
# where lam*V or (1-lam)*V is all zeros or the backup costs nothing. A workspace
# row is cap+1 slots rounded up to 8: at cap 7 it holds only the saturation pad,
# at cap 8 seven more pad columns.
RVI_CASES = {
    "readme": (BENCH, SolverConfig(epsilon=EPSILON)),
    "mid": (MID, SolverConfig()),
    "b1-cap2": (B1_CAP2, SolverConfig()),
    "lam-0": (dataclasses.replace(SMALL, harvest_prob=0.0), SolverConfig()),
    "lam-1": (dataclasses.replace(SMALL, harvest_prob=1.0), SolverConfig()),
    "omega-0": (dataclasses.replace(SMALL, energy_weight=0.0), SolverConfig()),
    "cap-7": (dataclasses.replace(SMALL, aoi_cap=7), SolverConfig()),
    "cap-8": (dataclasses.replace(SMALL, aoi_cap=8), SolverConfig()),
    "p-0": (dataclasses.replace(SMALL, erasure_prob=0.0), SolverConfig()),
}


def assert_solve_matches_reference_rvi(params, cfg):
    v, q = solve(params, cfg)
    values, q_values, gain, iterations, span = relative_value_iteration(params, cfg)
    assert same_bits(v.values, values)
    assert same_bits(q, q_values)
    assert (v.gain, v.iterations, v.final_span) == (gain, iterations, span)
    assert v.values.flags.c_contiguous and q.flags.c_contiguous


@pytest.mark.parametrize("params, cfg", RVI_CASES.values(), ids=RVI_CASES.keys())
def test_solve_matches_reference_rvi(params, cfg):
    assert_solve_matches_reference_rvi(params, cfg)


def test_perfect_channel_is_solved_as_given():
    """At p = 0 the README instance takes as many sweeps, and gives the same thresholds, as
    a solve at p = 1e-9 did."""
    perfect = dataclasses.replace(BENCH, erasure_prob=0.0)
    v, q = solve(perfect, SolverConfig(epsilon=EPSILON))
    assert v.iterations == 4874
    thresholds = extract_thresholds(greedy_policy(v, q, perfect), perfect)
    assert thresholds.thresholds == (11, 3, 3, *[2] * 17, 1)


@pytest.mark.parametrize("params, cfg", RVI_CASES.values(), ids=RVI_CASES.keys())
def test_poisoned_workspace_changes_no_bit(monkeypatch, params, cfg):
    """Every workspace buffer starts as NaN, so a pad slot or a slot the
    backup never writes that reached a real entry would show in the values,
    the action values, the gain or the span."""
    monkeypatch.setattr(solver._Workspace, "alloc", staticmethod(lambda size: np.full(size, np.nan)))
    assert_solve_matches_reference_rvi(params, cfg)
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
    ones = np.ones(params.grid_shape, dtype=np.int8)
    assert extract_thresholds(ones, params).thresholds == (1, 1, 1)
    zeros = np.zeros(params.grid_shape, dtype=np.int8)
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
        extract_thresholds(actions, params)
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    table=arrays(np.int8, st.tuples(st.integers(1, 7), st.integers(2, 5)),
                 elements=st.integers(0, 1)),
    as_rows=st.booleans(),
)
def test_threshold_reading_matches_the_column_loop_property(table, as_rows):
    """The thresholds read off an int8 table, or off boolean rows, are the column loop's,
    and a column that idles again is refused with the loop's witnesses."""
    expected, witnesses = column_thresholds(table)
    actions = table.astype(bool) if as_rows else table
    if witnesses is None:
        assert solver._thresholds(actions).thresholds == expected
    else:
        with pytest.raises(ThresholdStructureError) as err:
            solver._thresholds(actions)
        assert err.value.witnesses == witnesses


# ---------------------------------------------------------------------------
# policy iteration


def rvi_cost(params, cfg):
    """Exact report of RVI's thresholds at ``params.aoi_cap``, or None where there is no
    finite cost to compare with: RVI does not converge within 10,000 sweeps (it never does
    at p = lambda = 0, where the chain is periodic), its greedy table is not
    threshold-shaped, or a level never transmits."""
    try:
        with mock.patch.object(solver, "MAX_SWEEPS", 10_000):
            v, q = solve(params, cfg)
        return evaluate_exact(extract_thresholds(greedy_policy(v, q, params), params), params)
    except (ConvergenceError, ThresholdStructureError, BoundaryMassError):
        return None


def assert_policy_iteration_is_optimal(params, cfg):
    """Howard's test passes, the gain is the policy's exact cost, the thresholds fall with
    the battery level, and the cost is no more than that of RVI's thresholds."""
    test, policy, _ = solver.policy_iteration(params)
    assert check_truncation_adequacy(policy, params, cfg)
    cost = evaluate_exact(policy, params).avg_total_cost
    assert test.gain == pytest.approx(cost, rel=1e-9)
    assert list(policy.thresholds) == sorted(policy.thresholds, reverse=True)
    shape = (max(policy.thresholds) + 2, params.battery_cap + 1)  # ages 1..D+2 at any cap
    assert test.values.shape == shape and test.q.shape == (*shape, 2)
    assert test.values[0, -1] == 0.0
    rvi = rvi_cost(params, cfg)
    assert rvi is None or cost <= rvi.avg_total_cost * (1.0 + 1e-12)
    return test, policy, rvi


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
    test, policy, rvi = assert_policy_iteration_is_optimal(params, cfg)
    assert policy.thresholds == expected
    assert certify_structure(test.values, test.q, params).all_pass
    if params.harvest_prob == 0.0:
        assert rvi is None
        assert evaluate_exact(policy, params).avg_total_cost == pytest.approx(1581.64, abs=5e-3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    battery_cap=st.integers(1, 3),
    p=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    omega=st.floats(0.0, 100.0),
    cost=st.floats(0.0, 10.0),
)
def test_policy_iteration_gain_never_rises_property(battery_cap, p, lam, omega, cost):
    """Each round's gain is the dense oracle's for that round's action rows, to 1e-9
    relative, and no round's gain rises above the one before by more than 1e-9 relative.
    Howard's rule switches only actions that lose by more than epsilon, so the gain never
    rises and no rows repeat: the rounds end with no budget. At a harvest chance of 1 the
    rows reach about omega * c_r ages, so omega * c_r stays within 1,000 to keep the
    oracle's sparse kernels small."""
    params = SystemParams(p, lam, omega, cost, battery_cap, 40)
    rounds, real = [], solver._exact_bias

    def recorded(rows, params):
        exact = real(rows, params)
        rounds.append((rows.copy(), exact[0].gain))
        return exact

    with mock.patch.object(solver, "_exact_bias", recorded):
        _, _, count = solver.policy_iteration(params)
    assert len(rounds) == count
    for rows, gain in rounds:
        assert gain == pytest.approx(exact_bias_violation(rows, params)[2], rel=1e-9, abs=0.0)
    gains = [gain for _, gain in rounds]
    for earlier, later in zip(gains, gains[1:]):
        assert later <= earlier + 1e-9 * abs(earlier), gains


def test_policy_iteration_repeats_its_answer():
    """ZeroWait is optimal when backup is free: one round. SMALL needs more than two, and a
    second run gives the same thresholds and q table bit for bit."""
    free = dataclasses.replace(SMALL, energy_weight=0.0)
    assert solver.policy_iteration(free)[2] == 1
    first, second = solver.policy_iteration(SMALL), solver.policy_iteration(SMALL)
    assert first[2] > 2
    assert first[1] == second[1] and same_bits(first[0].q, second[0].q)


def test_policy_iteration_refuses_what_it_cannot_certify(monkeypatch):
    """A round whose recurrent classes have unequal gains raises ConvergenceError naming
    the thresholds; rows that stop switching but are not threshold-shaped raise
    ThresholdStructureError with the ages where a level transmits and then idles again."""
    real = solver._exact_bias
    monkeypatch.setattr(solver, "_exact_bias", lambda *args: None)
    with pytest.raises(ConvergenceError, match=r"\[1, 1, 1, 1, 1\] have recurrent classes of"):
        solver.policy_iteration(SMALL)

    def tied(*args):  # no action loses, so none switches
        test, losses = real(*args)
        return test, np.zeros_like(losses)

    rows = np.array([[0, 1, 0, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 1, 1]], dtype=bool)
    monkeypatch.setattr(solver, "_exact_bias", tied)
    monkeypatch.setattr(solver, "_transmit_rows", lambda *args: rows)
    with pytest.raises(ThresholdStructureError, match="battery 1: transmit at age 1 but idle "
                       "again at age 2") as raised:
        solver.policy_iteration(SMALL)
    assert raised.value.witnesses == [State(1, 1), State(2, 1)]


def test_policy_iteration_stops_when_rows_repeat(monkeypatch):
    """Rows that come back to an earlier round's raise ConvergenceError after that round.

    The stub makes the action at age 1, battery 0 lose by 1.0 whichever it is: ZeroWait's
    row idles there in round 1, which adds an all-transmit row, and transmits again in
    round 2, which trims the rows back to ZeroWait's.
    """

    def flipping(rows, params):
        losses = np.zeros(rows.shape)
        losses[0, 0] = 1.0
        return None, losses

    monkeypatch.setattr(solver, "_exact_bias", flipping)
    message = r"\[1, 1, 1, 1, 1\] repeat an earlier round's"
    with pytest.raises(ConvergenceError, match=message) as raised:
        solver.policy_iteration(SMALL)
    assert raised.value.iterations == 2


SWEEP_AXES = {"p": "erasure_prob", "lambda": "harvest_prob", "omega": "energy_weight"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    battery_cap=st.integers(1, 4),
    p=st.floats(0.0, 0.95),
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    omega=st.floats(0.0, 100.0),
    axis=st.sampled_from(sorted(SWEEP_AXES)),
    values=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4),
)
def test_warm_start_from_the_neighbour_reaches_the_cold_cost_property(
    battery_cap, p, lam, omega, axis, values
):
    """Along an axis, as ``sweep`` runs it, each point starts from the thresholds of the
    point before it: its exact cost is the cold start's within 1e-12 relative, Howard's
    gap is at most 1e-9, and the thresholds fall with the battery level."""
    base = SystemParams(p, lam, omega, 2.0, battery_cap, 40)
    scale = {"p": 0.95, "lambda": 1.0, "omega": 100.0}[axis]
    start = None
    for value in values:
        point = dataclasses.replace(base, **{SWEEP_AXES[axis]: value * scale})
        _, warm, _ = solver.policy_iteration(point, start)
        _, cold, _ = solver.policy_iteration(point)
        cost = evaluate_exact(warm, point).avg_total_cost
        assert cost == pytest.approx(evaluate_exact(cold, point).avg_total_cost, rel=1e-12)
        assert solver.threshold_bias(warm, point).gap <= 1e-9
        assert list(warm.thresholds) == sorted(warm.thresholds, reverse=True)
        start = warm


def test_warm_start_may_keep_a_tied_threshold_at_equal_cost():
    """At lambda = 1 a charged battery refills in the slot it spends, so once a charged
    level transmits at age 1 the chain stays there at cost 1/(1-p), and how the battery
    climbs to it is transient: the thresholds of levels 1..19 tie. From the lambda = 0.9
    answer the warm start keeps its 2s there in fewer rounds, the cold start finds 1s,
    and gain and cost agree to the last bit."""
    near, sure = (dataclasses.replace(BENCH, harvest_prob=lam) for lam in (0.9, 1.0))
    _, start, _ = solver.policy_iteration(near)
    warm, cold = solver.policy_iteration(sure, start=start), solver.policy_iteration(sure)
    assert start.thresholds == (19,) + (2,) * 19 + (1,)
    assert warm[1].thresholds == (20,) + (2,) * 19 + (1,)
    assert cold[1].thresholds == (20,) + (1,) * 20
    assert warm[2] < cold[2]
    assert warm[0].gain == cold[0].gain
    costs = [evaluate_exact(policy, sure).avg_total_cost for policy in (warm[1], cold[1])]
    assert costs[0] == costs[1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    battery_cap=st.integers(1, 4),
    p=st.floats(0.0, 0.95),
    lam=st.sampled_from([0.0, 1.0]),
    omega=st.floats(0.0, 100.0),
    data=st.data(),
)
def test_no_falling_start_has_unequal_class_gains_property(battery_cap, p, lam, omega, data):
    """Policy iteration has no restart branch: at lambda 0 or 1, where the renewal kernel
    can have several recurrent classes, every start whose thresholds fall with the battery
    level still has equal class gains, so its first round has an exact bias to improve."""
    params = SystemParams(p, lam, omega, 2.0, battery_cap, 40)
    steps = data.draw(st.lists(st.integers(0, 12), min_size=battery_cap + 1,
                               max_size=battery_cap + 1))
    thresholds = tuple(1 + int(t) for t in np.cumsum(steps[::-1])[::-1])
    assert solver.threshold_bias(ThresholdPolicy(thresholds), params) is not None


def test_policy_iteration_refuses_a_start_that_never_transmits():
    with pytest.raises(ValueError, match="a start must transmit at every battery level"):
        solver.policy_iteration(SMALL, start=ThresholdPolicy((None, 2, 1, 1, 1)))


# ---------------------------------------------------------------------------
# Howard's test: the one exact-bias entry point


@pytest.mark.parametrize("params", [BENCH, MID, PI_CASES["tiny"][0]], ids=["bench", "mid", "tiny"])
@pytest.mark.parametrize("where", ["empty", "half", "full"])
def test_a_threshold_one_age_late_is_its_own_witness(params, where):
    """Raise one level of policy iteration's thresholds by one age: the gap is reached where
    that level now idles, and [gain - gap, gain] holds the optimal gain, its upper end the
    late policy's exact cost."""
    best, policy, _ = solver.policy_iteration(params)
    level = {"empty": 0, "half": params.battery_cap // 2, "full": params.battery_cap}[where]
    late = list(policy.thresholds)
    late[level] += 1
    test = solver.threshold_bias(ThresholdPolicy(tuple(late)), params)
    assert test.witness == State(policy.thresholds[level], level)
    assert test.gap > 1e-3
    assert test.gain - test.gap <= best.gain <= test.gain
    cost = evaluate_exact(ThresholdPolicy(tuple(late)), params).avg_total_cost
    assert test.gain == pytest.approx(cost, rel=1e-12, abs=0.0)


def test_policy_iteration_returns_the_bias_of_its_answer():
    """Policy iteration's HowardTest is threshold_bias's on its thresholds, bit for bit: at
    SMALL, and at the three points of the benchmark's p sweep, each started from the one
    before it as ``sweep`` starts them. Its rows are trimmed to the depth threshold_bias
    decodes: at p = 0.9 an all-transmit row left below them moves the tables by 4.5e-13."""
    start = None
    for params in (SMALL, *(dataclasses.replace(BENCH, erasure_prob=p) for p in (0.0, 0.3, 0.9))):
        found, policy, rounds = solver.policy_iteration(params, start)
        test = solver.threshold_bias(policy, params)
        assert test.gap <= EPSILON and rounds > 1
        assert same_bits(found.values, test.values) and same_bits(found.q, test.q)
        assert (found.gain, found.gap, found.witness) == (test.gain, test.gap, test.witness)
        start = policy if params is not SMALL else None


def test_threshold_bias_refuses_what_has_no_finite_bias():
    """A level that never transmits, or p = 1, has no exact bias to test."""
    assert solver.threshold_bias(ThresholdPolicy((None, 1, 1, 1, 1)), SMALL) is None
    certain_loss = dataclasses.replace(SMALL, erasure_prob=1.0)
    assert solver.threshold_bias(ThresholdPolicy((1,) * 5), certain_loss) is None
    assert not check_truncation_adequacy(ThresholdPolicy((1,) * 5), certain_loss)
