"""Solver tests: iteration mechanics, greedy extraction, serialization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aoi_energy import (
    ConvergenceError,
    PolicyTable,
    SolverConfig,
    State,
    SystemParams,
    ThresholdStructureError,
    ValueTable,
    bellman_qvalues,
    check_truncation_adequacy,
    extract_thresholds,
    greedy_policy,
    read_value_csv,
    solve,
    solver,
    write_value_csv,
)
from conftest import BENCH, EPSILON, MID
from reference import bellman_qvalues_gathered, greedy_policy_shortcircuit, relative_value_iteration
from reference import state_action, write_value_csv_rows

SMALL = SystemParams(
    erasure_prob=0.3,
    harvest_prob=0.4,
    energy_weight=2.0,
    backup_cost=1.5,
    battery_cap=4,
    aoi_cap=60,
)

# At cap 6 the empty-battery threshold of this instance sits beyond the grid;
# doubling the cap reveals it, so the adequacy check must fail.
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
    assert np.array_equal(policy.actions, thresholds.to_table(BENCH).actions)


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
        erasure_prob=0.0,
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
# solve re-anchors at (1, battery_cap). The last three sit next to the
# workspace's pads: the corners where lam*V or (1-lam)*V is all zeros or the
# backup costs nothing.
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
    """A threshold may move only where the doubled solve's two actions tie within epsilon.

    At p=0.5, lambda=0.9, omega=10 the doubled solve, started from the cap
    solution, transmits at battery 15 from age 2 rather than 1; the two
    actions there differ by about 5e-13, so the cap's threshold is as good.
    At the (0.9, 0.9, 100) corner the empty-battery threshold moves from 182
    to 181 across a gap of 0.88, and CRAMPED hides a threshold behind its cap.
    """
    cfg = SolverConfig(epsilon=EPSILON)
    tie = dataclasses.replace(BENCH, erasure_prob=0.5, harvest_prob=0.9, energy_weight=10.0)
    v, q = solve(tie, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, tie), tie)
    doubled = dataclasses.replace(tie, aoi_cap=2 * tie.aoi_cap)
    v2, q2 = solve(doubled, cfg, np.pad(v.values, ((0, tie.aoi_cap), (0, 0)), "edge"))
    moved = extract_thresholds(greedy_policy(v2, q2, doubled), doubled).thresholds
    assert (thresholds.thresholds[15], moved[15]) == (1, 2)  # the tie this test is about
    assert 0.0 < q2[0, 15, 1] - q2[0, 15, 0] < 1e-11
    assert check_truncation_adequacy(thresholds, tie, cfg, v.values)

    corner = dataclasses.replace(BENCH, erasure_prob=0.9, harvest_prob=0.9, energy_weight=100.0)
    v, q = solve(corner, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, corner), corner)
    assert thresholds.thresholds[0] == 182
    assert not check_truncation_adequacy(thresholds, corner, cfg, v.values)

    v, q = solve(CRAMPED, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, CRAMPED), CRAMPED)
    assert not check_truncation_adequacy(thresholds, CRAMPED, cfg, v.values)


def test_warm_doubled_solve_is_short_and_reaches_the_cold_gain(monkeypatch, bench_solution):
    """Started from the cap solution, the doubled solve needs few sweeps (1,529 from zero)."""
    v, q = bench_solution
    thresholds = extract_thresholds(greedy_policy(v, q, BENCH), BENCH)
    cfg = SolverConfig(epsilon=EPSILON)
    cold_solve, doubled_runs = solver.solve, []

    def recording(params, cfg=None, start=None):
        result = cold_solve(params, cfg, start)
        doubled_runs.append(result[0])
        return result

    monkeypatch.setattr(solver, "solve", recording)
    assert check_truncation_adequacy(thresholds, BENCH, cfg, v.values)
    (warm,) = doubled_runs
    assert warm.values.shape == (2 * BENCH.aoi_cap, BENCH.battery_cap + 1)
    assert warm.iterations <= 50
    cold, _ = cold_solve(dataclasses.replace(BENCH, aoi_cap=2 * BENCH.aoi_cap), cfg)
    assert abs(warm.gain - cold.gain) <= 1e-9


def test_truncation_inadequacy_detected():
    v, q = solve(CRAMPED, SolverConfig())
    thresholds = extract_thresholds(greedy_policy(v, q, CRAMPED), CRAMPED)
    assert thresholds.thresholds[0] is None  # the cap hides this threshold
    assert not check_truncation_adequacy(thresholds, CRAMPED, SolverConfig())


def test_truncation_adequate_once_cap_covers_thresholds():
    import dataclasses

    roomy = dataclasses.replace(CRAMPED, aoi_cap=20)
    v, q = solve(roomy, SolverConfig())
    thresholds = extract_thresholds(greedy_policy(v, q, roomy), roomy)
    assert thresholds.thresholds == (5, 4, 2)
    assert check_truncation_adequacy(thresholds, roomy, SolverConfig())


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


def test_value_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("delta,q,value\n")
    with pytest.raises(ValueError):
        read_value_csv(str(path))
