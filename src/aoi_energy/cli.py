"""Command-line front end.

Four subcommands: ``solve`` (single-point solve, threshold dump, structure
certificates), ``check`` (re-run the certificates on saved artifacts),
``eval`` (score explicit policies exactly or by Monte Carlo), and ``sweep``
(solve along one parameter axis and score the solved policy against the
baselines at every point, writing the rows to a results CSV once, in place
of any earlier file).

A policy whose age tail never dies scores an exact row of infinite cost (age
``inf``, energy ``nan``: no renewal to average over; note ``infinite_cost``).
Only Monte Carlo rows carry a seed.

Exit codes: 0 success, 2 usage, malformed input or an instance too large for
memory, 3 solver non-convergence, 4 structural violation, 5 truncation
inadequacy: ``solve --check-truncation`` finds the solved thresholds not
optimal on the untruncated chain, so the age cap is too small.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from .evaluation import (
    BoundaryMassError,
    CSV_COLUMNS,
    EvalReport,
    METHOD_EXACT,
    SimConfig,
    _slot_kernels,
    evaluate_exact,
    report_row_values,
    simulate,
    write_report_rows,
)
from .model import SystemParams
from .policies import PolicySpec, parse_policy_spec, policy_label
from .solver import (
    ConvergenceError,
    SolverConfig,
    ThresholdStructureError,
    bellman_qvalues,
    check_truncation_adequacy,
    extract_thresholds,
    greedy_policy,
    policy_iteration,
    read_value_csv,
    solve,
    write_value_csv,
)
from .structure import DEFAULT_TOLERANCE, certify_structure

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_NO_CONVERGENCE",
    "EXIT_STRUCTURE",
    "EXIT_TRUNCATION",
    "StructureViolationError",
    "run_solve",
    "run_check",
    "run_eval",
    "run_sweep",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_STRUCTURE = 4
EXIT_TRUNCATION = 5

# Unused by the package, which solves p = 0 as given; perfbench/make_reference.py imports it.
P_SOLVE_CLAMP = 1e-9

_AXES = {"omega": "energy_weight", "lambda": "harvest_prob", "p": "erasure_prob"}

_SOLVE_ARTIFACTS = ("values.csv", "thresholds.json", "thresholds.csv", "structure_report.json")


class StructureViolationError(RuntimeError):
    """A structure certificate came back false on a solved instance."""


def _score_exact(spec: PolicySpec, params: SystemParams) -> tuple[EvalReport, str]:
    """Exact report and note; a policy whose age tail never dies scores inf, noted as such."""
    try:
        return evaluate_exact(spec, params), ""
    except BoundaryMassError:
        inf = float("inf")
        return EvalReport(inf, inf, float("nan"), 0.0, METHOD_EXACT), "infinite_cost"


def _check_output(path: str, made: bool = False) -> None:
    """Refuse an output path that cannot be written, before any work; create nothing.

    A file must not be a directory and its directory must exist. A directory
    that ``made`` says the writer creates may be missing up to its nearest
    existing ancestor. Whatever exists must be writable.
    """
    target = os.path.abspath(path)
    if os.path.exists(target):
        if os.path.isdir(target) != made:
            raise OSError(f"cannot write {path!r}: it {'is not' if made else 'is'} a directory")
        if not os.access(target, os.W_OK | (os.X_OK if made else 0)):
            raise OSError(f"cannot write {path!r}: permission denied")
        return
    parent = os.path.dirname(target)
    while made and not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        why = "is not a directory" if os.path.lexists(parent) else "does not exist"
        raise OSError(f"cannot write {path!r}: {parent!r} {why}")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise OSError(f"cannot write {path!r}: permission denied in {parent!r}")


def _load_params(args: argparse.Namespace) -> SystemParams:
    """The ``--params`` file's instance, at the ``--aoi-cap`` override where one is given."""
    with open(args.params) as handle:
        params = SystemParams.from_json(handle.read())
    cap = vars(args).get("aoi_cap")
    return params if cap is None else replace(params, aoi_cap=cap)


def _tolerance(text: str) -> float:
    if not 0.0 <= float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return float(text)


def run_solve(args: argparse.Namespace) -> int:
    params = _load_params(args)
    cfg = SolverConfig(epsilon=args.epsilon, max_iters=args.max_iters)
    out_dir = args.out or "."
    _check_output(out_dir, made=True)
    if os.path.isdir(out_dir):
        for name in _SOLVE_ARTIFACTS:
            _check_output(os.path.join(out_dir, name))
    v, q = solve(params, cfg)
    thresholds = extract_thresholds(greedy_policy(v, q, params), params)
    report = certify_structure(v, q, params, args.structure_tol)

    os.makedirs(out_dir, exist_ok=True)
    values_csv, thresholds_json, thresholds_csv, report_json = (
        os.path.join(out_dir, name) for name in _SOLVE_ARTIFACTS
    )
    write_value_csv(values_csv, v)
    with open(thresholds_json, "w") as handle:
        handle.write(thresholds.to_json() + "\n")
    thresholds.write_csv(thresholds_csv)
    with open(report_json, "w") as handle:
        handle.write(report.to_json() + "\n")

    print(f"gain {v.gain!r} after {v.iterations} sweeps (span {v.final_span:.3e})")
    print("thresholds " + json.dumps(list(thresholds.thresholds)))
    print("certificates " + report.to_json())
    if not report.all_pass:
        raise StructureViolationError("structure certificate failed")
    if args.check_truncation:
        if not check_truncation_adequacy(thresholds, params, cfg):
            print(
                f"aoi_cap={params.aoi_cap} is inadequate: the thresholds are not optimal "
                "on the untruncated chain",
                file=sys.stderr,
            )
            return EXIT_TRUNCATION
        print("truncation adequate")
    return EXIT_OK


def run_check(args: argparse.Namespace) -> int:
    params = _load_params(args)
    values = read_value_csv(args.values)
    if values.shape != params.grid_shape:
        raise ValueError(
            f"value CSV grid {values.shape} does not match params grid {params.grid_shape}"
        )
    q = np.stack(bellman_qvalues(values, params), axis=-1)
    report = certify_structure(values, q, params, args.structure_tol)
    print(report.to_json())
    return EXIT_OK if report.all_pass else EXIT_STRUCTURE


def run_eval(args: argparse.Namespace) -> int:
    params = _load_params(args)
    sim = SimConfig(horizon=args.horizon, replications=args.reps, seed=args.seed)
    policies = [parse_policy_spec(text.strip()) for text in args.policies.split(",")]
    if args.out:
        _check_output(args.out)
        header = ",".join(CSV_COLUMNS)
        if os.path.exists(args.out) and os.path.getsize(args.out):
            with open(args.out) as handle:
                text = handle.read()
            if not (text.startswith(header + "\n") and text.endswith("\n")):
                raise ValueError(f"cannot append to {args.out!r}: it does not start with the "
                                 f"results header {header!r} and end in a newline")
    # Every policy is scored before any output, so a refused policy leaves no row behind.
    if args.method == "mc":
        scored, seed = [(report, "") for report in simulate(policies, params, sim)], sim.seed
    else:
        scored, seed = [_score_exact(policy, params) for policy in policies], None
    rows = []
    for policy, (report, note) in zip(policies, scored):
        label = policy_label(policy)
        print(
            f"{label}: avg_total {report.avg_total_cost!r} "
            f"(aoi {report.avg_aoi!r}, energy {report.avg_weighted_energy!r}, "
            f"ci95 {report.ci_halfwidth_95!r}, {report.method})"
        )
        rows.append(report_row_values(label, params, report, seed, note))
    if args.out:
        write_report_rows(args.out, rows, append=True)
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    """Solve along the axis and score every policy at every grid point.

    Every point is held to the solver's domain (``validate_for_solve``) and the
    slot kernels' bound, the output path checked and every policy spec parsed,
    all before the first solve. Each point is solved where it is scored, by
    :func:`policy_iteration`, whose exact bias the certificates read. A solver
    or certificate failure aborts the whole sweep naming the grid point, and
    nothing is written. Output rows are buffered and written once, in axis
    order and then policy order, so equal arguments give byte-identical files.
    """
    fixed = _load_params(args)
    values = [float(text) for text in args.values.split(",")]
    points = [replace(fixed, **{_AXES[args.axis]: value}) for value in values]
    for point in points:
        point.validate_for_solve()
    _slot_kernels(fixed, 1)  # refuses B >= 1024 before any solve: exact evaluation needs them
    _check_output(args.out)
    policies = [text.strip() for text in args.policies.split(",")]
    parsed = [None if text == "solved" else parse_policy_spec(text) for text in policies]
    solver_cfg = SolverConfig(epsilon=args.epsilon, max_iters=args.max_iters)
    rows: list[list] = []
    for value, point in zip(values, points):
        try:
            v, q, thresholds = policy_iteration(point, solver_cfg)
            certificate = certify_structure(v, q, point, args.structure_tol)
            if not certificate.all_pass:
                raise StructureViolationError(f"certificate failed, {certificate.to_json()}")
        except (ConvergenceError, StructureViolationError) as exc:
            exc.args = (f"sweep aborted at {args.axis}={value!r}: {exc}",)
            raise
        for policy in parsed:
            label = "solved" if policy is None else policy_label(policy)
            report, note = _score_exact(thresholds if policy is None else policy, point)
            rows.append(report_row_values(label, point, report, None, note))
    write_report_rows(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="aoi-energy",
        description="Solve and evaluate the age-vs-backup-energy trade-off",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def solver_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", required=True, help="system parameter JSON file")
        p.add_argument("--epsilon", type=float, default=SolverConfig.epsilon,
                       help="span stopping tolerance (solve), improvement margin (sweep)")
        p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
        p.add_argument(
            "--structure-tol", type=_tolerance, default=DEFAULT_TOLERANCE,
            help="certificate tolerance",
        )
        p.add_argument("--aoi-cap", type=int, default=None, help="override the age cap")

    p_solve = sub.add_parser("solve", help="solve one instance and dump artifacts")
    solver_options(p_solve)
    p_solve.add_argument("--out", default=None, help="output directory (default: cwd)")
    p_solve.add_argument(
        "--check-truncation", action="store_true",
        help="require the thresholds to be greedy, within --epsilon, for their own "
             "exact bias on the untruncated chain",
    )

    p_check = sub.add_parser("check", help="re-run structure certificates on saved values")
    p_check.add_argument("--params", required=True)
    p_check.add_argument("--values", required=True, help="value CSV from solve")
    p_check.add_argument("--structure-tol", type=_tolerance, default=DEFAULT_TOLERANCE)

    p_eval = sub.add_parser("eval", help="evaluate explicit policies")
    p_eval.add_argument("--params", required=True, help="system parameter JSON file")
    p_eval.add_argument(
        "--policies", required=True,
        help="comma list: zero-wait, energy-first, periodic:5, random:0.5, threshold:tp.json",
    )
    p_eval.add_argument(
        "--method", choices=("exact", "mc"), default="exact",
        help="exact is over the untruncated chain, an infinite cost included",
    )
    p_eval.add_argument("--horizon", type=int, default=200_000,
                        help="Monte Carlo slots per replication; the first tenth is uncounted")
    p_eval.add_argument("--reps", type=int, default=10, help="Monte Carlo replications")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", default=None, help="append result rows to this CSV")

    p_sweep = sub.add_parser("sweep", help="solve along one axis and score all policies")
    solver_options(p_sweep)
    # The benchmark's sweep command still passes these Monte Carlo flags; sweep reads none.
    for flag in ("--horizon", "--reps", "--seed"):
        p_sweep.add_argument(flag, help=argparse.SUPPRESS)
    p_sweep.add_argument("--axis", required=True, choices=sorted(_AXES))
    p_sweep.add_argument("--values", required=True, help="comma list of axis values")
    p_sweep.add_argument(
        "--policies", required=True,
        help="comma list of policy specs; 'solved' means the per-point solved policy",
    )
    p_sweep.add_argument("--out", required=True, help="results CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    runners = {
        "solve": run_solve,
        "check": run_check,
        "eval": run_eval,
        "sweep": run_sweep,
    }
    try:
        return runners[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ThresholdStructureError, StructureViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        params = _load_params(args)
        what = (f"the {params.aoi_cap} x {params.battery_cap + 1} (aoi_cap x battery levels) "
                f"grid of {params.n_states} states")
        if args.command == "eval":  # name only the evaluator that ran
            what = (f"the Monte Carlo horizon of {args.horizon} slots (a byte per slot)"
                    if args.method == "mc" else "exact evaluation")
        print(f"error: out of memory for {what}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
