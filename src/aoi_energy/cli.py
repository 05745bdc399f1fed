"""Command-line front end.

Four subcommands: ``solve`` (single-point solve, threshold dump, structure
certificates), ``check`` (re-run the certificates on saved artifacts),
``eval`` (score explicit policies exactly or by Monte Carlo), and ``sweep``
(solve along one parameter axis and score the solved policy against the
baselines at every point, appending rows to a results CSV).

A policy whose age tail never dies scores an exact row of infinite cost (age
``inf``, energy ``nan``: no renewal to average over; note ``infinite_cost``).
Only Monte Carlo rows carry a seed.

Exit codes: 0 success, 2 usage, malformed input or an instance too large for
memory, 3 solver non-convergence (at the given or the doubled age cap), 4
structural violation, 5 truncation inadequacy: ``solve --check-truncation``
finds the age cap too small.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .evaluation import (
    BoundaryMassError,
    EvalReport,
    METHOD_EXACT,
    SimConfig,
    append_report_row,
    evaluate_exact,
    report_row_values,
    simulate,
    write_report_rows,
)
from .model import SystemParams, check_grid
from .policies import PolicySpec, parse_policy_spec, policy_label
from .solver import (
    ConvergenceError,
    SolverConfig,
    ThresholdStructureError,
    bellman_qvalues,
    check_truncation_adequacy,
    extract_thresholds,
    greedy_policy,
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
    "SweepSpec",
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

# p=0 rows are evaluation-only; the solver sees this clamped value instead.
P_SOLVE_CLAMP = 1e-9

_AXES = {"omega": "energy_weight", "lambda": "harvest_prob", "p": "erasure_prob"}

_SOLVE_ARTIFACTS = ("values.csv", "thresholds.json", "thresholds.csv", "structure_report.json")


class StructureViolationError(RuntimeError):
    """A structure certificate came back false on a solved instance."""


@dataclass(frozen=True)
class SweepSpec:
    """One-axis experiment: solve and score all policies at every value."""

    axis: str
    values: tuple[float, ...]
    fixed: SystemParams
    policies: tuple[str, ...]
    out_path: str
    epsilon: float = 1e-9
    max_iters: int = 500_000
    structure_tol: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {sorted(_AXES)}, got {self.axis!r}")
        if not self.values:
            raise ValueError("sweep needs at least one axis value")
        for value in self.values:
            if self.axis == "p" and not 0.0 <= value < 1.0:
                raise ValueError(f"p axis values must lie in [0, 1), got {value!r}")
            if self.axis == "lambda" and not 0.0 <= value <= 1.0:
                raise ValueError(f"lambda axis values must lie in [0, 1], got {value!r}")
            if self.axis == "omega" and value < 0.0:
                raise ValueError(f"omega axis values must be >= 0, got {value!r}")
        if not self.policies:
            raise ValueError("sweep needs at least one policy")


def _score_exact(spec: PolicySpec, params: SystemParams) -> tuple[EvalReport, str]:
    """Exact report and note; a policy whose age tail never dies scores inf, noted as such."""
    try:
        return evaluate_exact(spec, params), ""
    except BoundaryMassError:
        inf = float("inf")
        return EvalReport(inf, inf, float("nan"), 0.0, METHOD_EXACT), "infinite_cost"


def run_sweep(spec: SweepSpec) -> None:
    """Solve along the axis and score every policy at every grid point.

    Policy specs are parsed once, before the first solve. Any solver
    failure, threshold-structure failure, or certificate failure
    aborts the whole sweep naming the offending grid point; nothing is
    written in that case. Output rows are buffered and written once, in axis
    order and then policy order, so equal specs give byte-identical files.
    """
    _check_output(spec.out_path)
    rows: list[list] = []
    solver_cfg = SolverConfig(epsilon=spec.epsilon, max_iters=spec.max_iters)
    parsed = [None if text == "solved" else parse_policy_spec(text) for text in spec.policies]
    for value in spec.values:
        point = replace(spec.fixed, **{_AXES[spec.axis]: value})
        solver_point = point
        solved_note = ""
        if spec.axis == "p" and value == 0.0:
            solver_point = replace(point, erasure_prob=P_SOLVE_CLAMP)
            solved_note = f"solver_p_clamped={P_SOLVE_CLAMP:.0e}"
        where = f"{spec.axis}={value!r}"
        try:
            v, q = solve(solver_point, solver_cfg)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"sweep aborted at {where}: {exc}", span=exc.span, iterations=exc.iterations
            ) from exc
        try:
            thresholds = extract_thresholds(greedy_policy(v, q, solver_point), solver_point)
        except ThresholdStructureError as exc:
            raise ThresholdStructureError(
                f"sweep aborted at {where}: {exc}", witnesses=exc.witnesses
            ) from exc
        certificate = certify_structure(v, q, solver_point, spec.structure_tol)
        if not certificate.all_pass:
            raise StructureViolationError(
                f"sweep aborted at {where}: certificate failed, {certificate.to_json()}"
            )
        for policy in parsed:
            label = "solved" if policy is None else policy_label(policy)
            report, note = _score_exact(thresholds if policy is None else policy, point)
            notes = ";".join(n for n in ((solved_note if policy is None else ""), note) if n)
            rows.append(report_row_values(label, point, report, None, notes))
    write_report_rows(spec.out_path, rows)


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


def _load_params(path: str) -> SystemParams:
    with open(path) as handle:
        return SystemParams.from_json(handle.read())


def _tolerance(text: str) -> float:
    if not 0.0 <= float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return float(text)


def _apply_overrides(params: SystemParams, args: argparse.Namespace) -> SystemParams:
    if getattr(args, "aoi_cap", None) is not None:
        params = replace(params, aoi_cap=args.aoi_cap)
    return params


def run_solve(args: argparse.Namespace) -> int:
    params = _apply_overrides(_load_params(args.params), args)
    cfg = SolverConfig(epsilon=args.epsilon, max_iters=args.max_iters)
    out_dir = args.out or "."
    _check_output(out_dir, made=True)
    if os.path.isdir(out_dir):
        for name in _SOLVE_ARTIFACTS:
            _check_output(os.path.join(out_dir, name))
    if args.check_truncation:
        check_grid(2 * params.aoi_cap, params.battery_cap + 1, "doubled aoi_cap x battery levels")
    try:
        v, q = solve(params, cfg)
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    try:
        thresholds = extract_thresholds(greedy_policy(v, q, params), params)
    except ThresholdStructureError as exc:
        print(f"threshold structure violated: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
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
        print("structure certificate failed", file=sys.stderr)
        return EXIT_STRUCTURE
    if args.check_truncation:
        try:
            adequate = check_truncation_adequacy(thresholds, params, cfg, v.values)
        except ConvergenceError as exc:
            print(f"doubled aoi_cap={2 * params.aoi_cap} solve did not converge: {exc}",
                  file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        if not adequate:
            print(
                f"aoi_cap={params.aoi_cap} is inadequate: doubling it moves thresholds",
                file=sys.stderr,
            )
            return EXIT_TRUNCATION
        print("truncation adequate")
    return EXIT_OK


def run_check(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
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
    params = _apply_overrides(_load_params(args.params), args)
    sim = SimConfig(horizon=args.horizon, replications=args.reps, seed=args.seed)
    policies = [parse_policy_spec(text.strip()) for text in args.policies.split(",")]
    if args.out:
        _check_output(args.out)
    # Every policy is scored before any output, so a refused policy leaves no row behind.
    if args.method == "mc":
        scored, seed = [(report, "") for report in simulate(policies, params, sim)], sim.seed
    else:
        scored, seed = [_score_exact(policy, params) for policy in policies], None
    for policy, (report, note) in zip(policies, scored):
        label = policy_label(policy)
        print(
            f"{label}: avg_total {report.avg_total_cost!r} "
            f"(aoi {report.avg_aoi!r}, energy {report.avg_weighted_energy!r}, "
            f"ci95 {report.ci_halfwidth_95!r}, {report.method})"
        )
        if args.out:
            append_report_row(args.out, label, params, report, seed, note)
    return EXIT_OK


def _run_sweep_command(args: argparse.Namespace) -> int:
    params = _apply_overrides(_load_params(args.params), args)
    values = tuple(float(v) for v in args.values.split(","))
    policies = tuple(p.strip() for p in args.policies.split(","))
    spec = SweepSpec(
        axis=args.axis,
        values=values,
        fixed=params,
        policies=policies,
        out_path=args.out,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        structure_tol=args.structure_tol,
    )
    run_sweep(spec)
    print(f"wrote {len(values) * len(policies)} rows to {args.out}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="aoi-energy",
        description="Solve and evaluate the age-vs-backup-energy trade-off",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, solver: bool = False) -> None:
        p.add_argument("--params", required=True, help="system parameter JSON file")
        if solver:
            p.add_argument("--epsilon", type=float, default=1e-9, help="span stopping tolerance")
            p.add_argument("--max-iters", type=int, default=500_000)
            p.add_argument(
                "--structure-tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                help="certificate tolerance",
            )
        p.add_argument("--aoi-cap", type=int, default=None, help="override the age cap")

    p_solve = sub.add_parser("solve", help="solve one instance and dump artifacts")
    common(p_solve, solver=True)
    p_solve.add_argument("--out", default=None, help="output directory (default: cwd)")
    p_solve.add_argument(
        "--check-truncation", action="store_true",
        help="re-solve at twice the age cap, from this solution, and require the "
             "thresholds to stay optimal there (ties within --epsilon allowed)",
    )

    p_check = sub.add_parser("check", help="re-run structure certificates on saved values")
    p_check.add_argument("--params", required=True)
    p_check.add_argument("--values", required=True, help="value CSV from solve")
    p_check.add_argument("--structure-tol", type=_tolerance, default=DEFAULT_TOLERANCE)

    p_eval = sub.add_parser("eval", help="evaluate explicit policies")
    common(p_eval)
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
    common(p_sweep, solver=True)
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
        "sweep": _run_sweep_command,
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
        params = _apply_overrides(_load_params(args.params), args)
        grid = (f"the {params.aoi_cap} x {params.battery_cap + 1} (aoi_cap x battery levels) "
                f"grid of {params.n_states} states")
        tail = f" or the Monte Carlo horizon of {vars(args).get('horizon')} slots (a byte per slot)"
        if vars(args).get("check_truncation"):
            grid += (f" or the doubled {2 * params.aoi_cap} x {params.battery_cap + 1} grid "
                     f"of {2 * params.n_states} states")
        what = "exact evaluation" + tail if args.command == "eval" else grid
        print(f"error: out of memory for {what}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
