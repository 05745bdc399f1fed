"""The benchmark's three batch workloads: fixed inputs, timed program calls, checked answers.

Each workload is a closed loop with one caller: every call into the package
starts after the previous one returned. ``prepare`` writes the input files
(untimed), ``run`` makes the program calls, each through a ``CallTimer``
that times it, and ``check`` scores every operation against
``reference.json``.

An operation fails when it raises, exits non-zero, or returns an answer
outside the reference tolerance. A failure the reference lists as known is
still counted as failed, but does not make the run incorrect; any other
failure does.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from aoi_energy import cli, evaluation, solver
from aoi_energy.model import SystemParams
from aoi_energy.policies import ThresholdPolicy

README_INSTANCE = {"p": 0.2, "lambda": 0.5, "omega": 10.0, "c_r": 2.0,
                   "battery_cap": 20, "aoi_cap": 200}
TINY_INSTANCE = {"p": 0.2, "lambda": 0.5, "omega": 10.0, "c_r": 2.0,
                 "battery_cap": 3, "aoi_cap": 30}
SWEEP_POLICIES = ("zero-wait", "periodic:5", "periodic:10", "random:0.5", "energy-first", "solved")
ENUM_INSTANCE = {"p": 0.5, "lambda": 0.5, "omega": 1.0, "c_r": 2.0, "aoi_cap": 4}

# Sizes. "full" is what the benchmark measures; "tiny" only proves the harness runs.
SIZES = {
    "full": {
        "sweep-p": {"instance": README_INSTANCE, "p_values": (0.0, 0.3, 0.9),
                    "horizon": 200_000, "reps": 5},
        "solve-grid": {"instance": README_INSTANCE, "axis": (0.1, 0.5, 0.9),
                       "omegas": (1.0, 10.0, 100.0)},
        "cross-check": {"instance": README_INSTANCE, "batteries": (1, 2),
                        "horizon": 1_000_000, "reps": 5},
    },
    "tiny": {
        "sweep-p": {"instance": TINY_INSTANCE, "p_values": (0.0, 0.6),
                    "horizon": 2_000, "reps": 5},
        "solve-grid": {"instance": TINY_INSTANCE, "axis": (0.5,), "omegas": (1.0, 100.0)},
        "cross-check": {"instance": TINY_INSTANCE, "batteries": (1,),
                        "horizon": 20_000, "reps": 5},
    },
}


def instance_params(instance: dict, **changes) -> SystemParams:
    data = dict(instance, **changes)
    return SystemParams.from_json(json.dumps(data))


def params_key(params: SystemParams) -> str:
    """Reference lookup key: the model constants, without the age cap."""
    return json.dumps([params.erasure_prob, params.harvest_prob, params.energy_weight,
                       params.backup_cost, params.battery_cap])


def solve_grid_points(size: dict) -> list[dict]:
    axis, omegas = size["axis"], size["omegas"]
    points = [{"p": p, "lambda": lam, "omega": w} for p in axis for lam in axis for w in omegas]
    base = size["instance"]
    readme = {"p": base["p"], "lambda": base["lambda"], "omega": base["omega"]}
    if readme not in points:
        points.append(readme)
    return points


def point_id(point: dict) -> str:
    return f"p={point['p']},lambda={point['lambda']},omega={point['omega']}"


class CallTimer:
    """Times each program call of a workload body.

    With a ``sampler`` (``calibration.HostSpeed``), the sampler is active during
    each call and the time it takes itself is left out of the call's time.
    """

    def __init__(self, sampler=None):
        self.walls: list[float] = []
        self.sampler = sampler

    def __call__(self, fn, *args):
        start = time.perf_counter()
        if self.sampler is None:
            result = fn(*args)
            self.walls.append(time.perf_counter() - start)
            return result
        before = self.sampler.stolen
        with self.sampler:
            result = fn(*args)
        self.walls.append(time.perf_counter() - start - (self.sampler.stolen - before))
        return result


@dataclass
class Op:
    id: str
    ok: bool
    detail: str = ""
    # Monte Carlo answers: distance from the exact value in CI halfwidths.
    ci_multiple: float | None = None


@dataclass
class Outcome:
    """Scored operations of one workload body, plus values that must repeat exactly."""

    ops: list[Op]
    exact: dict = field(default_factory=dict)


def _call_main(argv: list[str]) -> tuple[int, str, str]:
    """Run ``aoi_energy.cli.main`` in-process with its output captured.

    Looks ``main`` up on the module at call time so a tracer installed on
    ``aoi_energy.cli.main`` sees the call.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation, not a crash
            print(f"raised {exc!r}", file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * max(1.0, abs(expected))


def _score_row(op_id: str, row: dict, expected: float, tol: dict) -> Op:
    """An exact row must match the reference; a Monte Carlo row must fall within
    a stated multiple of its own 95% CI halfwidth of the exact reference value."""
    value = float(row["avg_total"])
    if row["method"] == evaluation.METHOD_EXACT:
        ok = _close(value, expected, tol["exact_rel"])
        return Op(op_id, ok, "" if ok else f"exact {value!r} vs reference {expected!r}")
    ci = float(row["ci95"])
    multiple = abs(value - expected) / ci if ci > 0 else math.inf
    ok = multiple <= tol["mc_ci_multiple"]
    detail = "" if ok else f"monte carlo {value!r} +- {ci!r} vs exact {expected!r}"
    return Op(op_id, ok, detail, multiple)


class Workload:
    name = ""

    def __init__(self, size: dict, seed: int, reference: dict, workdir: Path):
        self.size = size
        self.seed = seed
        self.reference = reference
        self.tol = reference["tolerances"]
        self.workdir = workdir

    def _write_params(self, name: str, params: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(params) + "\n")
        return str(path)

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, timer: CallTimer):
        raise NotImplementedError

    def check(self, raw) -> Outcome:
        raise NotImplementedError


class SweepP(Workload):
    """``aoi-energy sweep --axis p`` at the README instance, all six policy kinds.

    Evaluation does most of the work: exact evaluation on the 400/800/1600
    age-cap ladder and the Monte Carlo fallback at p=0.9. p=0 takes the
    solver clamp. One operation is one output row.
    """

    name = "sweep-p"

    def prepare(self) -> None:
        self.params_file = self._write_params("params.json", self.size["instance"])
        self.out = self.workdir / "sweep.csv"
        self.argv = [
            "sweep", "--params", self.params_file, "--axis", "p",
            "--values", ",".join(repr(p) for p in self.size["p_values"]),
            "--policies", ",".join(SWEEP_POLICIES),
            "--horizon", str(self.size["horizon"]), "--reps", str(self.size["reps"]),
            "--seed", str(self.seed), "--out", str(self.out),
        ]

    def run(self, timer: CallTimer):
        self.out.unlink(missing_ok=True)
        return timer(_call_main, self.argv)

    def check(self, raw) -> Outcome:
        code, _, err = raw
        expected = self.reference["rows"]
        ids = [f"p={r['p']}/{r['policy']}" for r in expected]
        if code != 0 or not self.out.exists():
            return Outcome([Op(i, False, f"exit {code}: {err.strip()}") for i in ids])
        rows = _read_rows(self.out)
        ops = []
        for i, (row, ref) in enumerate(zip(rows, expected)):
            if float(row["p"]) != ref["p"] or row["policy"] != ref["policy"]:
                ops.append(Op(ids[i], False, f"row {i} is {row['policy']} at p={row['p']}"))
                continue
            ops.append(_score_row(ids[i], row, ref["value"], self.tol))
        ops.extend(Op(i, False, "row missing") for i in ids[len(rows):])
        if len(rows) > len(expected):
            ops.append(Op("extra-rows", False, f"{len(rows)} rows, expected {len(expected)}"))
        self._check_dominance(rows, ids, ops)
        return Outcome(ops, {"rows": len(rows), "csv_sha256": _sha256(self.out)})

    def _check_dominance(self, rows: list[dict], ids: list[str], ops: list[Op]) -> None:
        """The solved policy costs no more than any baseline (plus its CI when simulated)."""
        by_p: dict[str, list[int]] = {}
        for i, row in enumerate(rows[:len(ids)]):
            by_p.setdefault(row["p"], []).append(i)
        for members in by_p.values():
            solved = [i for i in members if rows[i]["policy"] == "solved"]
            if len(solved) != 1:
                continue
            cost = float(rows[solved[0]]["avg_total"])
            for i in members:
                row = rows[i]
                slack = float(row["ci95"]) if row["method"] != evaluation.METHOD_EXACT else 0.0
                if cost > float(row["avg_total"]) + slack + 1e-9:
                    op = ops[solved[0]]
                    op.ok = False
                    op.detail += f" solved {cost!r} above {row['policy']} {row['avg_total']}"


class SolveGrid(Workload):
    """``aoi-energy solve --check-truncation`` over the 3x3x3 corner/centre grid.

    The solver does almost all the work (a solve, then a second solve at the
    doubled cap); evaluation does none. One operation is one grid point.
    """

    name = "solve-grid"

    def prepare(self) -> None:
        points = solve_grid_points(self.size)
        random.Random(self.seed).shuffle(points)
        self.jobs = []
        for k, point in enumerate(points):
            path = self._write_params(f"point{k}.json", {**self.size["instance"], **point})
            out = self.workdir / f"point{k}"
            self.jobs.append((point_id(point), ["solve", "--params", path, "--out", str(out),
                                                "--check-truncation"]))

    def run(self, timer: CallTimer):
        return [(op_id, timer(_call_main, argv)) for op_id, argv in self.jobs]

    def check(self, raw) -> Outcome:
        expected = {p["id"]: p for p in self.reference["points"]}
        ops = []
        sweeps = 0
        for op_id, (code, out, err) in raw:
            ref = expected[op_id]
            gain = re.search(r"^gain (\S+) after (\d+) sweeps", out, re.M)
            thresholds = re.search(r"^thresholds (.*)$", out, re.M)
            if gain:
                sweeps += int(gain.group(2))
            if code != 0:
                ops.append(Op(op_id, False, f"exit {code}: {err.strip()}"))
                continue
            if not (gain and thresholds):
                ops.append(Op(op_id, False, "no gain or thresholds printed"))
                continue
            got_gain = float(gain.group(1))
            got = json.loads(thresholds.group(1))
            problems = []
            if not abs(got_gain - ref["gain"]) <= self.tol["gain_abs"]:
                problems.append(f"gain {got_gain!r} vs reference {ref['gain']!r}")
            if got != ref["thresholds"]:
                moved = [q for q, (a, b) in enumerate(zip(got, ref["thresholds"])) if a != b]
                problems.append(f"thresholds differ from reference at batteries {moved}")
            ops.append(Op(op_id, not problems, "; ".join(problems)))
        return Outcome(ops, {"points": len(raw), "printed_sweeps": sweeps})


class CrossCheck(Workload):
    """The two independent oracles.

    Brute-force enumeration of every action table at age cap 4, compared
    with ``solve``; then ``aoi-energy eval --method mc`` for all six policy
    kinds at the README instance, compared with exact values. One operation
    is one enumeration or one policy score.
    """

    name = "cross-check"

    def prepare(self) -> None:
        self.enum_params = [
            instance_params(ENUM_INSTANCE, battery_cap=b) for b in self.size["batteries"]
        ]
        tp = ThresholdPolicy(thresholds=tuple(self.reference["solved_thresholds"]))
        tp_file = self.workdir / "solved_thresholds.json"
        tp_file.write_text(tp.to_json() + "\n")
        params_file = self._write_params("params.json", self.size["instance"])
        self.policies = [p if p != "solved" else f"threshold:{tp_file}" for p in SWEEP_POLICIES]
        random.Random(self.seed).shuffle(self.policies)
        self.out = self.workdir / "eval.csv"
        self.argv = [
            "eval", "--params", params_file, "--method", "mc",
            "--policies", ",".join(self.policies),
            "--horizon", str(self.size["horizon"]), "--reps", str(self.size["reps"]),
            "--seed", str(self.seed), "--out", str(self.out),
        ]

    @staticmethod
    def _enumerate(params: SystemParams) -> tuple:
        try:
            table, best = evaluation.enumerate_optimal(params)
            v, _ = solver.solve(params, solver.SolverConfig(epsilon=1e-9))
            return table, best, v.gain, None
        except Exception as exc:  # a raising oracle is a failed operation
            return None, math.nan, math.nan, repr(exc)

    def run(self, timer: CallTimer):
        enumerations = [timer(self._enumerate, params) for params in self.enum_params]
        self.out.unlink(missing_ok=True)
        return enumerations, timer(_call_main, self.argv)

    def check(self, raw) -> Outcome:
        enumerations, (code, _, err) = raw
        ops = []
        for params, (table, best, gain, error), ref in zip(
            self.enum_params, enumerations, self.reference["enumeration"]
        ):
            op_id = f"enumerate/B={params.battery_cap}"
            if error is not None:
                ops.append(Op(op_id, False, error))
                continue
            problems = []
            if not abs(best - gain) <= self.tol["gain_abs"]:
                problems.append(f"enumerated {best!r} vs solved {gain!r}")
            if not _close(best, ref["gain"], self.tol["exact_rel"]):
                problems.append(f"enumerated {best!r} vs reference {ref['gain']!r}")
            try:
                solver.extract_thresholds(table, params)
            except solver.ThresholdStructureError as exc:
                problems.append(f"enumerated optimum not threshold-shaped: {exc}")
            ops.append(Op(op_id, not problems, "; ".join(problems)))

        expected = self.reference["eval"]
        labels = ["solved" if p.startswith("threshold:") else p for p in self.policies]
        if code != 0 or not self.out.exists():
            ops.extend(Op(f"mc/{label}", False, f"exit {code}: {err.strip()}") for label in labels)
            return Outcome(ops)
        rows = _read_rows(self.out)
        for label, row in zip(labels, rows):
            program_label = "threshold" if label == "solved" else label
            if row["policy"] != program_label or row["method"] != evaluation.METHOD_MONTE_CARLO:
                ops.append(Op(f"mc/{label}", False, f"got {row['policy']} by {row['method']}"))
                continue
            ops.append(_score_row(f"mc/{label}", row, expected[label], self.tol))
        ops.extend(Op(f"mc/{label}", False, "row missing") for label in labels[len(rows):])
        exact = {"enumerated": [repr(e[1]) for e in enumerations], "eval_rows": len(rows),
                 "eval_csv_sha256": _sha256(self.out)}
        return Outcome(ops, exact)


WORKLOAD_CLASSES = {cls.name: cls for cls in (SweepP, SolveGrid, CrossCheck)}


def make(name: str, size_name: str, seed: int, reference: dict, workdir: Path) -> Workload:
    """A prepared workload whose input files live in a fresh ``workdir``."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOAD_CLASSES[name](
        SIZES[size_name][name], seed, dict(reference[size_name][name],
                                           tolerances=reference["tolerances"]), workdir
    )
    workload.prepare()
    return workload
