"""Command-line tests: exit codes, artifacts, and byte-level determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoi_energy
from aoi_energy import Randomized, SimConfig, SystemParams, ZeroWait, evaluate_exact, simulate
from aoi_energy.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_STRUCTURE,
    EXIT_TRUNCATION,
    EXIT_USAGE,
    main,
)
from aoi_energy import cli, evaluation, solver
from aoi_energy.evaluation import MAX_HORIZON, MAX_REPLICATIONS, METHOD_EXACT, METHOD_MONTE_CARLO
from aoi_energy.model import MAX_GRID_STATES
from aoi_energy.policies import ThresholdPolicy
from aoi_energy.solver import ConvergenceError
from aoi_energy.structure import DEFAULT_TOLERANCE
from conftest import refuse_allocation
from reference import params_to_json, read_threshold_csv, read_value_csv
from reference import structure_report_from_json

SOLVE_PARAMS = SystemParams(
    erasure_prob=0.3,
    harvest_prob=0.4,
    energy_weight=2.0,
    backup_cost=1.5,
    battery_cap=4,
    aoi_cap=60,
)

# energy-first has the heaviest age tail of the tested policies; cap 150
# keeps its stationary boundary mass well under the exact-eval guard.
EVAL_PARAMS = SystemParams(
    erasure_prob=0.3,
    harvest_prob=0.4,
    energy_weight=2.0,
    backup_cost=1.5,
    battery_cap=3,
    aoi_cap=150,
)

# At aoi_cap=6 the empty battery gets no threshold, where the untruncated
# chain has one, so the adequacy check must reject this instance.
CRAMPED = SystemParams(
    erasure_prob=0.2,
    harvest_prob=0.3,
    energy_weight=5.0,
    backup_cost=2.0,
    battery_cap=2,
    aoi_cap=6,
)


def params_file(tmp_path, params, name="params.json"):
    path = tmp_path / name
    path.write_text(params_to_json(params) + "\n")
    return str(path)


def thresholds_file(tmp_path, thresholds, name="thresholds.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"thresholds": thresholds}) + "\n")
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "missing" / "nested" / "run"  # every missing ancestor is made
    code = main(["solve", "--params", params_file(tmp_path, SOLVE_PARAMS), "--out", str(out)])
    assert code == EXIT_OK

    values = read_value_csv(str(out / "values.csv"))
    assert values.shape == SOLVE_PARAMS.grid_shape
    thresholds = ThresholdPolicy.from_json((out / "thresholds.json").read_text())
    assert thresholds.battery_cap == SOLVE_PARAMS.battery_cap
    assert read_threshold_csv(str(out / "thresholds.csv")) == thresholds
    report = structure_report_from_json((out / "structure_report.json").read_text())
    assert report.all_pass

    printed = capsys.readouterr().out
    assert "gain" in printed and "thresholds" in printed


def test_solve_at_cap_two_writes_a_readable_report(tmp_path, capsys):
    """At aoi_cap 2 only the battery pairs are checked; the report still round-trips."""
    out = tmp_path / "run"
    pfile = params_file(tmp_path, dataclasses.replace(SOLVE_PARAMS, aoi_cap=2))
    assert main(["solve", "--params", pfile, "--out", str(out)]) == EXIT_OK
    text = (out / "structure_report.json").read_text()
    report = structure_report_from_json(text)
    assert report.to_json() + "\n" == text
    assert report.all_pass
    low, high = report.witness
    assert (high.aoi, high.battery) == (low.aoi, low.battery + 1)


def test_solve_is_deterministic(tmp_path):
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    for name in ("a", "b"):
        assert main(["solve", "--params", pfile, "--out", str(tmp_path / name)]) == EXIT_OK
    for artifact in ("values.csv", "thresholds.json", "thresholds.csv"):
        assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()


def test_solve_rejects_inadequate_cap(tmp_path, capsys):
    code = main(
        [
            "solve",
            "--params",
            params_file(tmp_path, CRAMPED),
            "--out",
            str(tmp_path / "run"),
            "--check-truncation",
        ]
    )
    assert code == EXIT_TRUNCATION
    err = capsys.readouterr().err
    assert "aoi_cap=6 is inadequate" in err and "untruncated chain" in err


def test_solve_refuses_thresholds_of_infinite_cost(tmp_path, capsys):
    """Without harvest the solve at cap 50 never transmits: delivery is not certain, exit 5."""
    pfile = tmp_path / "params.json"
    pfile.write_text('{"p": 0.2, "lambda": 0.0, "omega": 1000.0, "c_r": 1000.0, '
                     '"battery_cap": 1, "aoi_cap": 50}\n')
    out = tmp_path / "run"
    argv = ["solve", "--params", str(pfile), "--out", str(out), "--check-truncation"]
    assert main(argv) == EXIT_TRUNCATION
    assert "inadequate" in capsys.readouterr().err
    thresholds = ThresholdPolicy.from_json((out / "thresholds.json").read_text())
    assert thresholds.thresholds == (None, None)
    with pytest.raises(evaluation.BoundaryMassError):
        evaluate_exact(thresholds, SystemParams.from_json(pfile.read_text()))


def test_solve_accepts_adequate_cap(tmp_path, capsys):
    roomy = dataclasses.replace(CRAMPED, aoi_cap=20)
    code = main(
        [
            "solve",
            "--params",
            params_file(tmp_path, roomy),
            "--out",
            str(tmp_path / "run"),
            "--check-truncation",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "truncation adequate"
    # solve-grid reads the lines that begin "gain " and "thresholds ": the bounds are neither
    assert [line.split()[0] for line in lines] == ["gain", "thresholds", "certificates",
                                                   "optimal", "truncation"]
    low, high = (float(x) for x in lines[-2].split("[")[1].split("]")[0].split(", "))
    assert 0.0 <= high - low <= 1e-9
    cost = evaluate_exact(ThresholdPolicy((5, 4, 2)), roomy).avg_total_cost
    assert high == pytest.approx(cost, rel=1e-12)


def test_solve_missing_params_file(tmp_path, capsys):
    assert main(["solve", "--params", str(tmp_path / "nope.json")]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_solve_malformed_params(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--params", str(bad)]) == EXIT_USAGE


@pytest.mark.parametrize("key", ["p", "lambda", "omega", "c_r", "battery_cap", "aoi_cap"])
def test_params_reject_json_booleans(tmp_path, capsys, key):
    payload = json.loads(params_to_json(SOLVE_PARAMS))
    payload[key] = True
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--params", str(bad), "--policies", "zero-wait"]) == EXIT_USAGE
    assert f"{key!r} must be" in capsys.readouterr().err


def test_solve_nonconvergence_exit(tmp_path, monkeypatch, capsys):
    """A solve that runs out of sweeps exits 3, naming the budget."""
    monkeypatch.setattr(solver, "MAX_SWEEPS", 2)
    code = main(["solve", "--params", params_file(tmp_path, SOLVE_PARAMS),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: value iteration did not converge: span ")
    assert err.endswith(" after 2 sweeps\n")


def test_parser_reuse_leaks_no_option(tmp_path, capsys):
    """The parser is built once per process; options of one call do not reach the next."""
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["solve", "--params", pfile, "--out", str(first), "--check-truncation"]
    assert main(argv) == EXIT_OK
    assert "truncation adequate" in capsys.readouterr().out
    assert main(["solve", "--params", pfile, "--out", str(second)]) == EXIT_OK
    assert "truncation" not in capsys.readouterr().out
    assert sorted(path.name for path in second.iterdir()) == sorted(cli._SOLVE_ARTIFACTS)


@pytest.mark.parametrize(
    "command, place",
    [
        ("solve", "under-file"),
        ("solve", "artifact-is-dir"),
        ("eval-mc", "missing-dir"),
        ("eval-exact", "under-file"),
        ("eval-mc", "is-dir"),
        ("sweep", "missing-dir"),
        ("sweep", "is-dir"),
        ("solve", "denied-dir"),
        ("solve", "denied-parent"),
    ],
)
def test_unwritable_output_fails_before_any_work(tmp_path, monkeypatch, capsys, command, place):
    """Exit 2 naming the output path before any solve or draw, and create no file.

    Permission is denied through ``os.access``, which passes any mode bits for root.
    """

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{command} reached the work with output {place}")

    for name in ("solve", "policy_iteration", "simulate", "evaluate_exact"):
        monkeypatch.setattr(aoi_energy.cli, name, must_not_run)
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "values.csv").mkdir()
    out = {
        "under-file": tmp_path / "file" / "sub",
        "missing-dir": tmp_path / "missing" / "rows.csv",
        "is-dir": tmp_path / "dir",
        "artifact-is-dir": tmp_path / "dir",
        "denied-dir": tmp_path / "dir",
        "denied-parent": tmp_path / "new",
    }[place]
    if place.startswith("denied"):
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    eval_args = ["eval", "--params", pfile, "--policies", "zero-wait", "--horizon", "100",
                 "--reps", "2", "--out", str(out), "--method"]
    argv = {
        "solve": ["solve", "--params", pfile, "--out", str(out)],
        "eval-mc": eval_args + ["mc"],
        "eval-exact": eval_args + ["exact"],
        "sweep": sweep_args(pfile, out, "omega", "2.0", "zero-wait,solved"),
    }[command]
    before = sorted(str(path) for path in tmp_path.rglob("*"))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out) in captured.err
    denied = {"denied-dir": ": permission denied\n",
              "denied-parent": f"permission denied in {str(tmp_path)!r}"}
    assert denied.get(place, "") in captured.err
    assert sorted(str(path) for path in tmp_path.rglob("*")) == before


def false_certificate(monkeypatch):
    """Make every certificate the CLI computes fail its submodularity check."""
    real = cli.certify_structure

    def certify(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), submodular_q=False)

    monkeypatch.setattr(cli, "certify_structure", certify)


def test_solve_with_a_false_certificate_exits_4_after_writing(tmp_path, monkeypatch, capsys):
    """The four artifacts are written and the certificates printed before the exit."""
    false_certificate(monkeypatch)
    out = tmp_path / "run"
    argv = ["solve", "--params", params_file(tmp_path, SOLVE_PARAMS), "--out", str(out)]
    assert main(argv) == EXIT_STRUCTURE
    captured = capsys.readouterr()
    assert "error: structure certificate failed" in captured.err
    assert sorted(path.name for path in out.iterdir()) == sorted(cli._SOLVE_ARTIFACTS)
    text = (out / "structure_report.json").read_text()
    assert not structure_report_from_json(text).submodular_q
    assert "certificates " + text in captured.out


def test_solve_with_a_table_that_idles_after_transmitting_exits_4(tmp_path, monkeypatch, capsys):
    """A greedy table that transmits at age 3 and idles at age 5 has no threshold to write."""

    def greedy(v, q, params):
        actions = np.ones(params.grid_shape, dtype=np.int8)
        actions[[0, 1, 4], 2] = 0
        return actions

    monkeypatch.setattr(cli, "greedy_policy", greedy)
    out = tmp_path / "run"
    argv = ["solve", "--params", params_file(tmp_path, SOLVE_PARAMS), "--out", str(out)]
    assert main(argv) == EXIT_STRUCTURE
    assert "error: battery 2: transmit at age 3 but idle again at age 5" in capsys.readouterr().err
    assert not out.exists()


def test_a_valid_structure_tolerance_reaches_the_report(tmp_path, capsys):
    """The certificates of solve and check are held to the one default tolerance."""
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    out = tmp_path / "run"
    assert main(["solve", "--params", pfile, "--out", str(out)]) == EXIT_OK
    report = structure_report_from_json((out / "structure_report.json").read_text())
    assert report.tolerance == DEFAULT_TOLERANCE
    capsys.readouterr()
    argv = ["check", "--params", pfile, "--thresholds", str(out / "thresholds.json")]
    assert main(argv) == EXIT_OK
    report = capsys.readouterr().out.splitlines()[0]
    assert structure_report_from_json(report).tolerance == DEFAULT_TOLERANCE


@pytest.mark.parametrize(
    "p, lam, omega, code",
    [(0.2, 0.5, 10.0, EXIT_OK), (0.5, 0.9, 10.0, EXIT_OK), (0.9, 0.9, 100.0, EXIT_TRUNCATION)],
    ids=["readme", "p-half-lambda-0.9", "corner"],
)
def test_check_truncation_and_check_give_one_verdict(tmp_path, capsys, p, lam, omega, code):
    """solve --check-truncation and check of its thresholds print the same bounds and exit
    alike: both judge Howard's gap at the one epsilon, ``solver.EPSILON``."""
    pfile = params_file(tmp_path, SystemParams(p, lam, omega, 2.0, 20, 200))
    out = tmp_path / "run"
    assert main(["solve", "--params", pfile, "--out", str(out), "--check-truncation"]) == code
    (solved,) = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("optimal cost in [")]
    argv = ["check", "--params", pfile, "--thresholds", str(out / "thresholds.json")]
    assert main(argv) == code
    (checked,) = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("optimal cost in [")]
    assert checked == solved


def test_check_round_trip(tmp_path, capsys):
    """check certifies solve's thresholds on their exact bias; increasing ones exit 4."""
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    out = tmp_path / "run"
    assert main(["solve", "--params", pfile, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()

    code = main(["check", "--params", pfile, "--thresholds", str(out / "thresholds.json")])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    report, bounds = captured.out.splitlines()
    assert structure_report_from_json(report).all_pass
    assert bounds.startswith("optimal cost in [") and "Howard's gap" in bounds
    assert captured.err == ""

    # Thresholds that rise with the battery break the certificates, which check must flag.
    tampered = thresholds_file(tmp_path, [1, 2, 3, 4, 5], "tampered.json")
    assert main(["check", "--params", pfile, "--thresholds", tampered]) == EXIT_STRUCTURE
    report, bounds = capsys.readouterr().out.splitlines()
    assert not structure_report_from_json(report).all_pass
    assert bounds.endswith("at age 2, battery 3")


def test_check_rejects_malformed_values(tmp_path, capsys):
    """A thresholds file that is not JSON exits 2 before any work."""
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    bad = tmp_path / "thresholds.json"
    bad.write_text("x,y,z\n1,2,3\n")
    assert main(["check", "--params", pfile, "--thresholds", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_repeated_input_entries_exit_usage(tmp_path, capsys):
    """check, solve and eval refuse a repeated JSON key by name, with exit 2."""
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    policy = tmp_path / "tp.json"
    policy.write_text('{"thresholds": [null, 2, 1, 1, 1], "thresholds": [1, 1, 1, 1, 1]}')
    assert main(["check", "--params", pfile, "--thresholds", str(policy)]) == EXIT_USAGE
    assert "JSON key 'thresholds' is given twice" in capsys.readouterr().err

    twice = tmp_path / "twice.json"
    twice.write_text(params_to_json(SOLVE_PARAMS)[:-1] + ', "p": 0.9}')
    assert main(["solve", "--params", str(twice), "--out", str(tmp_path / "run")]) == EXIT_USAGE
    assert "JSON key 'p' is given twice" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

    argv = ["eval", "--params", pfile, "--policies", f"threshold:{policy}"]
    assert main(argv) == EXIT_USAGE
    assert "JSON key 'thresholds' is given twice" in capsys.readouterr().err


def test_check_rejects_grid_mismatch(tmp_path, capsys):
    """Thresholds for batteries 0..4 are refused at an instance of batteries 0..3."""
    pfile = params_file(tmp_path, dataclasses.replace(SOLVE_PARAMS, battery_cap=3))
    code = main(["check", "--params", pfile, "--thresholds", thresholds_file(tmp_path, [1] * 5)])
    assert code == EXIT_USAGE
    assert "policy covers battery 0..4, params expect 0..3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"erasure_prob": 1.0}, "solving requires erasure_prob < 1"),
        ({"battery_cap": 1024, "aoi_cap": 2}, "1025 x 1025 (slot kernel rows x columns)"),
    ],
    ids=["p-one", "kernels-over-the-bound"],
)
def test_check_refuses_an_instance_outside_the_solver_domain(
    tmp_path, monkeypatch, capsys, change, message
):
    """p = 1 and B >= 1024 exit 2 before the thresholds are read or the bias is built."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("check built an exact bias")

    monkeypatch.setattr(cli, "threshold_bias", must_not_run)
    params = dataclasses.replace(SOLVE_PARAMS, **change)
    pfile = params_file(tmp_path, params)
    thresholds = thresholds_file(tmp_path, [1] * (params.battery_cap + 1))
    assert main(["check", "--params", pfile, "--thresholds", thresholds]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_check_refuses_a_level_that_never_transmits(tmp_path, capsys):
    """A null level has no exact bias to certify: exit 5, no report."""
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    thresholds = thresholds_file(tmp_path, [None, 1, 1, 1, 1])
    assert main(["check", "--params", pfile, "--thresholds", thresholds]) == EXIT_TRUNCATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the thresholds are not optimal on the untruncated chain\n"


def test_check_finds_value_iteration_one_age_late_at_the_corner(tmp_path, capsys):
    """RVI's cap-200 thresholds at (0.9, 0.9, 100) pass every certificate but lose 0.883 at
    age 181 of the empty battery: exit 5, after the report and the bounds."""
    corner = SystemParams(0.9, 0.9, 100.0, 2.0, 20, 200)
    rvi = [182, 10, 8, 6, 5, 4, 4] + [3] * 6 + [2] * 7 + [1]
    argv = ["check", "--params", params_file(tmp_path, corner),
            "--thresholds", thresholds_file(tmp_path, rvi)]
    assert main(argv) == EXIT_TRUNCATION
    captured = capsys.readouterr()
    report, bounds = captured.out.splitlines()
    assert structure_report_from_json(report).all_pass
    low, high = (float(x) for x in bounds.split("[")[1].split("]")[0].split(", "))
    assert high - low == pytest.approx(0.8834, abs=1e-4)
    assert bounds.endswith("at age 181, battery 0")
    assert "not optimal on the untruncated chain" in captured.err


# ---------------------------------------------------------------------------
# eval


def test_eval_exact_rows(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "eval",
            "--params",
            params_file(tmp_path, EVAL_PARAMS),
            "--policies",
            "zero-wait,energy-first",
            "--method",
            "exact",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.count(METHOD_EXACT) == 2

    rows = read_rows(out)
    assert [row["policy"] for row in rows] == ["zero-wait", "energy-first"]
    closed_form = 1.0 / 0.7 + 2.0 * 1.5 * 0.6
    assert float(rows[0]["avg_total"]) == pytest.approx(closed_form, abs=1e-6)
    assert float(rows[1]["avg_energy"]) == 0.0


def test_eval_mc_is_seed_deterministic(tmp_path):
    pfile = params_file(tmp_path, EVAL_PARAMS)
    base = [
        "eval",
        "--params",
        pfile,
        "--policies",
        "periodic:4,random:0.5",
        "--method",
        "mc",
        "--horizon",
        "3000",
        "--reps",
        "2",
        "--seed",
        "7",
    ]
    for name in ("a.csv", "b.csv"):
        assert main(base + ["--out", str(tmp_path / name)]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert all(row["method"] == METHOD_MONTE_CARLO for row in read_rows(tmp_path / "a.csv"))


def test_eval_mc_rows_match_one_policy_runs(tmp_path, capsys):
    """One mc eval of three policies prints and writes what three one-policy evals do."""
    pfile = params_file(tmp_path, EVAL_PARAMS)
    policies = ["random:0.3", "periodic:4", "zero-wait"]
    base = ["eval", "--params", pfile, "--method", "mc", "--horizon", "3000", "--reps", "3",
            "--seed", "11"]
    together = base + ["--policies", ",".join(policies), "--out", str(tmp_path / "all.csv")]
    assert main(together) == EXIT_OK
    printed = capsys.readouterr().out
    for policy in policies:
        assert main(base + ["--policies", policy, "--out", str(tmp_path / "one.csv")]) == EXIT_OK
    assert capsys.readouterr().out == printed
    assert (tmp_path / "all.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert [row["policy"] for row in read_rows(tmp_path / "all.csv")] == policies


# What an exact row of infinite cost holds: no renewal cycle to average the energy over.
INF_ROW = {"method": METHOD_EXACT, "avg_total": "inf", "avg_aoi": "inf", "avg_energy": "nan",
           "ci95": "0.0", "seed": "", "note": "infinite_cost"}


def inf_fields(row):
    return {key: row[key] for key in INF_ROW}


def test_eval_scores_infinite_cost_exactly(tmp_path, capsys):
    """random:0 never transmits: exact evaluation, the default, answers inf and exits 0."""
    lossy = dataclasses.replace(EVAL_PARAMS, erasure_prob=0.8)
    out = tmp_path / "rows.csv"
    argv = ["eval", "--params", params_file(tmp_path, lossy), "--policies", "random:0",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    (row,) = read_rows(out)
    assert inf_fields(row) == INF_ROW
    printed = capsys.readouterr().out
    assert printed == "random:0: avg_total inf (aoi inf, energy nan, ci95 0.0, exact_stationary)\n"


def test_eval_scores_heavy_and_infinite_tails_exactly(tmp_path, capsys):
    """A heavy but dying tail keeps its finite exact row beside the inf one; auto is gone."""
    fat = dataclasses.replace(EVAL_PARAMS, erasure_prob=0.8, aoi_cap=40)
    out = tmp_path / "rows.csv"
    argv = ["eval", "--params", params_file(tmp_path, fat), "--policies", "random:0.02,random:0",
            "--horizon", "3000", "--reps", "2", "--out", str(out)]
    assert main(argv + ["--method", "exact"]) == EXIT_OK
    heavy, never = read_rows(out)
    assert (heavy["method"], heavy["seed"], heavy["note"]) == (METHOD_EXACT, "", "")
    assert float(heavy["avg_aoi"]) == pytest.approx(250.0, rel=1e-12)  # 1/(0.02 * 0.2)
    assert inf_fields(never) == INF_ROW
    out.unlink()
    assert main(argv + ["--method", "auto"]) == EXIT_USAGE
    assert "invalid choice: 'auto'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_eval_scores_a_threshold_file(tmp_path, capsys, method):
    """The file's policy is scored under the label ``threshold``, as evaluate_exact or
    simulate score it in process."""
    spec = ThresholdPolicy(thresholds=(6, 4, 2, 1))
    policy = tmp_path / "tp.json"
    policy.write_text(spec.to_json() + "\n")
    out = tmp_path / "rows.csv"
    argv = ["eval", "--params", params_file(tmp_path, EVAL_PARAMS), "--policies",
            f"threshold:{policy}", "--method", method, "--horizon", "3000", "--reps", "2",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("threshold: avg_total ")
    (row,) = read_rows(out)
    assert row["policy"] == "threshold"
    if method == "exact":
        report = evaluate_exact(spec, EVAL_PARAMS)
    else:
        report = simulate([spec], EVAL_PARAMS, SimConfig(horizon=3000, replications=2, seed=0))[0]
    assert float(row["avg_total"]) == report.avg_total_cost
    assert float(row["ci95"]) == report.ci_halfwidth_95


def test_eval_unknown_policy(tmp_path, capsys):
    pfile = params_file(tmp_path, EVAL_PARAMS)
    assert main(["eval", "--params", pfile, "--policies", "teleport"]) == EXIT_USAGE


def test_eval_bad_horizon(tmp_path, capsys):
    pfile = params_file(tmp_path, EVAL_PARAMS)
    code = main(
        ["eval", "--params", pfile, "--policies", "zero-wait", "--horizon", "0"]
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# exact at any tail, however heavy


def test_exact_needs_no_cap_ladder():
    lossy = dataclasses.replace(EVAL_PARAMS, erasure_prob=0.96, aoi_cap=100)
    report = evaluate_exact(ZeroWait(), lossy)
    assert report.method == METHOD_EXACT
    assert report.avg_aoi == pytest.approx(25.0, rel=1e-12)  # 1/(1-p)


def test_heavy_tail_is_exact_and_agrees_with_monte_carlo():
    lossy = dataclasses.replace(EVAL_PARAMS, erasure_prob=0.8, aoi_cap=100)
    report = evaluate_exact(Randomized(0.02), lossy)
    assert report.method == METHOD_EXACT
    assert report.avg_aoi == pytest.approx(250.0, rel=1e-12)  # 1/(0.02 * 0.2)
    # Same bar as the other Monte Carlo cross-checks: three CI halfwidths.
    sim = SimConfig(horizon=100_000, replications=20, seed=5)
    mc = simulate([Randomized(0.02)], lossy, sim)[0]
    assert abs(mc.avg_total_cost - report.avg_total_cost) <= 3 * mc.ci_halfwidth_95


def test_score_exact_reports_infinite_tails_without_simulating(monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("scoring simulated")

    monkeypatch.setattr(cli, "simulate", simulate)
    monkeypatch.setattr(evaluation, "simulate", simulate)
    lossy = dataclasses.replace(EVAL_PARAMS, erasure_prob=0.8, aoi_cap=100)
    heavy, heavy_note = cli._score_exact(Randomized(0.02), lossy)
    assert (heavy, heavy_note) == (evaluate_exact(Randomized(0.02), lossy), "")
    never, note = cli._score_exact(Randomized(0.0), lossy)
    assert note == "infinite_cost"
    assert never.method == METHOD_EXACT
    assert (never.avg_total_cost, never.avg_aoi) == (np.inf, np.inf)
    assert np.isnan(never.avg_weighted_energy)
    assert never.ci_halfwidth_95 == 0.0


# ---------------------------------------------------------------------------
# sweep

SWEEP_PARAMS = SystemParams(
    erasure_prob=0.3,
    harvest_prob=0.4,
    energy_weight=2.0,
    backup_cost=1.5,
    battery_cap=3,
    aoi_cap=100,
)


def sweep_args(pfile, out, axis, values, policies):
    return [
        "sweep",
        "--params",
        pfile,
        "--axis",
        axis,
        "--values",
        values,
        "--policies",
        policies,
        "--horizon",
        "3000",
        "--reps",
        "2",
        "--seed",
        "3",
        "--out",
        str(out),
    ]


def test_sweep_rows_and_determinism(tmp_path, capsys):
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    for name in ("a.csv", "b.csv"):
        args = sweep_args(pfile, tmp_path / name, "omega", "0.5,2.0", "zero-wait,solved")
        assert main(args) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    rows = read_rows(tmp_path / "a.csv")
    assert [row["policy"] for row in rows] == ["zero-wait", "solved"] * 2
    assert [float(row["omega"]) for row in rows] == [0.5, 0.5, 2.0, 2.0]
    assert all(row["method"] == METHOD_EXACT for row in rows)
    for pair in (rows[0:2], rows[2:4]):
        assert float(pair[1]["avg_total"]) <= float(pair[0]["avg_total"]) + 1e-9


def test_sweep_solves_perfect_channel_as_given(tmp_path, capsys):
    """The p = 0 point is solved at p = 0, with no note; its cost is the one a solve at
    p = 1e-9 gave."""
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "p", "0.0", "solved")) == EXIT_OK
    (row,) = read_rows(out)
    assert float(row["p"]) == 0.0
    assert row["note"] == ""
    assert row["method"] == METHOD_EXACT
    assert row["avg_total"] == "1.8221637345892785"


def test_sweep_writes_the_inf_row_without_simulating(tmp_path, monkeypatch, capsys):
    """Every sweep row is exact, an infinite cost included, and none carries a seed."""

    def simulate(*args, **kwargs):
        raise AssertionError("sweep simulated")

    monkeypatch.setattr(cli, "simulate", simulate)
    monkeypatch.setattr(evaluation, "simulate", simulate)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "p", "0.8", "random:0.02,random:0")) == EXIT_OK
    heavy, never = read_rows(out)
    assert (heavy["method"], heavy["seed"], heavy["note"]) == (METHOD_EXACT, "", "")
    assert float(heavy["avg_aoi"]) == pytest.approx(250.0, rel=1e-12)  # 1/(0.02 * 0.2)
    assert inf_fields(never) == INF_ROW


def test_sweep_abort_writes_nothing(tmp_path, monkeypatch, capsys):
    """A point whose policy iteration breaks off aborts the whole sweep with exit 3, naming
    the point, and writes nothing, not even the rows of the point solved before it."""

    def broken(params, start=None):
        if params.energy_weight == 2.0:
            raise ConvergenceError("policy iteration did not converge: thresholds [3, 1] "
                                   "repeat an earlier round's", span=float("nan"), iterations=4)
        return real(params, start)

    real = cli.policy_iteration
    monkeypatch.setattr(cli, "policy_iteration", broken)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "omega", "1.0,2.0", "zero-wait")) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err == ("error: sweep aborted at omega=2.0: policy iteration did not converge: "
                   "thresholds [3, 1] repeat an earlier round's\n")
    assert not out.exists()


def test_sweep_with_a_false_certificate_exits_4_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    false_certificate(monkeypatch)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "p", "0.3", "zero-wait,solved")) == EXIT_STRUCTURE
    err = capsys.readouterr().err
    assert "error: sweep aborted at p=0.3: certificate failed, {" in err
    assert '"submodular_q": false' in err
    assert not out.exists()


def test_sweep_with_rows_that_are_not_threshold_shaped_exits_4_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    """Policy iteration's last rows that are not threshold-shaped abort the sweep naming
    the point, as its other solver failures do."""

    def solve(*args):
        raise solver.ThresholdStructureError("battery 1: transmit at age 1 but idle again at "
                                             "age 2; column is not threshold-shaped", [])

    monkeypatch.setattr(cli, "policy_iteration", solve)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "p", "0.3", "zero-wait,solved")) == EXIT_STRUCTURE
    assert "error: sweep aborted at p=0.3: battery 1: transmit at age 1" in capsys.readouterr().err
    assert not out.exists()


def refuse_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solve called")

    monkeypatch.setattr(cli, "solve", solve)
    monkeypatch.setattr(cli, "policy_iteration", solve)


def test_sweep_rejects_bad_axis_and_values(tmp_path, monkeypatch, capsys):
    """Each is refused with exit 2 before the first solve, and nothing is written."""
    refuse_solve(monkeypatch)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    for axis, values, policies in [
        ("voltage", "1.0", "zero-wait"),
        ("p", "1.2", "zero-wait"),
        ("p", "0.3,1.0", "zero-wait"),  # SystemParams admits p=1, which the solver cannot
        ("lambda", "0.5", ""),
    ]:
        assert main(sweep_args(pfile, out, axis, values, policies)) == EXIT_USAGE, (axis, values)
    assert not out.exists()


def test_sweep_spec_validates_eagerly(tmp_path, monkeypatch, capsys):
    """An empty value list, or a point whose SystemParams is invalid, is refused before any solve."""
    refuse_solve(monkeypatch)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "omega", "", "zero-wait")) == EXIT_USAGE
    assert main(sweep_args(pfile, out, "lambda", "1.5", "zero-wait")) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("policies", ["zero-wait,bogus", "threshold:missing.json"],
                         ids=["unknown", "missing-file"])
def test_sweep_parses_every_policy_before_solving(tmp_path, monkeypatch, capsys, policies):
    refuse_solve(monkeypatch)
    monkeypatch.chdir(tmp_path)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "omega", "0.5,2.0", policies)) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("values", ["1,inf", "1,1e308", "1,nan"])
def test_sweep_refuses_a_bad_omega_before_solving(tmp_path, monkeypatch, capsys, values):
    """A non-finite omega, or one whose omega * c_r overflows, is refused before omega=1 is solved."""
    refuse_solve(monkeypatch)
    pfile = params_file(tmp_path, dataclasses.replace(SWEEP_PARAMS, backup_cost=2.0))
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "omega", values, "solved")) == EXIT_USAGE
    assert "energy_weight" in capsys.readouterr().err
    assert {path.name for path in tmp_path.iterdir()} == {"params.json"}


def test_sweep_refuses_the_slot_kernel_bound_before_solving(tmp_path, monkeypatch, capsys):
    """At B = 1024 exact evaluation's (B+1) x (B+1) kernels exceed the bound: exit 2
    before the first point is solved, naming them, and nothing is written."""
    refuse_solve(monkeypatch)
    wide = dataclasses.replace(SWEEP_PARAMS, battery_cap=1024, aoi_cap=3)
    pfile = params_file(tmp_path, wide)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "p", "0.2,0.0", "zero-wait,solved")) == EXIT_USAGE
    assert "1025 x 1025 (slot kernel rows x columns)" in capsys.readouterr().err
    assert {path.name for path in tmp_path.iterdir()} == {"params.json"}


def test_sweep_refuses_a_threshold_beyond_the_grid_bound(tmp_path, capsys):
    """omega * c_r = 1e12: policy iteration doubles the empty battery's threshold each
    round until its 32768 x 41 grid exceeds the bound, and the sweep exits 2."""
    huge = dataclasses.replace(SWEEP_PARAMS, energy_weight=5e11, backup_cost=2.0, battery_cap=40)
    pfile = params_file(tmp_path, huge)
    out = tmp_path / "rows.csv"
    assert main(sweep_args(pfile, out, "p", "0.2", "solved")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "32768 x 41 (threshold age rows x battery levels)" in err and "exceeds" in err
    assert not out.exists()


# Found by a seeded search (random.Random(1); p = 1 - 10^u for u in [-3.3, -2], lambda in
# [0.9, 0.996], omega * c_r = 10^u for u in [2, 3.3], B in 1..10, cap 200), the fastest of
# the instances there where rounds that projected their improved actions onto thresholds,
# with a cumulative min over battery levels, cycled: "thresholds [102, 62, 62, 52, 43, 36,
# 30, 24, 1] repeat an earlier round's", exit 3.
CYCLING = SystemParams(0.99213, 0.9682, 40.7, 2.5642, 8, 200)


def test_sweep_converges_where_projected_rounds_cycled(tmp_path, monkeypatch, capsys):
    """Howard's rounds on the action rows converge here, in 16 rounds, and the gain never
    rises from one round to the next. The answer passes Howard's test, and its thresholds
    do not rise with the battery level, though no round forces them to."""
    answers, gains = [], []
    real_solve, real_round = cli.policy_iteration, solver._exact_bias

    def solve(*args):
        answers.append(real_solve(*args))
        return answers[-1]

    def round_(*args):
        exact = real_round(*args)
        gains.append(exact[0])
        return exact

    monkeypatch.setattr(cli, "policy_iteration", solve)
    monkeypatch.setattr(solver, "_exact_bias", round_)
    out = tmp_path / "rows.csv"
    args = sweep_args(params_file(tmp_path, CYCLING), out, "omega", "40.7", "solved")
    assert main(args) == EXIT_OK
    ((v, _, policy),) = answers
    assert (v.iterations, len(gains)) == (16, 16)
    assert all(later <= earlier for earlier, later in zip(gains, gains[1:])), gains
    assert policy.thresholds == (102, 75, 62, 52, 43, 36, 30, 24, 1)
    assert list(policy.thresholds) == sorted(policy.thresholds, reverse=True)
    assert solver.threshold_bias(policy, CYCLING).gap <= 1e-9
    (row,) = read_rows(out)
    assert float(row["avg_total"]) == pytest.approx(v.gain, rel=1e-12)


@pytest.mark.parametrize("command", ["eval-exact", "eval-mc"])
def test_negative_seed_is_refused_naming_the_flag(tmp_path, capsys, command):
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    out = tmp_path / "rows.csv"
    argv = ["eval", "--params", pfile, "--policies", "zero-wait", "--horizon", "100",
            "--out", str(out), "--method", command.split("-")[1]]
    assert main(argv + ["--seed", "-1"]) == EXIT_USAGE
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# entry points

def child_env():
    """Environment for a child interpreter that imports the ``aoi_energy``
    under test: the source root of the imported package is put first on
    ``PYTHONPATH``, so no installed copy is needed and none is picked up."""
    src = str(Path(aoi_energy.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    return env


def test_module_entry_point(tmp_path):
    pfile = params_file(tmp_path, EVAL_PARAMS)
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "aoi_energy.cli",
            "eval",
            "--params",
            pfile,
            "--policies",
            "zero-wait",
            "--method",
            "exact",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == EXIT_OK
    assert "zero-wait" in result.stdout


def test_console_script_help():
    """The ``aoi-energy`` script declared in pyproject.toml starts and lists
    its subcommands. The target is run in a fresh interpreter the way the
    installed console-script wrapper runs it, so no install is needed."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["aoi-energy"]
    module, function = target.split(":")
    launcher = f"import sys; from {module} import {function}; sys.exit({function}())"
    result = subprocess.run(
        [sys.executable, "-c", launcher, "--help"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: aoi-energy")
    for subcommand in ("solve", "check", "eval", "sweep"):
        assert subcommand in result.stdout


def test_cli_import_loads_no_scipy():
    """The command line starts on numpy alone: importing it pulls in no scipy module."""
    probe = (
        "import sys, aoi_energy.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_out_of_memory_is_usage_error(tmp_path, monkeypatch, capsys):
    """A grid too large for memory exits 2 naming its size (no real allocation here)."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("aoi_energy.cli.solve", exhausted)
    huge = dataclasses.replace(SOLVE_PARAMS, aoi_cap=10**9, battery_cap=10**4)
    pfile = params_file(tmp_path, huge)
    assert main(["solve", "--params", pfile, "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "out of memory" in err
    assert "1000000000 x 10001" in err
    assert "10001000000000 states" in err


def test_solve_grid_over_the_bound_is_refused_before_allocation(tmp_path, monkeypatch, capsys):
    wide = dataclasses.replace(SOLVE_PARAMS, aoi_cap=300_000)
    assert wide.n_states > MAX_GRID_STATES
    pfile = params_file(tmp_path, wide)
    refuse_allocation(monkeypatch)
    assert main(["solve", "--params", pfile, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "300000 x 5" in err and "exceeds" in err
    assert {path.name for path in tmp_path.iterdir()} == {"params.json"}


def test_grid_bound_admits_its_limit():
    edge = dataclasses.replace(SOLVE_PARAMS, battery_cap=1, aoi_cap=MAX_GRID_STATES // 2)
    edge.validate_for_solve()
    with pytest.raises(ValueError, match="exceeds"):
        dataclasses.replace(edge, aoi_cap=edge.aoi_cap + 1).validate_for_solve()


def truncation_args(tmp_path, params):
    pfile = params_file(tmp_path, params)
    return ["solve", "--params", pfile, "--out", str(tmp_path / "out"), "--check-truncation"]


def test_check_truncation_grid_over_the_bound_is_refused_before_any_write(tmp_path, capsys):
    """--check-truncation adds no grid of its own: the solver's bound refuses, and nothing is
    written."""
    over = dataclasses.replace(SOLVE_PARAMS, battery_cap=1, aoi_cap=MAX_GRID_STATES // 2 + 1)
    assert main(truncation_args(tmp_path, over)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{over.aoi_cap} x 2" in err and "exceeds" in err and "doubled" not in err
    assert {path.name for path in tmp_path.iterdir()} == {"params.json"}


def test_check_truncation_refuses_kernels_over_the_bound_before_the_solve(
    tmp_path, monkeypatch, capsys
):
    """At B = 1024 the exact bias's slot kernels exceed the bound: exit 2 before any solve,
    and no artifact is written."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("solve ran before the kernel bound was checked")

    monkeypatch.setattr(cli, "solve", must_not_run)
    wide = SystemParams(0.2, 0.5, 10.0, 2.0, 1024, 40)
    assert main(truncation_args(tmp_path, wide)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the 1025 x 1025 (slot kernel rows x columns) grid" in captured.err
    assert {path.name for path in tmp_path.iterdir()} == {"params.json"}


def test_check_truncation_admits_every_grid_the_solver_admits(tmp_path, monkeypatch, capsys):
    """At aoi_cap * (B+1) == the bound the solve starts; one row more is refused by the solver."""

    def stub(params):
        params.validate_for_solve()
        raise ConvergenceError("stub solve", span=1.0, iterations=1)

    monkeypatch.setattr("aoi_energy.cli.solve", stub)
    edge = dataclasses.replace(SOLVE_PARAMS, battery_cap=1, aoi_cap=MAX_GRID_STATES // 2)
    assert main(truncation_args(tmp_path, edge)) == EXIT_NO_CONVERGENCE
    assert "stub solve" in capsys.readouterr().err
    over = dataclasses.replace(edge, aoi_cap=edge.aoi_cap + 1)
    assert main(truncation_args(tmp_path, over)) == EXIT_USAGE
    assert "exceeds" in capsys.readouterr().err


def test_check_truncation_solves_once(tmp_path, monkeypatch, capsys):
    """The check reads the solved policy's exact bias: the one solve is at the given cap."""
    real_solve, caps = solver.solve, []

    def counted(params):
        caps.append(params.aoi_cap)
        return real_solve(params)

    monkeypatch.setattr(solver, "solve", counted)
    monkeypatch.setattr(cli, "solve", counted)
    roomy = dataclasses.replace(CRAMPED, aoi_cap=20)
    assert main(truncation_args(tmp_path, roomy)) == EXIT_OK
    assert "truncation adequate" in capsys.readouterr().out
    assert caps == [20]


def test_out_of_memory_under_check_truncation_names_the_given_grid(
    tmp_path, monkeypatch, capsys
):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "solve", exhausted)
    roomy = dataclasses.replace(CRAMPED, aoi_cap=20)
    assert main(truncation_args(tmp_path, roomy)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "out of memory for the 20 x 3 (aoi_cap x battery levels) grid of 60 states" in err
    assert "doubled" not in err


@pytest.mark.parametrize("command", ["eval"])
def test_out_of_memory_in_the_simulator_names_the_horizon(tmp_path, monkeypatch, capsys, command):
    """A Monte Carlo run that exhausts memory blames its horizon, not the aoi_cap grid."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("aoi_energy.evaluation._simulate_rep", exhausted)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    argv = [command, "--params", pfile, "--policies", "zero-wait", "--method", "mc",
            "--horizon", "3000", "--reps", "2", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "out of memory" in err and "Monte Carlo horizon of 3000 slots" in err
    assert "aoi_cap x battery levels" not in err
    assert not (tmp_path / "rows.csv").exists()


def test_out_of_memory_in_exact_eval_names_no_horizon(tmp_path, monkeypatch, capsys):
    """eval --method exact draws no horizon, so its out-of-memory message names exact evaluation."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "evaluate_exact", exhausted)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    argv = ["eval", "--params", pfile, "--policies", "zero-wait", "--method", "exact",
            "--horizon", "3000", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: out of memory for exact evaluation\n"
    assert "horizon" not in err
    assert not (tmp_path / "rows.csv").exists()


def test_out_of_memory_in_sweep_names_only_the_grid(tmp_path, monkeypatch, capsys):
    """sweep simulates nothing, so its out-of-memory message names the grid alone."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "evaluate_exact", exhausted)
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    assert main(sweep_args(pfile, tmp_path / "rows.csv", "p", "0.8", "random:0")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == ("error: out of memory for the 100 x 4 (aoi_cap x battery levels) grid "
                   "of 400 states\n")
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["eval"])
def test_horizon_over_the_bound_is_refused_before_allocation(
    tmp_path, monkeypatch, capsys, command
):
    """A horizon above MAX_HORIZON slots exits 2 naming the bound, before any array exists."""
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    argv = [command, "--params", pfile, "--policies", "zero-wait", "--method", "mc",
            "--horizon", str(MAX_HORIZON + 1), "--reps", "2", "--out", str(tmp_path / "rows.csv")]
    refuse_allocation(monkeypatch)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"horizon of {MAX_HORIZON + 1} slots exceeds the limit of {MAX_HORIZON} slots" in err
    assert {path.name for path in tmp_path.iterdir()} == {"params.json"}


def test_replications_over_the_bound_are_refused(tmp_path, capsys):
    """More than MAX_REPLICATIONS replications exit 2 naming the bound, and write nothing."""
    pfile = params_file(tmp_path, SWEEP_PARAMS)
    argv = ["eval", "--params", pfile, "--policies", "zero-wait", "--method", "mc",
            "--horizon", "1", "--reps", "1048577", "--out", str(tmp_path / "rows.csv")]
    assert MAX_REPLICATIONS + 1 == 1048577
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"1048577 replications exceed the limit of {MAX_REPLICATIONS}" in err
    assert {path.name for path in tmp_path.iterdir()} == {"params.json"}


def test_horizon_bound_admits_its_limit():
    assert SimConfig(horizon=MAX_HORIZON).horizon == 1 << 30
    with pytest.raises(ValueError, match="exceeds the limit"):
        SimConfig(horizon=MAX_HORIZON + 1)


# The README instance: p = 0.2 and 21 battery levels.
README_PARAMS = SystemParams(
    erasure_prob=0.2,
    harvest_prob=0.5,
    energy_weight=10.0,
    backup_cost=2.0,
    battery_cap=20,
    aoi_cap=200,
)


def test_long_periods_are_scored_exactly(tmp_path, capsys):
    """Any period is exact: the average age is (1.5 m + 1)/2 at p = 0.2."""
    pfile = params_file(tmp_path, README_PARAMS)
    argv = ["eval", "--params", pfile, "--policies", "periodic:98,periodic:1000",
            "--method", "exact"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("periodic:98: ") and "(aoi 74.0, " in lines[0]
    assert lines[1].startswith("periodic:1000: ") and "(aoi 750.5, " in lines[1]
    assert all(line.endswith("exact_stationary)") for line in lines)


@pytest.mark.parametrize("method", ["exact"])
def test_period_past_the_float_range_is_refused(tmp_path, capsys, method):
    """A 401-digit period exits 2 naming it, with no traceback."""
    period = "9" * 401
    pfile = params_file(tmp_path, README_PARAMS)
    argv = ["eval", "--params", pfile, "--policies", f"periodic:{period}", "--method", method]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"period {period} is too long to score" in err and "Traceback" not in err


def test_refused_policy_leaves_no_exact_rows(tmp_path, capsys):
    """A policy refused after a good one: exit 2, nothing printed, no file."""
    pfile = params_file(tmp_path, README_PARAMS)
    out = tmp_path / "rows.csv"
    argv = ["eval", "--params", pfile, "--policies", f"zero-wait,periodic:{'9' * 401}",
            "--method", "exact", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_eval_out_appends_after_one_header(tmp_path, capsys):
    """eval --out writes the header to a new or empty file only, then appends its rows in order."""
    pfile = params_file(tmp_path, EVAL_PARAMS)
    out = tmp_path / "rows.csv"
    out.write_text("")
    for policies in ("zero-wait,energy-first", "periodic:3"):
        argv = ["eval", "--params", pfile, "--policies", policies, "--out", str(out)]
        assert main(argv) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(evaluation.CSV_COLUMNS) and lines.count(lines[0]) == 1
    assert [row["policy"] for row in read_rows(out)] == ["zero-wait", "energy-first", "periodic:3"]


HEADER = ",".join(evaluation.CSV_COLUMNS)


ROW = ",".join(["zero-wait", *["1"] * (len(evaluation.CSV_COLUMNS) - 1)])


@pytest.mark.parametrize(
    "content",
    ["delta,q,value\n1,0,0.0\n", "\n" + HEADER + "\n", HEADER, HEADER + "\n" + ROW],
    ids=["value-csv", "blank-first-line", "header-without-newline", "row-without-newline"],
)
def test_eval_out_refuses_a_file_that_is_not_a_results_csv(
    tmp_path, monkeypatch, capsys, content
):
    """Exit 2 before anything is scored, naming the file, and leave it unchanged."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("eval scored a policy")

    monkeypatch.setattr(cli, "evaluate_exact", must_not_run)
    pfile = params_file(tmp_path, EVAL_PARAMS)
    out = tmp_path / "values.csv"
    out.write_text(content)
    argv = ["eval", "--params", pfile, "--policies", "zero-wait", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert f"cannot append to {str(out)!r}" in capsys.readouterr().err
    assert out.read_text() == content


def test_eval_refuses_unknown_parameter_keys(tmp_path, capsys):
    """A misspelt or extra key is named, not dropped for the file's other values."""
    payload = json.loads(params_to_json(EVAL_PARAMS)) | {"B": 9, "lamda": 0.9}
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(payload))
    assert main(["eval", "--params", str(pfile), "--policies", "zero-wait"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown keys: ['B', 'lamda']" in captured.err


def test_eval_has_no_aoi_cap(tmp_path, capsys):
    """Exact evaluation and Monte Carlo score the untruncated chain, so eval takes no age cap."""
    pfile = params_file(tmp_path, EVAL_PARAMS)
    argv = ["eval", "--params", pfile, "--policies", "zero-wait", "--aoi-cap", "5"]
    assert main(argv) == EXIT_USAGE
    assert "--aoi-cap" in capsys.readouterr().err


def _no_solve_argv(tmp_path, monkeypatch, command):
    """Arguments for ``command`` on a small model, with every solver entry point made to fail."""

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{command} reached the solver")

    for name in ("solve", "policy_iteration", "threshold_bias", "certify_structure"):
        monkeypatch.setattr(cli, name, must_not_run)
    pfile = params_file(tmp_path, SOLVE_PARAMS)
    out = tmp_path / "out"
    return {
        "solve": ["solve", "--params", pfile, "--out", str(out), "--check-truncation"],
        "sweep": sweep_args(pfile, out, "p", "0.3", "zero-wait,solved"),
        "check": ["check", "--params", pfile, "--thresholds", thresholds_file(tmp_path, [1] * 5)],
    }[command]


@pytest.mark.parametrize("command", ["solve", "sweep", "check"])
def test_solve_and_sweep_have_no_aoi_cap(tmp_path, capsys, monkeypatch, command):
    """The params file's ``aoi_cap`` is the one way to set the age cap: the flag is unknown,
    exit 2 with nothing solved or written."""
    argv = _no_solve_argv(tmp_path, monkeypatch, command)
    inputs = {path.name for path in tmp_path.iterdir()}
    assert main(argv + ["--aoi-cap", "30"]) == EXIT_USAGE
    assert "unrecognized arguments: --aoi-cap 30" in capsys.readouterr().err
    assert {path.name for path in tmp_path.iterdir()} == inputs


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("solve", "--epsilon", "inf"),
        ("solve", "--epsilon", "nan"),
        ("solve", "--structure-tol", "nan"),
        ("solve", "--structure-tol", "inf"),
        ("solve", "--structure-tol", "-1e-8"),
        ("check", "--structure-tol", "nan"),
        ("check", "--structure-tol", "-inf"),
        ("sweep", "--epsilon", "inf"),
        ("sweep", "--structure-tol", "nan"),
        ("sweep", "--structure-tol", "inf"),
        ("solve", "--max-iters", "2"),
        ("sweep", "--max-iters", "2"),
    ],
)
def test_hostile_tolerances_fail_before_any_work(
    tmp_path, capsys, monkeypatch, command, option, value
):
    """The solver's epsilon and budget and the certificates' tolerance are fixed, so no value
    of any of these flags is taken: exit 2 before the solver or the certificates run, and
    write no file."""
    argv = _no_solve_argv(tmp_path, monkeypatch, command)
    inputs = {path.name for path in tmp_path.iterdir()}
    assert main(argv + [f"{option}={value}"]) == EXIT_USAGE
    assert f"unrecognized arguments: {option}={value}" in capsys.readouterr().err
    assert {path.name for path in tmp_path.iterdir()} == inputs


def test_sweep_rows_do_not_read_aoi_cap(tmp_path):
    """The cap sets only the bias rows the certificates read: equal rows at caps 5 and 200."""
    written = []
    for cap in (5, 200):
        pfile = params_file(tmp_path, dataclasses.replace(README_PARAMS, aoi_cap=cap),
                            name=f"cap{cap}.json")
        out = tmp_path / f"cap{cap}.csv"
        policies = "zero-wait,periodic:5,periodic:10,random:0.5,energy-first,solved"
        assert main(sweep_args(pfile, out, "p", "0.0,0.3,0.9", policies)) == EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert len(written[0].splitlines()) == 1 + 3 * 6


def test_periodic_that_never_delivers_has_infinite_cost(tmp_path, capsys):
    pfile = params_file(tmp_path, dataclasses.replace(README_PARAMS, erasure_prob=1.0))
    out = tmp_path / "rows.csv"
    argv = ["eval", "--params", pfile, "--policies", "periodic:5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    (row,) = read_rows(out)
    assert inf_fields(row) == INF_ROW


def test_periodic_takes_no_phase(tmp_path, capsys):
    """``periodic:<period>:<phase>`` is no spec: exit 2, naming it, and no row."""
    out = tmp_path / "rows.csv"
    argv = ["eval", "--params", params_file(tmp_path, README_PARAMS), "--policies",
            "periodic:5:2", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert "bad periodic spec 'periodic:5:2'" in capsys.readouterr().err
    assert not out.exists()


def test_tiny_transmit_chance_is_scored_or_refused(tmp_path, capsys):
    """random:1e-18 scores its age 1/(q (1-p)); at 5e-324 that overflows, and exits 2."""
    pfile = params_file(tmp_path, EVAL_PARAMS)
    out = tmp_path / "rows.csv"
    argv = ["eval", "--params", pfile, "--policies", "random:1e-18", "--out", str(out)]
    assert main(argv) == EXIT_OK
    (row,) = read_rows(out)
    assert float(row["avg_aoi"]) == pytest.approx(1.0 / (1e-18 * 0.7), rel=1e-12)
    argv[argv.index("random:1e-18")] = "random:5e-324"
    assert main(argv) == EXIT_USAGE
    assert "p_tx 5e-324 is too small to score" in capsys.readouterr().err


def test_eval_refuses_json_true_threshold(tmp_path, capsys):
    """JSON true is a bool, not the threshold 1."""
    pfile = params_file(tmp_path, dataclasses.replace(EVAL_PARAMS, battery_cap=1))
    policy = tmp_path / "tp.json"
    policy.write_text('{"thresholds": [true, 2]}')
    argv = ["eval", "--params", pfile, "--policies", f"threshold:{policy}", "--method", "exact"]
    assert main(argv) == EXIT_USAGE
    assert "threshold at battery 0 must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("thresholds", ["5", "null", '"12"', '{"a": 1}'],
                         ids=["number", "null", "string", "object"])
def test_eval_refuses_thresholds_that_are_not_a_list(tmp_path, capsys, thresholds):
    pfile = params_file(tmp_path, dataclasses.replace(EVAL_PARAMS, battery_cap=1))
    policy = tmp_path / "tp.json"
    policy.write_text(f'{{"thresholds": {thresholds}}}')
    argv = ["eval", "--params", pfile, "--policies", f"threshold:{policy}", "--method", "exact"]
    assert main(argv) == EXIT_USAGE
    assert "must be an object with a 'thresholds' list" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["mc", "exact"])
def test_eval_threshold_over_the_bound_is_refused_before_allocation(
    tmp_path, monkeypatch, capsys, method
):
    """A threshold of 10^9 would need 10^9 age rows: exit 2 naming the grid, no MemoryError.

    The simulator builds nothing before the check; exact evaluation builds
    only its battery-sized kernels first.
    """
    pfile = params_file(tmp_path, EVAL_PARAMS)
    policy = tmp_path / "far.json"
    policy.write_text(ThresholdPolicy(thresholds=(10**9, 1, 1, 1)).to_json())
    if method == "mc":
        refuse_allocation(monkeypatch)
    argv = ["eval", "--params", pfile, "--policies", f"threshold:{policy}", "--method", method,
            "--horizon", "100", "--reps", "2"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "1000000000 x 4" in err and "exceeds" in err


def test_eval_mc_checks_every_policy_before_allocation(tmp_path, monkeypatch, capsys):
    """A refused policy after a good one: exit 2 before any array exists, and no row."""
    pfile = params_file(tmp_path, EVAL_PARAMS)
    policy = tmp_path / "far.json"
    policy.write_text(ThresholdPolicy(thresholds=(10**9, 1, 1, 1)).to_json())
    refuse_allocation(monkeypatch)
    argv = ["eval", "--params", pfile, "--policies", f"zero-wait,threshold:{policy}",
            "--method", "mc", "--horizon", "100", "--reps", "2",
            "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "1000000000 x 4" in captured.err and "exceeds" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("policy", ["periodic:5", "random:0.5"])
def test_eval_mc_outside_bit_grid_over_the_bound_is_refused_before_allocation(
    tmp_path, monkeypatch, capsys, policy
):
    """The one-row rule of ``periodic`` and ``random`` is bounded like every other rule:
    at 2^20 + 1 battery levels, exit 2 before any array exists, and no row."""
    pfile = params_file(tmp_path, dataclasses.replace(EVAL_PARAMS, battery_cap=1 << 20))
    refuse_allocation(monkeypatch)
    argv = ["eval", "--params", pfile, "--policies", policy, "--method", "mc",
            "--horizon", "100", "--reps", "2", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "the 1 x 1048577 (" in captured.err and "exceeds" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "rows.csv").exists()


def test_eval_exact_kernel_over_the_bound_is_refused_before_allocation(
    tmp_path, monkeypatch, capsys
):
    """Exact evaluation's slot kernels are (B+1) x (B+1): at B = 1023 they hold exactly
    2^20 entries and are built; at B = 1024, exit 2 before any array exists, and no row."""
    kernels = evaluation._slot_kernels(dataclasses.replace(EVAL_PARAMS, battery_cap=1023), 1)
    assert kernels.shape == (3, 1024, 1024) and 1024 * 1024 == MAX_GRID_STATES
    pfile = params_file(tmp_path, dataclasses.replace(EVAL_PARAMS, battery_cap=1024))
    refuse_allocation(monkeypatch)
    argv = ["eval", "--params", pfile, "--policies", "zero-wait", "--method", "exact",
            "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "1025 x 1025 (slot kernel" in captured.err and "exceeds" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["solve", "eval", "sweep"])
def test_overflowing_backup_penalty_is_usage_error(tmp_path, capsys, command):
    """omega * c_r = 1e200 * 1e200 is inf: refused at validation, before any output."""
    data = json.loads(params_to_json(SOLVE_PARAMS))
    data.update({"omega": 1e200, "c_r": 1e200})
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = {
        "solve": ["solve", "--params", str(pfile), "--out", str(out)],
        "eval": ["eval", "--params", str(pfile), "--policies", "zero-wait", "--out", str(out)],
        "sweep": sweep_args(str(pfile), out, "p", "0.3", "zero-wait,solved"),
    }[command]
    assert main(argv) == EXIT_USAGE
    assert "overflows" in capsys.readouterr().err
    assert {path.name for path in tmp_path.iterdir()} == {"params.json"}
    with pytest.raises(ValueError, match="overflows"):
        dataclasses.replace(SOLVE_PARAMS, energy_weight=1e200, backup_cost=1e200)


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
