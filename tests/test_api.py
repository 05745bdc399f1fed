"""The package keeps what its demos and benchmark use: every name they import
from it, every function the benchmark's span recorder looks up by name, and
each demo run end to end in a fresh interpreter."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])
PACKAGE = "aoi_energy"


def resolves(module: str, name: str) -> bool:
    """True when ``from module import name`` succeeds."""
    try:
        pkgutil.resolve_name(f"{module}.{name}")
    except (AttributeError, ImportError):
        return False
    return True


def package_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name ``path`` imports from the package."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE
        for alias in node.names
    ]


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_package_names_resolve(path):
    missing = [pair for pair in package_names(path) if not resolves(*pair)]
    assert not missing, f"{path.name} uses names the package no longer has: {missing}"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [name for name, (home, _, _) in spans.TRACED.items()
               if not hasattr(importlib.import_module(home), name.split(".", 1)[1])]
    assert not missing, f"traced functions missing from their modules: {missing}"


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_benchmark_command_lines_parse(size, monkeypatch, tmp_path):
    """Every command line a benchmark workload passes to ``cli.main`` is still accepted."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module(f"{PACKAGE}.cli")
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    argvs = []
    for name in sorted(workloads.WORKLOAD_CLASSES):
        workload = workloads.make(name, size, 0, reference, tmp_path / name)
        argvs += [argv for _, argv in getattr(workload, "jobs", [])]
        argvs += [workload.argv] if hasattr(workload, "argv") else []
    assert len(argvs) == (30 if size == "full" else 5)
    for argv in argvs:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the command line no longer parses: {argv}")


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
