"""The package keeps what its demos and benchmark use: every name they import
from it (and at its root no other), every defaulted parameter of its public
functions and classes, every command-line option, every function the
benchmark's span recorder looks up by name, and each demo and the README's
quick tour run end to end in a fresh interpreter."""

import argparse
import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])
PACKAGE = "aoi_energy"


def quick_tour() -> str:
    """The README's one python block."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block


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


def test_package_root_exports_only_what_its_callers_import():
    """The root's names are those that a demo, a perfbench file or the README's quick tour
    imports from it; everything else is imported from its own module."""
    callers = [ast.parse(path.read_text()) for path in CALLERS] + [ast.parse(quick_tour())]
    imported = {alias.name for tree in callers for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == PACKAGE
                for alias in node.names}
    package = importlib.import_module(PACKAGE)
    exported = {name for name, value in vars(package).items()
                if not name.startswith("_") and not isinstance(value, type(package))}
    modules = {module.name for module in pkgutil.iter_modules(package.__path__)}
    assert exported == imported - modules


def passed_arguments(trees: list[ast.AST]) -> tuple[dict[str, float], dict[str, set]]:
    """For each called name, a bare name or an attribute's last part: the most positional
    arguments a call passes (inf after a ``*``), and the keywords (None for ``**``)."""
    positional, keywords = {}, {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = math.inf if starred else len(node.args)
            positional[name] = max(positional.get(name, 0), count)
            keywords.setdefault(name, set()).update(keyword.arg for keyword in node.keywords)
    return positional, keywords


def test_every_defaulted_parameter_has_a_caller():
    """Each parameter with a default, of a function or class in a module's ``__all__``, is
    passed by some call in src/, demos/, perfbench/ or the README's quick tour. Calls are
    matched by the called name alone, so a call of another function of that name can hide
    an unused parameter."""
    sources = [*ROOT.glob("src/**/*.py"), *CALLERS]
    trees = [ast.parse(path.read_text()) for path in sources] + [ast.parse(quick_tour())]
    positional, keywords = passed_arguments(trees)
    package = importlib.import_module(PACKAGE)
    unused = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{PACKAGE}.{info.name}")
        for name in module.__all__:
            target = getattr(module, name)
            if not (inspect.isfunction(target) or inspect.isclass(target)):
                continue
            try:
                parameters = inspect.signature(target).parameters.values()
            except ValueError:  # an exception class that keeps its builtin constructor
                continue
            for index, parameter in enumerate(parameters):
                by_position = parameter.kind in (parameter.POSITIONAL_ONLY,
                                                 parameter.POSITIONAL_OR_KEYWORD)
                by_keyword = {parameter.name, None} & keywords.get(name, set())
                if parameter.default is not parameter.empty and not (
                    by_keyword or (by_position and positional.get(name, 0) > index)
                ):
                    unused.append(f"{name}: {parameter.name}")
    assert not unused, f"defaulted parameters that no caller passes: {unused}"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [name for name, (home, _, _) in spans.TRACED.items()
               if not hasattr(importlib.import_module(home), name.split(".", 1)[1])]
    assert not missing, f"traced functions missing from their modules: {missing}"


def benchmark_argvs(size: str, monkeypatch, tmp_path: Path) -> list[list[str]]:
    """Every command line a benchmark workload of ``size`` passes to ``cli.main``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    argvs = []
    for name in sorted(workloads.WORKLOAD_CLASSES):
        workload = workloads.make(name, size, 0, reference, tmp_path / name)
        argvs += [argv for _, argv in getattr(workload, "jobs", [])]
        argvs += [workload.argv] if hasattr(workload, "argv") else []
    return argvs


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_benchmark_command_lines_parse(size, monkeypatch, tmp_path):
    """Every command line a benchmark workload passes to ``cli.main`` is still accepted."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    argvs = benchmark_argvs(size, monkeypatch, tmp_path)
    assert len(argvs) == (30 if size == "full" else 5)
    for argv in argvs:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the command line no longer parses: {argv}")


def shell_options(text: str) -> set[tuple[str, str]]:
    """(subcommand, option) for each option on an ``aoi-energy`` or ``aoi_energy.cli`` command
    line of a shell text, lines joined at a trailing backslash."""
    lines = text.replace("\\\n", " ").splitlines()
    return {(command, option)
            for line in lines
            for command, rest in re.findall(r"aoi[-_]energy(?:\.cli)? +(\w+)(.*)", line)
            for option in re.findall(r"(?<!\S)\[?(--[\w-]+)", rest)}


def test_every_cli_option_has_a_caller(monkeypatch, tmp_path):
    """Each option of each subcommand, hidden ones included, is on a command line of that
    subcommand in the README's "Command line" block, in the CI workflow or in a benchmark
    workload's argv. An option that none of them passes is a knob only tests turn."""
    block = re.search(r"## Command line\n.*?```\n(.*?)```", (ROOT / "README.md").read_text(),
                      re.S).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    passed = shell_options(block) | shell_options(workflow)
    passed |= {(argv[0], arg) for argv in benchmark_argvs("full", monkeypatch, tmp_path)
               for arg in argv if arg.startswith("--")}
    cli = importlib.import_module(f"{PACKAGE}.cli")
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {(name, action.option_strings[-1])
               for name, parser in commands.choices.items() for action in parser._actions
               if action.option_strings and action.dest != "help"}
    assert not options - passed, f"options that no command line passes: {sorted(options - passed)}"


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_tour_runs():
    """The README's python block, the package's documented API, prints a gain, one
    threshold per battery level of its 21 and the exact cost of those thresholds."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", quick_tour()], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    gain, thresholds, cost = proc.stdout.splitlines()
    assert len(ast.literal_eval(thresholds)) == 21
    assert float(cost) == pytest.approx(float(gain), abs=1e-6)
