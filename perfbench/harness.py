"""Paths, environment and provenance shared by the benchmark scripts.

Everything here reads only inside the checkout that holds this directory:
the package is imported from ``src/`` of that checkout, never from an
installed copy, and every file the benchmark writes goes under
``perfbench/work`` or ``perfbench/results`` (both ignored by git).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "aoi_energy"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"
REFERENCE_PATH = BENCH_DIR / "reference.json"

WORKLOADS = ("sweep-p", "solve-grid", "cross-check")

# One caller, one process, one thread: BLAS and OpenMP pools are pinned so
# that numpy's dense kernels cannot borrow the second core of a 2-CPU box.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def package_present() -> bool:
    return (PACKAGE / "cli.py").is_file() and (PACKAGE / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def module_loc() -> dict[str, int]:
    """Line counts (newline characters, as ``wc -l``) of the package modules."""
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with open(path, "rb") as handle:
            counts[path.stem] = handle.read().count(b"\n")
    return counts


def loc_metric_name(module: str) -> str:
    # Metric names must start with a letter, so ``__init__`` reports as ``init``.
    return f"{module.strip('_')}.loc"


def code_digest() -> str:
    """SHA-256 over the package sources and the benchmark's own code and reference.

    Two runs with equal digests ran the same program under the same
    benchmark, so their exact counts must agree.
    """
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")) + [REFERENCE_PATH]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def git_sha() -> str | None:
    """Commit of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    """Who ran what where: the facts a later comparison needs."""
    import numpy
    import scipy

    modules = module_loc()
    return {
        "git_sha": git_sha(),
        "code_digest": code_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": dict(THREAD_PINS),
        "seed": seed,
        "src_loc": sum(modules.values()),
        "module_loc": modules,
    }


def write_json_atomic(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
