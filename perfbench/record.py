"""The run record: what ran, on which machine, with which BLAS threading."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

#: BLAS/OpenMP threads the benchmark pins before numpy is imported.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_to_first_cpu() -> None:
    """Run this process, its threads and its children on the first usable CPU.

    On a shared machine the two CPUs run at different speeds from minute to
    minute, and where the scheduler places the benchmark (and, serving, the
    server beside it) moved the figures by a quarter to a half between runs.
    Serving then measures the CPU cost of a request, generator included.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def pin_blas_threads() -> int:
    """Pin every BLAS thread pool; call before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    return BLAS_THREADS


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_config() -> Any:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return None
    return config.get("Build Dependencies", {}).get("blas")


def machine_record(root: Path, blas_threads: int) -> dict[str, Any]:
    import numpy as np

    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_config(),
        "blas_threads": blas_threads,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }
