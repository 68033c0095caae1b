"""Thread pinning and the environment record attached to every result.

`pin_threads` must run before numpy is imported: OpenBLAS reads its thread
count once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The figure presets run their trajectories on a thread pool of this size.
# BLAS stays single-threaded, so a run never uses more than nproc threads
# doing numerical work.
POOL_THREADS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Pin thread counts and put the checkout's ``src/`` on the import path."""
    pinned = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "CDLMG_THREADS": str(min(POOL_THREADS, nproc()))}
    if "numpy" in sys.modules and any(os.environ.get(k) != v for k, v in pinned.items()):
        raise RuntimeError("pin_threads() must run before numpy is imported")
    os.environ.update(pinned)
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in paths if p != str(SRC)])
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def record() -> dict:
    """Versions, BLAS build and thread settings of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "CDLMG_THREADS": os.environ.get("CDLMG_THREADS"),
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }
