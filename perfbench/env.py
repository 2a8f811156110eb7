"""Process set-up shared by the benchmark scripts: BLAS thread pinning, the
import of the engine from the checkout's `src/`, and the environment record
written with every result.

`pin_blas_threads` must run before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap every BLAS thread-count variable at nproc (or a lower preset value)."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        raw = os.environ.get(var, "")
        if raw.isdigit() and int(raw) >= 1:
            n = min(n, int(raw))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_engine() -> None:
    """Import `lightinfer` from this checkout's sources, never from site-packages."""
    if not (SRC / "lightinfer" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: engine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import lightinfer

    if Path(lightinfer.__file__).resolve().parent != SRC / "lightinfer":
        raise SystemExit(f"benchmark: imported lightinfer from {lightinfer.__file__}, not {SRC}")


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the engine's source files, so a checkout without git is identified too."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lightinfer").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(blas_threads: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
