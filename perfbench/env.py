"""Launch environment: BLAS pinning, the source path, and the record kept with results."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_source_tree() -> None:
    """Import hgmts from this checkout's src/, never from an installed copy."""
    if not (SRC / "hgmts" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hgmts sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; don't report an enclosing repo
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def record() -> dict:
    """Machine, interpreter and library facts for one result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "os_threads": _os_threads(),
        "git_sha": _git_sha(),
    }
