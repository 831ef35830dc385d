"""The environment recorded next to every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy

# Largest working set the workloads touch: the N = 1000 float64 covariance.
# The traced kernels stream it (crisp_solve reads 8 N^2 bytes per sweep).
LARGEST_WORKING_SET_BYTES = 8 * 1000 * 1000


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc_bytes() -> int | None:
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        size = _read(str(idx / "size")).strip()
        if size.endswith("K") and size[:-1].isdigit():
            best = int(size[:-1]) * 1024
        elif size.endswith("M") and size[:-1].isdigit():
            best = int(size[:-1]) * 1024 * 1024
    return best


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, or 'unknown' when there is none."""
    head = _read(str(root / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    direct = _read(str(root / ".git" / ref)).strip()
    if direct:
        return direct
    for line in _read(str(root / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: Path, blas_threads: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = _llc_bytes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc,
        "largest_working_set_bytes": LARGEST_WORKING_SET_BYTES,
        "working_set_fits_llc": llc is not None and LARGEST_WORKING_SET_BYTES < llc,
        "bandwidth_claimed": False,
        "byte_and_flop_counts": "computed from N and sweep counts, not measured",
        "git_commit": _git_commit(root),
    }
