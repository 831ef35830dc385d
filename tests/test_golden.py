"""The 11 preset exports and the ten acceptance lines against their committed
golden record.

``tests/golden/<preset>.csv`` holds the bytes ``export`` gives for each
preset's table at ``preset(name)`` defaults (seed 42, desk-scale trials), and
``tests/golden/acceptance.txt`` the ``[acceptance]`` lines of
``tests/test_acceptance.py`` without their timing field, made at one BLAS
thread on the toolchain ``tests/golden/TOOLCHAIN`` names. The tests
regenerate both in a fresh interpreter, so the thread count is set before
numpy loads, and compare them byte for byte and line by line. Another BLAS,
numpy, scipy or CPU can sum in another order and move a rounding-level digit,
so on another toolchain the tests skip. A change that moves a digit
regenerates the record and commits it, so the diff shows the move:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

GOLDEN = Path(__file__).parent / "golden"
_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
_TIMING = re.compile(r" \(\d+\.\d+s\)")

# run in a fresh interpreter: every preset's export, to the directory argv[1] names
_EMIT = """
import sys
from pathlib import Path
from crisp_alloc.experiments import PRESET_NAMES, export, preset, run_experiment
for name in PRESET_NAMES:
    tables = run_experiment(preset(name)).tables
    Path(sys.argv[1], name + ".csv").write_bytes(b"".join(export(t) for t in tables))
"""


def toolchain() -> str:
    """numpy, scipy, numpy's BLAS, and the CPU features numpy found."""
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # an older numpy only prints its config
        cfg = {}
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    simd = cfg.get("SIMD Extensions", {}).get("found", ["unknown"])
    return (
        f"numpy {np.__version__}\nscipy {scipy.__version__}\n"
        f"blas {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}\n"
        f"cpu {' '.join(simd)}\n"
    )


def _one_thread() -> dict:
    """This environment with one BLAS thread and ``src`` on the import path."""
    path = os.pathsep.join(filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": path}


def emit(out_dir: Path) -> None:
    """Write the 11 exports to ``out_dir`` in a fresh interpreter at one BLAS thread."""
    subprocess.run([sys.executable, "-c", _EMIT, str(out_dir)], env=_one_thread(), check=True)


def acceptance_lines() -> list[str]:
    """The ``[acceptance]`` lines of the acceptance suite's terminal summary,
    run in a fresh interpreter at one BLAS thread, without their timing field."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
        env=_one_thread(), cwd=_ROOT, capture_output=True, text=True,
    )
    summary = run.stdout.partition("acceptance criteria")[2]
    return [_TIMING.sub("", line) for line in summary.splitlines() if line.startswith("[acceptance]")]


def _skip_on_another_toolchain() -> None:
    want, have = (GOLDEN / "TOOLCHAIN").read_text(encoding="utf-8"), toolchain()
    if have != want:
        pytest.skip(
            f"golden record made on [{want.strip().replace(chr(10), '; ')}], "
            f"this is [{have.strip().replace(chr(10), '; ')}]"
        )


def moved_cells(name: str, old: bytes, new: bytes) -> list[str]:
    """Each cell that differs, as 'preset, row r, column c: old -> new'; row 0
    is the header."""
    a, b = (list(csv.reader(x.decode("utf-8").splitlines())) for x in (old, new))
    header = a[0] if a else b[0] if b else []
    out = []
    for r, (ra, rb) in enumerate(itertools.zip_longest(a, b, fillvalue=[])):
        for c, (x, y) in enumerate(itertools.zip_longest(ra, rb, fillvalue="(none)")):
            if x != y:
                col = header[c] if c < len(header) else str(c)
                out.append(f"{name}, row {r}, column {col}: {x} -> {y}")
    return out


@pytest.mark.slow
def test_preset_exports_match_the_golden_record(tmp_path):
    _skip_on_another_toolchain()
    emit(tmp_path)
    names = sorted({p.name for p in GOLDEN.glob("*.csv")} | {p.name for p in tmp_path.glob("*.csv")})
    moved = []
    for name in names:
        old, new = (d / name for d in (GOLDEN, tmp_path))
        old, new = (p.read_bytes() if p.is_file() else b"" for p in (old, new))
        if old != new:
            moved += moved_cells(name[: -len(".csv")], old, new) or [f"{name}: bytes differ"]
    assert not moved, "moved cells:\n" + "\n".join(moved)


@pytest.mark.slow
def test_acceptance_lines_match_the_golden_record():
    _skip_on_another_toolchain()
    old = (GOLDEN / "acceptance.txt").read_text(encoding="utf-8").splitlines()
    pairs = itertools.zip_longest(old, acceptance_lines(), fillvalue="(none)")
    moved = [f"{a} -> {b}" for a, b in pairs if a != b]
    assert not moved, "moved lines:\n" + "\n".join(moved)


if __name__ == "__main__":
    for stale in GOLDEN.glob("*.csv"):
        stale.unlink()
    GOLDEN.mkdir(exist_ok=True)
    emit(GOLDEN)
    (GOLDEN / "acceptance.txt").write_text("\n".join(acceptance_lines()) + "\n", encoding="utf-8")
    (GOLDEN / "TOOLCHAIN").write_text(toolchain(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
