"""The benchmark harness in ``perfbench/`` wraps the package's functions and
requires some of their spans.  Its wrapping self-check runs here, so a
change to the package that drops a span the harness requires fails these
tests and not only the benchmark."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_wrapping_check_passes():
    # a fresh interpreter from the repo root, as the harness runs; -B writes
    # no bytecode, so the check leaves no file behind
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run, selftest; "
            "run.prepare_environment(); selftest.check_wrapping()")
    out = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("ok wrapping:")
