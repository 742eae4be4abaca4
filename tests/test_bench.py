"""The benchmark's own self-test, run against the current sources.

The bench tracer replaces module globals by name and its checks recompute
the library's outputs, so a change under src/ that drops a traced name or
breaks a bench check fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stdout + out.stderr
