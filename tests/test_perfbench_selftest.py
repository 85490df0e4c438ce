"""The benchmark's self-test passes against the library in this checkout.

``perfbench/selftest.py`` runs every workload at its smallest size, checks
the result line's schema, and checks that a broken answer counts as a
failed operation.  Its interchange workload runs the multicut and split
round trips end to end.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
