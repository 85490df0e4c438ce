"""The walkthroughs in ``demos/`` run to completion.

``09_cli_tour.sh`` calls a ``splitclust`` executable; the test puts a shim
that runs ``splitclust.cli.main`` from ``src`` first on the PATH.  The
subprocesses do not inherit pytest's warning filter, so they run with
``PYTHONWARNINGS=error``, as tier-1 does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == [f"0{i}" for i in range(1, 9)]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_tour_runs(tmp_path):
    shim = tmp_path / "splitclust"
    shim.write_text(
        "#!/bin/sh\n"
        f'exec "{sys.executable}" -c "from splitclust.cli import main; main()" "$@"\n'
    )
    shim.chmod(0o755)
    env = dict(
        os.environ,
        PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=str(ROOT / "src"),
        PYTHONWARNINGS="error",
    )
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "09_cli_tour.sh")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
