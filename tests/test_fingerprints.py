"""Output fingerprints of the benchmark's first seed match the recorded ones.

``perfbench/run.py`` hashes every output document of one pass over a
workload's pool and compares the digest with ``perfbench/fingerprints.json``,
but only reports a mismatch.  Here seed 1 of ``planted-approx`` and
``interchange`` runs for one pass (no timing floor), and the digests must
match, so a change that alters any output document fails the suite.
``exact-certify`` takes longer and is checked by a CI step instead.  The
test only reads ``perfbench/``; interchange's input files go to a
temporary directory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import harness
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))
    return harness, WORKLOADS


@pytest.mark.parametrize("workload", ["planted-approx", "interchange"])
def test_seed_1_fingerprint_matches_record(harness, workload, tmp_path):
    run, workloads = harness
    result = run.run_workload(workloads[workload], 1, 0, False, str(tmp_path), min_ops=0)
    assert result.correct and result.failed == 0, result.failures
    recorded = json.loads((PERFBENCH / "fingerprints.json").read_text())
    assert result.digest == recorded[workload]["1"]
