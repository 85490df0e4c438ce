"""Record the output fingerprints that runs compare against.

    python3 perfbench/record.py 1 2 3

For each seed and workload, runs one pass over the set-up cases, without
timing, and stores the digest of every output document in
``perfbench/fingerprints.json``, next to the seeds already recorded.
"""

from __future__ import annotations

import json
import sys

from run import FINGERPRINTS, ROOT, out_dir

sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(seeds: list[str]) -> int:
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    for seed in map(int, seeds):
        for name, workload in WORKLOADS.items():
            result = harness.run_workload(workload, seed, 0, False, out_dir(name, seed), min_ops=0)
            if not result.correct:
                print(f"{name} seed {seed}: not recorded, {result.failed} failed", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = result.digest
            print(f"{name} seed {seed}: {result.digest}")
    ordered = {
        name: dict(sorted(runs.items(), key=lambda kv: int(kv[0])))
        for name, runs in sorted(recorded.items())
    }
    FINGERPRINTS.write_text(json.dumps(ordered, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
