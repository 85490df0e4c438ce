"""Seeded benchmark of splitclust.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planted-approx --seed 1 --seconds 30 --trace 0

It imports the library from ``src/`` of the checkout, generates the
workload's inputs from the seed, runs operations in a closed loop for the
given seconds and checks every output.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Traced runs also write their spans as JSON lines under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"


def out_dir(workload: str, seed: int) -> str:
    path = HERE / "out" / f"{workload}-seed{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def fingerprint_line(workload: str, seed: int, found: str) -> str:
    expected = json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))
    if expected is None:
        return f"fingerprint {found} unrecorded (no reference for seed {seed})"
    if expected == found:
        return f"fingerprint {found} match"
    return f"fingerprint {found} MISMATCH (recorded {expected})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "splitclust" / "__init__.py").is_file():
        print(f"perfbench: no splitclust sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    directory = out_dir(args.workload, args.seed)
    result = harness.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), directory
    )
    if args.trace:
        harness.write_spans(result.spans, os.path.join(directory, "spans.jsonl"))
    for line in result.notes:
        print(line)
    print(fingerprint_line(args.workload, args.seed, result.digest))
    for line in result.failures:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(harness.result_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
