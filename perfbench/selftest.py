"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at its smallest size, plain and traced, and checks
that the result line has the schema ``BENCHMARK.json`` promises.  Then
feeds each workload's operation a library whose answer lost one vertex
and checks that the operation is counted as failed, not passed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

from splitclust.clustering import Clustering  # noqa: E402


def drop_vertex(f: Clustering) -> Clustering:
    """The clustering with its smallest vertex removed from every cluster."""
    v = min(min(c) for c in f)
    return Clustering(c - {v} for c in f if c - {v})


def broken(api: SimpleNamespace, module: str, name: str) -> SimpleNamespace:
    """``api`` with one function whose returned clustering lost a vertex."""
    fn = getattr(getattr(api, module), name)
    patched = SimpleNamespace(**vars(getattr(api, module)))
    setattr(patched, name, lambda *args, **kwargs: drop_vertex(fn(*args, **kwargs)))
    out = SimpleNamespace(**vars(api))
    setattr(out, module, patched)
    return out


# The function whose answer each workload's checks must reject once broken.
BREAK = {
    "planted-approx": ("approx", "approximate"),
    "exact-certify": ("exact", "solve_exact"),
    "interchange": ("multicut", "multicut_solution_to_clustering"),
}


def check_schema(line: str, expected: dict) -> None:
    result = json.loads(line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value, (name, value)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == harness.END_TO_END_UNITS
    assert per_layer == harness.per_layer_units()

    out_dir = HERE / "out" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, workload in WORKLOADS.items():
        small = workload.at_smallest_size()
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = harness.run_workload(small, 1, 0, trace, str(out_dir), min_ops=1)
            check_schema(harness.result_line(result, trace), expected)
        print(f"ok {name}: smallest size runs and the result line parses")

        plain = harness.bind(None)
        case = small.setup(plain, 1, str(out_dir))[0]
        outcome, error = harness.attempt(small.op, plain, case)
        assert error is None, error
        outcome, error = harness.attempt(small.op, broken(plain, *BREAK[name]), case)
        assert outcome is None and isinstance(error, CheckFailed), f"broken clustering gave {error!r}"
        print(f"ok {name}: a clustering missing a vertex fails ({error})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
