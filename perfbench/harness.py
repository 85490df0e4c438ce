"""Closed loop, tracing and metrics of the benchmark.

One caller in one process runs a workload's operations back to back, with
no threads.  Untraced runs give the end-to-end metrics.  Traced runs run
every round twice, once plain and once with a span around each call the
benchmark makes into a public function of a library module.  The spans
give the per-layer metrics, and the plain rounds give the tracing overhead.
Operation times are reported in units of a fixed reference task timed
between operations (``reference.py``), because the host's speed drifts.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

from splitclust.exact import SearchLimitReached

from reference import CHECKSUM, reference_task
from workloads import CliExit, Outcome, Workload

# The layers, and the public functions of each that the benchmark calls.
API = {
    "graphs": ("parse_graph", "write_graph"),
    "clustering": (
        "parse_clustering",
        "write_clustering",
        "verify_clustering",
        "cost",
        "clustering_to_splits",
        "splits_to_clustering",
    ),
    "detect": ("lower_bound",),
    "kernel": ("kernelize", "lift_clustering", "write_transcript"),
    "approx": ("approximate",),
    "exact": ("solve_exact",),
    "multicut": (
        "ccvs_to_mcvs",
        "mcvs_to_ccvs",
        "clustering_to_multicut_solution",
        "multicut_solution_to_clustering",
        "verify_multicut_solution",
        "parse_multicut_instance",
        "write_multicut_instance",
        "parse_multicut_solution",
        "write_multicut_solution",
    ),
    "generators": ("gen_random",),
    "cli": ("run",),
}

SETUP_REPS = 5  # set-ups per run; setup_s is their median
MIN_OPS = 40  # with the tail at p75, at least 10 operations lie beyond it
TAIL = 0.75
REF_EVERY = 0.15  # seconds of operations between two timings of the reference task
REF_WINDOW = 3  # an op is divided by the median of the reference timings this near it
# Seconds the reference task takes on the host the benchmark was tuned on
# (2 vCPUs, x86-64, Python 3.11) when that host runs at full speed.
# setup_s is given in seconds of a host that fast.
REF_NOMINAL_S = 0.025

END_TO_END_UNITS = {
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "ops_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cost_over_lb": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, names in API.items():
        for name in names:
            units[f"{module}.{name}_s"] = "s"
        units[f"{module}.busy_s"] = "s"
        units[f"{module}.calls"] = "1/op"
        units[f"{module}.errors"] = "count"
    units.update(
        {
            "graphs.bytes_in": "bytes",
            "detect.forest_weight": "count",
            "kernel.kernel_n_frac": "ratio",
            "exact.levels": "count",
            "exact.limit_hits": "count",
            "multicut.terminals": "count",
            "cli.exit_nonzero": "count",
            "trace_overhead_frac": "ratio",
        }
    )
    return units


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    raised: bool


class Tracer:
    """Records spans in memory; ``spans`` is complete once every span closed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[int] = []
        self._next = 0

    def span(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self, name)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with _OpenSpan(self, name):
                return fn(*args, **kwargs)

        return traced


class _OpenSpan:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.sid = t._next
        t._next += 1
        self.parent = t._open[-1] if t._open else None
        t._open.append(self.sid)
        self.start = perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        t = self.tracer
        t._open.pop()
        t.spans.append(
            Span(self.sid, self.name, self.start, end, self.parent, t.op, exc_type is not None)
        )
        return False


def bind(tracer: Tracer | None) -> SimpleNamespace:
    """``api.<module>.<function>``: the library's functions, traced if asked."""
    api = SimpleNamespace()
    for module, names in API.items():
        lib = importlib.import_module(f"splitclust.{module}")
        fns = {}
        for name in names:
            fn = getattr(lib, name)
            fns[name] = fn if tracer is None else tracer.wrap(f"{module}.{name}", fn)
        setattr(api, module, SimpleNamespace(**fns))
    return api


def attempt(op, api, case) -> tuple[Outcome | None, Exception | None]:
    """Run one operation; any exception, check failures included, is a failure."""
    try:
        return op(api, case), None
    except Exception as exc:  # counted and reported by the caller; never retried
        return None, exc


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    return {s.sid: s.end - s.start - covered.get(s.sid, 0.0) for s in spans}


def _roots(spans: list[Span]) -> dict[int, str]:
    """Span id -> name of the outermost span it lies in (``op`` or ``setup``)."""
    parent = {s.sid: s.parent for s in spans}
    name = {s.sid: s.name for s in spans}
    out = {}
    for sid in parent:
        top = sid
        while parent[top] is not None:
            top = parent[top]
        out[sid] = name[top]
    return out


def layer_metrics(spans: list[Span], ops: int, setups: int) -> dict[str, float]:
    """Busy (self) seconds and calls per op for each traced function and layer.

    The generators layer is only called during set-up, so its figures are
    per set-up instead of per op.  Errors are totals.
    """
    own = self_times(spans)
    root = _roots(spans)
    busy: Counter[tuple[str, str]] = Counter()
    calls: Counter[tuple[str, str]] = Counter()
    errors: Counter[str] = Counter()
    for s in spans:
        key = (root[s.sid], s.name)
        busy[key] += own[s.sid]
        calls[key] += 1
        errors[s.name] += s.raised
    out: dict[str, float] = {}
    for module, names in API.items():
        phase, per = ("setup", setups) if module == "generators" else ("op", ops)
        per = max(per, 1)
        keys = [(phase, f"{module}.{name}") for name in names]
        for name, key in zip(names, keys):
            out[f"{module}.{name}_s"] = busy[key] / per
        out[f"{module}.busy_s"] = sum(busy[key] for key in keys) / per
        out[f"{module}.calls"] = sum(calls[key] for key in keys) / per
        out[f"{module}.errors"] = sum(errors[f"{module}.{name}"] for name in names)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def time_reference() -> float:
    """Seconds the reference task takes, with no garbage collection inside them."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        checksum = reference_task()
        elapsed = perf_counter() - start
    finally:
        gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError(f"reference task returned {checksum}, not {CHECKSUM}")
    return elapsed


def normalized(times: list[float], ref_of: list[int], refs: list[float]) -> list[float]:
    """Each op's wall time in units of the reference task's time around it."""
    out = []
    for t, j in zip(times, ref_of):
        near = refs[max(0, j - REF_WINDOW) : j + REF_WINDOW + 1]
        out.append(t / statistics.median(near))
    return out


def digest(outcomes: list[Outcome | None]) -> str:
    """SHA-256 over every output document of one pass over the cases, in order."""
    h = hashlib.sha256()
    for outcome in outcomes:
        docs = [b"<failed>"] if outcome is None else outcome.docs
        for doc in docs:
            h.update(len(doc).to_bytes(8, "big"))
            h.update(doc)
    return h.hexdigest()


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    digest: str
    notes: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
    min_ops: int = MIN_OPS,
) -> Result:
    """Set up, then loop whole rounds until the time is up and the pool was seen once."""
    tracer = Tracer() if trace else None
    plain = bind(None)
    traced = bind(tracer) if tracer else None
    setup_times: list[float] = []
    setup_refs = [time_reference()]  # before the first set-up and after each one
    cases = None
    deterministic = True
    for _ in range(SETUP_REPS):
        start = perf_counter()
        with tracer.span("setup") if tracer else nullcontext():
            fresh = workload.setup(traced or plain, seed, out_dir)
        setup_times.append(perf_counter() - start)
        setup_refs.append(time_reference())
        deterministic &= cases is None or fresh == cases
        cases = fresh

    per_round = len(cases) // workload.rounds
    first: list[Outcome | None] = [None] * len(cases)
    times: list[float] = []
    refs: list[float] = []  # timings of the reference task, taken between plain ops
    ref_of: list[int] = []  # for each plain op, the index of the last reference timing
    since_ref = REF_EVERY
    mode_time = {"plain": 0.0, "traced": 0.0}
    traced_ops = attempted = failed = limit_hits = exit_nonzero = 0
    failures: list[str] = []
    modes = [("plain", plain, None)] + ([("traced", traced, tracer)] if tracer else [])

    loop_start = perf_counter()
    deadline = loop_start + seconds
    rounds_done = 0
    while True:
        base = (rounds_done % workload.rounds) * per_round
        for mode, api, mode_tracer in modes:
            for index in range(base, base + per_round):
                if not trace and since_ref >= REF_EVERY:
                    refs.append(time_reference())
                    since_ref = 0.0
                start = perf_counter()
                if mode_tracer is None:
                    outcome, error = attempt(workload.op, api, cases[index])
                else:
                    mode_tracer.op = attempted
                    with mode_tracer.span("op"):
                        outcome, error = attempt(workload.op, api, cases[index])
                    mode_tracer.op = None
                    traced_ops += 1
                elapsed = perf_counter() - start
                mode_time[mode] += elapsed
                if mode == "plain":
                    times.append(elapsed)
                    ref_of.append(len(refs) - 1)
                    since_ref += elapsed
                attempted += 1
                if error is not None:
                    failed += 1
                    limit_hits += isinstance(error, SearchLimitReached)
                    exit_nonzero += isinstance(error, CliExit)
                    if len(failures) < 5:
                        failures.append(
                            f"case {index} ({cases[index].kind}, n={cases[index].n}): "
                            f"{type(error).__name__}: {error}"
                        )
                elif first[index] is None:
                    first[index] = outcome
        rounds_done += 1
        if (
            rounds_done >= workload.rounds
            and (trace or len(times) >= min_ops)
            and perf_counter() >= deadline
        ):
            break
    loop_time = perf_counter() - loop_start

    seen = [o for o in first if o is not None]
    notes = [
        f"workload={workload.name} seed={seed} trace={int(trace)} cases={len(cases)} "
        f"rounds={rounds_done} attempted={attempted} failed={failed} "
        f"failed_frac={_ratio(failed, attempted):.6f}"
    ]
    if not deterministic:
        failures.append("set-up produced different cases from the same seed")
    if trace:
        metrics = layer_metrics(tracer.spans, traced_ops, SETUP_REPS)
        metrics.update(
            {
                "graphs.bytes_in": sum(o.bytes_in for o in seen),
                "detect.forest_weight": sum(o.lb for o in seen),
                "kernel.kernel_n_frac": _ratio(
                    sum(o.kernel_n for o in seen), sum(o.kernel_of for o in seen)
                ),
                "exact.levels": sum(o.levels for o in seen),
                "exact.limit_hits": limit_hits,
                "multicut.terminals": sum(o.terminals for o in seen),
                "cli.exit_nonzero": exit_nonzero,
                "trace_overhead_frac": _ratio(mode_time["traced"], mode_time["plain"]) - 1.0,
            }
        )
    else:
        ratios = normalized(times, ref_of, refs)
        ordered = sorted(ratios)
        rank = math.ceil(TAIL * len(ordered))
        wall = sorted(times)
        notes.append(
            f"op_tail_ref is p{round(TAIL * 100)} (nearest rank {rank} of {len(ordered)} ops, "
            f"{len(ordered) - rank} beyond it)"
        )
        notes.append(
            f"wall time: op p50 {statistics.median(wall):.6f} s, "
            f"op p{round(TAIL * 100)} {wall[rank - 1]:.6f} s, "
            f"{len(times) / loop_time:.4f} ops/s; reference task median "
            f"{statistics.median(refs):.6f} s over {len(refs)} timings; set-up median "
            f"{statistics.median(setup_times):.6f} s, reference task median around set-ups "
            f"{statistics.median(setup_refs):.6f} s"
        )
        metrics = {
            "op_p50_ref": statistics.median(ordered),
            "op_tail_ref": ordered[rank - 1],
            "ops_per_ref": len(ratios) / math.fsum(ratios),
            "setup_s": statistics.median(setup_times)
            / statistics.median(setup_refs)
            * REF_NOMINAL_S,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cost_over_lb": _ratio(sum(o.cost for o in seen), sum(o.reference for o in seen)),
        }
    return Result(
        correct=failed == 0 and deterministic,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        digest=digest(first),
        notes=notes,
        failures=failures,
        spans=tracer.spans if tracer else [],
    )


def result_line(result: Result, trace: bool) -> str:
    """The JSON object a run prints last: every per-layer or end-to-end metric."""
    units = per_layer_units() if trace else END_TO_END_UNITS
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()}
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
    )


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps(s._asdict()) + "\n")
