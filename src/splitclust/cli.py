"""Command line front end.

Exit codes: 0 success (or yes/valid), 1 negative answer (no, invalid,
nothing found), 2 usage or input format errors, 3 search resource
exhausted.  ``-`` reads the input document from stdin.  ``--json`` swaps
the text output for a single JSON object with fields ``command``,
``input``, ``result`` and, where meaningful, ``cost``, ``bound`` and
``valid``.  All output is deterministic: the same invocation on the same
input produces identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .approx import approximate, candidate_solutions
from .clustering import (
    Clustering,
    cost,
    parse_clustering,
    verify_clustering,
    write_clustering,
)
from .detect import lower_bound
from .exact import SearchBudget, SearchLimitReached, decide, solve_exact
from .graphs import (
    CorrelationGraph,
    FormatError,
    blue_components,
    cluster_decomposition,
    parse_graph,
    write_graph,
)
from .generators import PlainGraph, gen_coloring_gadget, gen_random, gen_vertex_cover_gadget
from .kernel import Kernelized, kernelize, lift_clustering, parse_transcript, write_transcript
from .multicut import (
    ccvs_to_mcvs,
    clustering_to_multicut_solution,
    mcvs_to_ccvs,
    multicut_solution_to_clustering,
    parse_multicut_instance,
    parse_multicut_solution,
    write_multicut_instance,
    write_multicut_solution,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first ``run`` and shared by the later ones.

    ``parse_args`` leaves a parser as it found it, so one serves every call.
    """
    parser = _Parser(prog="splitclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON object")
        return p

    p = add("stats", "basic figures of a correlation graph")
    p.add_argument("graph", help="ccg file or -")

    p = add("lb", "bad-star-forest lower bound of a complete graph")
    p.add_argument("graph", help="ccg file or -")

    p = add("decide", "is there a clustering of cost at most the budget")
    p.add_argument("graph", help="ccg file or -")
    p.add_argument("--budget", type=int, required=True, help="cost budget k")
    p.add_argument("--node-limit", type=int, default=None, help="search node cap")

    p = add("exact", "minimum-cost clustering within the budget")
    p.add_argument("graph", help="ccg file or -")
    p.add_argument("--budget", type=int, default=None, help="cost budget (default 6)")
    p.add_argument("--node-limit", type=int, default=None, help="search node cap")

    p = add("approx", "factor-7 approximate clustering of a complete graph")
    p.add_argument("graph", help="ccg file or -")
    p.add_argument(
        "--guess-all",
        action="store_true",
        help="report every candidate solution instead of only the best",
    )

    p = add("kernel", "shrink to an equivalent instance for the budget")
    p.add_argument("graph", help="ccg file or -")
    p.add_argument("--budget", type=int, required=True, help="cost budget k")
    p.add_argument("--transcript", default=None, help="write the ktx transcript here")

    p = add("lift", "expand a kernel solution using a transcript")
    p.add_argument("clustering", help="clu file or -")
    p.add_argument("--transcript", required=True, help="ktx transcript file")

    p = add("verify", "check a clustering against a graph")
    p.add_argument("graph", help="ccg file")
    p.add_argument("clustering", help="clu file")

    p = add("reduce", "convert between clustering and multicut documents")
    p.add_argument(
        "direction",
        choices=["ccvs-to-mcvs", "mcvs-to-ccvs", "clu-to-mcsol", "mcsol-to-clu"],
    )
    p.add_argument("inputs", nargs="+", help="input documents (see direction)")
    p.add_argument("--budget", type=int, default=0, help="budget for ccvs-to-mcvs")

    p = add("gen", "generate instances")
    gen_sub = p.add_subparsers(dest="generator", required=True)
    q = gen_sub.add_parser("random")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p-blue", type=float, required=True)
    q.add_argument("--p-red", type=float, required=True)
    kind = q.add_mutually_exclusive_group(required=True)
    kind.add_argument("--complete", action="store_true")
    kind.add_argument("--incomplete", action="store_true")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q = gen_sub.add_parser("vc-gadget")
    q.add_argument("--n", type=int, required=True, help="vertices of the plain graph")
    q.add_argument("--edges", default="", help="edge list like 0-1,1-2")
    q.add_argument("--budget", type=int, required=True, help="cover size to decide")
    q.add_argument("--json", action="store_true")
    q = gen_sub.add_parser("coloring-gadget")
    q.add_argument("--n", type=int, required=True, help="vertices of the plain graph")
    q.add_argument("--edges", default="", help="edge list like 0-1,1-2")
    q.add_argument("--colors", type=int, required=True, help="number of colors (>= 3)")
    q.add_argument("--json", action="store_true")
    return parser


def _read(path: str, stdin) -> bytes:
    if path == "-":
        buffer = getattr(stdin, "buffer", None)
        if buffer is not None:
            return buffer.read()
        data = stdin.read()
        return data.encode("utf-8") if isinstance(data, str) else data
    with open(path, "rb") as handle:
        return handle.read()


def _emit(stdout, data: bytes | str) -> None:
    stdout.write(data.decode("utf-8") if isinstance(data, bytes) else data)


def _emit_json(stdout, obj) -> None:
    stdout.write(json.dumps(obj) + "\n")


def _clusters_as_lists(f: Clustering) -> list[list[int]]:
    return [sorted(c) for c in f]


def _cmd_stats(args, stdin, stdout, stderr) -> int:
    g = parse_graph(_read(args.graph, stdin))
    n_blue, n_red = g.count_colors()
    comps = blue_components(g)
    is_cluster = cluster_decomposition(g) is not None
    bound = lower_bound(g) if g.complete else None
    if args.json:
        result = {
            "n": g.n,
            "complete": g.complete,
            "blue": n_blue,
            "red": n_red,
            "blue_components": len(comps),
            "cluster_graph": is_cluster,
        }
        obj = {"command": "stats", "input": args.graph, "result": result}
        if bound is not None:
            obj["bound"] = bound
        _emit_json(stdout, obj)
        return 0
    lines = [
        f"n {g.n}",
        f"kind {'complete' if g.complete else 'incomplete'}",
        f"blue {n_blue}",
        f"red {n_red}",
        f"blue-components {len(comps)}",
        f"cluster-graph {'yes' if is_cluster else 'no'}",
    ]
    if bound is not None:
        lines.append(f"lower-bound {bound}")
    _emit(stdout, "\n".join(lines) + "\n")
    return 0


def _cmd_lb(args, stdin, stdout, stderr) -> int:
    g = parse_graph(_read(args.graph, stdin))
    bound = lower_bound(g)
    if args.json:
        obj = {"command": "lb", "input": args.graph, "result": bound, "bound": bound}
        _emit_json(stdout, obj)
    else:
        _emit(stdout, f"{bound}\n")
    return 0


def _budget(args) -> SearchBudget:
    kwargs = {}
    if getattr(args, "budget", None) is not None:
        kwargs["max_cost"] = args.budget
    if getattr(args, "node_limit", None) is not None:
        kwargs["node_limit"] = args.node_limit
    return SearchBudget(**kwargs)


def _cmd_decide(args, stdin, stdout, stderr) -> int:
    g = parse_graph(_read(args.graph, stdin))
    answer = decide(g, args.budget, node_limit=args.node_limit)
    if args.json:
        obj = {"command": "decide", "input": args.graph, "result": answer}
        _emit_json(stdout, obj)
    else:
        _emit(stdout, "yes\n" if answer else "no\n")
    return 0 if answer else 1


def _cmd_exact(args, stdin, stdout, stderr) -> int:
    g = parse_graph(_read(args.graph, stdin))
    found = solve_exact(g, _budget(args))
    if args.json:
        obj = {
            "command": "exact",
            "input": args.graph,
            "result": None if found is None else _clusters_as_lists(found),
        }
        if found is not None:
            obj["cost"] = cost(found, g.n)
        _emit_json(stdout, obj)
        return 0 if found is not None else 1
    if found is None:
        print("splitclust: no clustering within the budget", file=stderr)
        return 1
    _emit(stdout, write_clustering(found))
    return 0


def _cmd_approx(args, stdin, stdout, stderr) -> int:
    g = parse_graph(_read(args.graph, stdin))
    if args.guess_all:
        candidates = candidate_solutions(g)
        if args.json:
            result = [
                {
                    "guess": None if c.guess is None else sorted(c.guess),
                    "cost": c.cost,
                    "clusters": _clusters_as_lists(c.assembled),
                }
                for c in candidates
            ]
            obj = {"command": "approx", "input": args.graph, "result": result}
            _emit_json(stdout, obj)
            return 0
        for c in candidates:
            label = "-" if c.guess is None else " ".join(map(str, sorted(c.guess)))
            _emit(stdout, f"guess {label} cost {c.cost}\n")
            _emit(stdout, write_clustering(c.assembled))
        return 0
    f = approximate(g)
    if not verify_clustering(g, f).ok:
        raise AssertionError("approximate clustering failed verification")
    if args.json:
        obj = {
            "command": "approx",
            "input": args.graph,
            "result": _clusters_as_lists(f),
            "cost": cost(f, g.n),
        }
        _emit_json(stdout, obj)
    else:
        _emit(stdout, write_clustering(f))
    return 0


def _cmd_kernel(args, stdin, stdout, stderr) -> int:
    g = parse_graph(_read(args.graph, stdin))
    outcome = kernelize(g, args.budget)
    if isinstance(outcome, Kernelized):
        if args.transcript:
            with open(args.transcript, "wb") as handle:
                handle.write(write_transcript(outcome.transcript))
        if args.json:
            result = {"kind": "kernel", "n": outcome.graph.n}
            obj = {"command": "kernel", "input": args.graph, "result": result}
            _emit_json(stdout, obj)
        else:
            _emit(stdout, write_graph(outcome.graph))
        return 0
    weight = outcome.witness.weight
    if args.json:
        result = {"kind": "no-instance", "weight": weight}
        obj = {"command": "kernel", "input": args.graph, "result": result}
        _emit_json(stdout, obj)
    else:
        _emit(stdout, f"no-instance weight {weight}\n")
    return 1


def _cmd_lift(args, stdin, stdout, stderr) -> int:
    f = parse_clustering(_read(args.clustering, stdin))
    transcript = parse_transcript(_read(args.transcript, stdin))
    try:
        lifted = lift_clustering(f, transcript)
    except ValueError as exc:
        print(f"splitclust: {exc}", file=stderr)
        return 1
    if args.json:
        obj = {
            "command": "lift",
            "input": [args.clustering, args.transcript],
            "result": _clusters_as_lists(lifted),
            "cost": cost(lifted, transcript.original_n),
        }
        _emit_json(stdout, obj)
    else:
        _emit(stdout, write_clustering(lifted))
    return 0


def _cmd_verify(args, stdin, stdout, stderr) -> int:
    g = parse_graph(_read(args.graph, stdin))
    f = parse_clustering(_read(args.clustering, stdin))
    report = verify_clustering(g, f)
    if args.json:
        result = {
            "uncovered_vertices": list(report.uncovered_vertices),
            "uncovered_blue": [list(p) for p in report.uncovered_blue],
            "unresolved_red": [list(p) for p in report.unresolved_red],
        }
        obj = {
            "command": "verify",
            "input": [args.graph, args.clustering],
            "result": result,
            "valid": report.ok,
        }
        _emit_json(stdout, obj)
        return 0 if report.ok else 1
    if report.ok:
        return 0
    lines = ["invalid"]
    lines += [f"uncovered-vertex {v}" for v in report.uncovered_vertices]
    lines += [f"uncovered-blue {u} {v}" for u, v in report.uncovered_blue]
    lines += [f"unresolved-red {u} {v}" for u, v in report.unresolved_red]
    _emit(stdout, "\n".join(lines) + "\n")
    return 1


def _cmd_reduce(args, stdin, stdout, stderr) -> int:
    direction = args.direction
    expected = {"ccvs-to-mcvs": 1, "mcvs-to-ccvs": 1, "clu-to-mcsol": 2, "mcsol-to-clu": 2}
    if len(args.inputs) != expected[direction]:
        raise ValueError(
            f"{direction} takes {expected[direction]} input document(s), "
            f"got {len(args.inputs)}"
        )
    if direction == "ccvs-to-mcvs":
        g = parse_graph(_read(args.inputs[0], stdin))
        inst = ccvs_to_mcvs(g, args.budget)
        document = write_multicut_instance(inst)
        obj = {"command": "reduce", "input": args.inputs[0], "result": document.decode("utf-8")}
    elif direction == "mcvs-to-ccvs":
        inst = parse_multicut_instance(_read(args.inputs[0], stdin))
        g, k = mcvs_to_ccvs(inst)
        document = f"# budget {k}\n".encode("utf-8") + write_graph(g)
        obj = {
            "command": "reduce",
            "input": args.inputs[0],
            "result": document.decode("utf-8"),
            "bound": k,
        }
    elif direction == "clu-to-mcsol":
        g = parse_graph(_read(args.inputs[0], stdin))
        f = parse_clustering(_read(args.inputs[1], stdin))
        sol = clustering_to_multicut_solution(g, f)
        document = write_multicut_solution(g.n, sol)
        obj = {
            "command": "reduce",
            "input": list(args.inputs),
            "result": document.decode("utf-8"),
            "cost": sol.cost,
        }
    else:
        inst = parse_multicut_instance(_read(args.inputs[0], stdin))
        n, sol = parse_multicut_solution(_read(args.inputs[1], stdin))
        if n != inst.n:
            raise ValueError(f"solution is for {n} vertices, instance has {inst.n}")
        f = multicut_solution_to_clustering(inst, sol)
        document = write_clustering(f)
        obj = {
            "command": "reduce",
            "input": list(args.inputs),
            "result": document.decode("utf-8"),
            "cost": cost(f, inst.n),
        }
    if args.json:
        _emit_json(stdout, obj)
    else:
        _emit(stdout, document)
    return 0


def _parse_edge_list(text: str) -> list[tuple[int, int]]:
    if not text:
        return []
    edges = []
    for chunk in text.split(","):
        left, sep, right = chunk.partition("-")
        if not sep:
            raise ValueError(f"edge {chunk!r} must look like 0-1")
        try:
            edges.append((int(left), int(right)))
        except ValueError:
            raise ValueError(f"edge {chunk!r} must join two integers") from None
    return edges


def _cmd_gen(args, stdin, stdout, stderr) -> int:
    if args.generator == "random":
        g = gen_random(
            args.n,
            args.p_blue,
            args.p_red,
            complete=args.complete,
            seed=args.seed,
        )
        document = write_graph(g)
    elif args.generator == "vc-gadget":
        plain = PlainGraph(args.n, _parse_edge_list(args.edges))
        document = write_graph(gen_vertex_cover_gadget(plain, args.budget))
    else:
        plain = PlainGraph(args.n, _parse_edge_list(args.edges))
        document = write_multicut_instance(gen_coloring_gadget(plain, args.colors))
    if args.json:
        obj = {"command": "gen", "input": None, "result": document.decode("utf-8")}
        _emit_json(stdout, obj)
    else:
        _emit(stdout, document)
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "lb": _cmd_lb,
    "decide": _cmd_decide,
    "exact": _cmd_exact,
    "approx": _cmd_approx,
    "kernel": _cmd_kernel,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "gen": _cmd_gen,
}


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Run one invocation; returns the exit code instead of exiting."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"splitclust: {exc}", file=stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, stdin, stdout, stderr)
    except SearchLimitReached as exc:
        print(f"splitclust: {exc}", file=stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"splitclust: {exc}", file=stderr)
        return 2
    except ValueError as exc:
        print(f"splitclust: {exc}", file=stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
