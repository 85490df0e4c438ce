"""Command line front end.

Every subcommand answers on stdout in text, or under ``--json`` as one JSON
object with the keys ``command``, ``input``, ``result`` and, where
meaningful, ``cost``, ``bound`` or ``valid``, in that order.  Exit codes: 0
success (or yes/valid), 1 negative answer (no, invalid, nothing found), 2
usage or input format errors, 3 search node limit reached.  An error or a
refusal is one ``splitclust: ...`` line on stderr.  ``-`` reads the input
document from stdin.  All output is deterministic: the same invocation on
the same input produces identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
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
    FormatError,
    _is_blue_clique,
    _read_ints,
    blue_components,
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


class _Negative(Exception):
    """A negative answer, told on stderr with exit code 1.

    Under ``--json`` an answer with ``fields`` prints them instead.
    """

    def __init__(self, message: str, fields=None):
        super().__init__(message)
        self.fields = fields


# Each _cmd_* returns (exit code, text, fields) or raises.  ``fields`` builds
# the JSON fields after "command" and "input"; run calls it only under --json,
# where it may do work or raise what the text never needs (lift's cost).
def _clustering_answer(f: Clustering, n: int):
    return 0, write_clustering(f).decode(), lambda: {
        "result": [sorted(c) for c in f],
        "cost": cost(f, n),
    }


def _cmd_stats(args, stdin):
    g = parse_graph(_read(args.graph, stdin))
    n_blue, n_red = g.count_colors()
    comps = blue_components(g)
    is_cluster = all(_is_blue_clique(g, comp) for comp in comps)
    text = (
        f"n {g.n}\nkind {'complete' if g.complete else 'incomplete'}\n"
        f"blue {n_blue}\nred {n_red}\nblue-components {len(comps)}\n"
        f"cluster-graph {'yes' if is_cluster else 'no'}\n"
    )
    result = {
        "n": g.n,
        "complete": g.complete,
        "blue": n_blue,
        "red": n_red,
        "blue_components": len(comps),
        "cluster_graph": is_cluster,
    }
    fields = {"result": result}
    if g.complete:
        fields["bound"] = bound = lower_bound(g)
        text += f"lower-bound {bound}\n"
    return 0, text, lambda: fields


def _cmd_lb(args, stdin):
    bound = lower_bound(parse_graph(_read(args.graph, stdin)))
    return 0, f"{bound}\n", lambda: {"result": bound, "bound": bound}


def _cmd_decide(args, stdin):
    g = parse_graph(_read(args.graph, stdin))
    answer = decide(g, args.budget, node_limit=args.node_limit)
    return (0 if answer else 1), ("yes\n" if answer else "no\n"), lambda: {"result": answer}


def _cmd_exact(args, stdin):
    g = parse_graph(_read(args.graph, stdin))
    limits = {"max_cost": args.budget, "node_limit": args.node_limit}
    found = solve_exact(g, SearchBudget(**{k: v for k, v in limits.items() if v is not None}))
    if found is None:
        raise _Negative("no clustering within the budget", lambda: {"result": None})
    return _clustering_answer(found, g.n)


def _cmd_approx(args, stdin):
    g = parse_graph(_read(args.graph, stdin))
    if args.guess_all:
        candidates = candidate_solutions(g)
        guesses = [None if c.guess is None else sorted(c.guess) for c in candidates]
        text = "".join(
            f"guess {'-' if guess is None else ' '.join(map(str, guess))} cost {c.cost}\n"
            + write_clustering(c.assembled).decode()
            for guess, c in zip(guesses, candidates)
        )
        return 0, text, lambda: {"result": [
            {"guess": guess, "cost": c.cost, "clusters": [sorted(x) for x in c.assembled]}
            for guess, c in zip(guesses, candidates)
        ]}
    f = approximate(g)
    if not verify_clustering(g, f).ok:
        raise AssertionError("approximate clustering failed verification")
    return _clustering_answer(f, g.n)


def _cmd_kernel(args, stdin):
    g = parse_graph(_read(args.graph, stdin))
    outcome = kernelize(g, args.budget)
    if not isinstance(outcome, Kernelized):
        weight = outcome.witness.weight
        result = {"kind": "no-instance", "weight": weight}
        return 1, f"no-instance weight {weight}\n", lambda: {"result": result}
    if args.transcript:
        with open(args.transcript, "wb") as handle:
            handle.write(write_transcript(outcome.transcript))
    result = {"kind": "kernel", "n": outcome.graph.n}
    return 0, write_graph(outcome.graph).decode(), lambda: {"result": result}


def _cmd_lift(args, stdin):
    f = parse_clustering(_read(args.clustering, stdin))
    transcript = parse_transcript(_read(args.transcript, stdin))
    try:
        lifted = lift_clustering(f, transcript)
    except ValueError as exc:
        raise _Negative(str(exc)) from None
    return _clustering_answer(lifted, transcript.original_n)


def _cmd_verify(args, stdin):
    g = parse_graph(_read(args.graph, stdin))
    report = verify_clustering(g, parse_clustering(_read(args.clustering, stdin)))
    text = "" if report.ok else "invalid\n"
    text += "".join([f"{line}\n" for line in report._lines()])
    return (0 if report.ok else 1), text, lambda: {
        "result": {
            "uncovered_vertices": list(report.uncovered_vertices),
            "uncovered_blue": [list(p) for p in report.uncovered_blue],
            "unresolved_red": [list(p) for p in report.unresolved_red],
        },
        "valid": report.ok,
    }


def _cmd_reduce(args, stdin):
    direction = args.direction
    expected = {"ccvs-to-mcvs": 1, "mcvs-to-ccvs": 1, "clu-to-mcsol": 2, "mcsol-to-clu": 2}
    if len(args.inputs) != expected[direction]:
        raise ValueError(
            f"{direction} takes {expected[direction]} input document(s), "
            f"got {len(args.inputs)}"
        )
    if direction == "ccvs-to-mcvs":
        g = parse_graph(_read(args.inputs[0], stdin))
        document = write_multicut_instance(ccvs_to_mcvs(g, args.budget))
        fields = {}
    elif direction == "mcvs-to-ccvs":
        g, k = mcvs_to_ccvs(parse_multicut_instance(_read(args.inputs[0], stdin)))
        document = f"# budget {k}\n".encode("utf-8") + write_graph(g)
        fields = {"bound": k}
    elif direction == "clu-to-mcsol":
        g = parse_graph(_read(args.inputs[0], stdin))
        f = parse_clustering(_read(args.inputs[1], stdin))
        try:
            sol = clustering_to_multicut_solution(g, f)
        except ValueError as exc:
            if any(v >= g.n for c in f for v in c):
                raise  # an id out of range: the documents do not match
            raise _Negative(str(exc)) from None  # an invalid clustering
        document = write_multicut_solution(g.n, sol)
        fields = {"cost": sol.cost}
    else:
        inst = parse_multicut_instance(_read(args.inputs[0], stdin))
        n, sol = parse_multicut_solution(_read(args.inputs[1], stdin))
        if n != inst.n:
            raise ValueError(f"solution is for {n} vertices, instance has {inst.n}")
        f = multicut_solution_to_clustering(inst, sol)
        document = write_clustering(f)
        fields = {"cost": cost(f, inst.n)}
    text = document.decode()
    return 0, text, lambda: {"result": text, **fields}


def _parse_edge_list(text: str) -> list[tuple[int, int]]:
    if not text:
        return []
    edges = []
    for chunk in text.split(","):
        left, sep, right = chunk.partition("-")
        if not sep:
            raise ValueError(f"edge {chunk!r} must look like 0-1")
        try:  # the documents' integer rule: int() would take "+1", "1_0", " 1"
            edges.append(tuple(_read_ints(0, [left, right])))
        except FormatError:
            raise ValueError(f"edge {chunk!r} must join two integers") from None
    return edges


def _cmd_gen(args, stdin):
    if args.generator == "random":
        g = gen_random(args.n, args.p_blue, args.p_red, complete=args.complete, seed=args.seed)
        document = write_graph(g)
    elif args.generator == "vc-gadget":
        plain = PlainGraph(args.n, _parse_edge_list(args.edges))
        document = write_graph(gen_vertex_cover_gadget(plain, args.budget))
    else:
        plain = PlainGraph(args.n, _parse_edge_list(args.edges))
        document = write_multicut_instance(gen_coloring_gadget(plain, args.colors))
    text = document.decode()
    return 0, text, lambda: {"result": text}


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


def _input(args):
    """The JSON ``input`` field: the input path, a list of paths, or None."""
    if args.command == "gen":
        return None
    if args.command == "lift":
        return [args.clustering, args.transcript]
    if args.command == "verify":
        return [args.graph, args.clustering]
    if args.command == "reduce":
        return args.inputs[0] if len(args.inputs) == 1 else list(args.inputs)
    return args.graph


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Run one invocation; returns the exit code instead of exiting.

    Each ``_cmd_*`` returns ``(exit code, text, JSON fields)`` or raises;
    this is the only code that writes to ``stdout`` and ``stderr``.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(stdout):  # where --help prints
            args = _parser().parse_args(argv)
        try:
            code, text, fields = _COMMANDS[args.command](args, stdin)
        except _Negative as exc:
            if not (args.json and exc.fields):
                raise
            code, text, fields = 1, "", exc.fields
        if args.json:
            text = json.dumps({"command": args.command, "input": _input(args), **fields()}) + "\n"
        stdout.write(text)
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _Negative as exc:
        code, error = 1, exc
    except SearchLimitReached as exc:
        code, error = 3, exc
    except (_UsageError, OSError, ValueError) as exc:  # FormatError is a ValueError
        code, error = 2, exc
    print(f"splitclust: {error}", file=stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
