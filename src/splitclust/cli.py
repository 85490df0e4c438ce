"""Command line front end.

Every subcommand answers on stdout in text, or under ``--json`` as one JSON
object with the keys ``command``, ``input``, ``result`` and, where
meaningful, ``cost``, ``bound`` or ``valid``, in that order.  Exit codes: 0
success (or yes/valid), 1 negative answer (no, invalid, nothing found), 2
usage or input format errors, 3 search node limit reached.  An error or a
refusal is one ``splitclust: ...`` line on stderr.  ``-`` reads the input
document from stdin.  All output is deterministic: the same invocation on
the same input produces identical bytes.

Each command is declared once, in ``_parser``: its options, its handler and
the documents it reads; ``run`` reads those documents and calls the handler.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: one line on stderr and exit code 2
        raise ValueError(message)


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


# Each handler takes the parsed arguments, then the documents its command
# declares, parsed, and returns (exit code, text, fields) or raises.  ``fields``
# builds the JSON fields after "command" and "input"; run calls it only under
# --json, where it may do work or raise what the text never needs (lift's cost).
def _clustering_answer(f: Clustering, n: int):
    return 0, write_clustering(f).decode(), lambda: {
        "result": [sorted(c) for c in f],
        "cost": cost(f, n),
    }


def _document_answer(document: bytes, **fields):
    text = document.decode()
    return 0, text, lambda: {"result": text, **fields}


def _cmd_stats(args, g):
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


def _cmd_lb(args, g):
    bound = lower_bound(g)
    return 0, f"{bound}\n", lambda: {"result": bound, "bound": bound}


def _cmd_decide(args, g):
    answer = decide(g, args.budget, node_limit=args.node_limit)
    return (0 if answer else 1), ("yes\n" if answer else "no\n"), lambda: {"result": answer}


def _cmd_exact(args, g):
    limits = {"max_cost": args.budget, "node_limit": args.node_limit}
    found = solve_exact(g, SearchBudget(**{k: v for k, v in limits.items() if v is not None}))
    if found is None:
        raise _Negative("no clustering within the budget", lambda: {"result": None})
    return _clustering_answer(found, g.n)


def _cmd_approx(args, g):
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


def _cmd_kernel(args, g):
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


def _cmd_lift(args, f, transcript):
    try:
        lifted = lift_clustering(f, transcript)
    except ValueError as exc:
        raise _Negative(str(exc)) from None
    return _clustering_answer(lifted, transcript.original_n)


def _cmd_verify(args, g, f):
    report = verify_clustering(g, f)
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


def _reduce_ccvs_to_mcvs(args, g):
    return _document_answer(write_multicut_instance(ccvs_to_mcvs(g, args.budget)))


def _reduce_mcvs_to_ccvs(args, inst):
    g, k = mcvs_to_ccvs(inst)
    return _document_answer(f"# budget {k}\n".encode("utf-8") + write_graph(g), bound=k)


def _reduce_clu_to_mcsol(args, g, f):
    try:
        sol = clustering_to_multicut_solution(g, f)
    except ValueError as exc:
        if any(v >= g.n for c in f for v in c):
            raise  # an id out of range: the documents do not match
        raise _Negative(str(exc)) from None  # an invalid clustering
    return _document_answer(write_multicut_solution(g.n, sol), cost=sol.cost)


def _reduce_mcsol_to_clu(args, inst, solution):
    n, sol = solution
    if n != inst.n:
        raise ValueError(f"solution is for {n} vertices, instance has {inst.n}")
    f = multicut_solution_to_clustering(inst, sol)
    return _document_answer(write_clustering(f), cost=cost(f, inst.n))


def _plain_graph(args) -> PlainGraph:
    edges = []
    for chunk in args.edges.split(",") if args.edges else []:
        left, sep, right = chunk.partition("-")
        if not sep:
            raise ValueError(f"edge {chunk!r} must look like 0-1")
        try:  # the documents' integer rule: int() would take "+1", "1_0", " 1"
            edges.append(tuple(_read_ints(0, [left, right])))
        except FormatError:
            raise ValueError(f"edge {chunk!r} must join two integers") from None
    return PlainGraph(args.n, edges)


def _gen_random(args):
    g = gen_random(args.n, args.p_blue, args.p_red, complete=args.complete, seed=args.seed)
    return _document_answer(write_graph(g))


def _gen_vc_gadget(args):
    return _document_answer(write_graph(gen_vertex_cover_gadget(_plain_graph(args), args.budget)))


def _gen_coloring_gadget(args):
    gadget = gen_coloring_gadget(_plain_graph(args), args.colors)
    return _document_answer(write_multicut_instance(gadget))


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first ``run`` and shared by the later ones.

    Every command is declared here; ``reduce`` and ``gen`` have one sub-parser
    per direction and generator.  ``parse_args`` leaves a parser as it found it.
    """
    # --help shows the module docstring without its last paragraph, which is about the code
    parser = _Parser(prog="splitclust", description=__doc__.rsplit("\n\n", 1)[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add(group, name, handler, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(handler=handler, documents=[])
        return p

    def command(name, help_text, handler=None):
        p = add(commands, name, handler, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON object")
        return p

    def document(p, reader, *flags, **kwargs):
        """An argument naming a document: ``run`` parses it with ``reader``, in this order."""
        p.get_default("documents").append((p.add_argument(*flags, **kwargs).dest, reader))

    p = command("stats", "basic figures of a correlation graph", _cmd_stats)
    document(p, parse_graph, "graph", help="ccg file or -")

    p = command("lb", "bad-star-forest lower bound of a complete graph", _cmd_lb)
    document(p, parse_graph, "graph", help="ccg file or -")

    p = command("decide", "is there a clustering of cost at most the budget", _cmd_decide)
    document(p, parse_graph, "graph", help="ccg file or -")
    p.add_argument("--budget", type=int, required=True, help="cost budget k")
    p.add_argument("--node-limit", type=int, default=None, help="search node cap")

    p = command("exact", "minimum-cost clustering within the budget", _cmd_exact)
    document(p, parse_graph, "graph", help="ccg file or -")
    p.add_argument("--budget", type=int, default=None, help="cost budget (default 6)")
    p.add_argument("--node-limit", type=int, default=None, help="search node cap")

    p = command("approx", "factor-7 approximate clustering of a complete graph", _cmd_approx)
    document(p, parse_graph, "graph", help="ccg file or -")
    p.add_argument(
        "--guess-all",
        action="store_true",
        help="report every candidate solution instead of only the best",
    )

    p = command("kernel", "shrink to an equivalent instance for the budget", _cmd_kernel)
    document(p, parse_graph, "graph", help="ccg file or -")
    p.add_argument("--budget", type=int, required=True, help="cost budget k")
    p.add_argument("--transcript", default=None, help="write the ktx transcript here")

    p = command("lift", "expand a kernel solution using a transcript", _cmd_lift)
    document(p, parse_clustering, "clustering", help="clu file or -")
    document(p, parse_transcript, "--transcript", required=True, help="ktx transcript file or -")

    p = command("verify", "check a clustering against a graph", _cmd_verify)
    document(p, parse_graph, "graph", help="ccg file or -")
    document(p, parse_clustering, "clustering", help="clu file or -")

    p = command("reduce", "convert between clustering and multicut documents")
    directions = p.add_subparsers(dest="direction", required=True)
    p = add(directions, "ccvs-to-mcvs", _reduce_ccvs_to_mcvs)
    document(p, parse_graph, "graph", help="ccg file or -")
    p.add_argument("--budget", type=int, default=0, help="cost budget k")
    p = add(directions, "mcvs-to-ccvs", _reduce_mcvs_to_ccvs)
    document(p, parse_multicut_instance, "instance", help="mcvs file or -")
    p = add(directions, "clu-to-mcsol", _reduce_clu_to_mcsol)
    document(p, parse_graph, "graph", help="ccg file or -")
    document(p, parse_clustering, "clustering", help="clu file or -")
    p = add(directions, "mcsol-to-clu", _reduce_mcsol_to_clu)
    document(p, parse_multicut_instance, "instance", help="mcvs file or -")
    document(p, parse_multicut_solution, "solution", help="mcsol file or -")

    p = command("gen", "generate instances")
    generators = p.add_subparsers(dest="generator", required=True)
    q = add(generators, "random", _gen_random)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p-blue", type=float, required=True)
    q.add_argument("--p-red", type=float, required=True)
    kind = q.add_mutually_exclusive_group(required=True)
    kind.add_argument("--complete", action="store_true")
    kind.add_argument("--incomplete", action="store_true")
    q.add_argument("--seed", type=int, default=0)
    plain = argparse.ArgumentParser(add_help=False)  # what _plain_graph reads
    plain.add_argument("--n", type=int, required=True, help="vertices of the plain graph")
    plain.add_argument("--edges", default="", help="edge list like 0-1,1-2")
    q = add(generators, "vc-gadget", _gen_vc_gadget, parents=[plain])
    q.add_argument("--budget", type=int, required=True, help="cover size to decide")
    q = add(generators, "coloring-gadget", _gen_coloring_gadget, parents=[plain])
    q.add_argument("--colors", type=int, required=True, help="number of colors (>= 3)")

    # a leaf takes --json after its name too; SUPPRESS keeps one given before the name
    for group in (directions, generators):
        for leaf in group.choices.values():
            leaf.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    return parser


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Run one invocation; returns the exit code instead of exiting.

    ``_parser`` declares each command's handler and documents.  This reads
    and parses the documents in their declared order, passes them to the
    handler, which returns ``(exit code, text, JSON fields)`` or raises, and
    is the only code that writes to ``stdout`` and ``stderr``.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(stdout):  # where --help prints
            args = _parser().parse_args(argv)
        paths = [getattr(args, name) for name, _ in args.documents]
        documents = [read(_read(path, stdin)) for path, (_, read) in zip(paths, args.documents)]
        try:
            code, text, fields = args.handler(args, *documents)
        except _Negative as exc:
            if not (args.json and exc.fields):
                raise
            code, text, fields = 1, "", exc.fields
        if args.json:
            where = paths[0] if len(paths) == 1 else paths or None  # gen reads none
            text = json.dumps({"command": args.command, "input": where, **fields()}) + "\n"
        stdout.write(text)
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _Negative as exc:
        code, error = 1, exc
    except SearchLimitReached as exc:
        code, error = 3, exc
    except (OSError, ValueError) as exc:  # usage and format errors are ValueErrors
        code, error = 2, exc
    print(f"splitclust: {error}", file=stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
