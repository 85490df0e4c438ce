"""Every public integer argument follows one rule and raises one message.

Vertex ids, vertex counts and budgets are ints, not ``bool``, and at least
0.  Anything else raises ``ValueError("<argument> must be a non-negative
integer, got <value>")``, where the argument is named.  A
``RealizedGraph``'s ancestors are ids bounded by its ``original_n``, so
they raise the bounded id message instead.
"""

from __future__ import annotations

import re

import pytest

from splitclust import (
    BadStar,
    Clustering,
    CorrelationGraph,
    KernelTranscript,
    MulticutInstance,
    MulticutSolution,
    PlainGraph,
    RealizedGraph,
    SearchBudget,
    ccvs_to_mcvs,
    complete_graph,
    cost,
    decide,
    gen_coloring_gadget,
    gen_random,
    gen_vertex_cover_gadget,
    kernelize,
    solve_exact,
    write_multicut_solution,
)

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])
ONE_VERTEX = complete_graph(1, [])
TRIANGLE = PlainGraph(3, [(0, 1), (0, 2), (1, 2)])
SINGLE = Clustering([{0}])

# (argument, call with the bad value, what the message calls the argument,
# or None for the bounded id message)
ARGUMENTS = [
    ("Clustering ids", lambda x: Clustering([{x}]), "vertex id"),
    ("Clustering.membership n", lambda x: SINGLE.membership(x), "vertex count"),
    ("cost n", lambda x: cost(SINGLE, x), "vertex count"),
    ("CorrelationGraph n", lambda x: CorrelationGraph(x, complete=True), "vertex count"),
    ("RealizedGraph original_n", lambda x: RealizedGraph(ONE_VERTEX, (0,), x), "original_n"),
    ("RealizedGraph ancestors", lambda x: RealizedGraph(ONE_VERTEX, (x,), 1), None),
    ("BadStar center", lambda x: BadStar(x, (1, 2)), "vertex id"),
    ("BadStar leaves", lambda x: BadStar(0, (x, 2)), "vertex id"),
    (
        "KernelTranscript ids",
        lambda x: KernelTranscript(frozenset({x}), (), (), 1),
        "vertex id",
    ),
    (
        "KernelTranscript original_n",
        lambda x: KernelTranscript(frozenset({0}), (), (), x),
        "original_n",
    ),
    ("kernelize k", lambda x: kernelize(BAD_TRIANGLE, x), "budget"),
    ("MulticutInstance n", lambda x: MulticutInstance(x, [], [], 0), "vertex count"),
    ("MulticutInstance k", lambda x: MulticutInstance(3, [], [], x), "budget"),
    ("ccvs_to_mcvs k", lambda x: ccvs_to_mcvs(BAD_TRIANGLE, x), "budget"),
    (
        "MulticutSolution split vertices",
        lambda x: MulticutSolution({x: [[0], [1]]}),
        "split vertex",
    ),
    (
        "MulticutSolution part members",
        lambda x: MulticutSolution({0: [[x], [2]]}),
        "part member",
    ),
    (
        "write_multicut_solution n",
        lambda x: write_multicut_solution(x, MulticutSolution({})),
        "vertex count",
    ),
    ("SearchBudget max_cost", lambda x: SearchBudget(max_cost=x), "max_cost"),
    ("SearchBudget node_limit", lambda x: SearchBudget(node_limit=x), "node_limit"),
    ("solve_exact vertex_cap", lambda x: solve_exact(BAD_TRIANGLE, vertex_cap=x), "vertex_cap"),
    ("decide k", lambda x: decide(BAD_TRIANGLE, x), "budget"),
    ("PlainGraph n", lambda x: PlainGraph(x, []), "vertex count"),
    (
        "gen_random n",
        lambda x: gen_random(x, 0.5, 0.5, complete=True, seed=0),
        "vertex count",
    ),
    ("gen_vertex_cover_gadget k", lambda x: gen_vertex_cover_gadget(TRIANGLE, x), "budget"),
    ("gen_coloring_gadget colors", lambda x: gen_coloring_gadget(TRIANGLE, x), "colors"),
]

BAD_VALUES = [True, 1.0, -1, "1", None]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
@pytest.mark.parametrize(
    "call, what", [row[1:] for row in ARGUMENTS], ids=[row[0] for row in ARGUMENTS]
)
def test_integer_arguments_follow_one_rule(call, what, bad):
    if what is None:
        message = f"not a vertex id in 0..0: {bad!r}"
    else:
        message = f"{what} must be a non-negative integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)

