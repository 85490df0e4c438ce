"""Every public integer argument follows one rule and raises one message.

Vertex ids, vertex counts and budgets are ints, not ``bool``, and at least
0.  Anything else raises ``ValueError("<argument> must be a non-negative
integer, got <value>")``, where the argument is named.  An id that a vertex
count n bounds must also be below n, and anything else raises
``ValueError("<argument> must be a non-negative integer below <n>, got
<value>")``; a pair's ends are named with the pair, as ``vertex of pair
(0,5)``.  A ``RealizedGraph``'s ancestors are ids bounded by its
``original_n``, so the first table gives them the bounded message.
"""

from __future__ import annotations

import re
import tracemalloc

import pytest

from splitclust import (
    BLUE,
    MAX_VERTICES,
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
    incomplete_graph,
    kernelize,
    lift_clustering,
    solve_exact,
    verify_multicut_solution,
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
    ("MulticutSolution.parts_of", lambda x: MulticutSolution({}).parts_of(x), "vertex id"),
]

BAD_VALUES = [True, 1.0, -1, "1", None]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
@pytest.mark.parametrize(
    "call, what", [row[1:] for row in ARGUMENTS], ids=[row[0] for row in ARGUMENTS]
)
def test_integer_arguments_follow_one_rule(call, what, bad):
    if what is None:
        message = f"ancestor must be a non-negative integer below 1, got {bad!r}"
    else:
        message = f"{what} must be a non-negative integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


VERTEX_COUNTS = [row for row in ARGUMENTS if row[2] == "vertex count"]


@pytest.mark.parametrize(
    "call", [row[1] for row in VERTEX_COUNTS], ids=[row[0] for row in VERTEX_COUNTS]
)
def test_vertex_counts_above_the_cap_raise_before_allocating(call):
    """A vertex count past ``MAX_VERTICES`` is refused before any per-vertex list."""
    over = MAX_VERTICES + 1
    message = f"vertex count {over} exceeds the cap of {MAX_VERTICES}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(over)


def test_kernel_transcript_refuses_a_large_original_n_without_allocating():
    """The cover check compares counts and the largest id, not a range set."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must cover vertices 0..original_n-1"):
            KernelTranscript(frozenset(), (), (), 4_000_000)
        with pytest.raises(ValueError, match="must cover vertices 0..original_n-1"):
            KernelTranscript(frozenset({0, 2}), (), (), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert KernelTranscript(frozenset({0, 1}), (frozenset({2}),), (), 3).original_n == 3


class IntLike:
    """An integer that is not an ``int``, as numpy's integers are not."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __or__(self, other) -> int:
        return self.value | int(other)

    __ror__ = __or__

    def __eq__(self, other) -> bool:
        return self.value == other

    def __lt__(self, other) -> bool:
        return self.value < other

    def __le__(self, other) -> bool:
        return self.value <= other

    def __gt__(self, other) -> bool:
        return self.value > other

    def __ge__(self, other) -> bool:
        return self.value >= other

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"IntLike({self.value})"


EDGE = complete_graph(2, [(0, 1)])
NO_SPLITS = MulticutInstance(2, [], [], 0)
ONE_KEPT = KernelTranscript(frozenset({0}), (), (), 1)

# (argument, call with the bad value, its bound, what the message calls the
# argument, with {x} for the value's repr, and the name under which the
# object that holds the value first refuses it unbounded, or None).  A
# ``Clustering`` or a ``MulticutSolution`` knows no vertex count, so it
# refuses every value but a non-negative int by the unbounded rule; only
# ids at or past the bound reach the bounded check.
BOUNDED = [
    (
        "CorrelationGraph edges",
        lambda x: CorrelationGraph(2, [(0, x, BLUE)], complete=False),
        2,
        "vertex of pair (0,{x})",
        None,
    ),
    ("complete_graph blue", lambda x: complete_graph(2, [(x, 1)]), 2, "vertex of pair ({x},1)", None),
    ("incomplete_graph blue", lambda x: incomplete_graph(2, [(0, x)]), 2, "vertex of pair (0,{x})", None),
    (
        "incomplete_graph red",
        lambda x: incomplete_graph(2, red=[(x, 1)]),
        2,
        "vertex of pair ({x},1)",
        None,
    ),
    ("label", lambda x: EDGE.label(0, x), 2, "vertex of pair (0,{x})", None),
    ("blue_neighbors", lambda x: EDGE.blue_neighbors(x), 2, "vertex id", None),
    ("induced_subgraph", lambda x: EDGE.induced_subgraph([0, x]), 2, "vertex id", None),
    ("RealizedGraph ancestors", lambda x: RealizedGraph(EDGE, (0, x), 2), 2, "ancestor", None),
    (
        "descendants",
        lambda x: RealizedGraph(ONE_VERTEX, (0,), 1).descendants(x),
        1,
        "vertex id",
        None,
    ),
    ("membership", lambda x: Clustering([{x}]).membership(1), 1, "cluster vertex", "vertex id"),
    ("cost", lambda x: cost(Clustering([{x}]), 1), 1, "cluster vertex", "vertex id"),
    (
        "MulticutInstance edges",
        lambda x: MulticutInstance(2, [(0, x)], [], 0),
        2,
        "vertex of pair (0,{x})",
        None,
    ),
    (
        "MulticutInstance terminals",
        lambda x: MulticutInstance(2, [], [(x, 1)], 0),
        2,
        "vertex of pair ({x},1)",
        None,
    ),
    ("PlainGraph edges", lambda x: PlainGraph(2, [(0, x)]), 2, "vertex of pair (0,{x})", None),
    (
        "verify_multicut_solution split vertex",
        lambda x: verify_multicut_solution(NO_SPLITS, MulticutSolution({x: [[], []]})),
        2,
        "split vertex",
        "split vertex",
    ),
    (
        "write_multicut_solution split vertex",
        lambda x: write_multicut_solution(2, MulticutSolution({x: [[], []]})),
        2,
        "split vertex",
        "split vertex",
    ),
    (
        "write_multicut_solution part member",
        lambda x: write_multicut_solution(2, MulticutSolution({0: [[x], []]})),
        2,
        "part member",
        "part member",
    ),
    (
        "lift_clustering kernel id",
        lambda x: lift_clustering(Clustering([{x}]), ONE_KEPT),
        1,
        "kernel vertex",
        "vertex id",
    ),
]

# stands for each row's bound
BOUND = "the bound"


@pytest.mark.parametrize("bad", [True, 1.0, -1, BOUND, "1", None, IntLike(1)], ids=repr)
@pytest.mark.parametrize(
    "call, n, what, first", [row[1:] for row in BOUNDED], ids=[row[0] for row in BOUNDED]
)
def test_bounded_ids_follow_one_rule(call, n, what, first, bad):
    if bad is BOUND:
        bad = n
    if first is not None and not (bad.__class__ is int and bad >= 0):
        message = f"{first} must be a non-negative integer, got {bad!r}"
    else:
        what = what.format(x=repr(bad))
        message = f"{what} must be a non-negative integer below {n}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)
