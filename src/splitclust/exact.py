"""Exact minimum-cost clustering by bounded branch search.

Vertices are placed one by one into "blocks" (clusters under
construction).  Vertex v may join any subset of existing blocks plus any
number of fresh ones; joining m blocks costs m - 1.  Blue edges to earlier
vertices force a shared block, red edges to earlier vertices forbid the
exact same single block.  Iterative deepening on the total cost makes the
first solution found a minimum one.

Two lower bounds on the cost still to come prune every level.  Both are
admissible, so a pruned branch holds no solution within the level, and
the search finds the same first solution at the same level as one that
prunes nothing.

- **Suffix bounds** (complete graphs).  The vertices are placed in the
  order 0..n-1, so the unplaced vertices are always a suffix {v..n-1},
  and ``detect._suffix_bounds`` gives a lower bound on the optimum of each
  G[{v..n-1}] from its greedy bad-star forest.  One call weighs all n
  forests on vertex bitmasks, one closed-neighbourhood int per vertex, and
  skips centres that are true twins of u as the bad-triangle scan does;
  no star or forest object is built.  Restricting a valid
  clustering to an induced subgraph keeps it valid and keeps each
  vertex's memberships, so a clustering that extends the placed part
  costs at least the placed cost plus the bound on the suffix.  The
  deepening starts at the bound for the whole vertex set; incomplete
  graphs get zero bounds and start at 0.
- **Stuck vertices** (forward checking, both kinds).  For an unplaced
  vertex x let need[x] be the AND of the masks of its placed blue
  predecessors (all ones while none is placed), and ban[x] the OR of the
  masks of its placed red predecessors that sit in exactly one block.
  x is stuck when need[x] & ~ban[x] is 0: no existing single block can
  take it, and no fresh one either, since it has a placed blue
  predecessor.  Placing more vertices only shrinks need[x] and grows
  ban[x], and blocks opened later hold none of x's placed predecessors,
  so every completion gives a stuck x two or more memberships, at a cost
  of at least 1 each.  The stuck count is a lower bound on the unplaced
  vertices' cost as the suffix bound is, and the search prunes with the
  larger of the two.

A placed vertex's memberships are a bitmask over the blocks: block b's
members are read off the masks at a leaf.  Each unplaced vertex keeps
need[x] & ~ban[x] as one mask of the single blocks it may still join, so
its single-block tries are read off that mask, and placing a vertex ANDs
a mask into those of its blue and red successors only.  A node undoes
those updates before it tries its next placement, so the state a node
sees depends on the placed vertices alone.  Multi-membership tries take
their block subsets, in ``combinations`` order, from a table shared by
all levels.  The predecessor and successor lists and that table are set
up once per call.  The search order is the one of the earlier search
that kept each block as a list of members, so it finds the same
clustering, and it visits a subset of that search's nodes.

Only practical for small graphs: the vertex cap defaults to 12.  The
search recurses once per vertex, so it refuses graphs above 500 vertices
with ``ValueError`` whatever the cap.  That limit stays well below
Python's default recursion limit of 1000, and above the kernels the
search is meant for.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .clustering import Clustering
from .detect import _suffix_bounds
from .graphs import CorrelationGraph, _check_non_negative

DEFAULT_VERTEX_CAP = 12
# the search recurses once per vertex (see the module docstring)
_MAX_DEPTH = 500


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exact search; the search itself is deterministic."""

    max_cost: int = 6
    node_limit: int = 5_000_000

    def __post_init__(self):
        _check_non_negative("max_cost", self.max_cost)
        _check_non_negative("node_limit", self.node_limit)
        if self.node_limit == 0:
            raise ValueError("node_limit must be positive, got 0")


class SearchLimitReached(RuntimeError):
    """The node limit was hit before the search space was exhausted.

    ``nodes`` counts the nodes searched over all levels, and ``level`` is
    the cost level of iterative deepening that was being searched.
    """

    def __init__(self, nodes: int, level: int):
        super().__init__(f"search aborted after {nodes} nodes at cost level {level}")
        self.nodes = nodes
        self.level = level

    def __reduce__(self):
        # rebuild from both fields, so the exception survives pickling
        return type(self), (self.nodes, self.level)


def _search(g: CorrelationGraph, max_cost: int, limit: int) -> list[list[int]] | None:
    """Blocks of the first minimum clustering of cost <= max_cost, or None.

    Deepening runs from the bound ``suffix[0]`` up to max_cost, and more
    than ``limit`` nodes over all levels raise SearchLimitReached.

    ``free[x]`` is need[x] & ~ban[x] for each unplaced x (see the module
    docstring): -1 less the banned blocks while no blue predecessor of x
    is placed, so never 0 then, and x is stuck when it is 0.  ``dfs``
    gets the stuck count of v..n-1.  A child is entered only if
    used + cost + max(suffix[v + 1], stuck count of v+1..n-1) <= extra.
    Placing v with mask ANDs mask into ``free`` of its blue successors and,
    when mask is one block, ~mask into ``free`` of its red successors; the
    stuck count moves by the successors that reach 0, and v's own flag
    drops out.  ``dfs`` undoes both updates after each child that finds
    nothing; a solution or SearchLimitReached ends the search.
    A placement can only make successors stuck, so v's multi-membership
    tries spend at most extra - used - max(suffix[v + 1], stuck count
    without v).  That budget is never negative: it is extra - suffix[1]
    >= 0 at the root, and a child is entered only within the bound.

    ``tries`` yields a node's placements (mask, cost, new block count) in
    search order, and ``dfs`` applies them itself.  A generator's frame is
    off the stack while ``dfs`` recurses, so the search keeps one Python
    frame per vertex.
    """
    n = g.n
    suffix = _suffix_bounds(g)
    blue_pred: list[list[int]] = []
    blue_succ: list[list[int]] = []
    red_succ: list[list[int]] = []
    for v, (row, red) in enumerate(zip(g._blue_adj, g._red_rows())):
        i = bisect_left(row, v)
        blue_pred.append(row[:i])
        blue_succ.append(row[i:])
        red_succ.append(red[bisect_left(red, v) :])
    # block subset masks by (block count, subset size), shared by all levels
    subsets: dict[tuple[int, int], list[int]] = {}
    vmask = [0] * n
    free = [-1] * n
    nodes = 0

    def tries(v: int, used: int, nb: int, rest: int, joinable: int):
        # single existing blocks: the set bits of joinable, lowest first
        while joinable:
            low = joinable & -joinable
            joinable ^= low
            yield low, 0, nb
        # single fresh block: impossible once v has blue predecessors
        preds = blue_pred[v]
        if not preds:
            yield 1 << nb, 0, nb + 1
        budget_left = extra - used - max(suffix[v + 1], rest)
        if not budget_left:
            return
        # m >= 2 memberships cost m - 1 extra: s existing blocks, each
        # subset in combinations order, and m - s fresh ones
        req = [vmask[u] for u in preds]
        for m in range(2, budget_left + 2):
            for s in range(min(m, nb) + 1):
                fresh = ((1 << (m - s)) - 1) << nb
                masks = subsets.get((nb, s))
                if masks is None:
                    masks = subsets[nb, s] = [
                        sum(1 << b for b in combo) for combo in combinations(range(nb), s)
                    ]
                for cm in masks:
                    for r in req:
                        if not r & cm:
                            break
                    else:
                        yield cm | fresh, m - 1, nb + m - s

    def dfs(v: int, used: int, nb: int, stuck: int) -> list[list[int]] | None:
        nonlocal nodes
        if v == n:
            return [[u for u in range(n) if vmask[u] >> b & 1] for b in range(nb)]
        nodes += 1
        if nodes > limit:
            raise SearchLimitReached(nodes, extra)
        rest = stuck - (not free[v])
        left = extra - used
        bound = suffix[v + 1]
        bsucc = blue_succ[v]
        rsucc = red_succ[v]
        bfree = [free[x] for x in bsucc]
        rfree = [free[x] for x in rsucc]
        for mask, c, nb_next in tries(v, used, nb, rest, free[v] & ((1 << nb) - 1)):
            # a blue successor keeps the blocks in mask; a red one loses
            # mask when it is one block, so it is stuck if that was all
            single = not mask & (mask - 1)
            count = rest + rfree.count(mask) if single else rest
            for f in bfree:
                if f and not f & mask:
                    count += 1
            if c + max(bound, count) > left:
                continue
            vmask[v] = mask
            for x in bsucc:
                free[x] &= mask
            if single:
                for x in rsucc:
                    free[x] &= ~mask
            found = dfs(v + 1, used + c, nb_next, count)
            if found is not None:
                return found
            for x, f in zip(bsucc, bfree):
                free[x] = f
            if single:
                for x, f in zip(rsucc, rfree):
                    free[x] = f
        return None

    for extra in range(suffix[0], max_cost + 1):  # the level dfs and tries read
        found = dfs(0, 0, 0, 0)
        if found is not None:
            return found
    return None


def solve_exact(
    g: CorrelationGraph,
    budget: SearchBudget | None = None,
    *,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> Clustering | None:
    """Minimum-cost valid clustering with cost <= budget.max_cost, else None.

    Deterministic.  Raises SearchLimitReached when the node limit trips,
    so a None return genuinely means no solution within the cost budget.
    """
    if budget is None:
        budget = SearchBudget()
    _check_non_negative("vertex_cap", vertex_cap)
    if g.n > vertex_cap:
        raise ValueError(f"graph has {g.n} vertices, exact search capped at {vertex_cap}")
    if g.n > _MAX_DEPTH:
        raise ValueError(
            f"graph has {g.n} vertices, exact search recurses once per vertex "
            f"and takes at most {_MAX_DEPTH}"
        )
    found = _search(g, budget.max_cost, budget.node_limit)
    return None if found is None else Clustering(found)


def decide(
    g: CorrelationGraph,
    k: int,
    *,
    node_limit: int | None = None,
) -> bool:
    """Whether some valid clustering has cost at most k."""
    _check_non_negative("budget", k)
    budget = SearchBudget(max_cost=k) if node_limit is None else SearchBudget(k, node_limit)
    return solve_exact(g, budget) is not None
