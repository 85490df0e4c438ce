"""Exact minimum-cost clustering by bounded branch search.

Vertices are placed one by one into "blocks" (clusters under
construction).  Vertex v may join any subset of existing blocks plus any
number of fresh ones; joining m blocks costs m - 1.  Blue edges to earlier
vertices force a shared block, red edges to earlier vertices forbid the
exact same single block.  Iterative deepening on the total cost makes the
first solution found a minimum one.

On complete graphs every level is pruned by suffix lower bounds.  The
vertices are placed in the order 0..n-1, so the unplaced vertices are
always a suffix {v..n-1}, and ``detect._suffix_bounds`` gives a lower bound
on the optimum of each G[{v..n-1}] from its greedy bad-star forest.  The
bound is admissible: restricting a valid clustering to an induced subgraph
keeps it valid and keeps each vertex's memberships, so a clustering that
extends the placed part costs at least the placed cost plus the bound on
the suffix.  A pruned branch therefore holds no solution within the level,
the search finds the same first solution at the same level, and the
deepening starts at the bound for the whole vertex set.  Incomplete graphs
get zero bounds and start at 0.

A placed vertex's memberships are a bitmask over the blocks, and the
search keeps nothing else: block b's members are read off the masks at a
leaf.  Each node folds its red predecessors that sit in one block into one
mask of forbidden single blocks, and takes the block subsets of its
multi-membership tries, in ``combinations`` order, from a table shared by
all levels.  The predecessor lists and that table are set up once per
call.  The search order is the one of the earlier search that kept each
block as a list of members, so the node counts, the clustering found and
the point where the node limit trips are the same.

Only practical for small graphs: the vertex cap defaults to 12.  The
search recurses once per vertex, so it refuses graphs above 500 vertices
with ``ValueError`` whatever the cap.  That limit stays well below
Python's default recursion limit of 1000, and above the kernels the
search is meant for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .clustering import Clustering
from .detect import _suffix_bounds
from .graphs import CorrelationGraph, _is_integer

DEFAULT_VERTEX_CAP = 12
# the search recurses once per vertex (see the module docstring)
_MAX_DEPTH = 500


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exact search; the search itself is deterministic."""

    max_cost: int = 6
    node_limit: int = 5_000_000

    def __post_init__(self):
        if not _is_integer(self.max_cost) or self.max_cost < 0:
            raise ValueError(f"max_cost must be a non-negative integer, got {self.max_cost!r}")
        if not _is_integer(self.node_limit) or self.node_limit <= 0:
            raise ValueError(f"node_limit must be a positive integer, got {self.node_limit!r}")


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
    ``suffix[v]`` bounds the cost of the vertices v..n-1 from below (see
    the module docstring), so placing v leaves at most
    extra - used - suffix[v + 1] to spend on v itself.  That budget is
    never negative: it is extra - suffix[1] >= 0 at the root, a child is
    entered only with used + m - 1 <= extra - suffix[v + 1], and suffix
    never rises with v.
    """
    n = g.n
    suffix = _suffix_bounds(g)
    blue_pred = [[u for u in g.blue_neighbors(v) if u < v] for v in range(n)]
    red_pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.red_edges():
        red_pred[v].append(u)
    # block subset masks by (block count, subset size), shared by all levels
    subsets: dict[tuple[int, int], list[int]] = {}
    vmask = [0] * n
    nodes = 0

    def dfs(v: int, used: int, nb: int) -> list[list[int]] | None:
        nonlocal nodes
        if v == n:
            return [[u for u in range(n) if vmask[u] >> b & 1] for b in range(nb)]
        nodes += 1
        if nodes > limit:
            raise SearchLimitReached(nodes, extra)
        budget_left = extra - used - suffix[v + 1]
        preds = blue_pred[v]
        and_req = (1 << nb) - 1
        for u in preds:
            and_req &= vmask[u]
        # single existing block: must hit every blue requirement and must
        # not be the lone block of a red predecessor
        bad = 0
        for u in red_pred[v]:
            rm = vmask[u]
            if not rm & (rm - 1):
                bad |= rm
        mask = and_req & ~bad
        while mask:
            low = mask & -mask
            mask ^= low
            vmask[v] = low
            found = dfs(v + 1, used, nb)
            if found is not None:
                return found
        # single fresh block: impossible once v has blue predecessors
        if not preds:
            vmask[v] = 1 << nb
            found = dfs(v + 1, used, nb + 1)
            if found is not None:
                return found
        if not budget_left:
            return None
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
                        vmask[v] = cm | fresh
                        found = dfs(v + 1, used + m - 1, nb + m - s)
                        if found is not None:
                            return found
        return None

    for extra in range(suffix[0], max_cost + 1):  # the level dfs reads
        found = dfs(0, 0, 0)
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
    if not _is_integer(vertex_cap):
        raise ValueError(f"vertex_cap must be an integer, got {vertex_cap!r}")
    if g.n > vertex_cap:
        raise ValueError(f"graph has {g.n} vertices, exact search capped at {vertex_cap}")
    if g.n > _MAX_DEPTH:
        raise ValueError(
            f"graph has {g.n} vertices, exact search recurses once per vertex "
            f"and takes at most {_MAX_DEPTH}"
        )
    if g.n == 0:
        return Clustering(())
    found = _search(g, budget.max_cost, budget.node_limit)
    return None if found is None else Clustering(found)


def decide(
    g: CorrelationGraph,
    k: int,
    *,
    node_limit: int | None = None,
) -> bool:
    """Whether some valid clustering has cost at most k."""
    if not _is_integer(k) or k < 0:
        raise ValueError(f"budget must be a non-negative integer, got {k!r}")
    budget = SearchBudget(max_cost=k) if node_limit is None else SearchBudget(k, node_limit)
    return solve_exact(g, budget) is not None
