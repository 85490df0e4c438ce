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

Only practical for small graphs: the vertex cap defaults to 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .clustering import Clustering
from .detect import _suffix_bounds
from .graphs import CorrelationGraph, _is_integer

DEFAULT_VERTEX_CAP = 12


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


class _Counter:
    __slots__ = ("nodes", "limit", "level")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit
        self.level = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise SearchLimitReached(self.nodes, self.level)


def _search(
    g: CorrelationGraph, extra: int, suffix: list[int], counter: _Counter
) -> list[list[int]] | None:
    """First clustering of cost <= extra in search order, or None.

    ``suffix[v]`` bounds the cost of the vertices v..n-1 from below (see
    the module docstring), so placing v leaves at most
    extra - used - suffix[v + 1] to spend on v itself.
    """
    n = g.n
    blue_pred = [[u for u in g.blue_neighbors(v) if u < v] for v in range(n)]
    red_pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.red_edges():
        red_pred[v].append(u)

    blocks: list[list[int]] = []
    vmask = [0] * n
    result: list[list[int]] | None = None

    def dfs(v: int, used: int) -> bool:
        nonlocal result
        if v == n:
            result = [list(b) for b in blocks]
            return True
        counter.tick()
        budget_left = extra - used - suffix[v + 1]
        if budget_left < 0:
            return False
        req = [vmask[u] for u in blue_pred[v]]
        nb = len(blocks)
        and_req = (1 << nb) - 1
        for r in req:
            and_req &= r

        # single existing block: must hit every blue requirement and must
        # not be the lone block of a red predecessor
        red_masks = [vmask[u] for u in red_pred[v]]
        mask = and_req
        while mask:
            low = mask & -mask
            mask ^= low
            if any(rm == low for rm in red_masks):
                continue
            b = low.bit_length() - 1
            blocks[b].append(v)
            vmask[v] = low
            if dfs(v + 1, used):
                return True
            blocks[b].pop()
        # single fresh block: impossible once v has blue predecessors
        if not req:
            blocks.append([v])
            vmask[v] = 1 << nb
            if dfs(v + 1, used):
                return True
            blocks.pop()
        # m >= 2 memberships cost m - 1 extra; red pairs are then resolved
        for m in range(2, budget_left + 2):
            for s in range(min(m, nb) + 1):
                t = m - s
                for combo in combinations(range(nb), s):
                    cm = 0
                    for b in combo:
                        cm |= 1 << b
                    if any(r & cm == 0 for r in req):
                        continue
                    for b in combo:
                        blocks[b].append(v)
                    for _ in range(t):
                        blocks.append([v])
                    vmask[v] = cm | (((1 << t) - 1) << nb)
                    if dfs(v + 1, used + m - 1):
                        return True
                    for _ in range(t):
                        blocks.pop()
                    for b in combo:
                        blocks[b].pop()
        return False

    if dfs(0, 0):
        return result
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
    if g.n == 0:
        return Clustering(())
    suffix = _suffix_bounds(g)
    counter = _Counter(budget.node_limit)
    for extra in range(suffix[0], budget.max_cost + 1):
        counter.level = extra
        found = _search(g, extra, suffix, counter)
        if found is not None:
            return Clustering(found)
    return None


def decide(
    g: CorrelationGraph,
    k: int,
    *,
    node_limit: int | None = None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> bool:
    """Whether some valid clustering has cost at most k."""
    if not _is_integer(k) or k < 0:
        raise ValueError(f"budget must be a non-negative integer, got {k!r}")
    budget = SearchBudget(max_cost=k) if node_limit is None else SearchBudget(k, node_limit)
    return solve_exact(g, budget, vertex_cap=vertex_cap) is not None
