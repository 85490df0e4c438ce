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
members are read off the masks at a leaf.  The forward-checking state of
a node is one int, with a lane of bits for each unplaced vertex x that
holds the complement of need[x] & ~ban[x]: the blocks x may not join as
a single block.  A vertex's single-block tries are read off its lane.
Placing it ORs the lanes of all its blue successors, and of all its red
ones, with one multiplication each, finds the stuck vertices with one
addition and a popcount, and hands the child the int without its lane.
A node never changes the int it was given, so it has nothing to undo,
and the state a node sees depends on the placed vertices alone.
Multi-membership tries take their block subsets, in ``combinations``
order, from a table shared by all levels.  The predecessor lists, the
lane constants and that table are set up once per call.  The search
order is the one of the earlier search that kept each block as a list
of members, so it finds the same clustering, and it visits a subset of
that search's nodes.

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

    ``dfs`` at depth v gets ``shut``, the state of v..n-1 (see the module
    docstring) in one int of width-bit lanes: lane i, bits i * width up to
    i * width + width - 2, holds ~free[v + i], where free[x] is
    need[x] & ~ban[x], and its top bit, the guard, is 0.  The root gets 0.
    Masks only use the bits below the block count, which is at most n
    plus the level, and width is at least n + level + 2, so the lane bit
    below the guard is set only once a blue predecessor is placed, and a
    lane is full exactly when its vertex is stuck.  ``lane`` has a lane's
    value bits set.  Placing v with mask ORs in
    (lane ^ mask) * blue_lanes[v], which shuts every block outside mask to
    v's blue successors, and, when mask is one block,
    mask * red_lanes[v], which shuts it to v's red successors; v's lane
    constants have a one at the foot of each successor's lane.  Adding
    ``ones``, a one at the foot of every lane, carries into the guards of
    exactly the full lanes, so the stuck count of v+1..n-1 is the popcount
    of the sum's guard bits less v's own flag.  The child gets the int
    shifted right by one lane, so v's lane leaves it.  ``dfs`` changes no
    state in place, so a child that finds nothing leaves nothing to undo;
    a solution or SearchLimitReached ends the search.

    ``dfs`` gets the stuck count of v..n-1, and a child is entered only if
    used + cost + max(suffix[v + 1], stuck count of v+1..n-1) <= extra.
    A placement can only make successors stuck, so v's multi-membership
    tries spend at most ``room``, extra - used - max(suffix[v + 1], stuck
    count without v).  ``room`` is never negative: it is extra - suffix[1]
    >= 0 at the root, a child is entered only within the bound, and the
    suffix bounds never rise with v.  So no try's cost passes the suffix
    bound, and a try checks the stuck count alone.

    The lanes are sized for the first level with as much room again,
    width n + 2 * level + 2, and rebuilt only when a level needs more: the
    width follows the levels searched, never max_cost.  The int at depth
    v and v's lane constants span n - v lanes, so each kind sums to about
    n^2 * width / 2 bits over the depths: at most about 8 MB each at the
    depth limit of 500 vertices and level 0.

    ``tries`` yields a node's placements (mask, cost, new block count) in
    search order, and ``dfs`` applies them itself.  A generator's frame is
    off the stack while ``dfs`` recurses, so the search keeps one Python
    frame per vertex.
    """
    n = g.n
    suffix = _suffix_bounds(g)
    blue_pred: list[list[int]] = []
    # each vertex's successors as a bitmask of their distances from it
    blue_after: list[int] = []
    for v, row in enumerate(g._blue_adj):
        i = bisect_left(row, v)
        blue_pred.append(row[:i])
        blue_after.append(sum(1 << (x - v) for x in row[i:]))
    if g.complete:  # red is every other successor
        red_after = [((1 << (n - v)) - 2) ^ b for v, b in enumerate(blue_after)]
    else:
        red_after = [sum(1 << (x - v) for x in row if x > v) for v, row in enumerate(g._red_adj)]
    # block subset masks by (block count, subset size), shared by all levels
    subsets: dict[tuple[int, int], list[int]] = {}
    vmask = [0] * n
    nodes = 0

    def tries(v: int, nb: int, joinable: int, room: int):
        # single existing blocks: the set bits of joinable, lowest first
        while joinable:
            low = joinable & -joinable
            joinable ^= low
            yield low, 0, nb
        # single fresh block: impossible once v has blue predecessors
        preds = blue_pred[v]
        if not preds:
            yield 1 << nb, 0, nb + 1
        if not room:
            return
        # m >= 2 memberships cost m - 1 extra: s existing blocks, each
        # subset in combinations order, and m - s fresh ones
        req = [vmask[u] for u in preds]
        for m in range(2, room + 2):
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

    def dfs(v: int, used: int, nb: int, stuck: int, shut: int) -> list[list[int]] | None:
        nonlocal nodes
        if v == n:
            return [[u for u in range(n) if vmask[u] >> b & 1] for b in range(nb)]
        nodes += 1
        if nodes > limit:
            raise SearchLimitReached(nodes, extra)
        own = shut & lane == lane
        rest = stuck - own
        left = extra - used
        bound = suffix[v + 1]
        blue = blue_lanes[v]
        red = red_lanes[v]
        room = left - (rest if rest > bound else bound)
        for mask, c, nb_next in tries(v, nb, ~shut & ((1 << nb) - 1), room):
            # a blue successor keeps the blocks in mask; a red one loses
            # mask when it is one block
            placed = shut | (lane ^ mask) * blue
            if not mask & (mask - 1):
                placed |= mask * red
            count = ((placed + ones) & guards).bit_count() - own
            if c + count > left:
                continue
            vmask[v] = mask
            placed >>= width  # v's lane leaves
            found = dfs(v + 1, used + c, nb_next, count, placed)
            if found is not None:
                return found
        return None

    width = 0
    for extra in range(suffix[0], max_cost + 1):  # the level dfs and tries read
        if n + extra + 2 > width:
            width = n + 2 * extra + 2
            lane = (1 << (width - 1)) - 1
            ones = ((1 << n * width) - 1) // ((1 << width) - 1)
            guards = ones << (width - 1)
            # b * copies puts a copy of b at each multiple of width - 1, so
            # copy d holds bit d of b at d * width, the foot of lane d.  The
            # constants are first cut to v's n - v lanes: an & result keeps
            # the allocation of its shorter operand, and these ints live as
            # long as the search
            step = ((1 << n * (width - 1)) - 1) // lane
            blue_lanes = []
            red_lanes = []
            for v, (b, r) in enumerate(zip(blue_after, red_after)):
                copies = step >> v * (width - 1)
                feet = ones >> v * width
                blue_lanes.append(b * copies & feet)
                red_lanes.append(r * copies & feet)
        found = dfs(0, 0, 0, 0, 0)
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
