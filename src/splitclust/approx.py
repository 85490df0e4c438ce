"""Factor-7 approximation for minimum-cost clustering of complete graphs.

Reads the one decomposition ``detect._decompose`` also gives the kernel:
the greedy bad star forest, whose vertex set S is at most 3 times the
optimum in weight, the disjoint blue cliques left after removing S, and
each clique's blue edges into S.  Candidate solutions keep one hub cluster
around S: a guessed clique is merged into the hub entirely, every other
clique C contributes a minimum vertex cover of its blue edges towards S,
and each S vertex also gets a singleton so red pairs inside S resolve.
The cheapest candidate costs at most 7 times the optimum; when the
cliques number at most one, the flat solution (one cluster with
everything plus S singletons) costs |S| <= 3 * optimum.

A candidate costs |S| plus the sizes of the covers it keeps, so
``approximate`` compares those sums and builds only the first cheapest
candidate; ``candidate_solutions`` builds them all, with the same helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable
from typing import NamedTuple, TypeVar

from .clustering import Clustering
from .detect import _decompose
from .graphs import CorrelationGraph

V = TypeVar("V", bound=Hashable)


@dataclass(frozen=True)
class BipartiteGraph:
    """Two disjoint vertex sides and edges between them.  Order is kept."""

    left: tuple
    right: tuple
    edges: tuple[tuple, ...]

    def __post_init__(self):
        left, right = set(self.left), set(self.right)
        if len(left) != len(self.left) or len(right) != len(self.right):
            raise ValueError("duplicate vertex within a side")
        if left & right:
            raise ValueError("sides must be disjoint")
        for a, b in self.edges:
            if a not in left or b not in right:
                raise ValueError(f"edge ({a!r},{b!r}) must go left to right")


def bipartite_min_vertex_cover(b: BipartiteGraph) -> frozenset:
    """Minimum vertex cover via maximum matching and alternating reachability.

    Deterministic for a fixed input ordering.  The cover size equals the
    maximum matching size.
    """
    adj: dict = {l: [] for l in b.left}
    seen_edges = set()
    for l, r in b.edges:
        if (l, r) not in seen_edges:
            seen_edges.add((l, r))
            adj[l].append(r)
    match_left: dict = {}
    match_right: dict = {}

    def augment(root) -> bool:
        # depth-first search for an augmenting path with an explicit stack:
        # stack[i] holds a left vertex and its untried edges, path[i] the
        # right vertex through which stack[i + 1] was entered
        visited: set = set()
        stack = [(root, iter(adj[root]))]
        path: list = []
        while stack:
            for r in stack[-1][1]:
                if r in visited:
                    continue
                visited.add(r)
                path.append(r)
                if r not in match_right:
                    for (left, _), right in zip(stack, path):
                        match_left[left] = right
                        match_right[right] = left
                    return True
                stack.append((match_right[r], iter(adj[match_right[r]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    for l in b.left:
        if adj[l]:
            augment(l)

    # alternating reachability from unmatched left vertices: non-matching
    # edges forward, matching edges back; cover = unreached left + reached right
    reach_left = {l for l in b.left if l not in match_left}
    reach_right: set = set()
    frontier = list(reach_left)
    while frontier:
        l = frontier.pop()
        for r in adj[l]:
            if match_left.get(l) == r or r in reach_right:
                continue
            reach_right.add(r)
            back = match_right.get(r)
            if back is not None and back not in reach_left:
                reach_left.add(back)
                frontier.append(back)
    cover = [l for l in b.left if l not in reach_left]
    cover += [r for r in b.right if r in reach_right]
    return frozenset(cover)


@dataclass(frozen=True)
class SimpleSolutionParts:
    """One assembled candidate: hub cluster around S plus per-clique clusters.

    ``covers`` pairs every non-guessed clique with its minimum vertex cover
    of the blue edges towards S.  ``guess`` is the clique merged into the
    hub, None when no clique is merged.  For degenerate inputs (no bad
    structure, or at most one clique outside S) there is a single candidate
    with no covers.
    """

    s_vertices: frozenset[int]
    cliques: tuple[frozenset[int], ...]
    guess: frozenset[int] | None
    covers: tuple[tuple[frozenset[int], frozenset[int]], ...]
    assembled: Clustering
    cost: int


class _Shared(NamedTuple):
    """What every candidate of a non-degenerate input is assembled from."""

    s_set: frozenset[int]
    s_sorted: tuple[int, ...]
    cliques: tuple[frozenset[int], ...]
    covers: list[frozenset]  # one minimum vertex cover per clique


def _shared_parts(g: CorrelationGraph) -> _Shared | SimpleSolutionParts:
    """S, the cliques outside it and each clique's cover towards S.

    Degenerate inputs (no bad structure, or at most one clique outside S)
    have a single candidate, which is returned instead.
    """
    if not g.complete:
        raise ValueError("approximation is defined on complete graphs")
    if g.n == 0:
        raise ValueError("approximation needs at least one vertex")
    forest, cliques, edges = _decompose(g)
    s_set = forest.vertices
    s_sorted = tuple(sorted(s_set))
    if not s_sorted:
        return SimpleSolutionParts(s_set, cliques, None, (), Clustering(cliques), 0)
    if len(cliques) <= 1:
        flat = [frozenset(range(g.n))] + [frozenset((s,)) for s in s_sorted]
        return SimpleSolutionParts(
            s_set, cliques, None, (), Clustering(flat), len(s_sorted)
        )
    covers = [
        bipartite_min_vertex_cover(
            BipartiteGraph(s_sorted, tuple(sorted(clique)), tuple(to_s))
        )
        for clique, to_s in zip(cliques, edges)
    ]
    return _Shared(s_set, s_sorted, cliques, covers)


def _assemble(parts: _Shared, pick: int) -> SimpleSolutionParts:
    """The candidate that merges clique ``pick`` into the hub.

    ``pick == len(cliques)`` gives the candidate that merges no clique.
    """
    s_set, s_sorted, cliques, covers = parts
    guess = cliques[pick] if pick < len(cliques) else None
    hub = set(s_sorted)
    if guess is not None:
        hub |= guess
    clusters = []
    cover_pairs = []
    total = len(s_sorted)
    for i, (clique, cover) in enumerate(zip(cliques, covers)):
        if i == pick:
            continue
        hub |= cover & clique
        clusters.append(clique | (cover & s_set))
        cover_pairs.append((clique, cover))
        total += len(cover)
    assembled = Clustering(
        [frozenset(hub), *clusters, *(frozenset((s,)) for s in s_sorted)]
    )
    return SimpleSolutionParts(s_set, cliques, guess, tuple(cover_pairs), assembled, total)


def candidate_solutions(g: CorrelationGraph) -> tuple[SimpleSolutionParts, ...]:
    """All candidate solutions, one per guessed clique plus the no-guess one.

    Every candidate's clustering is valid for g.  ``approximate`` returns
    the first cheapest one's clustering.
    """
    parts = _shared_parts(g)
    if isinstance(parts, SimpleSolutionParts):
        return (parts,)
    return tuple(_assemble(parts, pick) for pick in range(len(parts.cliques) + 1))


def approximate(g: CorrelationGraph) -> Clustering:
    """Valid clustering of cost at most 7 times the optimum.  Deterministic.

    The clustering of the first cheapest of ``candidate_solutions(g)``.
    Every candidate costs |S| plus the covers it keeps, which is every
    cover but the guessed clique's, so the costs are compared first and
    only the winner is assembled.
    """
    parts = _shared_parts(g)
    if isinstance(parts, SimpleSolutionParts):
        return parts.assembled
    # candidate costs less |S|, which they all share
    kept = sum(map(len, parts.covers))
    costs = [kept - len(cover) for cover in parts.covers] + [kept]
    return _assemble(parts, costs.index(min(costs))).assembled
