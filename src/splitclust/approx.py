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

Both public functions read S, the cliques and the covers once, through
``_parts``, and build candidates with ``_assemble``, the flat one included.
A candidate costs |S| plus the sizes of the covers it keeps, so
``approximate`` compares those sums and builds only the first cheapest
candidate; ``candidate_solutions`` builds them all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clustering import Clustering
from .detect import _decompose
from .graphs import CorrelationGraph


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
    maximum matching size.  The matching is grown by Hopcroft and Karp's
    phases, O(E sqrt V) in all: each phase layers the left vertices by a
    breadth-first search from the unmatched ones, then augments along
    vertex-disjoint shortest paths.  The cover is Koenig's: the left
    vertices that no alternating path from an unmatched left vertex
    reaches, and the right vertices that one reaches.  Those sets are the
    same for every maximum matching, so the cover does not depend on
    which one the phases find.
    """
    adj: dict = {l: [] for l in b.left}
    for l, r in dict.fromkeys(b.edges):
        adj[l].append(r)
    match_left: dict = {}
    match_right: dict = {}
    while True:
        # layer the left vertices: unmatched ones at 0, then across a
        # non-matching edge and back along a matching edge, up to the first
        # layer with an edge to an unmatched right vertex
        free = [l for l in b.left if l not in match_left]
        layer = dict.fromkeys(free, 0)
        frontier = free
        found = False
        while frontier and not found:
            deeper = []
            for l in frontier:
                for r in adj[l]:
                    back = match_right.get(r)
                    if back is None:
                        found = True
                    elif back not in layer:
                        layer[back] = layer[l] + 1
                        deeper.append(back)
            frontier = deeper
        if not found:
            # the matching is maximum, and the layered left vertices are
            # those that alternating paths from unmatched ones reach
            reached = {r for l in layer for r in adj[l]}
            cover = [l for l in b.left if l not in layer]
            cover += [r for r in b.right if r in reached]
            return frozenset(cover)
        # depth-first search along the layers with an explicit stack:
        # stack[i] holds a left vertex and its untried edges, path[i] the
        # right vertex through which stack[i + 1] was entered; a right
        # vertex is entered at most once per phase, so the paths found are
        # vertex-disjoint
        used: set = set()
        for root in free:
            stack = [(root, iter(adj[root]))]
            path: list = []
            while stack:
                l, untried = stack[-1]
                for r in untried:
                    if r in used:
                        continue
                    back = match_right.get(r)
                    if back is not None and layer.get(back) != layer[l] + 1:
                        continue
                    used.add(r)
                    path.append(r)
                    if back is None:
                        for (left, _), right in zip(stack, path):
                            match_left[left] = right
                            match_right[right] = left
                        stack = []
                    else:
                        stack.append((back, iter(adj[back])))
                    break
                else:
                    stack.pop()
                    if path:
                        path.pop()


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


# S ascending, the cliques outside it, and one cover per clique or None
_Parts = tuple[tuple[int, ...], tuple[frozenset[int], ...], list[frozenset] | None]


def _parts(g: CorrelationGraph) -> _Parts:
    """S, the cliques outside it and each clique's cover towards S.

    A clique's bipartite graph has on its left only the S vertices with an
    edge into the clique: the others would be isolated, and an isolated
    vertex is never in Koenig's cover.  So the graphs take O(n + blue
    pairs) in all, not O(|S|) per clique, and the covers stay the same.
    Degenerate inputs (no bad structure, or at most one clique outside S)
    have a single candidate and no covers.
    """
    if not g.complete:
        raise ValueError("approximation is defined on complete graphs")
    forest, cliques, edges = _decompose(g)
    s_sorted = tuple(sorted(forest.vertices))
    if not s_sorted or len(cliques) <= 1:
        return s_sorted, cliques, None
    covers = [
        bipartite_min_vertex_cover(
            BipartiteGraph(
                tuple(dict.fromkeys([s for s, _ in to_s])),
                tuple(sorted(clique)),
                tuple(to_s),
            )
        )
        for clique, to_s in zip(cliques, edges)
    ]
    return s_sorted, cliques, covers


def _assemble(parts: _Parts, pick: int) -> SimpleSolutionParts:
    """The candidate that merges clique ``pick``, or no clique at ``len(cliques)``.

    A degenerate input has only the latter: the cliques at cost 0 when S is
    empty, else one cluster of everything plus the S singletons, at cost |S|.
    """
    s_sorted, cliques, covers = parts
    s_set = frozenset(s_sorted)
    singles = [frozenset((s,)) for s in s_sorted]
    if covers is None:
        flat = [s_set.union(*cliques), *singles] if s_sorted else cliques
        return SimpleSolutionParts(
            s_set, cliques, None, (), Clustering(flat), len(s_sorted)
        )
    guess = cliques[pick] if pick < len(cliques) else None
    hub = set(s_sorted).union(guess or ())
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
    assembled = Clustering([frozenset(hub), *clusters, *singles])
    return SimpleSolutionParts(s_set, cliques, guess, tuple(cover_pairs), assembled, total)


def candidate_solutions(g: CorrelationGraph) -> tuple[SimpleSolutionParts, ...]:
    """All candidate solutions, one per guessed clique plus the no-guess one.

    A degenerate input has only the no-guess one.  Every clustering is
    valid for g; ``approximate`` returns the first cheapest one's.
    """
    parts = _parts(g)
    _, cliques, covers = parts
    first = 0 if covers is not None else len(cliques)
    return tuple(_assemble(parts, pick) for pick in range(first, len(cliques) + 1))


def approximate(g: CorrelationGraph) -> Clustering:
    """Valid clustering of cost at most 7 times the optimum.  Deterministic.

    The clustering of the first cheapest of ``candidate_solutions(g)``.
    Every candidate costs |S| plus the covers it keeps, which is every
    cover but the guessed clique's, so the costs are compared first and
    only the winner is assembled.
    """
    parts = _parts(g)
    _, cliques, covers = parts
    if covers is None:
        return _assemble(parts, len(cliques)).assembled
    # candidate costs less |S|, which they all share
    kept = sum(map(len, covers))
    costs = [kept - len(cover) for cover in covers] + [kept]
    return _assemble(parts, costs.index(min(costs))).assembled
