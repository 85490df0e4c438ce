"""Obstruction detection: bad triangles, bad star forests, lower bounds.

A bad triangle is two blue edges sharing a vertex plus a red edge closing
the cycle; it is the smallest erroneous cycle.  A bad star generalizes it:
a center joined blue to at least two leaves that are pairwise red.  A bad
star of l leaves costs at least l - 1 in any valid clustering, and the
stars of a vertex-disjoint forest add up, so forest weight bounds the
optimum from below.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterator
from dataclasses import dataclass

from .graphs import BLUE, RED, CorrelationGraph, _check_non_negative


@dataclass(frozen=True)
class BadStar:
    """Center blue-adjacent to every leaf; leaves pairwise red; >= 2 leaves."""

    center: int
    leaves: tuple[int, ...]

    def __post_init__(self):
        _check_non_negative("vertex id", self.center, *self.leaves)
        if len(self.leaves) < 2:
            raise ValueError("a bad star needs at least two leaves")
        if any(a >= b for a, b in zip(self.leaves, self.leaves[1:])):
            raise ValueError("leaves must be sorted and distinct")
        if self.center in self.leaves:
            raise ValueError("center cannot be a leaf")

    @property
    def weight(self) -> int:
        return len(self.leaves) - 1

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset((self.center, *self.leaves))


@dataclass(frozen=True)
class BadStarForest:
    """Vertex-disjoint bad stars; weight is the sum of star weights."""

    stars: tuple[BadStar, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for star in self.stars:
            if seen & star.vertices:
                raise ValueError("stars must be vertex-disjoint")
            seen |= star.vertices

    @property
    def weight(self) -> int:
        return sum(star.weight for star in self.stars)

    @property
    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for star in self.stars:
            out |= star.vertices
        return frozenset(out)


def is_bad_star(g: CorrelationGraph, star: BadStar) -> bool:
    """Whether the star's color pattern holds in g."""
    leaves = star.leaves
    if star.center >= g.n or leaves[-1] >= g.n:
        return False
    if any(g.label(star.center, leaf) is not BLUE for leaf in leaves):
        return False
    return all(
        g.label(leaves[i], leaves[j]) is RED
        for i in range(len(leaves))
        for j in range(i + 1, len(leaves))
    )


def find_bad_triangle(g: CorrelationGraph) -> tuple[int, int, int] | None:
    """Lexicographically smallest (u, v, w) with blue uv, blue vw, red uw, u < w.

    Returns None when the graph has no bad triangle.  On incomplete graphs
    only an explicitly red pair closes a triangle.  Takes O(n + stored
    pairs) to build the twin classes on complete graphs and the blue and red
    neighbour sets, one per row, on incomplete ones.  Complete graphs are
    then scanned by ``_triangles``, which takes set differences only between
    non-twin neighbours; incomplete ones try every blue neighbour v of u
    and close with blue[v] & red[u].
    """
    if g.complete:
        return next(_triangles(set(range(g.n)), _twin_classes(g)), None)
    adj = g._blue_adj
    blue = list(map(set, adj))
    red = list(map(set, g._red_adj))
    for u in range(g.n):
        for v in adj[u]:
            ws = [w for w in blue[v] & red[u] if w > u]
            if ws:
                return u, v, min(ws)
    return None


# each vertex's class, each class's blue neighbours outside it (sorted), and
# each class's N[c] as a set
_TwinClasses = tuple[list[int], list[list[int]], list[set[int]]]


def _twin_classes(g: CorrelationGraph) -> _TwinClasses:
    """Classes of the closed blue neighbourhoods: labels, outside rows and sets.

    Vertices with the same N[v] = adj[v] + {v} are true twins: pairwise
    blue, with the same blue neighbours elsewhere.  Every class c gets
    ``others[c]``, the sorted blue neighbours outside c, which is the same
    list for every member, and its N[c] as one set, which serves all its
    members wherever a per-vertex blue set would be read.  A class of one
    vertex shares that vertex's adjacency list as its row, which callers
    must not change.  O(n + blue pairs): one tuple per vertex to label it,
    then one set per class and one pass over a member's row per class of
    two or more, none per vertex.
    """
    ids: dict[tuple[int, ...], int] = {}
    label = []
    others: list[list[int]] = []  # the first member's row until a twin shows up
    shared = set()  # classes with two or more members
    for v, row in enumerate(g._blue_adj):
        key = row.copy()  # N[v] as a sorted tuple; cheaper than a frozenset
        insort(key, v)
        c = ids.setdefault(tuple(key), len(ids))
        if c == len(others):
            others.append(row)
        else:
            shared.add(c)
        label.append(c)
    for c in shared:
        others[c] = [w for w in others[c] if label[w] != c]
    return label, others, list(map(set, ids))


def _triangles(alive: set[int], twins: _TwinClasses) -> Iterator[tuple[int, int, int]]:
    """The first bad triangle on alive vertices for each alive u, ascending.

    For each u the blue neighbours v are tried in ascending order, and the
    closing w is the smallest alive w > u that is blue to v and red to u;
    the first such (u, v, w) is yielded, and the stream moves on to u + 1.
    ``alive`` is read as the caller leaves it between triangles.

    The graph is complete, and ``twins`` comes from ``_twin_classes`` on
    the whole graph; every set is read off the classes: since v lies in
    N[u], the closing set is N[v] - N[u].  A neighbour v in u's class has
    N[v] = N[u], so its closing set is empty, and only the neighbours in
    ``others`` of u's class are tried.  A u whose class has no such
    neighbour spans an isolated blue clique, which no bad triangle
    touches, and is skipped outright.  A set that is empty on the whole
    graph stays empty on the alive vertices, so every result is the
    triangle the plain scan finds.  After O(n + blue pairs) to label the
    classes, each u costs O(|others|) of its class plus one set difference
    per alive neighbour in it.
    """
    label, others, closed = twins
    for u in range(len(label)):
        if u not in alive:
            continue
        cu = label[u]
        not_red = closed[cu]
        for v in others[cu]:  # empty when N[u] is an isolated blue clique
            if v in alive:
                ws = [w for w in closed[label[v]] - not_red if w > u and w in alive]
                if ws:
                    yield u, v, min(ws)
                    break


def maximal_bad_star_forest(g: CorrelationGraph) -> BadStarForest:
    """Greedy vertex-disjoint bad stars until no bad triangle survives.

    Repeatedly takes the smallest bad triangle among unused vertices as a
    star seed and extends it by scanning unused vertices in ascending
    order: a candidate x joins as a leaf when center-x is blue and x is
    red to every current leaf.  Deterministic; requires a complete graph
    so that forest weight is a valid lower bound and the leftover vertices
    induce a cluster graph.

    Removing vertices creates no bad triangle, so the first vertex of the
    smallest one only moves forward and one stream of ``_triangles``, read
    on after each star, finds them all.  It labels the twin classes once,
    in O(n + blue pairs), and then each vertex walks only its class's row
    of blue neighbours outside the class, with one set difference per
    alive one: near-linear when most vertices have a true twin, as on
    graphs close to a cluster graph, and nothing at all for a vertex of an
    isolated blue clique.  Star growth walks the center's blue neighbours,
    O(n + blue pairs) in all.
    """
    if not g.complete:
        raise ValueError("bad star forests are defined on complete graphs")
    twins = _twin_classes(g)
    label, _, closed = twins
    adj = g._blue_adj
    unused = set(range(g.n))
    stars: list[BadStar] = []
    for u, center, w in _triangles(unused, twins):
        leaves = [u, w]
        # blue neighbours of a leaf cannot join: they are not red to it.  So
        # N[x] of each leaf x is blocked, x included; x is not met again,
        # since the center's neighbours are distinct
        blocked = closed[label[u]] | closed[label[w]]
        for x in adj[center]:
            if x in unused and x not in blocked:
                leaves.append(x)
                blocked |= closed[label[x]]
        star = BadStar(center, tuple(sorted(leaves)))
        stars.append(star)
        unused -= star.vertices  # u is now a leaf: the stream resumes beyond it
    return BadStarForest(tuple(stars))


def _suffix_bounds(g: CorrelationGraph) -> list[int]:
    """Lower bounds on the optimum of G[{v..n-1}] for v = 0..n, never rising with v.

    Entry v is the greedy forest weight of that induced subgraph, raised to
    entry v + 1 where that is larger: an induced subgraph's optimum never
    exceeds the graph's, because restricting a valid clustering keeps it
    valid.  Entry n is 0.  Incomplete graphs get all zeros.

    The n forests are those ``maximal_bad_star_forest`` finds on each
    suffix, but only their weights are kept, and every vertex set is an int
    bitmask.  ``closed[v]`` is N[v], and twin classes, the vertices with the
    same N[v], are found by keying a dict on that int.  Each vertex's
    candidate centres ``outside[v]`` are its blue neighbours outside its
    class: a centre in the class has the same N[v] and closes nothing, the
    skip ``_triangles`` makes.  A suffix's scan walks u upward over the unused
    vertices, tries the centres v in ``outside[u] & unused`` lowest first
    and closes with the lowest unused w > u in N[v] - N[u].  The star then
    takes, lowest first, the unused blue neighbours of v that no leaf's N[x]
    blocks.  A suffix takes one step per unused vertex and one per centre
    tried, each a few operations on n-bit ints of O(n / 64) words.

    The rows take O(n^2 / 64) words, small under the exact search's depth
    cap of 500 vertices.  ``maximal_bad_star_forest`` stays on sets and
    class rows, which take O(n + blue pairs) up to ``MAX_VERTICES``.
    """
    n = g.n
    bounds = [0] * (n + 1)
    if not g.complete:
        return bounds
    closed = [sum(1 << w for w in row) | 1 << v for v, row in enumerate(g._blue_adj)]
    members: dict[int, int] = {}
    for v, nv in enumerate(closed):
        members[nv] = members.get(nv, 0) | 1 << v
    outside = [nv & ~members[nv] for nv in closed]
    # vertices with a neighbour outside their class: only they start a triangle
    starts = sum(1 << v for v, row in enumerate(outside) if row)
    for first in range(n - 1, -1, -1):
        unused = (1 << n) - (1 << first)
        todo = starts & unused
        weight = 0
        while todo:
            low = todo & -todo
            todo ^= low
            u = low.bit_length() - 1
            centres = outside[u] & unused
            if not centres:
                continue
            not_red = closed[u]
            later = unused & -(low << 1)  # unused vertices above u
            while centres:
                bit = centres & -centres
                centres ^= bit
                v = bit.bit_length() - 1
                closing = closed[v] & ~not_red & later
                if closing:
                    w = (closing & -closing).bit_length() - 1
                    # a leaf's blue neighbours are not red to it, so they
                    # are blocked; v lies in N[u] and is blocked too
                    blocked = not_red | closed[w]
                    star = bit | low | 1 << w
                    grow = closed[v] & unused & ~blocked
                    while grow:
                        leaf = grow & -grow
                        star |= leaf
                        weight += 1
                        grow &= ~closed[leaf.bit_length() - 1]
                    weight += 1
                    unused &= ~star
                    todo &= unused
                    break
        bounds[first] = max(weight, bounds[first + 1])
    return bounds


def _decompose(
    g: CorrelationGraph,
) -> tuple[BadStarForest, tuple[frozenset[int], ...], list[list[tuple[int, int]]]]:
    """The greedy forest F, the blue cliques of G - V(F), and their edges into V(F).

    F hits every bad triangle, so G - V(F) is a cluster graph and the
    clique of a vertex v outside V(F) is v with its blue neighbours outside
    V(F).  The cliques come ordered by smallest member; the i-th edge list
    holds the blue pairs (s, c) with s in V(F) and c in the i-th clique,
    sorted by s and then c.  After the forest, O(n + blue pairs), with one
    pass over the adjacency lists of V(F).  Requires a complete graph.
    """
    forest = maximal_bad_star_forest(g)
    s_vertices = forest.vertices
    adj = g._blue_adj
    where = [-1] * g.n  # clique index of each vertex outside V(F)
    cliques: list[frozenset[int]] = []
    for v in range(g.n):
        if where[v] < 0 and v not in s_vertices:
            clique = [v]
            clique += [w for w in adj[v] if w not in s_vertices]
            for w in clique:
                where[w] = len(cliques)
            cliques.append(frozenset(clique))
    edges: list[list[tuple[int, int]]] = [[] for _ in cliques]
    for s in sorted(s_vertices):
        for c in adj[s]:
            if where[c] >= 0:
                edges[where[c]].append((s, c))
    return forest, tuple(cliques), edges


def lower_bound(g: CorrelationGraph) -> int:
    """Weight of the greedy bad star forest; never exceeds the optimum cost."""
    return maximal_bad_star_forest(g).weight
