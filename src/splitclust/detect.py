"""Obstruction detection: bad triangles, bad star forests, lower bounds.

A bad triangle is two blue edges sharing a vertex plus a red edge closing
the cycle; it is the smallest erroneous cycle.  A bad star generalizes it:
a center joined blue to at least two leaves that are pairwise red.  A bad
star of l leaves costs at least l - 1 in any valid clustering, and the
stars of a vertex-disjoint forest add up, so forest weight bounds the
optimum from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from .graphs import BLUE, RED, CorrelationGraph, _blue_sets


@dataclass(frozen=True)
class BadStar:
    """Center blue-adjacent to every leaf; leaves pairwise red; >= 2 leaves."""

    center: int
    leaves: tuple[int, ...]

    def __post_init__(self):
        if len(self.leaves) < 2:
            raise ValueError("a bad star needs at least two leaves")
        if any(a >= b for a, b in zip(self.leaves, self.leaves[1:])):
            raise ValueError("leaves must be sorted and distinct")
        if self.center in self.leaves:
            raise ValueError("center cannot be a leaf")
        if self.center < 0 or self.leaves[0] < 0:
            raise ValueError("negative vertex id")

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


def find_bad_triangle(
    g: CorrelationGraph, within: Iterable[int] | None = None
) -> tuple[int, int, int] | None:
    """Lexicographically smallest (u, v, w) with blue uv, blue vw, red uw, u < w.

    Returns None when the (restricted) graph has no bad triangle.  On
    incomplete graphs only an explicitly red pair closes a triangle.  Takes
    O(n + sum of deg(v)^2) set steps over blue degrees, after O(n + stored
    pairs) to build the neighbour sets.
    """
    if within is None:
        order: Sequence[int] = range(g.n)
    else:
        order = sorted(set(within))
        for v in order:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
    red = None
    if not g.complete:
        red = [set() for _ in range(g.n)]
        for (a, b), color in g._labels.items():
            if color is RED:
                red[a].add(b)
                red[b].add(a)
    return _scan(g, _blue_sets(g), red, set(order), order, 0)[1]


def _scan(
    g: CorrelationGraph,
    blue: list[set[int]],
    red: list[set[int]] | None,
    alive: set[int],
    order: Sequence[int],
    start: int,
) -> tuple[int, tuple[int, int, int] | None]:
    """First bad triangle on alive vertices whose u is order[i] for i >= start.

    Returns that position i with the triangle, or (len(order), None).  For
    each u the blue neighbours v are tried in ascending order, and the
    closing w is the smallest alive w > u in blue[v] that is red to u: not
    blue when ``red`` is None (complete graphs), else in ``red[u]``.
    """
    adj = g._blue_adj
    for i in range(start, len(order)):
        u = order[i]
        if u not in alive:
            continue
        if red is None:
            # u itself is a blue neighbour of every v; drop it up front so
            # that inside a blue clique the difference below comes out empty
            not_red = blue[u] | {u}
        for v in adj[u]:
            if v not in alive:
                continue
            closing = blue[v] - not_red if red is None else blue[v] & red[u]
            if closing:
                ws = [w for w in closing if w > u and w in alive]
                if ws:
                    return i, (u, v, min(ws))
    return len(order), None


def maximal_bad_star_forest(g: CorrelationGraph) -> BadStarForest:
    """Greedy vertex-disjoint bad stars until no bad triangle survives.

    Repeatedly takes the smallest bad triangle among unused vertices as a
    star seed and extends it by scanning unused vertices in ascending
    order: a candidate x joins as a leaf when center-x is blue and x is
    red to every current leaf.  Deterministic; requires a complete graph
    so that forest weight is a valid lower bound and the leftover vertices
    induce a cluster graph.

    Removing vertices creates no bad triangle, so the first vertex of the
    smallest one only moves forward and one scan, resumed after each star,
    finds them all: O(n + sum of deg(v)^2) set steps over blue degrees.
    Star growth walks the center's blue neighbours, O(n + blue pairs) in all.
    """
    if not g.complete:
        raise ValueError("bad star forests are defined on complete graphs")
    adj = g._blue_adj
    blue = _blue_sets(g)
    unused = set(range(g.n))
    stars: list[BadStar] = []
    i = 0
    while True:
        i, triangle = _scan(g, blue, None, unused, range(g.n), i)
        if triangle is None:
            break
        u, center, w = triangle
        leaves = [u, w]
        # blue neighbours of a leaf cannot join: they are not red to it
        blocked = blue[u] | blue[w]
        blocked.update(leaves)
        for x in adj[center]:
            if x in unused and x not in blocked:
                leaves.append(x)
                blocked |= blue[x]
        star = BadStar(center, tuple(sorted(leaves)))
        stars.append(star)
        unused -= star.vertices
        i += 1  # u is now a leaf; later triangles start beyond it
    return BadStarForest(tuple(stars))


def lower_bound(g: CorrelationGraph) -> int:
    """Weight of the greedy bad star forest; never exceeds the optimum cost."""
    return maximal_bad_star_forest(g).weight
