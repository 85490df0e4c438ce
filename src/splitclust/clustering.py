"""Overlapping clusterings and their equivalence with vertex splitting.

A clustering is an ordered list of vertex sets.  It is valid for a graph
when every vertex lies in some cluster, every blue pair shares a cluster,
and every red pair (u, v) is resolved: two distinct list positions i != j
with u in cluster i and v in cluster j.  The cost is the number of extra
memberships, sum over v of (#clusters containing v - 1).

Splitting a vertex v replaces it by two copies that jointly inherit v's
blue and red edges (each edge goes to at least one copy, possibly both).
A graph obtained by repeated splits clusters the original when it has no
erroneous cycle, i.e. no simple cycle with exactly one red edge.  Valid
clusterings of cost k and split sequences of length k translate into each
other; ``clustering_to_splits`` and ``splits_to_clustering`` realize both
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from collections.abc import Container, Iterable
from bisect import bisect_left
from itertools import chain

from .graphs import (
    CorrelationGraph,
    FormatError,
    _blue_labels,
    _check_below,
    _check_non_negative,
    _check_vertex_count,
    _clique_components,
    _pair,
    _read_counts,
    _read_document,
    _read_ids,
)


@dataclass(frozen=True, init=False, repr=False)
class Clustering:
    """Ordered list of nonempty vertex sets.  Order matters for resolution.

    A frozen dataclass: equal by value, hashable, and it pickles and deep-copies.
    """

    clusters: tuple[frozenset[int], ...]

    def __init__(self, clusters: Iterable[Iterable[int]]):
        clean = tuple([frozenset(cluster) for cluster in clusters])
        if not all(clean):
            raise ValueError("clusters must be nonempty")
        _check_non_negative("vertex id", *chain.from_iterable(clean))
        object.__setattr__(self, "clusters", clean)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.clusters[i]

    def __repr__(self) -> str:
        body = ", ".join(
            ["{" + ",".join(map(str, sorted(c))) + "}" for c in self.clusters]
        )
        return f"Clustering([{body}])"

    def membership(self, n: int) -> list[list[int]]:
        """For each vertex 0..n-1, the sorted list of cluster indices containing it."""
        _check_vertex_count(n)
        idx: list[list[int]] = [[] for _ in range(n)]
        for i, cluster in enumerate(self.clusters):
            for v in cluster:
                if v >= n:  # ids are non-negative ints, checked when f was built
                    _check_below("cluster vertex", n, v)
                idx[v].append(i)
        return idx


def cost(f: Clustering, n: int) -> int:
    """Total extra memberships: sum over vertices of (#clusters - 1)."""
    idx = f.membership(n)
    for v, where in enumerate(idx):
        if not where:
            raise ValueError(f"vertex {v} is in no cluster")
    return sum(len(where) - 1 for where in idx)


@dataclass(frozen=True)
class ValidationReport:
    """Violations of the clustering conditions; empty means valid."""

    uncovered_blue: tuple[tuple[int, int], ...]
    unresolved_red: tuple[tuple[int, int], ...]
    uncovered_vertices: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not (self.uncovered_blue or self.unresolved_red or self.uncovered_vertices)

    def _lines(self) -> list[str]:
        """The violations as ``splitclust verify`` prints them, one per line."""
        return [
            *(f"uncovered-vertex {v}" for v in self.uncovered_vertices),
            *(f"uncovered-blue {u} {v}" for u, v in self.uncovered_blue),
            *(f"unresolved-red {u} {v}" for u, v in self.unresolved_red),
        ]

    def __str__(self) -> str:
        """``valid``, or the violations in ``verify``'s words, comma-separated."""
        return ", ".join(self._lines()) if not self.ok else "valid"


def verify_clustering(g: CorrelationGraph, f: Clustering) -> ValidationReport:
    """Check the three validity conditions and report every violation.

    O(n + memberships + stored pairs + v log v) for v violations, with no
    sort but of the violations.  Each row of a vertex with one cluster is
    first screened against that cluster by one C set operation, and pairs
    are walked only in the rows that fail it (see ``_violations``).  The
    red pairs of a complete graph are not stored: a vertex u passes when
    its cluster is u plus its blue row, which a length compare settles,
    and only the red pairs of vertices that fail, or that are uncovered,
    are listed.
    """
    return _violations(g, f.membership(g.n), f.clusters)


def _valid_membership(g: CorrelationGraph, f: Clustering) -> list[list[int]]:
    """``f.membership(g.n)``, once ``_violations`` finds f valid for g."""
    where = f.membership(g.n)
    report = _violations(g, where, f.clusters)
    if not report.ok:
        raise ValueError(f"clustering is not valid for the graph: {report}")
    return where


def _violations(
    g: CorrelationGraph, where: list[list[int]], clusters: tuple[frozenset[int], ...]
) -> ValidationReport:
    """The report of the clustering ``clusters``, whose membership lists are ``where``.

    ``sole[v]`` is the index of v's only cluster, -1 if v lies in several
    and -2 if in none.  A vertex u whose only cluster is C passes its blue
    row when ``C.issuperset(row)``, which covers every blue pair at u.  A
    blue pair can be uncovered only when neither end passes, so the
    failing rows, and those of vertices in several clusters or in none,
    are walked over the partners below u, intersecting membership lists
    pair by pair; each violation is found once, in the row of its larger
    end.  A red pair is unresolved iff an endpoint has no cluster or both
    have the same sole one, so the red pairs of a vertex in several
    clusters are resolved unless its partner is uncovered.

    An incomplete graph's red row passes when ``C.isdisjoint(row)``, and
    the failing rows are walked as the blue ones are; when some vertex is
    uncovered, every red row is walked.  A complete graph's red partners
    of u inside C are C less u and its blue row, none iff, once the blue
    screen holds, ``len(row) + 1 == len(C)``.  The sole vertices that fail
    either test are unsure.  Only their clusters' ``alone`` sets, the
    members whose only cluster is C, are built, and an unsure u lists the
    partners in ``alone[C]`` outside its blue row and below u: O(row) when
    ``alone[C]`` is pairwise blue, as on a valid clustering.  An uncovered
    vertex lists every red partner, once per pair.  Only the violations
    are sorted, into the order of ``blue_edges``/``red_edges``.
    """
    sole = [w[0] if len(w) == 1 else -1 if w else -2 for w in where]
    blue, red = g._blue_adj, g._red_adj
    uncovered_blue = []
    unsure = []  # sole vertices whose cluster may hold a red partner; complete only
    for u, row in enumerate(blue):
        a = sole[u]
        if a >= 0:
            c = clusters[a]
            if c.issuperset(row):
                if red is None and len(row) + 1 != len(c):
                    unsure.append(u)
                continue
            unsure.append(u)
        mine = set(where[u])
        for v in row:
            if v > u:
                break
            if mine.isdisjoint(where[v]):
                uncovered_blue.append((v, u))
    uncovered_blue.sort()
    uncovered = [v for v, s in enumerate(sole) if s == -2]
    unresolved = []
    if red is None:
        alone: dict[int, set[int]] = {}
        for u in unsure:
            a = sole[u]
            if a not in alone:
                alone[a] = {v for v in clusters[a] if sole[v] == a}
            unresolved.extend([(v, u) for v in alone[a].difference(blue[u]) if v < u])
        for u in uncovered:
            bu = set(blue[u])
            # pairs of two uncovered vertices are taken from their smaller end
            unresolved.extend(
                _pair(u, v)
                for v in range(g.n)
                if v != u and v not in bu and (sole[v] != -2 or v > u)
            )
    else:
        screen = not uncovered
        for u, row in enumerate(red):
            a = sole[u]
            if screen and (a == -1 or clusters[a].isdisjoint(row)):
                continue
            for v in row:
                if v > u:
                    break
                b = sole[v]
                if a == -2 or b == -2 or a == b >= 0:
                    unresolved.append((v, u))
    unresolved.sort()
    return ValidationReport(tuple(uncovered_blue), tuple(unresolved), tuple(uncovered))


def parse_clustering(data: bytes | str) -> Clustering:
    """Parse the ``clu`` text format: header ``clustering <t>``, then t ``c`` lines."""
    lineno, header, lines = _read_document(data, "clustering", 2, "clustering <t>")
    (t,) = _read_counts(lineno, header[1:], "cluster count")
    clusters = []
    for lineno, fields in lines:
        if fields[0] != "c":
            raise FormatError(f"line {lineno}: expected 'c <v1> <v2> ...'")
        if len(fields) < 2:
            raise FormatError(f"line {lineno}: empty cluster")
        clusters.append(_read_ids(lineno, fields[1:]))
    if len(clusters) != t:
        raise FormatError(f"header says {t} clusters, found {len(clusters)}")
    return Clustering(clusters)


def write_clustering(f: Clustering) -> bytes:
    """Serialize to canonical ``clu`` form: cluster order kept, ids ascending."""
    out = [f"clustering {len(f.clusters)}"]
    out += ["c " + " ".join(map(str, sorted(c))) for c in f.clusters]
    return ("\n".join(out) + "\n").encode("utf-8")


@dataclass(frozen=True, repr=False)
class RealizedGraph:
    """Result of splitting vertices of a base graph.

    Descendant vertex d of the realized graph descends from original vertex
    ``ancestors[d]``.  Every original vertex keeps at least one descendant.
    A frozen dataclass: equal by value, hashable, and it pickles and
    deep-copies.
    """

    base: CorrelationGraph
    ancestors: tuple[int, ...]
    original_n: int

    def __post_init__(self):
        # the constructor takes any iterable of ancestors and keeps a tuple
        object.__setattr__(self, "ancestors", tuple(self.ancestors))
        ancestors, original_n = self.ancestors, self.original_n
        if len(ancestors) != self.base.n:
            raise ValueError("one ancestor per descendant vertex required")
        _check_non_negative("original_n", original_n)
        _check_below("ancestor", original_n, *ancestors)
        if len(set(ancestors)) != original_n:
            raise ValueError("every original vertex needs at least one descendant")

    @property
    def split_count(self) -> int:
        """Number of splits applied: extra descendants beyond the originals."""
        return self.base.n - self.original_n

    def descendants(self, v: int) -> list[int]:
        """Sorted descendant ids of original vertex v."""
        _check_below("vertex id", self.original_n, v)
        return [d for d, a in enumerate(self.ancestors) if a == v]

    def __repr__(self) -> str:
        return (
            f"RealizedGraph({self.base.n} descendants of {self.original_n} vertices, "
            f"{self.split_count} splits)"
        )


def has_erroneous_cycle(g: CorrelationGraph) -> bool:
    """Whether some simple cycle contains exactly one red edge.

    Equivalent test: some red pair lies within one blue component.  In a
    complete graph every non-blue pair is red, so that happens iff some
    blue component is not a clique.  O(n + blue pairs) on complete graphs;
    incomplete graphs find the blue components and check each member's
    red row against its component with one C set operation, in O(n +
    stored pairs).
    """
    return _consistent_components(g) is None


def _consistent_components(g: CorrelationGraph) -> list[list[int]] | None:
    """``blue_components(g)``, or None when a red pair lies within one.

    The components are found once, for the test and for the callers that
    read clusters off them.  On an incomplete graph each component of two
    or more members is made a frozenset, and each member's red row is
    checked against it by one C-level ``isdisjoint``: O(n + stored pairs),
    with no Python step per red pair.  One set is alive at a time.
    """
    if g.complete:
        return _clique_components(g)
    components = _blue_labels(g)[1]
    red = g._red_adj
    for comp in components:
        if len(comp) > 1:
            members = frozenset(comp)
            for u in comp:
                if not members.isdisjoint(red[u]):
                    return None
    return components


def clustering_to_splits(g: CorrelationGraph, f: Clustering) -> RealizedGraph:
    """Realize a valid clustering of cost k as k vertex splits.

    One descendant is created per membership (vertex v, cluster index i),
    ordered by vertex and then by cluster index.  Descendants sharing a
    cluster are blue; copies of the same vertex are red; remaining cross
    pairs keep the ancestors' red label (complete graphs: red, incomplete:
    red where the ancestors were red).  The result has no erroneous cycle
    and ``split_count == cost(f, g.n)``.

    f is checked as by ``verify_clustering``.  The result's blue rows are
    one clique per cluster.  A complete graph's cross pairs are red by
    default and are never listed.  An incomplete graph's red rows are its
    own mapped to the partners' copies, and no row is sorted; a row of an
    unsplit vertex that one ``isdisjoint`` finds free of split vertices
    maps through each vertex's first copy.  O(n + memberships + stored
    pairs + pairs the result stores).
    """
    where = _valid_membership(g, f)
    ancestors: list[int] = []
    cluster: list[int] = []  # each copy's cluster
    members: list[list[int]] = [[] for _ in f.clusters]  # descendants per cluster
    copies: list[range] = []  # v's copies, one per cluster of v, in order
    for v, w in enumerate(where):
        copies.append(range(len(ancestors), len(ancestors) + len(w)))
        for i in w:
            members[i].append(len(ancestors))
            ancestors.append(v)
            cluster.append(i)
    # each copy lies in exactly one cluster, so its blue row is its
    # cluster's other members, ascending
    blue: list[list[int]] = [[] for _ in ancestors]
    for m in members:
        for j, d in enumerate(m):
            blue[d] = m[:j] + m[j + 1 :]
    red = None
    if g._red_adj is not None:
        # descendants are numbered by vertex and then by cluster, so the
        # copies of a sorted red row's partners come out sorted
        red = []
        first = [c.start for c in copies]
        split = frozenset([v for v, c in enumerate(copies) if len(c) > 1])
        for u, row in enumerate(g._red_adj):
            cu = copies[u]
            if len(cu) == 1 and split.isdisjoint(row):
                # f is valid, so two unsplit ends of a red pair lie in
                # distinct clusters, and each end has one copy
                red.append([first[x] for x in row])
                continue
            partners = [e for x in row for e in copies[x]]
            # a copy is red to the partners' copies in other clusters and
            # to its own siblings, which sit between the partners below u
            # and those above it
            for d, i in zip(cu, where[u]):
                out = [e for e in partners if cluster[e] != i]
                k = bisect_left(out, cu.start)
                out[k:k] = [e for e in cu if e != d]
                red.append(out)
    base = CorrelationGraph._trusted(len(ancestors), blue, red)
    return RealizedGraph(base, ancestors, g.n)


def splits_to_clustering(r: RealizedGraph) -> Clustering:
    """Read a clustering of the original graph off a split result.

    Requires the realized base graph to have no erroneous cycle.  Each blue
    component maps to the set of its members' ancestors; duplicate sets are
    merged.  Red ancestor pairs left unresolved by the merge gain a
    singleton cluster on the smaller split endpoint (see ``_read_off``,
    which ``multicut_solution_to_clustering`` shares).  The cost never
    exceeds ``r.split_count``.

    A pair can be unresolved only when both endpoints lie in exactly one
    merged cluster, the same one, and one of them is split; ``_read_off``
    drops the other listed pairs.  On a complete graph the components are
    blue cliques, and a vertex whose only cluster is C has copies in every
    component merged into C.  So its descendant pairs with another such
    vertex are all blue unless two or more components merged into C, which
    splits every member of C.  Taken in order, those members' pairs give
    each of them a singleton but the largest, and so do the consecutive
    pairs of them, which are all that is listed: O(N + blue pairs) for N
    descendants, and no red pair.  An incomplete graph lists the ancestor
    pairs of its red pairs with a split end, and reads them only off the
    red rows of split vertices' copies: each such pair lies in the row of
    its split end's copy, whichever side of it the partner's id falls,
    and the rows of unsplit vertices' copies are never walked.  The
    erroneous-cycle test screens each red row with one C-level
    ``isdisjoint`` against its blue component (see
    ``_consistent_components``).  O(N + stored pairs).
    """
    base = r.base
    components = _consistent_components(base)
    if components is None:
        raise ValueError("realized graph has an erroneous cycle")
    ancestors = r.ancestors
    sets = [frozenset([ancestors[d] for d in comp]) for comp in components]
    counts = [0] * r.original_n
    for a in ancestors:
        counts[a] += 1
    split = {v for v, c in enumerate(counts) if c >= 2}
    pairs: set[tuple[int, int]] = set()
    if base.complete:
        inside = Counter(chain.from_iterable(dict.fromkeys(sets)))
        for cluster, merged in Counter(sets).items():
            if merged >= 2:
                alone = [v for v in sorted(cluster) if inside[v] == 1]
                pairs.update(zip(alone, alone[1:]))
    else:
        # every red pair with a split end is in that end's copies' rows
        red = base._red_adj
        for x, a in enumerate(ancestors):
            if counts[a] >= 2:
                for y in red[x]:
                    b = ancestors[y]
                    if a != b:
                        pairs.add(_pair(a, b))
    return _read_off(sets, r.original_n, sorted(pairs), split)


def _read_off(
    sets: Iterable[frozenset[int]],
    n: int,
    pairs: Iterable[tuple[int, int]],
    split: Container[int],
) -> Clustering:
    """The clustering read off a split graph's component ancestor sets.

    The clusters are the distinct sets, in order.  ``home[v]`` is the
    index of v's only cluster, -1 when v lies in several and -2 in none.
    A pair (u, v), u < v, is unresolved when u and v share a home; that
    needs a split end, since their copies were merged, and the smaller
    split end gains a singleton.  Pairs are taken in order, and a vertex
    with a singleton lies in two clusters, so its home turns -1.
    O(n + memberships + pairs).
    """
    clusters = list(dict.fromkeys(sets))
    home = [-2] * n
    for i, cluster in enumerate(clusters):
        for v in cluster:
            home[v] = i if home[v] == -2 else -1
    for u, v in pairs:
        if home[u] != home[v] or home[u] < 0:
            continue
        w = u if u in split else v
        if w not in split:
            raise AssertionError("unresolved pair with no split endpoint")
        home[w] = -1
        clusters.append(frozenset((w,)))
    return Clustering(clusters)
