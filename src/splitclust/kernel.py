"""Budget-parameterized kernelization for complete correlation graphs.

Given a budget k, the input either gets rejected with a bad-star-forest
witness of weight above k, or shrunk to an equivalent instance of at most
24k^3 + 24k^2 + 3k vertices.  Pipeline:

1. Greedy maximal bad star forest; weight > k means no-instance.  Its
   vertex set S (at most 3k vertices) hits every erroneous structure, so
   the rest of the graph decomposes into blue cliques.
2. Blue components that are cliques have all outside edges red and can be
   clustered for free; they are removed (recorded for lifting).
3. If more than 4k cliques remain, a forest of weight above k can be
   assembled from blue edges between S and distinct cliques; no-instance.
4. In each remaining clique, every s in S marks its k+1 smallest blue and
   k+1 smallest red neighbors.  Unmarked clique vertices are redundant and
   removed; the transcript records enough to lift any low-cost solution
   of the kernel back to one of the original graph at equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .clustering import Clustering
from .detect import BadStar, BadStarForest, maximal_bad_star_forest
from .graphs import (
    CorrelationGraph,
    FormatError,
    _is_blue_clique,
    _read_document,
    _read_groups,
    _read_ids,
    blue_components,
    cluster_decomposition,
)


@dataclass(frozen=True)
class KernelTranscript:
    """What the kernelization removed, in original vertex ids.

    ``clusters`` holds one (clique, marked, removed) triple per surviving
    blue clique outside the forest vertices; removed = clique - marked.
    Forest vertices, removed cliques and cliques partition the original
    vertex set.
    """

    forest_vertices: frozenset[int]
    removed_cliques: tuple[frozenset[int], ...]
    clusters: tuple[tuple[frozenset[int], frozenset[int], frozenset[int]], ...]
    original_n: int

    def __post_init__(self):
        groups: list[frozenset[int]] = [self.forest_vertices, *self.removed_cliques]
        for clique, marked, removed in self.clusters:
            if not clique:
                raise ValueError("empty clique in transcript")
            if not (marked <= clique) or marked | removed != clique or marked & removed:
                raise ValueError("marked/removed must partition the clique")
            if removed and not marked:
                raise ValueError("clique with removed vertices must keep marked ones")
            groups.append(clique)
        union: set[int] = set()
        total = 0
        for group in groups:
            union |= group
            total += len(group)
        if len(union) != total:
            raise ValueError("transcript groups must be disjoint")
        if union != set(range(self.original_n)):
            raise ValueError("transcript groups must cover vertices 0..original_n-1")

    @property
    def id_map(self) -> tuple[int, ...]:
        """Kernel vertex id -> original vertex id (ascending originals)."""
        keep = set(self.forest_vertices)
        for _, marked, _ in self.clusters:
            keep |= marked
        return tuple(sorted(keep))

    @property
    def kernel_n(self) -> int:
        return len(self.id_map)


@dataclass(frozen=True)
class Kernelized:
    """Shrunk equivalent instance plus the transcript to lift solutions."""

    graph: CorrelationGraph
    transcript: KernelTranscript


@dataclass(frozen=True)
class NoInstance:
    """Proof that no clustering within the budget exists."""

    witness: BadStarForest


KernelResult = Kernelized | NoInstance


def rule_remove_isolated_cliques(
    g: CorrelationGraph,
) -> tuple[CorrelationGraph, tuple[frozenset[int], ...], tuple[int, ...]]:
    """Drop blue components that are cliques; they cluster for free.

    Returns the re-indexed remaining graph, the removed cliques in original
    ids (ascending by smallest member), and the new-to-old id map.
    """
    if not g.complete:
        raise ValueError("isolated-clique removal is defined on complete graphs")
    removed = _isolated_cliques(g)
    gone = set().union(*removed)
    reduced, id_map = g.induced_subgraph(v for v in range(g.n) if v not in gone)
    return reduced, removed, id_map


def _isolated_cliques(g: CorrelationGraph) -> tuple[frozenset[int], ...]:
    """Blue components that are cliques, ascending by smallest member."""
    return tuple(
        frozenset(comp) for comp in blue_components(g) if _is_blue_clique(g, comp)
    )


def kernelize(g: CorrelationGraph, k: int) -> KernelResult:
    """Shrink to an equivalent instance or reject with a forest witness.

    The kernel has a clustering of cost <= k iff the input does; lifting
    is exact (same cost).  The kernel never exceeds 24k^3 + 24k^2 + 3k
    vertices.
    """
    if not g.complete:
        raise ValueError("kernelization is defined on complete graphs")
    if k < 0:
        raise ValueError("budget must be non-negative")
    forest = maximal_bad_star_forest(g)
    if forest.weight > k:
        return NoInstance(forest)
    s_vertices = forest.vertices

    removed_cliques = _isolated_cliques(g)
    survivors = set(range(g.n))
    for clique in removed_cliques:
        if clique & s_vertices:
            raise AssertionError("forest vertex inside an isolated clique")
        survivors -= clique

    cliques = cluster_decomposition(g, survivors - s_vertices)
    if cliques is None:
        raise AssertionError("graph minus forest vertices must be a cluster graph")

    if len(cliques) >= 4 * k + 1:
        witness = _many_cliques_witness(g, s_vertices, cliques)
        if witness.weight <= k:
            raise AssertionError("witness forest must exceed the budget")
        return NoInstance(witness)

    # cliques lie outside S, so s-v is red exactly when v is no blue neighbour
    s_blue = [set(g._blue_adj[s]) for s in sorted(s_vertices)]
    clusters = []
    for clique in cliques:
        members = sorted(clique)
        marked: set[int] = set()
        for blue in s_blue:
            marked.update(islice((v for v in members if v in blue), k + 1))
            marked.update(islice((v for v in members if v not in blue), k + 1))
        removed = clique - marked
        clusters.append((clique, frozenset(marked), removed))
        survivors -= removed

    kernel_graph, _ = g.induced_subgraph(survivors)
    transcript = KernelTranscript(
        frozenset(s_vertices), removed_cliques, tuple(clusters), g.n
    )
    return Kernelized(kernel_graph, transcript)


def _many_cliques_witness(
    g: CorrelationGraph, s_vertices: frozenset[int], cliques: list[frozenset[int]]
) -> BadStarForest:
    """Bad star forest built from one blue S-to-clique edge per clique.

    Vertices of distinct cliques are pairwise red, so the edges grouped by
    their S endpoint form bad stars once a center has two leaves.  With at
    least 4k+1 cliques and at most 3k centers the weight exceeds k.
    """
    s_sorted = sorted(s_vertices)
    leaves_by_center: dict[int, list[int]] = {}
    for clique in cliques:
        # smallest s with a blue edge into the clique, then its smallest end
        chosen = next(
            ((s, v) for s in s_sorted for v in g._blue_adj[s] if v in clique),
            None,
        )
        if chosen is None:
            raise AssertionError("surviving clique with no blue edge to the forest")
        leaves_by_center.setdefault(chosen[0], []).append(chosen[1])
    stars = [
        BadStar(center, tuple(sorted(leaves)))
        for center, leaves in sorted(leaves_by_center.items())
        if len(leaves) >= 2
    ]
    return BadStarForest(tuple(stars))


def lift_clustering(f: Clustering, transcript: KernelTranscript) -> Clustering:
    """Expand a kernel solution to the original graph at equal cost.

    Removed clique vertices rejoin the cluster that absorbed their marked
    clique-mates (any budget-respecting solution keeps each marked part
    whole); removed isolated cliques come back as standalone clusters.
    """
    id_map = transcript.id_map
    clusters: list[set[int]] = []
    for cluster in f:
        mapped = set()
        for v in cluster:
            if v >= len(id_map):
                raise ValueError(f"kernel vertex {v} out of range")
            mapped.add(id_map[v])
        clusters.append(mapped)
    for clique, marked, removed in transcript.clusters:
        if not removed:
            continue
        target = next((c for c in clusters if marked <= c), None)
        if target is None:
            raise ValueError(
                "no cluster contains a marked clique part; "
                "the solution does not respect the kernel structure"
            )
        target |= removed
    for clique in transcript.removed_cliques:
        clusters.append(set(clique))
    return Clustering(clusters)


def parse_transcript(data: bytes | str) -> KernelTranscript:
    """Parse the ``ktx`` format: one S line, then rc lines, then cl lines."""
    lineno, header, lines = _read_document(data, "S", None, "S <ids...>")
    forest = frozenset(_read_ids(lineno, header[1:]))
    removed_cliques: list[frozenset[int]] = []
    clusters: list[tuple[frozenset[int], frozenset[int], frozenset[int]]] = []
    for lineno, fields in lines:
        if fields[0] == "rc":
            if clusters:
                raise FormatError(f"line {lineno}: rc lines must precede cl lines")
            ids = _read_ids(lineno, fields[1:])
            if not ids:
                raise FormatError(f"line {lineno}: empty removed clique")
            removed_cliques.append(frozenset(ids))
        elif fields[0] == "cl":
            parts = _read_groups(lineno, fields[1:])
            if len(parts) != 3:
                raise FormatError(
                    f"line {lineno}: expected 'cl <clique> | <marked> | <removed>'"
                )
            clique, marked, removed = map(frozenset, parts)
            clusters.append((clique, marked, removed))
        else:
            raise FormatError(f"line {lineno}: expected 'rc' or 'cl' line")
    total = len(forest) + sum(len(c) for c in removed_cliques)
    total += sum(len(c) for c, _, _ in clusters)
    try:
        return KernelTranscript(
            forest, tuple(removed_cliques), tuple(clusters), total
        )
    except ValueError as exc:
        raise FormatError(f"inconsistent transcript: {exc}") from None


def write_transcript(t: KernelTranscript) -> bytes:
    """Serialize to canonical ``ktx`` form (ids ascending in every group)."""
    out = ["S" + _format_ids(t.forest_vertices)]
    out.extend("rc" + _format_ids(c) for c in t.removed_cliques)
    for clique, marked, removed in t.clusters:
        out.append(
            "cl"
            + _format_ids(clique)
            + " |"
            + _format_ids(marked)
            + " |"
            + _format_ids(removed)
        )
    return ("\n".join(out) + "\n").encode("utf-8")


def _format_ids(ids: frozenset[int]) -> str:
    return "".join(f" {v}" for v in sorted(ids))
