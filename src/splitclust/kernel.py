"""Budget-parameterized kernelization for complete correlation graphs.

Given a budget k, the input either gets rejected with a bad-star-forest
witness of weight above k, or shrunk to an equivalent instance of at most
24k^3 + 24k^2 + 3k vertices.  Pipeline:

1. ``detect._decompose`` gives the greedy maximal bad star forest, the
   blue cliques of the graph minus its vertex set S, and each clique's
   blue edges into S.  Forest weight > k means no-instance.  S (at most
   3k vertices) hits every bad triangle, which is why the rest of the
   graph falls apart into blue cliques.
2. A clique with no blue edge into S is a blue component that is a
   clique: all its outside pairs are red, so it clusters for free and is
   removed (recorded for lifting).  No isolated clique meets S, because
   every star lies in a component that is not a clique.
3. If more than 4k cliques remain, their first blue edges into S form a
   forest of weight above k; no-instance.
4. In each remaining clique, every s in S marks its k+1 smallest blue and
   k+1 smallest red neighbors.  Unmarked clique vertices are redundant and
   removed; the transcript records enough to lift any low-cost solution
   of the kernel back to one of the original graph at equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .clustering import Clustering
from .detect import BadStar, BadStarForest, _decompose
from .graphs import (
    CorrelationGraph,
    FormatError,
    _check_below,
    _check_non_negative,
    _read_document,
    _read_groups,
    _read_ids,
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
        _check_non_negative("original_n", self.original_n)
        groups: list[frozenset[int]] = [self.forest_vertices, *self.removed_cliques]
        for clique, marked, removed in self.clusters:
            if not (marked <= clique) or marked | removed != clique or marked & removed:
                raise ValueError("marked/removed must partition the clique")
            if removed and not marked:
                raise ValueError("clique with removed vertices must keep marked ones")
            groups.append(clique)
        if not all(groups[1:]):  # the forest vertices may be none, a clique never
            raise ValueError("empty clique in transcript")
        union: set[int] = set()
        total = 0
        for group in groups:
            union |= group
            total += len(group)
        _check_non_negative("vertex id", *union)
        if len(union) != total:
            raise ValueError("transcript groups must be disjoint")
        # distinct non-negative ids are 0..original_n-1 iff there are
        # original_n of them and none is larger
        if len(union) != self.original_n or max(union, default=-1) >= self.original_n:
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


def kernelize(g: CorrelationGraph, k: int) -> KernelResult:
    """Shrink to an equivalent instance or reject with a forest witness.

    The kernel has a clustering of cost <= k iff the input does; lifting
    is exact (same cost).  The kernel never exceeds 24k^3 + 24k^2 + 3k
    vertices.
    """
    if not g.complete:
        raise ValueError("kernelization is defined on complete graphs")
    _check_non_negative("budget", k)
    forest, cliques, edges = _decompose(g)
    if forest.weight > k:
        return NoInstance(forest)
    s_vertices = forest.vertices

    removed_cliques = tuple([c for c, to_s in zip(cliques, edges) if not to_s])
    kept = [(c, to_s) for c, to_s in zip(cliques, edges) if to_s]

    if len(kept) >= 4 * k + 1:
        witness = _many_cliques_witness([to_s[0] for _, to_s in kept])
        if witness.weight <= k:
            raise AssertionError("witness forest must exceed the budget")
        return NoInstance(witness)

    clusters = []
    keep = set(s_vertices)
    for clique, to_s in kept:
        members = sorted(clique)
        blue_by_s: dict[int, list[int]] = {}
        for s, c in to_s:
            blue_by_s.setdefault(s, []).append(c)
        # each s marks its k+1 smallest blue and k+1 smallest red members.
        # Together these hold the k+1 smallest members, all that an s with
        # no blue edge into the clique marks, so only the s in to_s count.
        marked: set[int] = set()
        for blue in blue_by_s.values():
            marked.update(blue[: k + 1])
            blue_set = set(blue)
            # islice takes no stop above sys.maxsize; a clique has fewer members
            marked.update(islice((v for v in members if v not in blue_set), min(k + 1, len(clique))))
        clusters.append((clique, frozenset(marked), clique - marked))
        keep |= marked

    kernel_graph, _ = g.induced_subgraph(keep)
    transcript = KernelTranscript(s_vertices, removed_cliques, tuple(clusters), g.n)
    return Kernelized(kernel_graph, transcript)


def _many_cliques_witness(chosen: list[tuple[int, int]]) -> BadStarForest:
    """Bad star forest built from one blue S-to-clique edge (s, c) per clique.

    Vertices of distinct cliques are pairwise red, so the edges grouped by
    their S endpoint form bad stars once a center has two leaves.  With at
    least 4k+1 cliques and at most 3k centers the weight exceeds k.
    """
    leaves_by_center: dict[int, list[int]] = {}
    for s, c in chosen:
        leaves_by_center.setdefault(s, []).append(c)
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
    Raises ``ValueError`` when a kernel vertex is in no cluster.
    """
    id_map = transcript.id_map
    clusters: list[set[int]] = []
    covered: set[int] = set()
    for cluster in f:
        _check_below("kernel vertex", len(id_map), *cluster)
        clusters.append({id_map[v] for v in cluster})
        covered |= cluster
    if len(covered) != len(id_map):
        missing = min(set(range(len(id_map))) - covered)
        raise ValueError(f"kernel vertex {missing} is in no cluster")
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
    out += ["rc" + _format_ids(c) for c in t.removed_cliques]
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
    return "".join([f" {v}" for v in sorted(ids)])
