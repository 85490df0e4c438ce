"""Multicut with vertex splitting, and reductions to and from clustering.

An instance is a plain graph plus terminal pairs and a split budget k.  A
split of vertex v partitions its neighborhood into parts, one new copy of
v per part (parts may be empty, which is how a copy with no edges
arises).  Splitting a vertex removes every terminal pair it appears in; a
solution is a set of splits after which all remaining terminal pairs are
disconnected.  Its cost is the number of extra copies.

Blue edges map to edges and red pairs to terminal pairs: a correlation
graph has a clustering of cost k exactly when the derived multicut
instance has a solution of cost k.  The translations below convert
solutions in both directions without raising the cost.

``verify_multicut_solution`` and ``multicut_solution_to_clustering`` both
build the split graph of a solution: an incomplete correlation graph with
one copy of each unsplit vertex and one copy per part of each split,
numbered by vertex and then by part.  Each edge is blue between the two
copies that keep it, and each terminal pair of two unsplit vertices is red.
The solution separates its instance exactly when this graph has no
erroneous cycle, and the ancestor sets of its blue components are the
clusters read off the solution.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from itertools import islice

from .clustering import (
    Clustering,
    RealizedGraph,
    _add_singletons,
    _component_clusters,
    _consistent_components,
    _violations,
    has_erroneous_cycle,
)
from .graphs import (
    BLUE,
    MAX_VERTICES,
    RED,
    CorrelationGraph,
    FormatError,
    _check_ids,
    _check_vertex_count,
    _is_integer,
    _pair,
    _pair_columns,
    _pair_lines,
    _read_counts,
    _read_document,
    _read_groups,
    _read_ints,
    _read_vertex_count,
)


def _check_counts(n: int, k: int) -> None:
    """An instance's vertex count (0..MAX_VERTICES) and budget (>= 0)."""
    _check_vertex_count(n)
    if not _is_integer(k) or k < 0:
        raise ValueError(f"split budgets are non-negative integers, got {k!r}")


class MulticutInstance:
    """Graph, terminal pairs, and split budget.  Immutable.

    The public constructor checks the vertex count and budget, and every
    pair: integer ids (not ``bool``) in range, no self-loop, no pair both
    an edge and a terminal pair.  ``ccvs_to_mcvs`` and the bulk ``mcvs``
    reader, whose pairs are valid by construction, build through
    ``_trusted``, which checks only the two counts.
    """

    __slots__ = ("n", "edges", "terminals", "k", "_adj")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        terminals: Iterable[tuple[int, int]],
        k: int,
    ):
        _check_counts(n, k)
        edge_set = set()
        for u, v in edges:
            _check_ids(u, v, n)
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            edge_set.add(_pair(u, v))
        term_set = set()
        for u, v in terminals:
            _check_ids(u, v, n, "terminal pair")
            if u == v:
                raise ValueError(f"terminal pair ({u},{u}) is degenerate")
            term_set.add(_pair(u, v))
        if edge_set & term_set:
            raise ValueError("terminal pairs must not be edges")
        self._build(n, edge_set, term_set, k)

    @classmethod
    def _trusted(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        terminals: Iterable[tuple[int, int]],
        k: int,
    ) -> "MulticutInstance":
        """An instance from pairs that are valid by construction.

        Edges and terminal pairs are (u, v) with 0 <= u < v < n, and no
        pair is both; only the vertex count and budget are checked.
        """
        _check_counts(n, k)
        inst = object.__new__(cls)
        inst._build(n, edges, terminals, k)
        return inst

    def _build(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        terminals: Iterable[tuple[int, int]],
        k: int,
    ) -> None:
        edges = frozenset(edges)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "terminals", frozenset(terminals))
        object.__setattr__(self, "k", k)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        object.__setattr__(self, "_adj", adj)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MulticutInstance is immutable")

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return list(self._adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MulticutInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.terminals == other.terminals
            and self.k == other.k
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.terminals, self.k))

    def __repr__(self) -> str:
        return (
            f"MulticutInstance(n={self.n}, {len(self.edges)} edges, "
            f"{len(self.terminals)} terminals, k={self.k})"
        )


class MulticutSolution:
    """Per-vertex neighborhood partitions; cost = extra copies created.

    Parts are normalized: nonempty parts first ordered by smallest member,
    empty parts last.  Every split has at least two parts.
    """

    __slots__ = ("splits",)

    splits: tuple[tuple[int, tuple[frozenset[int], ...]], ...]

    def __init__(self, splits: Mapping[int, Iterable[Iterable[int]]]):
        for v in splits:
            if not _is_integer(v):
                raise ValueError(f"split vertex must be an integer, got {v!r}")
            if v < 0:
                raise ValueError(f"negative vertex id {v}")
        normalized = []
        for v in sorted(splits):
            parts = [frozenset(p) for p in splits[v]]
            if len(parts) < 2:
                raise ValueError(f"split of {v} needs at least two parts")
            union: set[int] = set()
            total = 0
            for part in parts:
                union |= part
                total += len(part)
            if len(union) != total:
                raise ValueError(f"parts of {v} must be disjoint")
            for u in union:
                if not _is_integer(u) or u < 0:
                    raise ValueError(f"part member of {v} is not a vertex id: {u!r}")
            parts.sort(key=lambda p: (not p and 1, min(p) if p else -1))
            normalized.append((v, tuple(parts)))
        object.__setattr__(self, "splits", tuple(normalized))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MulticutSolution is immutable")

    @property
    def cost(self) -> int:
        return sum(len(parts) - 1 for _, parts in self.splits)

    @property
    def split_vertices(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.splits)

    def parts_of(self, v: int) -> tuple[frozenset[int], ...] | None:
        for u, parts in self.splits:
            if u == v:
                return parts
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MulticutSolution):
            return NotImplemented
        return self.splits == other.splits

    def __hash__(self) -> int:
        return hash(self.splits)

    def __repr__(self) -> str:
        return f"MulticutSolution({len(self.splits)} splits, cost {self.cost})"


def _realize(inst: MulticutInstance, sol: MulticutSolution) -> RealizedGraph:
    """The split graph of a solution (see the module docstring).

    Raises ValueError when a split vertex is out of range or its parts do
    not cover exactly its neighborhood.  One unsorted pass over the edges
    and one over the terminal pairs: O(n + m + t + split neighborhoods) for
    m edges and t terminal pairs, with no sort.
    """
    split_parts = dict(sol.splits)
    ancestors: list[int] = []
    plain: list[int] = []  # the copy of each unsplit vertex, -1 if split
    owner: dict[tuple[int, int], int] = {}  # (split vertex, neighbor) -> copy
    for v in split_parts:
        if v >= inst.n:
            raise ValueError(f"split vertex {v} out of range")
    for v in range(inst.n):
        parts = split_parts.get(v)
        if parts is None:
            plain.append(len(ancestors))
            ancestors.append(v)
            continue
        if set().union(*parts) != set(inst._adj[v]):
            raise ValueError(f"parts of {v} must cover exactly its neighborhood")
        plain.append(-1)
        for part in parts:
            for u in part:
                owner[v, u] = len(ancestors)
            ancestors.append(v)
    # copies are numbered by vertex, so a pair u < v keeps its order, and
    # an edge and a terminal pair never land on one pair of copies
    labels = {}
    for u, v in inst.edges:
        d1, d2 = plain[u], plain[v]
        if d1 < 0:
            d1 = owner[u, v]
        if d2 < 0:
            d2 = owner[v, u]
        labels[d1, d2] = BLUE
    for u, v in inst.terminals:
        d1, d2 = plain[u], plain[v]
        if d1 >= 0 and d2 >= 0:
            labels[d1, d2] = RED
    base = CorrelationGraph._trusted(len(ancestors), labels, False)
    return RealizedGraph(base, ancestors, inst.n)


def verify_multicut_solution(inst: MulticutInstance, sol: MulticutSolution) -> bool:
    """Whether all terminal pairs not removed by splits end up disconnected."""
    return not has_erroneous_cycle(_realize(inst, sol).base)


# A complete graph's red pairs are not stored: ccvs_to_mcvs lists one
# terminal pair for each, so its time and memory grow with their count.
# This cap (complete graphs up to about 1400 vertices) keeps that under a
# few hundred MB; at MAX_VERTICES there would be about 5e9 pairs.
_MAX_LISTED_RED_PAIRS = 1_000_000


def ccvs_to_mcvs(g: CorrelationGraph, k: int) -> MulticutInstance:
    """Blue pairs become edges, red pairs become terminal pairs.

    The pairs of a graph are valid by construction; only the budget and
    vertex count are checked.  O(n + stored pairs + red pairs).  A complete
    graph with more than ``_MAX_LISTED_RED_PAIRS`` red pairs raises
    ``ValueError`` before any pair is listed.
    """
    labels = g._labels
    if g.complete:
        red_count = g.count_colors()[1]
        if red_count > _MAX_LISTED_RED_PAIRS:
            raise ValueError(
                f"complete graph has {red_count} red pairs; ccvs_to_mcvs lists "
                f"at most {_MAX_LISTED_RED_PAIRS} terminal pairs"
            )
        terminals = g.red_edges()
    else:
        terminals = [p for p, c in labels.items() if c is RED]
    edges = [p for p, c in labels.items() if c is BLUE]
    return MulticutInstance._trusted(g.n, edges, terminals, k)


def mcvs_to_ccvs(inst: MulticutInstance) -> tuple[CorrelationGraph, int]:
    """Edges become blue pairs, terminal pairs red; the rest is neutral.

    The pairs of an instance are valid by construction and are not checked.
    """
    labels = dict.fromkeys(inst.edges, BLUE)
    labels.update(dict.fromkeys(inst.terminals, RED))
    return CorrelationGraph._trusted(inst.n, labels, False), inst.k


def clustering_to_multicut_solution(
    g: CorrelationGraph, f: Clustering
) -> MulticutSolution:
    """Split each multi-cluster vertex by which cluster keeps each neighbor.

    A blue neighbor u of v goes to the part of v's smallest cluster shared
    with u.  The solution verifies against ``ccvs_to_mcvs(g, k)`` and its
    cost equals ``cost(f, g.n)``.  f is checked as by
    ``verify_clustering``, from the same membership lists that place the
    neighbors.
    """
    where = f.membership(g.n)
    report = _violations(g, where)
    if not report.ok:
        raise ValueError(f"clustering is not valid for the graph: {report}")
    splits: dict[int, list[set[int]]] = {}
    for v, w in enumerate(where):
        if len(w) < 2:
            continue
        # membership lists are ascending, so positions follow cluster order
        position = {i: pos for pos, i in enumerate(w)}
        parts: list[set[int]] = [set() for _ in w]
        for u in g._blue_adj[v]:
            shared = min(position.keys() & where[u])
            parts[position[shared]].add(u)
        splits[v] = parts
    return MulticutSolution(splits)


def multicut_solution_to_clustering(
    inst: MulticutInstance, sol: MulticutSolution
) -> Clustering:
    """Read a clustering off a verified multicut solution, cost-nonincreasing.

    The split copies realize the instance's correlation graph with blue
    components free of terminals, so the component ancestor sets form a
    clustering; terminal pairs whose resolution was lost to a removed pair
    get a singleton on the smaller split endpoint.
    """
    r = _realize(inst, sol)
    components = _consistent_components(r.base)
    if components is None:
        raise ValueError("solution does not separate all terminal pairs")
    # a terminal pair of two unsplit vertices joins two distinct components,
    # so the clusters resolve it; only pairs touching a split vertex are passed
    split = sol.split_vertices
    clusters = _component_clusters(r.ancestors, components)
    pairs = sorted(p for p in inst.terminals if p[0] in split or p[1] in split)
    return _add_singletons(clusters, inst.n, pairs, split)


_COUNT = rb"(0|[1-9][0-9]{0,17})"
_MCVS_HEADER = re.compile(
    rb"mcvs (0|[1-9][0-9]{0,5}) " + rb" ".join([_COUNT] * 3) + rb"\n"
)


def _bulk_instance(data: bytes | str) -> MulticutInstance | None:
    """The instance of a document exactly as ``write_multicut_instance`` emits it.

    The body must be m e lines, then t t lines, as the header counts them;
    ``_pair_columns`` checks and splits them, and the edge and terminal
    sets are built in one call each.  Anything else, such as comments, a t
    line before an e line, a pair listed twice, a pair that is both an
    edge and a terminal pair or counts that differ from the header, gives
    None and is left to ``_parse_instance_lines``, which names its faults.
    Never raises.  O(n + document length).
    """
    if not isinstance(data, bytes):
        return None
    match = _MCVS_HEADER.match(data)
    if match is None:
        return None
    n, m, t, k = map(int, match.group(1, 2, 3, 4))
    body = data[match.end() :]
    # compared first, so counts beyond the document allocate no shape
    if n > MAX_VERTICES or m + t != body.count(b"\n"):
        return None
    columns = _pair_columns(body, n, b"e  \n" * m + b"t  \n" * t, 3)
    if columns is None:
        return None
    pairs = zip(columns[0], columns[1])
    edges = frozenset(islice(pairs, m))
    terminals = frozenset(pairs)
    if len(edges) != m or len(terminals) != t or not edges.isdisjoint(terminals):
        return None
    return MulticutInstance._trusted(n, edges, terminals, k)


def parse_multicut_instance(data: bytes | str) -> MulticutInstance:
    """Parse the ``mcvs`` format: header, e lines, t lines.

    A document exactly as ``write_multicut_instance`` emits it is read in
    bulk (see ``_bulk_instance``); every other one goes through the
    fallback reader ``_parse_instance_lines``, which gives the same object
    for it, or names its fault.  Both are O(n + document length); the bulk
    path costs about a fifth as much.
    """
    inst = _bulk_instance(data)
    return inst if inst is not None else _parse_instance_lines(data)


def _parse_instance_lines(data: bytes | str) -> MulticutInstance:
    """Like ``graphs._parse_graph_lines``, then compare the header counts."""
    lineno, header, lines = _read_document(data, "mcvs", 5, "mcvs <n> <m> <t> <k>")
    n = _read_vertex_count(lineno, header[1])
    m, t, k = _read_counts(lineno, header[2:], "header field")
    pairs: dict[str, list[list[int]]] = {"e": [], "t": []}
    for lineno, fields in lines:
        if len(fields) != 3 or fields[0] not in pairs:
            raise FormatError(f"line {lineno}: expected 'e <u> <v>' or 't <u> <v>'")
        pairs[fields[0]].append(_read_ints(lineno, fields[1:]))
    try:
        inst = MulticutInstance(n, pairs["e"], pairs["t"], k)
    except ValueError as exc:
        raise FormatError(f"inconsistent instance: {exc}") from None
    if len(inst.edges) != m:
        raise FormatError(f"header says {m} edges, found {len(inst.edges)}")
    if len(inst.terminals) != t:
        raise FormatError(f"header says {t} terminal pairs, found {len(inst.terminals)}")
    return inst


def write_multicut_instance(inst: MulticutInstance) -> bytes:
    """Canonical ``mcvs`` form: sorted e lines, then sorted t lines.

    Edges are read off the sorted adjacency lists, terminal pairs off
    sorted rows of ints, one per smaller id, so no tuple is sorted:
    O(n + m + t log d) for m edges, t terminal pairs, rows of at most d.
    """
    names = list(map(str, range(inst.n)))
    rows: list[list[int]] = [[] for _ in range(inst.n)]
    for u, v in inst.terminals:
        rows[u].append(v)
    for row in rows:
        row.sort()
    out = [f"mcvs {inst.n} {len(inst.edges)} {len(inst.terminals)} {inst.k}\n"]
    out += _pair_lines(inst._adj, names, "e", names)
    out += _pair_lines(rows, names, "t", names)
    return "".join(out).encode()


def parse_multicut_solution(data: bytes | str) -> tuple[int, MulticutSolution]:
    """Parse the ``mcsol`` format; returns (vertex count, solution).

    ``MulticutSolution`` has no vertex count, so ids are range-checked here.
    """
    lineno, header, lines = _read_document(data, "mcsol", 2, "mcsol <n>")
    n = _read_vertex_count(lineno, header[1])
    splits: dict[int, list[list[int]]] = {}
    for lineno, fields in lines:
        if len(fields) < 3 or fields[0] != "s" or fields[2] != ":":
            raise FormatError(f"line {lineno}: expected 's <v> : <part> | <part> ...'")
        (v,) = _read_ints(lineno, fields[1:2])
        if not 0 <= v < n:
            raise FormatError(f"line {lineno}: vertex id out of range for n={n}")
        if v in splits:
            raise FormatError(f"line {lineno}: duplicate split for vertex {v}")
        parts = _read_groups(lineno, fields[3:])
        if len(parts) < 2:
            raise FormatError(f"line {lineno}: a split needs at least two parts")
        # ids are strictly increasing, so the last one is the largest
        if any(part and part[-1] >= n for part in parts):
            raise FormatError(f"line {lineno}: part member out of range for n={n}")
        splits[v] = parts
    try:
        return n, MulticutSolution(splits)
    except ValueError as exc:
        raise FormatError(f"inconsistent solution: {exc}") from None


def write_multicut_solution(n: int, sol: MulticutSolution) -> bytes:
    """Canonical ``mcsol`` form: one s line per split vertex, ascending."""
    out = [f"mcsol {n}"]
    for v, parts in sol.splits:
        rendered = " | ".join(" ".join(map(str, sorted(p))) for p in parts)
        out.append(f"s {v} : {rendered}".rstrip())
    return ("\n".join(out) + "\n").encode("utf-8")
