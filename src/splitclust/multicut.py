"""Multicut with vertex splitting, and reductions to and from clustering.

An instance is a plain graph plus terminal pairs and a split budget k.  A
split of vertex v partitions its neighborhood into parts, one new copy of
v per part (parts may be empty, which is how a copy with no edges
arises).  Splitting a vertex removes every terminal pair it appears in; a
solution is a set of splits after which all remaining terminal pairs are
disconnected.  Its cost is the number of extra copies.

Blue edges map to edges and red pairs to terminal pairs: a correlation
graph has a clustering of cost k exactly when the derived multicut
instance has a solution of cost k.  An instance is stored as that
incomplete correlation graph, whose blue rows are the edges and whose red
rows are the terminal pairs, and its budget.  So ``ccvs_to_mcvs`` of an
incomplete graph and ``mcvs_to_ccvs`` share the graph and copy no pair,
and ``ccvs_to_mcvs`` of a complete graph shares its blue rows.
The translations below convert solutions in both directions without
raising the cost.

The split graph of a solution is an incomplete correlation graph with one
copy of each unsplit vertex and one copy per part of each split, numbered
by vertex and then by part.  Each edge is blue between the two copies
that keep it, and each terminal pair of two unsplit vertices is red.  The
solution separates its instance exactly when this graph has no erroneous
cycle, that is, when no such red pair lies within one blue component, and
the ancestor sets of its blue components are the clusters read off the
solution.  So ``verify_multicut_solution`` and
``multicut_solution_to_clustering`` need only those components: they
label them straight from the instance's adjacency lists and the parts,
and never build the split graph.  The terminal pairs are checked a row at
a time: each unsplit vertex's row against the set of unsplit vertices in
its component, by one C set operation, and only the split vertices' rows
are walked pair by pair, to list the pairs the repair reads.  The
clusters and their singleton repair are then read off as
``splits_to_clustering`` reads them, by the one ``clustering._read_off``.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass
from itertools import repeat

from .clustering import Clustering, _read_off, _valid_membership
from .graphs import (
    BLUE,
    MAX_VERTICES,
    RED,
    CorrelationGraph,
    FormatError,
    _ascending_rows,
    _check_below,
    _check_non_negative,
    _check_vertex_count,
    _pair_columns,
    _pair_lines,
    _read_counts,
    _read_document,
    _read_groups,
    _read_ints,
    _read_vertex_count,
)


@dataclass(frozen=True, init=False, repr=False)
class MulticutInstance:
    """Graph, terminal pairs, and split budget.  Immutable.

    Stored as the incomplete correlation graph of its reduction,
    ``_graph``, whose blue rows are the edges and whose red rows are the
    terminal pairs, and the budget ``k``.  ``edges`` and ``terminals``
    list those pairs afresh on each access, in O(pairs).

    The public constructor checks the budget and hands the edges (blue)
    and terminal pairs (red) to ``CorrelationGraph``, which checks them.
    ``ccvs_to_mcvs`` and the bulk ``mcvs`` reader, whose pairs are valid by
    construction, build through ``_of``, which checks only the budget (the
    graph checked its vertex count) and shares the graph it is given.
    A frozen dataclass: equal by value, hashable, and it pickles and
    deep-copies.
    """

    _graph: CorrelationGraph
    k: int

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        terminals: Iterable[tuple[int, int]],
        k: int,
    ):
        _check_non_negative("budget", k)
        pairs = [(u, v, BLUE) for u, v in edges]
        pairs += [(u, v, RED) for u, v in terminals]
        object.__setattr__(self, "_graph", CorrelationGraph(n, pairs, complete=False))
        object.__setattr__(self, "k", k)

    @classmethod
    def _of(cls, g: CorrelationGraph, k: int) -> "MulticutInstance":
        """The instance of an incomplete graph and a budget; g is shared, not copied."""
        _check_non_negative("budget", k)
        inst = object.__new__(cls)
        object.__setattr__(inst, "_graph", g)
        object.__setattr__(inst, "k", k)
        return inst

    @property
    def n(self) -> int:
        return self._graph.n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._graph.blue_edges())

    @property
    def terminals(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._graph.red_edges())

    def neighbors(self, v: int) -> list[int]:
        return self._graph.blue_neighbors(v)

    def __repr__(self) -> str:
        m, t = self._graph.count_colors()
        return f"MulticutInstance(n={self.n}, {m} edges, {t} terminals, k={self.k})"


@dataclass(frozen=True, init=False, repr=False)
class MulticutSolution:
    """Per-vertex neighborhood partitions; cost = extra copies created.

    Parts are normalized: nonempty parts first ordered by smallest member,
    empty parts last.  Every split has at least two parts.  A frozen
    dataclass: equal by value, hashable, and it pickles and deep-copies.
    """

    splits: tuple[tuple[int, tuple[frozenset[int], ...]], ...]

    def __init__(self, splits: Mapping[int, Iterable[Iterable[int]]]):
        _check_non_negative("split vertex", *splits)
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
            _check_non_negative("part member", *union)
            parts.sort(key=lambda p: (not p and 1, min(p) if p else -1))
            normalized.append((v, tuple(parts)))
        object.__setattr__(self, "splits", tuple(normalized))

    @property
    def cost(self) -> int:
        return sum(len(parts) - 1 for _, parts in self.splits)

    @property
    def split_vertices(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.splits)

    def parts_of(self, v: int) -> tuple[frozenset[int], ...] | None:
        _check_non_negative("vertex id", v)
        for u, parts in self.splits:
            if u == v:
                return parts
        return None

    def __repr__(self) -> str:
        return f"MulticutSolution({len(self.splits)} splits, cost {self.cost})"


def _split_components(
    inst: MulticutInstance, sol: MulticutSolution
) -> tuple[list[int], list[list[int]], list[tuple[int, int]] | None]:
    """The blue components of a solution's split graph, without building it.

    Returns the copies' ancestors, the components and the terminal pairs
    that touch a split vertex, sorted; the pairs are None when a terminal
    pair of two unsplit vertices lies within one component, so that the
    solution does not separate the instance.  Copies are numbered as in
    the split graph (see the module docstring), and the components are
    ordered by smallest copy, with sorted members, as ``blue_components``
    gives them.

    Raises ValueError when a split vertex is out of range or its parts do
    not cover exactly its neighborhood.  A copy reaches, for each neighbor
    u it keeps, u's only copy, or the copy of u that keeps it when u is
    split.  Then each component of two or more copies becomes the
    frozenset of the unsplit vertices it holds, and each of those
    vertices' terminal rows is checked against it by one C-level
    ``isdisjoint``; one set is alive at a time.  The pairs that touch a
    split vertex are read off the split vertices' terminal rows alone and
    sorted.  O(n + m + t + split neighborhoods) for m edges and t terminal
    pairs, and a sort of each component and of the listed pairs.
    """
    g = inst._graph
    adj = g._blue_adj
    split_parts = dict(sol.splits)
    _check_below("split vertex", g.n, *split_parts)
    ancestors: list[int] = []
    plain: list[int] = []  # the copy of each unsplit vertex, -1 if split
    unsplit: list[int] = []  # each copy's ancestor if unsplit, else -1
    kept: list[Collection[int]] = []  # the neighbors each copy keeps
    owner: dict[tuple[int, int], int] = {}  # (split vertex, neighbor) -> copy
    for v in range(g.n):
        parts = split_parts.get(v)
        if parts is None:
            plain.append(len(ancestors))
            ancestors.append(v)
            unsplit.append(v)
            kept.append(adj[v])
            continue
        if set().union(*parts) != set(adj[v]):
            raise ValueError(f"parts of {v} must cover exactly its neighborhood")
        plain.append(-1)
        for part in parts:
            for u in part:
                owner[v, u] = len(ancestors)
            ancestors.append(v)
            unsplit.append(-1)
            kept.append(part)
    component = [-1] * len(ancestors)
    components: list[list[int]] = []
    for start in range(len(ancestors)):
        if component[start] >= 0:
            continue
        i = len(components)
        component[start] = i
        comp = [start]
        for d in comp:  # comp grows as it is walked
            v = ancestors[d]
            for u in kept[d]:
                e = plain[u]
                if e < 0:
                    e = owner[u, v]
                if component[e] < 0:
                    component[e] = i
                    comp.append(e)
        comp.sort()
        components.append(comp)
    red = g._red_adj
    for comp in components:
        if len(comp) > 1:
            # the unsplit vertices of one component, and -1 for its split copies
            members = frozenset([unsplit[d] for d in comp])
            for u in members:
                if u >= 0 and not members.isdisjoint(red[u]):
                    return ancestors, components, None
    pairs = [
        (v, u) if v < u else (u, v)
        for v in split_parts
        for u in red[v]
        if u > v or plain[u] >= 0
    ]
    pairs.sort()
    return ancestors, components, pairs


def verify_multicut_solution(inst: MulticutInstance, sol: MulticutSolution) -> bool:
    """Whether all terminal pairs not removed by splits end up disconnected."""
    return _split_components(inst, sol)[2] is not None


# A complete graph's red pairs are not stored: ccvs_to_mcvs lists one
# terminal pair for each, so its time and memory grow with their count.
# This cap (complete graphs up to about 1400 vertices) keeps that under a
# few hundred MB; at MAX_VERTICES there would be about 5e9 pairs.
_MAX_LISTED_RED_PAIRS = 1_000_000


def ccvs_to_mcvs(g: CorrelationGraph, k: int) -> MulticutInstance:
    """Blue pairs become edges, red pairs become terminal pairs.

    Only the budget and vertex count are checked, the budget first.  An
    incomplete graph is the instance's own graph, shared in O(1).  A
    complete graph's blue rows are shared, and its red rows are listed, in
    O(n^2); one with more than ``_MAX_LISTED_RED_PAIRS`` red pairs raises
    ``ValueError`` before any pair is listed.
    """
    _check_non_negative("budget", k)
    if g.complete:
        red_count = g.count_colors()[1]
        if red_count > _MAX_LISTED_RED_PAIRS:
            raise ValueError(
                f"complete graph has {red_count} red pairs; ccvs_to_mcvs lists "
                f"at most {_MAX_LISTED_RED_PAIRS} terminal pairs"
            )
        g = CorrelationGraph._trusted(g.n, g._blue_adj, g._red_rows())
    return MulticutInstance._of(g, k)


def mcvs_to_ccvs(inst: MulticutInstance) -> tuple[CorrelationGraph, int]:
    """Edges become blue pairs, terminal pairs red; the rest is neutral.

    That graph is the instance's own, returned as is in O(1).
    """
    return inst._graph, inst.k


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
    where = _valid_membership(g, f)
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
    ancestors, components, pairs = _split_components(inst, sol)
    if pairs is None:
        raise ValueError("solution does not separate all terminal pairs")
    # a terminal pair of two unsplit vertices joins two distinct components,
    # so the clusters resolve it; only pairs touching a split vertex are passed
    sets = (frozenset([ancestors[d] for d in comp]) for comp in components)
    return _read_off(sets, inst.n, pairs, sol.split_vertices)


_COUNT = rb"(0|[1-9][0-9]{0,17})"
_MCVS_HEADER = re.compile(
    rb"mcvs (0|[1-9][0-9]{0,5}) " + rb" ".join([_COUNT] * 3) + rb"\n"
)


def _bulk_instance(data: bytes | str) -> MulticutInstance | None:
    """The instance of a document exactly as ``write_multicut_instance`` emits it.

    The body must be m e lines, then t t lines, as the header counts them;
    ``_pair_columns`` checks and splits them, and ``_ascending_rows`` fills
    the edge rows from the e lines and the terminal rows from the t lines.
    Anything else, such as comments, a t line before an e line, pairs out
    of order, not u < v or listed twice, a pair that is both an edge and a
    terminal pair, or counts that differ from the header, gives None and is
    left to ``_parse_instance_lines``, which names its faults.  Never
    raises.  O(n + document length).
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
    us, vs, _ = columns
    blue: list[list[int]] = [[] for _ in range(n)]
    red: list[list[int]] = [[] for _ in range(n)]
    if not (
        _ascending_rows(us[:m], vs[:m], repeat(blue))
        and _ascending_rows(us[m:], vs[m:], repeat(red))
        and all(map(set.isdisjoint, map(set, red), blue))
    ):
        return None
    return MulticutInstance._of(CorrelationGraph._trusted(n, blue, red), k)


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
    found_m, found_t = inst._graph.count_colors()
    if found_m != m:
        raise FormatError(f"header says {m} edges, found {found_m}")
    if found_t != t:
        raise FormatError(f"header says {t} terminal pairs, found {found_t}")
    return inst


def write_multicut_instance(inst: MulticutInstance) -> bytes:
    """Canonical ``mcvs`` form: sorted e lines, then sorted t lines.

    Edges are read off the graph's sorted blue rows and terminal pairs off
    its sorted red rows, so nothing is sorted: O(n + m + t) for m edges
    and t terminal pairs.
    """
    g = inst._graph
    names = list(map(str, range(g.n)))
    m, t = g.count_colors()
    out = [f"mcvs {g.n} {m} {t} {inst.k}\n"]
    out += _pair_lines(g._blue_adj, names, "e", names)
    out += _pair_lines(g._red_adj, names, "t", names)
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
    """Canonical ``mcsol`` form: one s line per split vertex, ascending.

    Every document written parses back to ``(n, sol)``.
    """
    _check_vertex_count(n)
    out = [f"mcsol {n}"]
    for v, parts in sol.splits:
        rows = [sorted(p) for p in parts]
        # ids are non-negative ints, checked when sol was built, and each
        # row's largest member, the last, is below n iff all its members are
        if v >= n or any(row and row[-1] >= n for row in rows):
            _check_below("split vertex", n, v)
            _check_below("part member", n, *[row[-1] for row in rows if row])
        rendered = " | ".join([" ".join(map(str, row)) for row in rows])
        out.append(f"s {v} : {rendered}".rstrip())
    return ("\n".join(out) + "\n").encode("utf-8")
