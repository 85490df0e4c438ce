"""Correlation graphs: vertex pairs labeled blue (similar) or red (dissimilar).

A graph is either complete, meaning every pair carries a blue or red label,
or incomplete, meaning unlabeled pairs are neutral (no information).  The
text format is line oriented::

    ccg <n> complete|incomplete
    e <u> <v> b
    e <u> <v> r

Lines starting with ``#`` and blank lines are ignored.  Pairs not listed
default to red in complete graphs and neutral in incomplete ones.
"""

from __future__ import annotations

import enum
import operator
import re
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from itertools import islice

MAX_VERTICES = 100_000


class FormatError(ValueError):
    """A text document does not conform to its file format."""


class EdgeColor(enum.Enum):
    BLUE = "b"
    RED = "r"
    NEUTRAL = "n"


BLUE = EdgeColor.BLUE
RED = EdgeColor.RED
NEUTRAL = EdgeColor.NEUTRAL


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _is_integer(x: object) -> bool:
    """Whether x is an int but not a ``bool``, which writers would emit as ``True``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_ids(u: int, v: int, n: int, what: str = "edge") -> None:
    """Both ids of a pair are integers (not ``bool``) in 0..n-1."""
    try:
        # ``|`` raises TypeError on anything but integers, so this one
        # test checks both the type and the range of the ids
        if (u | v) < 0 or u >= n or v >= n:
            raise ValueError(f"{what} ({u},{v}) out of range for n={n}")
    except TypeError:
        raise ValueError(f"vertex ids must be integers, got ({u!r},{v!r})") from None
    if isinstance(u, bool) or isinstance(v, bool):
        raise ValueError(f"vertex ids must be integers, got ({u!r},{v!r})")


def _check_vertices(vertices: Iterable[int], n: int) -> list[int]:
    """The distinct ids in ascending order, each an int (not ``bool``) in 0..n-1."""
    ids = list(vertices)
    for v in ids:
        if not _is_integer(v):
            raise ValueError(f"vertex ids must be integers, got {v!r}")
    ids = sorted(set(ids))
    for v in ids:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    return ids


def _check_vertex_count(n: int) -> None:
    """A graph's vertex count: an int (not ``bool``) in 0..MAX_VERTICES."""
    if not _is_integer(n) or n < 0:
        raise ValueError(f"vertex counts are non-negative integers, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")


class CorrelationGraph:
    """Immutable graph on vertices 0..n-1 with labeled unordered pairs.

    Only non-default labels are stored: blue pairs for complete graphs,
    blue and red pairs for incomplete ones.  Lookup of any pair is O(1).

    The public constructor checks every pair it is given: integer ids (not
    ``bool``) in range, no self-loop, a colour allowed for the kind, and no
    two colours for one pair; then it normalises the pairs to u < v and
    drops default-coloured ones.  Code whose pairs are valid by
    construction (the bulk ``ccg`` reader, ``induced_subgraph``, split
    graphs, ``mcvs_to_ccvs``) builds through ``_trusted`` instead, which
    skips those per-pair checks.  Both end in ``_build``, the one place
    that stores the labels and builds the sorted blue adjacency lists.
    """

    __slots__ = ("n", "complete", "_labels", "_blue_adj")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, EdgeColor]] = (),
        *,
        complete: bool,
    ):
        _check_vertex_count(n)
        default = RED if complete else NEUTRAL
        labels: dict[tuple[int, int], EdgeColor] = {}
        for u, v, color in edges:
            _check_ids(u, v, n)
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not isinstance(color, EdgeColor):
                raise ValueError(f"not an edge color: {color!r}")
            if color is NEUTRAL and complete:
                raise ValueError(
                    f"pair ({u},{v}) marked neutral in a complete graph"
                )
            key = _pair(u, v)
            seen = labels.get(key, None)
            if seen is not None and seen is not color:
                raise ValueError(f"conflicting colors for pair {key}")
            labels[key] = color
        # normalize: drop default-colored pairs so equality is structural
        self._build(
            n, {k: c for k, c in labels.items() if c is not default}, complete
        )

    @classmethod
    def _trusted(
        cls, n: int, labels: dict[tuple[int, int], EdgeColor], complete: bool
    ) -> "CorrelationGraph":
        """A graph built from pairs that are valid by construction.

        ``labels`` maps pairs (u, v) with 0 <= u < v < n to a colour of the
        graph's kind, and holds no default-coloured pair; it is stored, not
        copied, and nothing is checked but the vertex count (split graphs
        can outgrow the cap).  O(n + stored pairs), with no per-pair check.
        """
        _check_vertex_count(n)
        g = object.__new__(cls)
        g._build(n, labels, complete)
        return g

    def _build(
        self, n: int, labels: dict[tuple[int, int], EdgeColor], complete: bool
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "_labels", labels)
        adj: list[list[int]] = [[] for _ in range(n)]
        for (u, v), c in labels.items():
            if c is BLUE:
                adj[u].append(v)
                adj[v].append(u)
        for row in adj:
            row.sort()
        object.__setattr__(self, "_blue_adj", adj)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CorrelationGraph is immutable")

    def label(self, u: int, v: int) -> EdgeColor:
        """Color of the unordered pair (u, v)."""
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            raise ValueError(f"not a vertex pair of this graph: ({u},{v})")
        default = RED if self.complete else NEUTRAL
        return self._labels.get(_pair(u, v), default)

    def blue_neighbors(self, v: int) -> list[int]:
        """Sorted blue neighbors of v."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return list(self._blue_adj[v])

    def blue_edges(self) -> list[tuple[int, int]]:
        """All blue pairs, sorted."""
        return sorted(k for k, c in self._labels.items() if c is BLUE)

    def red_edges(self) -> list[tuple[int, int]]:
        """All red pairs, sorted.  O(n^2) for complete graphs."""
        if not self.complete:
            return sorted(k for k, c in self._labels.items() if c is RED)
        blue = {k for k, c in self._labels.items() if c is BLUE}
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in blue
        ]

    def count_colors(self) -> tuple[int, int]:
        """(blue pair count, red pair count)."""
        n_blue = sum(1 for c in self._labels.values() if c is BLUE)
        if self.complete:
            return n_blue, self.n * (self.n - 1) // 2 - n_blue
        return n_blue, sum(1 for c in self._labels.values() if c is RED)

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["CorrelationGraph", tuple[int, ...]]:
        """Subgraph induced on the given vertices, re-indexed to 0..m-1.

        Returns the subgraph and the sorted tuple mapping new ids to old.
        The vertices must be integer ids in range; the kept pairs are not
        checked again, because re-indexing in sorted order keeps them valid
        and u < v.  O(n + stored pairs).
        """
        keep = _check_vertices(vertices, self.n)
        index = {old: new for new, old in enumerate(keep)}
        labels = {
            (index[u], index[v]): c
            for (u, v), c in self._labels.items()
            if u in index and v in index
        }
        return (
            CorrelationGraph._trusted(len(keep), labels, self.complete),
            tuple(keep),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrelationGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.complete == other.complete
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.complete, frozenset(self._labels.items())))

    def __repr__(self) -> str:
        kind = "complete" if self.complete else "incomplete"
        return f"CorrelationGraph(n={self.n}, {kind}, {len(self._labels)} stored pairs)"


def complete_graph(n: int, blue: Iterable[tuple[int, int]]) -> CorrelationGraph:
    """Complete graph with the given blue pairs; every other pair is red."""
    return CorrelationGraph(n, [(u, v, BLUE) for u, v in blue], complete=True)


def incomplete_graph(
    n: int,
    blue: Iterable[tuple[int, int]] = (),
    red: Iterable[tuple[int, int]] = (),
) -> CorrelationGraph:
    """Incomplete graph with the given blue and red pairs; the rest neutral."""
    edges = [(u, v, BLUE) for u, v in blue]
    edges += [(u, v, RED) for u, v in red]
    return CorrelationGraph(n, edges, complete=False)


def blue_components(
    g: CorrelationGraph, within: Iterable[int] | None = None
) -> list[list[int]]:
    """Connected components of the blue subgraph, optionally restricted.

    Components are ordered by smallest member; members are sorted.
    """
    pool = range(g.n) if within is None else _check_vertices(within, g.n)
    pool_set = set(pool)
    adj = g._blue_adj
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in pool:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in pool_set and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comp.sort()
        components.append(comp)
    return components


def cluster_decomposition(
    g: CorrelationGraph, within: Iterable[int] | None = None
) -> list[frozenset[int]] | None:
    """Blue components as cliques, or None if some component is not a clique.

    A graph whose blue components are all blue cliques is a cluster graph;
    the decomposition lists the cliques ordered by smallest member.
    O(n + blue pairs).
    """
    comps = blue_components(g, within)
    pool = None if within is None else {v for comp in comps for v in comp}
    if not all(_is_blue_clique(g, comp, pool) for comp in comps):
        return None
    return [frozenset(comp) for comp in comps]


def _is_blue_clique(
    g: CorrelationGraph, comp: list[int], pool: set[int] | None = None
) -> bool:
    """Whether a blue component of the pool (default: all vertices) is a clique.

    Every blue neighbour of a member inside the pool lies in the component,
    so it is a clique iff each member has ``len(comp) - 1`` of them.
    """
    want = len(comp) - 1
    adj = g._blue_adj
    if pool is None:
        return all(len(adj[v]) == want for v in comp)
    return all(len(pool.intersection(adj[v])) == want for v in comp)


def _read_document(
    data: bytes | str, keyword: str, arity: int | None, usage: str
) -> tuple[int, list[str], Iterator[tuple[int, list[str]]]]:
    """Header of a line-oriented document, then its later lines split.

    The header is the first significant line; it starts with ``keyword``
    and has ``arity`` fields (any number when None).  Returns its line
    number and fields, and (line number, fields) for every later line.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not valid UTF-8: {exc}") from None
    lines = (
        (lineno, fields)
        for lineno, fields in enumerate(
            (raw.split() for raw in data.splitlines()), start=1
        )
        if fields and not fields[0].startswith("#")
    )
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError(f"empty document: missing {keyword} header") from None
    if header[0] != keyword or (arity is not None and len(header) != arity):
        raise FormatError(f"line {lineno}: expected {usage!r}")
    return lineno, header, lines


def _is_int(token: str) -> bool:
    """Whether a field is ASCII digits with an optional leading ``-``.

    ``int()`` alone would also take ``+1``, ``1_1`` and non-ASCII digits.
    """
    return token.isascii() and token.removeprefix("-").isdigit()


def _read_ints(lineno: int, tokens: list[str], what: str = "vertex ids") -> list[int]:
    """Integer fields, or a FormatError naming the line.

    A field too long for ``int()`` (4300 digits by default) is a
    ``FormatError`` too.
    """
    if not all(map(_is_int, tokens)):
        raise FormatError(f"line {lineno}: expected integer {what}")
    try:
        return [int(t) for t in tokens]
    except ValueError:  # over the interpreter's digit limit for int()
        raise FormatError(f"line {lineno}: integer {what} too long") from None


def _read_counts(lineno: int, tokens: list[str], what: str) -> list[int]:
    """Non-negative integer header fields."""
    counts = _read_ints(lineno, tokens, what)
    if any(c < 0 for c in counts):
        raise FormatError(f"line {lineno}: negative {what}")
    return counts


def _read_vertex_count(lineno: int, token: str) -> int:
    """A header's vertex count: 0..MAX_VERTICES, checked before any allocation."""
    (n,) = _read_counts(lineno, [token], "vertex count")
    if n > MAX_VERTICES:
        raise FormatError(
            f"line {lineno}: vertex count {n} exceeds the cap of {MAX_VERTICES}"
        )
    return n


def _read_ids(lineno: int, tokens: list[str]) -> list[int]:
    """A non-negative, strictly increasing id list."""
    ids = _read_ints(lineno, tokens)
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise FormatError(f"line {lineno}: ids must be strictly increasing")
    if ids and ids[0] < 0:
        raise FormatError(f"line {lineno}: negative vertex id")
    return ids


def _read_groups(lineno: int, tokens: list[str]) -> list[list[int]]:
    """``|``-separated id lists, each read by ``_read_ids``; groups may be empty."""
    groups: list[list[str]] = [[]]
    for token in tokens:
        if token == "|":
            groups.append([])
        else:
            groups[-1].append(token)
    return [_read_ids(lineno, group) for group in groups]


_COLORS = {"b": BLUE, "r": RED}
_R_AS_B = bytes.maketrans(b"r", b"b")


def _pair_columns(
    body: bytes, n: int, shape: bytes, width: int
) -> tuple[list[int], list[int], list[bytes]] | None:
    """The columns of canonical pair lines, or None for the fallback reader.

    ``body`` holds newline-ended lines ``<tag> <u> <v> [<field>]`` of
    ``width`` fields, and must equal ``shape`` once its digits are deleted
    and ``r`` is read as ``b``: one C-level translate and compare check
    every separator and letter.  Returns the u ids, the v ids and the
    fourth fields (empty when ``width`` is 3; a glued digit, as in ``b0``,
    is left to the caller).  Every id is looked up in a table of the
    spellings of 0..n-1, one lookup that converts it, checks its range and
    shares one int object per id.  None on another shape, an empty field,
    a digit glued to a tag, a missed lookup (an id out of range, with
    leading zeros or too long), a pair not u < v, or fewer fields than n,
    whose table would cost more than the fallback reader.  Never raises.
    O(n + body length), in C passes but for one dict lookup per id.
    """
    if body.translate(_R_AS_B, b"0123456789") != shape:
        return None
    lines = shape.count(b"\n")
    del shape  # freed before the split, to keep the peak low
    tokens = body.split()
    if len(tokens) != width * lines:  # an empty field
        return None
    if n > len(tokens):
        return None if tokens else ([], [], [])
    tags = tokens[::width]  # the digit of ``0e`` was deleted before the compare
    if tags.count(b"e") + tags.count(b"t") != lines:
        return None
    table = dict(zip(map(str.encode, map(str, range(n))), range(n)))
    try:
        us = list(map(table.__getitem__, islice(tokens, 1, None, width)))
        vs = list(map(table.__getitem__, islice(tokens, 2, None, width)))
    except KeyError:
        return None
    fields = tokens[3::width] if width > 3 else []
    del tokens  # freed before the caller builds its pairs, to keep the peak low
    if not all(map(operator.lt, us, vs)):
        return None
    return us, vs, fields


# ASCII comment lines may lead, as ``reduce mcvs-to-ccvs`` emits them; no
# line break but ``\n`` may end or hide in one
_CCG_HEADER = re.compile(
    rb"(?:#[\t -~]*\n)*ccg (0|[1-9][0-9]{0,5}) (complete|incomplete)\n"
)
_BYTE_COLORS = {b"b": BLUE, b"r": RED}


def _bulk_graph(data: bytes | str) -> CorrelationGraph | None:
    """The graph of a document exactly as ``write_graph`` emits it, else None.

    A block of ASCII comment lines may lead.  ``_pair_columns`` checks and
    splits the body, whose columns give the label dict in one call.
    Anything else, such as other comments or whitespace, a red pair of a
    complete graph or a pair listed twice, gives None and is left to
    ``_parse_graph_lines``, which names its faults.  Never raises.
    O(n + document length).
    """
    if not isinstance(data, bytes):
        return None
    match = _CCG_HEADER.match(data)
    if match is None:
        return None
    n = int(match[1])
    if n > MAX_VERTICES:
        return None
    body = data[match.end() :]
    columns = _pair_columns(body, n, b"e   b\n" * body.count(b"\n"), 4)
    if columns is None:
        return None
    us, vs, colors = columns
    complete = match[2] == b"complete"
    if complete:
        if colors.count(b"b") != len(colors):  # a red pair, or ``b0``
            return None
        labels = dict.fromkeys(zip(us, vs), BLUE)
    else:
        try:
            labels = dict(zip(zip(us, vs), map(_BYTE_COLORS.__getitem__, colors)))
        except KeyError:  # a digit glued to a colour (``b0``)
            return None
    if len(labels) != len(us):
        return None
    return CorrelationGraph._trusted(n, labels, complete)


def parse_graph(data: bytes | str) -> CorrelationGraph:
    """Parse the ``ccg`` text format.

    A document exactly as ``write_graph`` emits it, ASCII comment lines
    before the header allowed, is read in bulk (see ``_bulk_graph``); every
    other one goes through the fallback reader ``_parse_graph_lines``,
    which gives the same object for it, or names its fault.  Both are
    O(n + document length); the bulk path costs about a fifth as much.
    """
    g = _bulk_graph(data)
    return g if g is not None else _parse_graph_lines(data)


def _parse_graph_lines(data: bytes | str) -> CorrelationGraph:
    """Check every pair line's syntax, then let the constructor check the pairs."""
    lineno, header, lines = _read_document(
        data, "ccg", 3, "ccg <n> complete|incomplete"
    )
    n = _read_vertex_count(lineno, header[1])
    if header[2] not in ("complete", "incomplete"):
        raise FormatError(f"line {lineno}: unknown graph kind {header[2]!r}")
    edges = []
    for lineno, fields in lines:
        if len(fields) != 4 or fields[0] != "e":
            raise FormatError(f"line {lineno}: expected 'e <u> <v> b|r'")
        color = _COLORS.get(fields[3])
        if color is None:
            raise FormatError(f"line {lineno}: unknown color {fields[3]!r}")
        edges.append((*_read_ints(lineno, fields[1:3]), color))
    try:
        return CorrelationGraph(n, edges, complete=header[2] == "complete")
    except ValueError as exc:
        raise FormatError(f"inconsistent graph: {exc}") from None


def _pair_lines(
    rows: list[list[int]], names: list[str], tag: str, tails: list[str]
) -> list[str]:
    """Lines ``<tag> <u> <tails[x]>`` for every x > u in the sorted ``rows[u]``.

    Symmetric adjacency lists thus give one line per pair.  The lines come
    out sorted, one string per vertex, with no sort.  O(n + pairs).
    """
    out = []
    for u, row in enumerate(rows):
        above = row[bisect_right(row, u) :]
        if above:
            head = f"{tag} {names[u]} "
            joined = f"\n{head}".join(map(tails.__getitem__, above))
            out.append(f"{head}{joined}\n")
    return out


def write_graph(g: CorrelationGraph) -> bytes:
    """Serialize to the canonical ``ccg`` form: sorted edges, u < v.

    Complete graphs list only blue pairs, read off the sorted blue
    adjacency lists; incomplete ones list blue and red pairs off sorted
    rows of ints ``2*v + (colour is RED)``, one per smaller id u.  No tuple
    is sorted: O(n + p log d) for p stored pairs, rows of at most d.
    ``parse_graph(write_graph(g)) == g``.
    """
    kind = "complete" if g.complete else "incomplete"
    names = list(map(str, range(g.n)))
    out = [f"ccg {g.n} {kind}\n"]
    if g.complete:
        out += _pair_lines(g._blue_adj, names, "e", [f"{s} b" for s in names])
    else:
        rows: list[list[int]] = [[] for _ in range(g.n)]
        for (u, v), c in g._labels.items():
            rows[u].append(2 * v + (c is RED))
        for row in rows:
            row.sort()
        out += _pair_lines(rows, names, "e", [f"{s} {c}" for s in names for c in "br"])
    return "".join(out).encode()
