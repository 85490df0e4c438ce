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
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import repeat

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


def _check_non_negative(what: str, *xs: object) -> None:
    """Each x is an int (not ``bool``) and at least 0: every id, count and budget."""
    for x in xs:
        # plain ints, by far the most common, skip the two isinstance calls
        if (x.__class__ is not int and not _is_integer(x)) or x < 0:
            raise ValueError(f"{what} must be a non-negative integer, got {x!r}")


def _check_below(what: str, n: int, *xs: object) -> None:
    """Each x is an int (not ``bool``) in 0..n-1: every id a vertex count bounds."""
    for x in xs:
        # plain ints, by far the most common, skip the two isinstance calls
        if (x.__class__ is not int and not _is_integer(x)) or not 0 <= x < n:
            raise ValueError(
                f"{what} must be a non-negative integer below {n}, got {x!r}"
            )


def _checked_pair(u: int, v: int, n: int) -> tuple[int, int]:
    """``_pair(u, v)`` of two distinct vertex ids below n."""
    if not (u.__class__ is int and v.__class__ is int and 0 <= u < n and 0 <= v < n):
        _check_below(f"vertex of pair ({u!r},{v!r})", n, u, v)
    if u == v:
        raise ValueError(f"self-loop on vertex {u}")
    return _pair(u, v)


def _check_vertex_count(n: int) -> None:
    """A graph's vertex count: an int (not ``bool``) in 0..MAX_VERTICES."""
    _check_non_negative("vertex count", n)
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")


@dataclass(frozen=True, init=False, repr=False)
class CorrelationGraph:
    """Immutable graph on vertices 0..n-1 with labeled unordered pairs.

    Only non-default labels are stored, as sorted adjacency rows: row u of
    ``_blue_adj`` lists every blue neighbour of u once, ascending, and
    ``_red_adj`` does the same for red ones.  A complete graph's red pairs
    are implied, and its ``_red_adj`` is None.  ``label`` finds a pair by
    bisecting rows, in O(log d) for rows of at most d.

    The public constructor checks every pair it is given, then drops
    default-coloured pairs and builds the rows with ``_label_rows``.  Code
    whose rows are valid by construction (the bulk ``ccg`` and ``mcvs``
    readers, ``induced_subgraph``, split graphs, ``ccvs_to_mcvs``) builds
    through ``_trusted`` instead, which skips those per-pair checks.  A
    frozen dataclass: equal by value (same kind and rows), and it pickles
    and deep-copies; the rows are lists, so ``__hash__`` is written out.
    """

    n: int
    complete: bool
    _blue_adj: list[list[int]]
    _red_adj: list[list[int]] | None

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, EdgeColor]] = (),
        *,
        complete: bool,
    ):
        _check_vertex_count(n)
        labels: dict[tuple[int, int], EdgeColor] = {}
        for u, v, color in edges:
            key = _checked_pair(u, v, n)
            if not isinstance(color, EdgeColor):
                raise ValueError(f"not an edge color: {color!r}")
            if color is NEUTRAL and complete:
                raise ValueError(
                    f"pair ({u},{v}) marked neutral in a complete graph"
                )
            seen = labels.get(key, None)
            if seen is not None and seen is not color:
                raise ValueError(f"conflicting colors for pair {key}")
            labels[key] = color
        red = None if complete else _label_rows(n, labels, RED)
        self._build(n, _label_rows(n, labels, BLUE), red)

    @classmethod
    def _trusted(
        cls, n: int, blue_rows: list[list[int]], red_rows: list[list[int]] | None
    ) -> "CorrelationGraph":
        """A graph built from rows that are valid by construction.

        Each row list holds n sorted adjacency rows: row u lists every
        neighbour of u once, ascending, and v is in row u iff u is in row
        v.  ``red_rows`` is None for a complete graph; otherwise no pair is
        in both lists.  The rows are stored, not copied, and nothing is
        checked but the vertex count (split graphs can outgrow the cap):
        O(1).
        """
        _check_vertex_count(n)
        g = object.__new__(cls)
        g._build(n, blue_rows, red_rows)
        return g

    def _build(
        self, n: int, blue_rows: list[list[int]], red_rows: list[list[int]] | None
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "complete", red_rows is None)
        object.__setattr__(self, "_blue_adj", blue_rows)
        object.__setattr__(self, "_red_adj", red_rows)

    def label(self, u: int, v: int) -> EdgeColor:
        """Color of the unordered pair (u, v).

        O(log d): a bisect in u's blue row of length d, and on incomplete
        graphs in its red row.
        """
        _checked_pair(u, v, self.n)
        if _in_row(self._blue_adj[u], v):
            return BLUE
        if self._red_adj is None or _in_row(self._red_adj[u], v):
            return RED
        return NEUTRAL

    def blue_neighbors(self, v: int) -> list[int]:
        """Sorted blue neighbors of v."""
        _check_below("vertex id", self.n, v)
        return list(self._blue_adj[v])

    def blue_edges(self) -> list[tuple[int, int]]:
        """All blue pairs, sorted."""
        return _upper_pairs(self._blue_adj)

    def red_edges(self) -> list[tuple[int, int]]:
        """All red pairs, sorted.  O(n^2) for complete graphs."""
        return _upper_pairs(self._red_rows())

    def _red_rows(self) -> list[list[int]]:
        """Sorted red rows: the stored ones, or a complete graph's, O(n^2)."""
        if self._red_adj is not None:
            return self._red_adj
        every = set(range(self.n))
        return [
            sorted(every.difference(row, (u,))) for u, row in enumerate(self._blue_adj)
        ]

    def count_colors(self) -> tuple[int, int]:
        """(blue pair count, red pair count)."""
        n_blue = sum(map(len, self._blue_adj)) // 2
        if self.complete:
            return n_blue, self.n * (self.n - 1) // 2 - n_blue
        return n_blue, sum(map(len, self._red_adj)) // 2

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["CorrelationGraph", tuple[int, ...]]:
        """Subgraph induced on the given vertices, re-indexed to 0..m-1.

        Returns the subgraph and the sorted tuple mapping new ids to old.
        The kept pairs are not checked again, because re-indexing in sorted
        order keeps them valid.  Each kept vertex's sorted rows are mapped
        through an index list; the mapped rows stay sorted because the kept
        ids ascend, so they are the subgraph's rows: O(n + the kept
        vertices' degrees).
        """
        ids = list(vertices)
        _check_below("vertex id", self.n, *ids)
        keep = sorted(set(ids))
        new_id: list[int | None] = [None] * self.n
        for new, old in enumerate(keep):
            new_id[old] = new

        def mapped(adj: list[list[int]]) -> list[list[int]]:
            return [
                [y for x in adj[old] if (y := new_id[x]) is not None] for old in keep
            ]

        red = None if self._red_adj is None else mapped(self._red_adj)
        sub = CorrelationGraph._trusted(len(keep), mapped(self._blue_adj), red)
        return sub, tuple(keep)

    def __hash__(self) -> int:
        red = self._red_adj
        return hash((
            self.n,
            tuple(map(tuple, self._blue_adj)),
            None if red is None else tuple(map(tuple, red)),
        ))

    def __repr__(self) -> str:
        kind = "complete" if self.complete else "incomplete"
        n_blue, n_red = self.count_colors()
        stored = n_blue if self.complete else n_blue + n_red
        return f"CorrelationGraph(n={self.n}, {kind}, {stored} stored pairs)"


def _label_rows(
    n: int, labels: dict[tuple[int, int], EdgeColor], color: EdgeColor
) -> list[list[int]]:
    """The sorted adjacency rows of a label dict's pairs of one colour.

    O(n + pairs + p log d) for p pairs of that colour, rows of at most d.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v), c in labels.items():
        if c is color:
            adj[u].append(v)
            adj[v].append(u)
    for row in adj:
        row.sort()
    return adj


def _in_row(row: list[int], v: int) -> bool:
    """Whether v is in a sorted row."""
    i = bisect_left(row, v)
    return i < len(row) and row[i] == v


def _upper_pairs(adj: list[list[int]]) -> list[tuple[int, int]]:
    """The pairs (u, v), u < v, of sorted symmetric rows, sorted."""
    return [(u, v) for u, row in enumerate(adj) for v in row[bisect_right(row, u) :]]


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


def blue_components(g: CorrelationGraph) -> list[list[int]]:
    """Connected components of the blue subgraph.

    Components are ordered by smallest member; members are sorted.
    """
    return _blue_labels(g)[1]


def _blue_labels(g: CorrelationGraph) -> tuple[list[int], list[list[int]]]:
    """Each vertex's blue component index, and ``blue_components(g)``.

    O(n + blue pairs), and a sort per component.
    """
    adj = g._blue_adj
    label = [-1] * g.n
    components: list[list[int]] = []
    for start in range(g.n):
        if label[start] >= 0:
            continue
        i = len(components)
        label[start] = i
        comp = [start]
        for u in comp:  # comp grows as it is walked
            for w in adj[u]:
                if label[w] < 0:
                    label[w] = i
                    comp.append(w)
        comp.sort()
        components.append(comp)
    return label, components


def cluster_decomposition(g: CorrelationGraph) -> list[frozenset[int]] | None:
    """Blue components as cliques, or None if some component is not a clique.

    A graph whose blue components are all blue cliques is a cluster graph;
    the decomposition lists the cliques ordered by smallest member.
    O(n + blue pairs).
    """
    comps = _clique_components(g)
    return None if comps is None else [frozenset(comp) for comp in comps]


def _clique_components(g: CorrelationGraph) -> list[list[int]] | None:
    """``blue_components(g)`` if every one is a blue clique, else None."""
    comps = blue_components(g)
    return comps if all(_is_blue_clique(g, comp) for comp in comps) else None


def _is_blue_clique(g: CorrelationGraph, comp: list[int]) -> bool:
    """Whether a blue component is a clique.

    Every blue neighbour of a member lies in the component, so it is a
    clique iff each member has ``len(comp) - 1`` of them.
    """
    want = len(comp) - 1
    adj = g._blue_adj
    return all(len(adj[v]) == want for v in comp)


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
    leading zeros or too long), or fewer fields than n, whose table would
    cost more than the fallback reader.  u < v is not checked here:
    ``_ascending_rows``, which both bulk readers call next, checks it where
    each u starts.  Never raises.  O(n + body length), in C passes but for
    one dict lookup per id.
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
        us = list(map(table.__getitem__, tokens[1::width]))
        vs = list(map(table.__getitem__, tokens[2::width]))
    except KeyError:
        return None
    fields = tokens[3::width] if width > 3 else []
    del tokens  # freed before the caller builds its pairs, to keep the peak low
    return us, vs, fields


# ASCII comment lines may lead, as ``reduce mcvs-to-ccvs`` emits them; no
# line break but ``\n`` may end or hide in one
_CCG_HEADER = re.compile(
    rb"(?:#[\t -~]*\n)*ccg (0|[1-9][0-9]{0,5}) (complete|incomplete)\n"
)


def _bulk_graph(data: bytes | str) -> CorrelationGraph | None:
    """The graph of a document exactly as ``write_graph`` emits it, else None.

    A block of ASCII comment lines may lead.  ``_pair_columns`` checks and
    splits the body, and its columns give the graph's rows in one pass
    (``_ascending_rows``).  Anything else, such as other comments or
    whitespace, a red pair of a complete graph, pairs out of order or not
    u < v, or a pair listed twice or in both colours, gives None and is
    left to ``_parse_graph_lines``, which names its faults.  Never raises.
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
    blue: list[list[int]] = [[] for _ in range(n)]
    if match[2] == b"complete":
        if colors.count(b"b") != len(colors):  # a red pair, or ``b0``
            return None
        red = None
        targets: Iterable[list[list[int]]] = repeat(blue)
    else:
        red = [[] for _ in range(n)]
        targets = map({b"b": blue, b"r": red}.__getitem__, colors)
    try:
        if not _ascending_rows(us, vs, targets):
            return None
    except KeyError:  # a digit glued to a colour (``b0``)
        return None
    return CorrelationGraph._trusted(n, blue, red)


def _ascending_rows(
    us: list[int], vs: list[int], targets: Iterable[list[list[int]]]
) -> bool:
    """Fill the sorted adjacency rows of pairs listed in ascending order.

    Pair (us[i], vs[i]) goes into the row list ``targets[i]``.  Pairs with
    u < v listed in strictly ascending (u, v) order, as the writers list
    them, append to every row in ascending order: a vertex's smaller
    neighbours come first, from the pairs of smaller u, then its larger
    ones.  So no row is sorted, and a pair listed twice or out of order
    shows as a pair not above the one before it, which returns False.
    This is also where the bulk readers check u < v: the first pair of
    each u must have v > u, and the later ones have larger v still, so a
    reversed pair or a self-loop returns False too.  One pass over the
    pairs, no call per row: O(pairs).
    """
    last_u = last_v = -1
    for u, v, adj in zip(us, vs, targets):
        if u == last_u:
            if v <= last_v:
                return False
        elif u < last_u or v <= u:
            return False
        last_u, last_v = u, v
        adj[u].append(v)
        adj[v].append(u)
    return True


def parse_graph(data: bytes | str) -> CorrelationGraph:
    """Parse the ``ccg`` text format.

    A document exactly as ``write_graph`` emits it, ASCII comment lines
    before the header allowed, is read in bulk (see ``_bulk_graph``); every
    other one goes through the fallback reader ``_parse_graph_lines``,
    which gives the same object for it, or names its fault.  The bulk path
    checks u < v in ``_ascending_rows``, where each u starts, and leaves a
    reversed pair or a self-loop to the fallback reader, whose constructor
    accepts the one and refuses the other.  Both are O(n + document
    length); the bulk path costs about a fifth as much.
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
            joined = f"\n{head}".join([tails[x] for x in above])
            out.append(f"{head}{joined}\n")
    return out


def write_graph(g: CorrelationGraph) -> bytes:
    """Serialize to the canonical ``ccg`` form: sorted edges, u < v.

    Complete graphs list only blue pairs, read off the sorted blue rows;
    incomplete ones list blue and red pairs off rows of ints
    ``2*v + (colour is RED)``, one per smaller id u, each the merge of the
    parts of u's two sorted rows above u.  No tuple is sorted:
    O(n + p log d) for p stored pairs, rows of at most d.
    ``parse_graph(write_graph(g)) == g``.
    """
    kind = "complete" if g.complete else "incomplete"
    names = list(map(str, range(g.n)))
    out = [f"ccg {g.n} {kind}\n"]
    if g.complete:
        out += _pair_lines(g._blue_adj, names, "e", [f"{s} b" for s in names])
    else:
        rows = []
        for u, (blue, red) in enumerate(zip(g._blue_adj, g._red_adj)):
            row = [2 * v for v in blue[bisect_right(blue, u) :]]
            row += [2 * v + 1 for v in red[bisect_right(red, u) :]]
            row.sort()
            rows.append(row)
        out += _pair_lines(rows, names, "e", [f"{s} {c}" for s in names for c in "br"])
    return "".join(out).encode()
