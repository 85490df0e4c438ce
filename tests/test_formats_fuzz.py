"""Fuzzing and whole-object round trips of the five text formats.

Each format starts from a canonical document produced by its writer.
Random deletions, insertions and replacements drawn from the bytes that
matter to the grammars (digits, ``-``, ``|``, ``:``, spaces, newlines and
invalid UTF-8) must either parse or raise ``FormatError``; whatever parses
must survive a write and a second parse unchanged.  Examples are
derandomized and bounded so the suite stays fast and repeatable.

Whole objects of all five formats, drawn by strategies, must survive a
write and a parse; ``ccg`` and ``mcvs`` documents respelled (pair lines
shuffled, a comment after the header, ``str`` input) must read as the same
object with the same adjacency lists.

Canonical ``ccg`` and ``mcvs`` documents, exactly as the writers emit them,
are read in bulk; everything else goes through the fallback readers
``_parse_graph_lines`` and ``_parse_instance_lines``, which check the
syntax of every pair line and then let the public constructors check the
pairs.  The bulk readers are run against the fallback readers on
corruptions, on the malformed-document lists of their own tests, on
documents with several faults and on documents in canonical shape with one
fault or one non-canonical spelling: each must return an equal object or
raise the same error.  The last two lists pin each document's error, or the
canonical document of what it reads as, as literals: syntax errors first,
then the constructor's first fault, then the header counts, each with its
line number.  A guard makes the fallback readers raise to check that writer
output, and the ``ccg`` that ``reduce mcvs-to-ccvs`` prints after a comment
line, never reach them.  The writers must emit the same bytes as the
sorting writers in ``oracles``, also on pairs stored in hash order.
"""

from __future__ import annotations

import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import splitclust.graphs
import splitclust.multicut

from splitclust import (
    BLUE,
    RED,
    Clustering,
    CorrelationGraph,
    FormatError,
    KernelTranscript,
    MulticutInstance,
    MulticutSolution,
    ccvs_to_mcvs,
    clustering_to_splits,
    complete_graph,
    gen_random,
    incomplete_graph,
    mcvs_to_ccvs,
    parse_clustering,
    parse_graph,
    parse_multicut_instance,
    parse_multicut_solution,
    parse_transcript,
    write_clustering,
    write_graph,
    write_multicut_instance,
    write_multicut_solution,
    write_transcript,
)
from splitclust.cli import run
from splitclust.graphs import _parse_graph_lines
from splitclust.multicut import _parse_instance_lines
from oracles import sorting_write_graph, sorting_write_multicut_instance
from test_graphs import MALFORMED as MALFORMED_CCG
from test_multicut import MALFORMED_INSTANCES
from test_oracle_agreement import planted, planted_incomplete


def _write_mcsol(parsed):
    return write_multicut_solution(*parsed)


# name -> (parse, write, canonical object)
FORMATS = {
    "ccg": (
        parse_graph,
        write_graph,
        incomplete_graph(5, blue=[(0, 1), (1, 2), (3, 4)], red=[(0, 2), (2, 3)]),
    ),
    "clu": (
        parse_clustering,
        write_clustering,
        Clustering([{0, 1}, {1, 2}, {3, 10}]),
    ),
    "ktx": (
        parse_transcript,
        write_transcript,
        KernelTranscript(
            frozenset({0, 1, 2}),
            (frozenset({3, 4}),),
            ((frozenset({5, 6, 7}), frozenset({5, 6}), frozenset({7})),),
            8,
        ),
    ),
    "mcvs": (
        parse_multicut_instance,
        write_multicut_instance,
        MulticutInstance(5, [(0, 1), (1, 2), (3, 4)], [(0, 2), (2, 3)], 2),
    ),
    "mcsol": (
        parse_multicut_solution,
        _write_mcsol,
        (5, MulticutSolution({1: [{0}, {2}], 2: [{1}, {3, 4}, set()]})),
    ),
}

ALPHABET = [bytes([b]) for b in b"0123456789-|: \n"] + [b"\xff", b"\xc3", b"\x80"]

EDITS = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "replace"]),
        st.integers(min_value=0, max_value=1 << 16),
        st.sampled_from(ALPHABET),
    ),
    min_size=1,
    max_size=6,
)


def _mutate(doc: bytes, edits) -> bytes:
    for op, pos, byte in edits:
        if op == "insert":
            i = pos % (len(doc) + 1)
            doc = doc[:i] + byte + doc[i:]
        elif doc:
            i = pos % len(doc)
            doc = doc[:i] + (byte if op == "replace" else b"") + doc[i + 1 :]
    return doc


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_canonical_round_trip(name):
    parse, write, obj = FORMATS[name]
    doc = write(obj)
    assert parse(doc) == obj
    assert write(parse(doc)) == doc


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(edits=EDITS)
def test_corrupted_documents_parse_or_raise_format_error(name, edits):
    parse, write, obj = FORMATS[name]
    data = _mutate(write(obj), edits)
    try:
        parsed = parse(data)
    except FormatError:
        return
    assert parse(write(parsed)) == parsed


def _pairs(draw, n: int, labels) -> list[tuple[int, int, object]]:
    """Up to 60 labelled pairs of distinct ids in 0..n-1, in either order.

    A pair may repeat with its first label but never takes another one.
    """
    if n < 2:
        return []
    ids = st.integers(0, n - 1)
    drawn = draw(st.lists(st.tuples(ids, ids, st.sampled_from(labels)), max_size=60))
    first = {}
    return [
        (u, v, label)
        for u, v, label in drawn
        if u != v and first.setdefault(frozenset((u, v)), label) == label
    ]


@st.composite
def correlation_graphs(draw) -> CorrelationGraph:
    n = draw(st.integers(0, 40))
    # red pairs of a complete graph are allowed and carry the default colour
    edges = _pairs(draw, n, [BLUE, RED])
    return CorrelationGraph(n, edges, complete=draw(st.booleans()))


@st.composite
def multicut_instances(draw) -> MulticutInstance:
    n = draw(st.integers(0, 40))
    pairs = _pairs(draw, n, ["e", "t"])
    edges = [(u, v) for u, v, kind in pairs if kind == "e"]
    terminals = [(u, v) for u, v, kind in pairs if kind == "t"]
    return MulticutInstance(n, edges, terminals, draw(st.integers(0, 10**30)))


@st.composite
def multicut_solutions(draw) -> tuple[int, MulticutSolution]:
    """A vertex count and a solution on it; parts may be empty."""
    n = draw(st.integers(1, 40))
    splits = {}
    for v in draw(st.sets(st.integers(0, n - 1), max_size=6)):
        count = draw(st.integers(2, 4))
        members = draw(st.sets(st.integers(0, n - 1), max_size=10))
        parts = [set() for _ in range(count)]
        for u in sorted(members):
            parts[draw(st.integers(0, count - 1))].add(u)
        splits[v] = parts
    return n, MulticutSolution(splits)


@st.composite
def transcripts(draw) -> KernelTranscript:
    """Vertices 0..n-1 dealt to the forest and up to six cliques.

    Up to two cliques are removed; in each of the others at least one
    vertex stays marked.
    """
    n = draw(st.integers(0, 30))
    groups = [set() for _ in range(7)]
    marked = set()
    for v in range(n):
        groups[draw(st.integers(0, 6))].add(v)
        if draw(st.booleans()):
            marked.add(v)
    clusters = []
    for clique in filter(None, groups[3:]):
        keep = (clique & marked) or clique
        clusters.append((frozenset(clique), frozenset(keep), frozenset(clique - keep)))
    return KernelTranscript(
        frozenset(groups[0]),
        tuple(map(frozenset, filter(None, groups[1:3]))),
        tuple(clusters),
        n,
    )


OBJECTS = {
    "ccg": correlation_graphs(),
    "clu": st.lists(
        st.frozensets(st.integers(0, 60), min_size=1, max_size=8), max_size=8
    ).map(Clustering),
    "ktx": transcripts(),
    "mcvs": multicut_instances(),
    "mcsol": multicut_solutions(),
}


@pytest.mark.parametrize("name", sorted(OBJECTS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_whole_objects_round_trip(name, data):
    parse, write, _ = FORMATS[name]
    obj = data.draw(OBJECTS[name])
    assert parse(write(obj)) == obj


@pytest.mark.parametrize("name", ["ccg", "mcvs"])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_respelled_documents_read_as_the_same_object(name, data):
    """Shuffled pair lines, a comment after the header or ``str`` input."""
    parse, write, _ = FORMATS[name]
    obj = data.draw(OBJECTS[name])
    head, *body = write(obj).splitlines(keepends=True)
    body = data.draw(st.permutations(body))
    if data.draw(st.booleans()):
        body.insert(0, b"# c\n")
    doc = b"".join([head, *body])
    if data.draw(st.booleans()):
        doc = doc.decode()
    assert _outcome(parse, doc) == (obj, _adjacency(obj))


REFERENCES = {
    "ccg": _parse_graph_lines,
    "mcvs": _parse_instance_lines,
}


def _fails(message: str) -> tuple[type, str]:
    return FormatError, message


# Documents with more than one fault, in every order, each with what it
# reads as: the pinned error, or the canonical document of what it reads.
# Syntax errors come first wherever they are, then the constructor's first
# fault (for mcvs the first among edges, then among terminal pairs, then a
# pair that is both), then the header counts of mcvs.
SEVERAL_FAULTS = {
    "ccg": [
        (b"ccg 3 complete\ne 0 3 b\ne 0 1 x\n", _fails("line 3: unknown color 'x'")),
        (b"ccg 3 complete\ne 0 0 b\ne 0 q b\n", _fails("line 3: expected integer vertex ids")),
        (
            b"ccg 3 complete\ne 0 1 b\ne 1 0 r\ne 2 2 b\n",
            _fails("inconsistent graph: conflicting colors for pair (0, 1)"),
        ),
        (
            b"ccg 3 complete\ne 0 1 b\ne 1 0 r\ne 0 q b\n",
            _fails("line 4: expected integer vertex ids"),
        ),
        (
            b"ccg 3 complete\ne 2 2 b\ne 0 1 b\ne 1 0 r\n",
            _fails("inconsistent graph: self-loop on vertex 2"),
        ),
        (
            b"ccg 3 incomplete\ne -1 2 r\ne 0 5 b\n",
            _fails("inconsistent graph: edge (-1,2) out of range for n=3"),
        ),
        (
            b"ccg 3 incomplete\ne 0 1 r\ne 1 0 r\ne 0 2 b\n",
            b"ccg 3 incomplete\ne 0 1 r\ne 0 2 b\n",
        ),
        (
            b"ccg 3 complete\ne 0 1 r\ne 1 0 b\n",
            _fails("inconsistent graph: conflicting colors for pair (0, 1)"),
        ),
        (b"ccg 3 complete\ne 0 1 r\ne 0 2 r\n", b"ccg 3 complete\n"),
        (b"ccg 3 complete\ne -0 02 b\n", b"ccg 3 complete\ne 0 2 b\n"),
        (
            "ccg 3 complete\n# \u00e9\ne 0 1 b\ne 2 -1 b\n".encode(),
            _fails("inconsistent graph: edge (2,-1) out of range for n=3"),
        ),
        (
            "ccg 3 complete\n# \u00e9\ne 0 \u00b2 b\n".encode(),
            _fails("line 3: expected integer vertex ids"),
        ),
        (
            b"ccg 3 complete\ne 0 " + b"1" * 5000 + b" b\n",
            _fails("line 2: integer vertex ids too long"),
        ),
    ],
    "mcvs": [
        (
            b"mcvs 3 1 1 0\nt 0 3\ne 1 1\n",
            _fails("inconsistent instance: self-loop on vertex 1"),
        ),
        (
            b"mcvs 3 1 1 0\nt 0 0\ne 0 1\n",
            _fails("inconsistent instance: terminal pair (0,0) is degenerate"),
        ),
        (
            b"mcvs 3 1 1 0\nt 0 1\ne 1 0\n",
            _fails("inconsistent instance: terminal pairs must not be edges"),
        ),
        (b"mcvs 3 1 1 0\ne 0 5\ne 0 q\n", _fails("line 3: expected integer vertex ids")),
        (
            b"mcvs 3 1 1 0\nt 1 1\nx 0 1\n",
            _fails("line 3: expected 'e <u> <v>' or 't <u> <v>'"),
        ),
        (
            b"mcvs 3 1 1 0\ne 0 1\nt 0 1\ne 0 q\n",
            _fails("line 4: expected integer vertex ids"),
        ),
        (b"mcvs 3 2 1 0\ne 0 1\ne 1 0\nt 0 2\n", _fails("header says 2 edges, found 1")),
        (
            b"mcvs 3 1 2 0\ne 0 1\nt 0 2\nt 2 0\n",
            _fails("header says 2 terminal pairs, found 1"),
        ),
        (
            b"mcvs 3 1 1 0\nt 2 -1\ne -1 2\n",
            _fails("inconsistent instance: edge (-1,2) out of range for n=3"),
        ),
        (b"mcvs 3 0 0 0\ne 0 1\n", _fails("header says 0 edges, found 1")),
        (b"mcvs 3 0 1 0\nt -0 02\n", b"mcvs 3 0 1 0\nt 0 2\n"),
        (
            "mcvs 3 1 0 0\n# \u00e9\ne 0 \u00b2\n".encode(),
            _fails("line 3: expected integer vertex ids"),
        ),
        (
            b"mcvs 3 1 0 0\ne 0 " + b"1" * 5000 + b"\n",
            _fails("line 2: integer vertex ids too long"),
        ),
    ],
}


def _adjacency(parsed):
    # ``==`` compares what the writers emit; the adjacency lists are built apart
    return parsed._blue_adj if isinstance(parsed, CorrelationGraph) else parsed._adj


def _outcome(parse, data):
    """What a parser returns, or the type and message of what it raises."""
    try:
        parsed = parse(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return parsed, _adjacency(parsed)


def _check_pinned(name, data, expected):
    """``data`` raises the pinned error, or reads as the pinned canonical document."""
    parse = FORMATS[name][0]
    if isinstance(expected, bytes):
        assert FORMATS[name][1](parse(expected)) == expected
        expected = _outcome(parse, expected)
    assert _outcome(parse, data) == expected, data


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_one_pass_parsers_match_references_on_fixed_documents(name):
    parse = FORMATS[name][0]
    docs = {"ccg": MALFORMED_CCG, "mcvs": MALFORMED_INSTANCES}[name]
    for data, expected in SEVERAL_FAULTS[name]:
        _check_pinned(name, data, expected)
    several = [data for data, _ in SEVERAL_FAULTS[name]]
    for data in docs + several + [FORMATS[name][1](FORMATS[name][2])]:
        assert _outcome(parse, data) == _outcome(REFERENCES[name], data), data


@pytest.mark.parametrize("name", sorted(REFERENCES))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(edits=EDITS)
def test_one_pass_parsers_match_references_on_corruptions(name, edits):
    parse, write, obj = FORMATS[name]
    data = _mutate(write(obj), edits)
    assert _outcome(parse, data) == _outcome(REFERENCES[name], data)


# One fault or one non-canonical spelling each, in an otherwise canonical
# document, with what it reads as (see SEVERAL_FAULTS): the bulk readers
# must pass every one to the fallback readers.
CCG_SINGLE = {
    "id out of range": (
        b"ccg 4 incomplete\ne 0 1 b\ne 1 9 r\n",
        _fails("inconsistent graph: edge (1,9) out of range for n=4"),
    ),
    "id equal to n": (
        b"ccg 4 complete\ne 0 1 b\ne 1 4 b\n",
        _fails("inconsistent graph: edge (1,4) out of range for n=4"),
    ),
    "self-loop": (
        b"ccg 4 incomplete\ne 0 1 b\ne 2 2 r\n",
        _fails("inconsistent graph: self-loop on vertex 2"),
    ),
    "u > v": (
        b"ccg 4 incomplete\ne 0 1 b\ne 3 1 r\n",
        b"ccg 4 incomplete\ne 0 1 b\ne 1 3 r\n",
    ),
    "same pair twice": (
        b"ccg 4 incomplete\ne 0 1 b\ne 0 1 b\ne 1 2 r\n",
        b"ccg 4 incomplete\ne 0 1 b\ne 1 2 r\n",
    ),
    "same pair reversed": (
        b"ccg 4 complete\ne 0 1 b\ne 1 0 b\n",
        b"ccg 4 complete\ne 0 1 b\n",
    ),
    "conflicting colours": (
        b"ccg 4 incomplete\ne 0 1 b\ne 0 1 r\n",
        _fails("inconsistent graph: conflicting colors for pair (0, 1)"),
    ),
    "red pair of a complete graph": (
        b"ccg 4 complete\ne 0 1 b\ne 1 2 r\ne 2 3 b\n",
        b"ccg 4 complete\ne 0 1 b\ne 2 3 b\n",
    ),
    "leading zeros": (
        b"ccg 4 incomplete\ne 0 01 b\ne 002 3 r\n",
        b"ccg 4 incomplete\ne 0 1 b\ne 2 3 r\n",
    ),
    "leading zero in n": (
        b"ccg 04 incomplete\ne 0 1 b\n",
        b"ccg 4 incomplete\ne 0 1 b\n",
    ),
    "5000-digit id": (
        b"ccg 4 complete\ne 0 " + b"1" * 5000 + b" b\n",
        _fails("line 2: integer vertex ids too long"),
    ),
    "n over the cap": (
        b"ccg 100001 complete\ne 0 1 b\n",
        _fails("line 1: vertex count 100001 exceeds the cap of 100000"),
    ),
    "n over the cap, no pairs": (
        b"ccg 100001 incomplete\n",
        _fails("line 1: vertex count 100001 exceeds the cap of 100000"),
    ),
    "missing final newline": (
        b"ccg 4 complete\ne 0 1 b\ne 2 3 b",
        b"ccg 4 complete\ne 0 1 b\ne 2 3 b\n",
    ),
    "missing final newline after a long colour": (
        b"ccg 4 complete\ne 0 1 bb",
        _fails("line 2: unknown color 'bb'"),
    ),
    "comment": (b"ccg 4 complete\n# c\ne 0 1 b\n", b"ccg 4 complete\ne 0 1 b\n"),
    "blank line": (b"ccg 4 complete\n\ne 0 1 b\n", b"ccg 4 complete\ne 0 1 b\n"),
    "two spaces": (b"ccg 4 complete\ne 0  1 b\n", b"ccg 4 complete\ne 0 1 b\n"),
    "CRLF": (b"ccg 4 complete\r\ne 0 1 b\r\n", b"ccg 4 complete\ne 0 1 b\n"),
    "sparse": (
        b"ccg 1000 incomplete\ne 0 999 r\n",
        b"ccg 1000 incomplete\ne 0 999 r\n",
    ),
    "str input": ("ccg 4 complete\ne 0 1 b\n", b"ccg 4 complete\ne 0 1 b\n"),
    "unknown colour": (
        b"ccg 4 incomplete\ne 0 1 n\n",
        _fails("line 2: unknown color 'n'"),
    ),
    "digit glued to a tag": (
        b"ccg 4 complete\ne 0 1 b\n0e 1 2 b\n",
        _fails("line 3: expected 'e <u> <v> b|r'"),
    ),
    "digit glued to a blue colour": (
        b"ccg 4 complete\ne 0 1 b\ne 1 2 b0\n",
        _fails("line 3: unknown color 'b0'"),
    ),
    "digit glued to a red colour": (
        b"ccg 4 incomplete\ne 0 1 b\ne 1 2 r0\n",
        _fails("line 3: unknown color 'r0'"),
    ),
    "empty id field": (
        b"ccg 4 complete\ne 0 1 b\ne 1  b\n",
        _fails("line 3: expected 'e <u> <v> b|r'"),
    ),
    "tab": (
        b"ccg 4 incomplete\ne 0 1 b\ne 1\t2 r\n",
        b"ccg 4 incomplete\ne 0 1 b\ne 1 2 r\n",
    ),
    "CRLF line end": (
        b"ccg 4 complete\ne 0 1 b\r\ne 2 3 b\n",
        b"ccg 4 complete\ne 0 1 b\ne 2 3 b\n",
    ),
    "comment lines before the header": (
        b"# budget 3\n#\nccg 4 complete\ne 0 1 b\n",
        b"ccg 4 complete\ne 0 1 b\n",
    ),
    "form feed in a comment before the header": (
        b"# c\x0ce 2 2 b\nccg 4 complete\ne 0 1 b\n",
        _fails("line 2: expected 'ccg <n> complete|incomplete'"),
    ),
    "carriage return in a comment before the header": (
        b"# c\re 2 2 b\nccg 4 complete\ne 0 1 b\n",
        _fails("line 2: expected 'ccg <n> complete|incomplete'"),
    ),
    "invalid UTF-8 in a comment before the header": (
        b"# \xff\nccg 4 complete\ne 0 1 b\n",
        _fails(
            "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 2: "
            "invalid start byte"
        ),
    ),
}

MCVS_SINGLE = {
    "id out of range": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 9\nt 0 2\n",
        _fails("inconsistent instance: edge (1,9) out of range for n=4"),
    ),
    "id equal to n": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 4\n",
        _fails("inconsistent instance: terminal pair (0,4) out of range for n=4"),
    ),
    "self-loop": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 1\nt 0 2\n",
        _fails("inconsistent instance: self-loop on vertex 1"),
    ),
    "degenerate terminal pair": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 3 3\n",
        _fails("inconsistent instance: terminal pair (3,3) is degenerate"),
    ),
    "u > v": (
        b"mcvs 4 2 1 0\ne 0 1\ne 2 1\nt 0 2\n",
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2\n",
    ),
    "same edge twice, counted once": (
        b"mcvs 4 2 1 0\ne 0 1\ne 0 1\ne 1 2\nt 0 2\n",
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2\n",
    ),
    "same edge twice, counted twice": (
        b"mcvs 4 3 1 0\ne 0 1\ne 0 1\ne 1 2\nt 0 2\n",
        _fails("header says 3 edges, found 2"),
    ),
    "same terminal pair twice": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2\nt 0 2\n",
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2\n",
    ),
    "leading zeros": (
        b"mcvs 4 2 1 0\ne 0 01\ne 1 2\nt 00 2\n",
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2\n",
    ),
    "5000-digit id": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 " + b"1" * 5000 + b"\n",
        _fails("line 4: integer vertex ids too long"),
    ),
    "n over the cap": (
        b"mcvs 100001 1 0 0\ne 0 1\n",
        _fails("line 1: vertex count 100001 exceeds the cap of 100000"),
    ),
    "t lines before e lines": (
        b"mcvs 4 2 1 0\nt 0 2\ne 0 1\ne 1 2\n",
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2\n",
    ),
    "wrong m": (
        b"mcvs 4 3 1 0\ne 0 1\ne 1 2\nt 0 2\n",
        _fails("header says 3 edges, found 2"),
    ),
    "wrong t": (
        b"mcvs 4 2 0 0\ne 0 1\ne 1 2\nt 0 2\n",
        _fails("header says 0 terminal pairs, found 1"),
    ),
    "m and t swapped": (
        b"mcvs 4 1 2 0\ne 0 1\ne 1 2\nt 0 2\n",
        _fails("header says 1 edges, found 2"),
    ),
    "edge and terminal pair": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 1\n",
        _fails("inconsistent instance: terminal pairs must not be edges"),
    ),
    "missing final newline": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2",
        b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2\n",
    ),
    "missing final newline after a long id": (
        b"mcvs 4 1 0 0\ne 0 12",
        _fails("inconsistent instance: edge (0,12) out of range for n=4"),
    ),
    "budget of 30 digits": (
        b"mcvs 4 1 0 " + b"9" * 30 + b"\ne 0 1\n",
        b"mcvs 4 1 0 " + b"9" * 30 + b"\ne 0 1\n",
    ),
    "comment": (b"mcvs 4 1 0 0\n# c\ne 0 1\n", b"mcvs 4 1 0 0\ne 0 1\n"),
    "sparse": (b"mcvs 1000 0 1 3\nt 5 999\n", b"mcvs 1000 0 1 3\nt 5 999\n"),
    "str input": ("mcvs 4 1 0 0\ne 0 1\n", b"mcvs 4 1 0 0\ne 0 1\n"),
    "digit glued to a tag": (
        b"mcvs 4 1 1 0\ne 0 1\nt0 1 2\n",
        _fails("line 3: expected 'e <u> <v>' or 't <u> <v>'"),
    ),
    "digit glued to the first tag": (
        b"mcvs 4 1 1 0\n0e 0 1\nt 1 2\n",
        _fails("line 2: expected 'e <u> <v>' or 't <u> <v>'"),
    ),
    "empty id field": (
        b"mcvs 4 2 1 0\ne 0 1\ne 1 \nt 0 2\n",
        _fails("line 3: expected 'e <u> <v>' or 't <u> <v>'"),
    ),
    "tab": (b"mcvs 4 1 1 0\ne 0\t1\nt 1 2\n", b"mcvs 4 1 1 0\ne 0 1\nt 1 2\n"),
    "CRLF line end": (
        b"mcvs 4 1 1 0\ne 0 1\r\nt 1 2\n",
        b"mcvs 4 1 1 0\ne 0 1\nt 1 2\n",
    ),
    "edge count beyond the document": (
        b"mcvs 3 999999999999999999 0 0\ne 0 1\n",
        _fails("header says 999999999999999999 edges, found 1"),
    ),
    "terminal count beyond the document": (
        b"mcvs 3 1 999999999999999999 0\ne 0 1\n",
        _fails("header says 999999999999999999 terminal pairs, found 0"),
    ),
}

SINGLE_FAULTS = {"ccg": CCG_SINGLE, "mcvs": MCVS_SINGLE}


@pytest.mark.parametrize(
    "name, fault",
    [(name, fault) for name in sorted(SINGLE_FAULTS) for fault in SINGLE_FAULTS[name]],
)
def test_bulk_readers_match_references_on_single_faults(name, fault):
    data, expected = SINGLE_FAULTS[name][fault]
    _check_pinned(name, data, expected)
    assert _outcome(FORMATS[name][0], data) == _outcome(REFERENCES[name], data)


def _corrupt_line(doc: bytes, rng: random.Random) -> bytes:
    """A writer's document with one pair line changed in one of several ways."""
    lines = doc.split(b"\n")
    i = rng.randrange(1, len(lines) - 1)
    fields = lines[i].split(b" ")
    n = int(lines[0].split(b" ")[1])
    choice = rng.randrange(6)
    if choice == 0:  # id out of range, or equal to n
        fields[rng.choice((1, 2))] = str(n + rng.choice((0, 5))).encode()
    elif choice == 1:  # self-loop
        fields[2] = fields[1]
    elif choice == 2:  # u > v
        fields[1], fields[2] = fields[2], fields[1]
    elif choice == 3:  # leading zero
        fields[2] = b"0" + fields[2]
    elif choice == 4:  # listed twice, maybe in another colour or kind
        lines.insert(i, lines[i])
        if len(fields) == 4:
            fields[3] = rng.choice((b"b", b"r"))
        else:
            fields[0] = rng.choice((b"e", b"t"))
    else:  # the line moves
        lines.insert(rng.randrange(1, len(lines) - 1), lines.pop(i))
        return b"\n".join(lines)
    lines[i] = b" ".join(fields)
    return b"\n".join(lines)


def test_bulk_readers_match_references_on_corrupted_lines():
    rng = random.Random(9)
    for seed in range(300):
        n = rng.randint(2, 12)
        complete = bool(seed % 2)
        g = gen_random(n, 0.5, 0.5 if complete else 0.3, complete=complete, seed=seed)
        for doc, name in (
            (write_graph(g), "ccg"),
            (write_multicut_instance(ccvs_to_mcvs(g, n)), "mcvs"),
        ):
            if doc.count(b"\n") < 2:
                continue
            data = _corrupt_line(doc, rng)
            expected = _outcome(REFERENCES[name], data)
            assert _outcome(FORMATS[name][0], data) == expected, data



def _refuse(data):
    raise AssertionError("a writer's document reached the line loop")


def test_writer_output_is_read_in_bulk(monkeypatch):
    """Writer output reaches no line loop, except sparse documents.

    A document with fewer fields than vertices is read line by line, because
    a table of n id spellings would cost more; the documents here are not.
    """
    graphs = [
        planted(300, 9, 8, 0, seed=3)[0],
        planted_incomplete(60, 5, seed=4)[0],
        complete_graph(0, []),
        complete_graph(7, []),
        incomplete_graph(0),
        incomplete_graph(7),
        gen_random(30, 0.5, 0.4, complete=False, seed=1),
    ]
    instances = [ccvs_to_mcvs(g, 3) for g in graphs[1:]] + [
        MulticutInstance(0, [], [], 0),
        MulticutInstance(5, [], [], 2),
        MulticutInstance(5, [(0, 1), (1, 4)], [], 0),
        MulticutInstance(5, [], [(3, 4), (0, 2)], 0),
    ]
    monkeypatch.setattr(splitclust.graphs, "_parse_graph_lines", _refuse)
    monkeypatch.setattr(splitclust.multicut, "_parse_instance_lines", _refuse)
    for g in graphs:
        assert _outcome(parse_graph, write_graph(g)) == (g, g._blue_adj)
    for inst in instances:
        data = write_multicut_instance(inst)
        assert _outcome(parse_multicut_instance, data) == (inst, inst._adj)
    with pytest.raises(AssertionError):
        parse_graph(b"ccg 3 complete\ne 1 0 b\n")


def test_reduced_documents_are_read_in_bulk(monkeypatch, tmp_path):
    """``reduce mcvs-to-ccvs`` output, led by ``# budget k``, reaches no line loop."""
    instances = [
        ccvs_to_mcvs(planted_incomplete(60, 5, seed=4)[0], 3),
        MulticutInstance(5, [(0, 1), (1, 4)], [(3, 4)], 0),
        MulticutInstance(0, [], [], 2),
    ]
    monkeypatch.setattr(splitclust.graphs, "_parse_graph_lines", _refuse)
    path = tmp_path / "in.mcvs"
    for inst in instances:
        path.write_bytes(write_multicut_instance(inst))
        out = io.StringIO()
        assert run(["reduce", "mcvs-to-ccvs", str(path)], None, out, io.StringIO()) == 0
        assert out.getvalue().startswith(f"# budget {inst.k}\n")
        g = mcvs_to_ccvs(inst)[0]
        assert _outcome(parse_graph, out.getvalue().encode()) == (g, g._blue_adj)


def _pair_list(rng: random.Random, ids: list[int], count: int) -> list[tuple[int, int]]:
    """Random pairs of distinct ids, in either order, some listed twice."""
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(count)]
    return pairs + rng.sample(pairs, len(pairs) // 4)


def test_writers_match_sorting_writers():
    rng = random.Random(5)
    cases = 0
    for seed in range(150):
        n = rng.choice([0, 1, 2, rng.randint(3, 40), rng.randint(10_000, 10_050)])
        # ids at and above 10 000 sort differently as strings and as ints
        ids = list(range(n)) if n < 10_000 else [*range(20), *range(9_990, n)]
        pairs = _pair_list(rng, ids, rng.randint(0, 60)) if n >= 2 else []
        blue = [p for p in pairs if sum(p) % 3]
        red = [p for p in pairs if not sum(p) % 3 and {p, p[::-1]}.isdisjoint(blue)]
        for g in (complete_graph(n, blue), incomplete_graph(n, blue, red)):
            assert write_graph(g) == sorting_write_graph(g)
            assert parse_graph(write_graph(g)) == g
        inst = MulticutInstance(n, blue, red, rng.randint(0, 10 ** rng.randint(0, 25)))
        assert write_multicut_instance(inst) == sorting_write_multicut_instance(inst)
        assert parse_multicut_instance(write_multicut_instance(inst)) == inst
        cases += bool(pairs)
    # pairs stored in hash order, where the sorting writers sort tuples
    for g, f in (planted(200, 7, 6, 0, seed=2), planted_incomplete(50, 4, seed=2)):
        inst = ccvs_to_mcvs(g, 4)
        read = parse_multicut_instance(write_multicut_instance(inst))
        for h in (g, mcvs_to_ccvs(read)[0], clustering_to_splits(g, f).base):
            assert write_graph(h) == sorting_write_graph(h)
        for i in (inst, read):
            assert write_multicut_instance(i) == sorting_write_multicut_instance(i)
    assert cases >= 70


def test_pair_columns_refuse_an_empty_field():
    """An empty field would shift every later column, so it is refused."""
    columns = splitclust.graphs._pair_columns
    assert columns(b"e 0 1 b\ne 2  b\n", 3, b"e   b\ne   b\n", 4) is None
    assert columns(b"e 0 1\nt 2 \n", 3, b"e  \nt  \n", 3) is None


def test_sparse_bodies_are_not_tabled():
    """A body with fewer fields than n is left to the fallback reader.

    Its id table would cost O(n) against O(body) for the fallback: at n =
    MAX_VERTICES it would add 46-58 ms to a two-line document that the
    fallback reads in 13-16 ms (Python 3.11, 2-vCPU Xeon).
    """
    columns = splitclust.graphs._pair_columns
    assert columns(b"e 0 1 b\n", 4, b"e   b\n", 4) == ([0], [1], [b"b"])
    assert columns(b"e 0 1 b\n", 5, b"e   b\n", 4) is None
    tracemalloc.start()
    try:
        assert columns(b"", 100_000, b"", 4) == ([], [], [])
        # header counts far beyond the document build no shape either
        huge = b"mcvs 3 " + b"9" * 18 + b" 0 0\ne 0 1\n"
        assert splitclust.multicut._bulk_instance(huge) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a table of 100 000 spellings takes megabytes
