"""Byte-level fuzzing of the five text formats.

Each format starts from a canonical document produced by its writer.
Random deletions, insertions and replacements drawn from the bytes that
matter to the grammars (digits, ``-``, ``|``, ``:``, spaces, newlines and
invalid UTF-8) must either parse or raise ``FormatError``; whatever parses
must survive a write and a second parse unchanged.  Examples are
derandomized and bounded so the suite stays fast and repeatable.

The one-pass ``ccg`` and ``mcvs`` parsers are also run against their
two-pass references in ``oracles`` on these corruptions, on the
malformed-document lists of their own tests and on documents with several
faults: each must return an equal object or raise the same error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from splitclust import (
    Clustering,
    CorrelationGraph,
    FormatError,
    KernelTranscript,
    MulticutInstance,
    MulticutSolution,
    incomplete_graph,
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
from oracles import two_pass_parse_graph, two_pass_parse_multicut_instance
from test_graphs import MALFORMED as MALFORMED_CCG
from test_multicut import MALFORMED_INSTANCES


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


REFERENCES = {
    "ccg": two_pass_parse_graph,
    "mcvs": two_pass_parse_multicut_instance,
}

# Documents with more than one fault, in every order: syntax errors come
# first wherever they are, then the first semantic fault (for mcvs the
# first among edges, then among terminal pairs, then a pair that is both).
SEVERAL_FAULTS = {
    "ccg": [
        b"ccg 3 complete\ne 0 3 b\ne 0 1 x\n",
        b"ccg 3 complete\ne 0 0 b\ne 0 q b\n",
        b"ccg 3 complete\ne 0 1 b\ne 1 0 r\ne 2 2 b\n",
        b"ccg 3 complete\ne 0 1 b\ne 1 0 r\ne 0 q b\n",
        b"ccg 3 complete\ne 2 2 b\ne 0 1 b\ne 1 0 r\n",
        b"ccg 3 incomplete\ne -1 2 r\ne 0 5 b\n",
        b"ccg 3 incomplete\ne 0 1 r\ne 1 0 r\ne 0 2 b\n",
        b"ccg 3 complete\ne 0 1 r\ne 1 0 b\n",
        b"ccg 3 complete\ne 0 1 r\ne 0 2 r\n",
        b"ccg 3 complete\ne -0 02 b\n",
        "ccg 3 complete\n# \u00e9\ne 0 1 b\ne 2 -1 b\n".encode(),
        "ccg 3 complete\n# \u00e9\ne 0 \u00b2 b\n".encode(),
        b"ccg 3 complete\ne 0 " + b"1" * 5000 + b" b\n",
    ],
    "mcvs": [
        b"mcvs 3 1 1 0\nt 0 3\ne 1 1\n",
        b"mcvs 3 1 1 0\nt 0 0\ne 0 1\n",
        b"mcvs 3 1 1 0\nt 0 1\ne 1 0\n",
        b"mcvs 3 1 1 0\ne 0 5\ne 0 q\n",
        b"mcvs 3 1 1 0\nt 1 1\nx 0 1\n",
        b"mcvs 3 1 1 0\ne 0 1\nt 0 1\ne 0 q\n",
        b"mcvs 3 2 1 0\ne 0 1\ne 1 0\nt 0 2\n",
        b"mcvs 3 1 2 0\ne 0 1\nt 0 2\nt 2 0\n",
        b"mcvs 3 1 1 0\nt 2 -1\ne -1 2\n",
        b"mcvs 3 0 0 0\ne 0 1\n",
        b"mcvs 3 0 1 0\nt -0 02\n",
        "mcvs 3 1 0 0\n# \u00e9\ne 0 \u00b2\n".encode(),
        b"mcvs 3 1 0 0\ne 0 " + b"1" * 5000 + b"\n",
    ],
}


def _outcome(parse, data):
    """What a parser returns, or the type and message of what it raises."""
    try:
        parsed = parse(data)
    except ValueError as exc:
        return type(exc), str(exc)
    # ``==`` compares what the writers emit; the adjacency lists are built apart
    adjacency = parsed._blue_adj if isinstance(parsed, CorrelationGraph) else parsed._adj
    return parsed, adjacency


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_one_pass_parsers_match_references_on_fixed_documents(name):
    parse = FORMATS[name][0]
    docs = {"ccg": MALFORMED_CCG, "mcvs": MALFORMED_INSTANCES}[name]
    for data in docs + SEVERAL_FAULTS[name] + [FORMATS[name][1](FORMATS[name][2])]:
        assert _outcome(parse, data) == _outcome(REFERENCES[name], data), data


@pytest.mark.parametrize("name", sorted(REFERENCES))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(edits=EDITS)
def test_one_pass_parsers_match_references_on_corruptions(name, edits):
    parse, write, obj = FORMATS[name]
    data = _mutate(write(obj), edits)
    assert _outcome(parse, data) == _outcome(REFERENCES[name], data)
