"""Byte-level fuzzing of the five text formats.

Each format starts from a canonical document produced by its writer.
Random deletions, insertions and replacements drawn from the bytes that
matter to the grammars (digits, ``-``, ``|``, ``:``, spaces, newlines and
invalid UTF-8) must either parse or raise ``FormatError``; whatever parses
must survive a write and a second parse unchanged.  Examples are
derandomized and bounded so the suite stays fast and repeatable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from splitclust import (
    Clustering,
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
