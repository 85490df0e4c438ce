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

Canonical documents, exactly as the writers emit them, are read in bulk;
everything else goes through the line loops.  Documents in canonical shape
with one fault or one non-canonical spelling check that the bulk path
hands each of them to the line loop, which must agree with the references;
a guard makes the line loops raise to check that writer output never
reaches them.  The writers must emit the same bytes as the sorting
writers in ``oracles``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import splitclust.graphs
import splitclust.multicut

from splitclust import (
    Clustering,
    CorrelationGraph,
    FormatError,
    KernelTranscript,
    MulticutInstance,
    MulticutSolution,
    ccvs_to_mcvs,
    complete_graph,
    gen_random,
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
from oracles import (
    sorting_write_graph,
    sorting_write_multicut_instance,
    two_pass_parse_graph,
    two_pass_parse_multicut_instance,
)
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


# One fault or one non-canonical spelling each, in an otherwise canonical
# document: the bulk readers must pass every one to the line loops.
CCG_SINGLE = {
    "id out of range": b"ccg 4 incomplete\ne 0 1 b\ne 1 9 r\n",
    "id equal to n": b"ccg 4 complete\ne 0 1 b\ne 1 4 b\n",
    "self-loop": b"ccg 4 incomplete\ne 0 1 b\ne 2 2 r\n",
    "u > v": b"ccg 4 incomplete\ne 0 1 b\ne 3 1 r\n",
    "same pair twice": b"ccg 4 incomplete\ne 0 1 b\ne 0 1 b\ne 1 2 r\n",
    "same pair reversed": b"ccg 4 complete\ne 0 1 b\ne 1 0 b\n",
    "conflicting colours": b"ccg 4 incomplete\ne 0 1 b\ne 0 1 r\n",
    "red pair of a complete graph": b"ccg 4 complete\ne 0 1 b\ne 1 2 r\ne 2 3 b\n",
    "leading zeros": b"ccg 4 incomplete\ne 0 01 b\ne 002 3 r\n",
    "leading zero in n": b"ccg 04 incomplete\ne 0 1 b\n",
    "5000-digit id": b"ccg 4 complete\ne 0 " + b"1" * 5000 + b" b\n",
    "n over the cap": b"ccg 100001 complete\ne 0 1 b\n",
    "n over the cap, no pairs": b"ccg 100001 incomplete\n",
    "missing final newline": b"ccg 4 complete\ne 0 1 b\ne 2 3 b",
    "missing final newline after a long colour": b"ccg 4 complete\ne 0 1 bb",
    "comment": b"ccg 4 complete\n# c\ne 0 1 b\n",
    "blank line": b"ccg 4 complete\n\ne 0 1 b\n",
    "two spaces": b"ccg 4 complete\ne 0  1 b\n",
    "CRLF": b"ccg 4 complete\r\ne 0 1 b\r\n",
    "sparse": b"ccg 1000 incomplete\ne 0 999 r\n",
    "str input": "ccg 4 complete\ne 0 1 b\n",
    "unknown colour": b"ccg 4 incomplete\ne 0 1 n\n",
}

MCVS_SINGLE = {
    "id out of range": b"mcvs 4 2 1 0\ne 0 1\ne 1 9\nt 0 2\n",
    "id equal to n": b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 4\n",
    "self-loop": b"mcvs 4 2 1 0\ne 0 1\ne 1 1\nt 0 2\n",
    "degenerate terminal pair": b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 3 3\n",
    "u > v": b"mcvs 4 2 1 0\ne 0 1\ne 2 1\nt 0 2\n",
    "same edge twice, counted once": b"mcvs 4 2 1 0\ne 0 1\ne 0 1\ne 1 2\nt 0 2\n",
    "same edge twice, counted twice": b"mcvs 4 3 1 0\ne 0 1\ne 0 1\ne 1 2\nt 0 2\n",
    "same terminal pair twice": b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2\nt 0 2\n",
    "leading zeros": b"mcvs 4 2 1 0\ne 0 01\ne 1 2\nt 00 2\n",
    "5000-digit id": b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 " + b"1" * 5000 + b"\n",
    "n over the cap": b"mcvs 100001 1 0 0\ne 0 1\n",
    "t lines before e lines": b"mcvs 4 2 1 0\nt 0 2\ne 0 1\ne 1 2\n",
    "wrong m": b"mcvs 4 3 1 0\ne 0 1\ne 1 2\nt 0 2\n",
    "wrong t": b"mcvs 4 2 0 0\ne 0 1\ne 1 2\nt 0 2\n",
    "m and t swapped": b"mcvs 4 1 2 0\ne 0 1\ne 1 2\nt 0 2\n",
    "edge and terminal pair": b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 1\n",
    "missing final newline": b"mcvs 4 2 1 0\ne 0 1\ne 1 2\nt 0 2",
    "missing final newline after a long id": b"mcvs 4 1 0 0\ne 0 12",
    "budget of 30 digits": b"mcvs 4 1 0 " + b"9" * 30 + b"\ne 0 1\n",
    "comment": b"mcvs 4 1 0 0\n# c\ne 0 1\n",
    "sparse": b"mcvs 1000 0 1 3\nt 5 999\n",
    "str input": "mcvs 4 1 0 0\ne 0 1\n",
}

SINGLE_FAULTS = {"ccg": CCG_SINGLE, "mcvs": MCVS_SINGLE}


@pytest.mark.parametrize(
    "name, fault",
    [(name, fault) for name in sorted(SINGLE_FAULTS) for fault in SINGLE_FAULTS[name]],
)
def test_bulk_readers_match_references_on_single_faults(name, fault):
    data = SINGLE_FAULTS[name][fault]
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
    for g in (planted(200, 7, 6, 0, seed=2)[0], planted_incomplete(50, 4, seed=2)[0]):
        assert write_graph(g) == sorting_write_graph(g)
        inst = ccvs_to_mcvs(g, 4)
        assert write_multicut_instance(inst) == sorting_write_multicut_instance(inst)
    assert cases >= 70


def test_sparse_bodies_are_not_tabled():
    """A body with fewer fields than n is left to the line loop.

    Its id table would cost O(n) against O(body) for the loop: at n =
    MAX_VERTICES it would add about 30 ms to a two-line document that the
    line loop reads in 16 ms.
    """
    columns = splitclust.graphs._pair_columns
    assert columns(b"e 0 1 b\n", 4, 4) == ([0], [1], [b"b"])
    assert columns(b"e 0 1 b\n", 5, 4) is None
    assert columns(b"", 100_000, 4) == ([], [], [])
