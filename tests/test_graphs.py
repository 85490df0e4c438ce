"""Graph type, components, decomposition, and the ccg text format."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from splitclust import (
    BLUE,
    NEUTRAL,
    RED,
    Clustering,
    CorrelationGraph,
    FormatError,
    MulticutInstance,
    blue_components,
    cluster_decomposition,
    clustering_to_splits,
    complete_graph,
    find_bad_triangle,
    gen_random,
    incomplete_graph,
    parse_graph,
    write_graph,
)
from oracles import on_induced_subgraph

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])


def test_default_labels():
    g = complete_graph(3, [(0, 1)])
    assert g.label(0, 1) is BLUE
    assert g.label(1, 0) is BLUE
    assert g.label(0, 2) is RED
    h = incomplete_graph(3, blue=[(0, 1)], red=[(1, 2)])
    assert h.label(0, 1) is BLUE
    assert h.label(1, 2) is RED
    assert h.label(0, 2) is NEUTRAL
    for graph in (g, h):
        with pytest.raises(ValueError, match="^self-loop on vertex 0$"):
            graph.label(0, 0)
        for u, v, bad in ((0, 3, 3), (-1, 0, -1), (0, 1.0, 1.0), (0.5, 1, 0.5), (True, 2, True)):
            message = f"vertex of pair ({u!r},{v!r}) must be a non-negative integer below 3, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                graph.label(u, v)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        CorrelationGraph(2, [(0, 2, BLUE)], complete=True)
    with pytest.raises(ValueError):
        CorrelationGraph(2, [(0, 0, BLUE)], complete=True)
    with pytest.raises(ValueError):
        CorrelationGraph(2, [(0, 1, NEUTRAL)], complete=True)
    with pytest.raises(ValueError):
        CorrelationGraph(2, [(0, 1, BLUE), (1, 0, RED)], complete=True)
    with pytest.raises(ValueError):
        CorrelationGraph(-1, [], complete=True)
    with pytest.raises(ValueError):
        CorrelationGraph(100_001, [], complete=True)

    def refused(u, v, bad):
        message = f"vertex of pair ({u!r},{v!r}) must be a non-negative integer below 3, got {bad!r}"
        return pytest.raises(ValueError, match=f"^{re.escape(message)}$")

    # ids must be ints: a float red pair used to be stored, a blue one raised TypeError
    for bad in (1.5, 1.0, "1", None):
        for color in (BLUE, RED):
            with refused(0, bad, bad):
                CorrelationGraph(3, [(0, bad, color)], complete=False)
            with refused(bad, 2, bad):
                CorrelationGraph(3, [(bad, 2, color)], complete=True)
    # bool is an int, but a graph holding one would be written as "e 0 True b"
    with refused(0, True, True):
        CorrelationGraph(3, [(0, True, BLUE)], complete=True)
    with refused(False, 2, False):
        CorrelationGraph(3, [(False, 2, RED)], complete=False)
    with pytest.raises(ValueError):
        CorrelationGraph(True, [], complete=True)


def test_equality_ignores_listing_of_default_colors():
    a = CorrelationGraph(3, [(0, 1, BLUE), (0, 2, RED)], complete=True)
    b = complete_graph(3, [(0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    # same labels, different kind: not equal
    c = incomplete_graph(3, blue=[(0, 1)], red=[(0, 2), (1, 2)])
    assert a != c


def test_neutral_edges_normalized_away():
    g = CorrelationGraph(3, [(0, 1, NEUTRAL)], complete=False)
    assert g == incomplete_graph(3)


def test_parse_minimal_complete():
    g = parse_graph(b"ccg 3 complete\ne 0 1 b\ne 1 2 b\n")
    assert g == BAD_TRIANGLE
    assert g.label(0, 2) is RED


def test_parse_comments_blanks_and_duplicates():
    text = """
# a comment
ccg 3 incomplete

e 0 1 b
# another
e 0 1 b
e 2 1 r
"""
    g = parse_graph(text)
    assert g == incomplete_graph(3, blue=[(0, 1)], red=[(1, 2)])


def test_parse_explicit_red_in_complete_graph():
    g = parse_graph(b"ccg 3 complete\ne 0 1 b\ne 0 2 r\n")
    assert g == complete_graph(3, [(0, 1)])


MALFORMED = [
    b"",
    b"ccg 3\n",
    b"ccg three complete\n",
    b"ccg -1 complete\n",
    b"ccg 3 total\n",
    b"ccg 100001 complete\n",
    b"ccg 3 complete\ne 0 3 b\n",
    b"ccg 3 complete\ne 0 0 b\n",
    b"ccg 3 complete\ne 0 1 g\n",
    b"ccg 3 complete\ne 0 1\n",
    b"ccg 3 complete\nx 0 1 b\n",
    b"ccg 3 complete\ne 0 1 b\ne 1 0 r\n",
    b"clustering 1\nc 0\n",
    # integer fields are ASCII digits with an optional leading '-'
    b"ccg +3 complete\n",
    b"ccg 12 complete\ne 0 1_1 b\n",
    "ccg 3 complete\ne \u0660 1 b\n".encode(),
    # fields over int()'s 4300-digit limit
    b"ccg " + b"1" * 5000 + b" complete\n",
    b"ccg 3 complete\ne 0 " + b"1" * 5000 + b" b\n",
]


@pytest.mark.parametrize("doc", MALFORMED)
def test_parse_rejects_malformed(doc):
    with pytest.raises(FormatError):
        parse_graph(doc)


def test_write_canonical_form():
    g = CorrelationGraph(4, [(2, 1, BLUE), (0, 3, RED), (0, 1, BLUE)], complete=False)
    assert write_graph(g) == b"ccg 4 incomplete\ne 0 1 b\ne 0 3 r\ne 1 2 b\n"
    assert write_graph(BAD_TRIANGLE) == b"ccg 3 complete\ne 0 1 b\ne 1 2 b\n"


def test_write_parse_round_trip_is_stable():
    g = complete_graph(5, [(0, 4), (1, 2), (2, 3)])
    doc = write_graph(g)
    assert parse_graph(doc) == g
    assert write_graph(parse_graph(doc)) == doc


@given(st.integers(0, 10_000), st.booleans())
def test_round_trip_random(seed, complete):
    if complete:
        g = gen_random(6, 0.5, 0.5, complete=True, seed=seed)
    else:
        g = gen_random(6, 0.4, 0.3, complete=False, seed=seed)
    assert parse_graph(write_graph(g)) == g


def test_blue_components():
    g = complete_graph(6, [(0, 1), (1, 2), (4, 5)])
    assert blue_components(g) == [[0, 1, 2], [3], [4, 5]]
    assert on_induced_subgraph(blue_components, g, [0, 2, 3]) == [[0], [2], [3]]


def test_cluster_decomposition():
    g = complete_graph(5, [(0, 1), (3, 4)])
    assert cluster_decomposition(g) == [
        frozenset({0, 1}),
        frozenset({2}),
        frozenset({3, 4}),
    ]
    assert cluster_decomposition(BAD_TRIANGLE) is None
    # restricting can make the rest a cluster graph
    assert on_induced_subgraph(cluster_decomposition, BAD_TRIANGLE, [0, 2]) == [
        frozenset({0}),
        frozenset({2}),
    ]


@given(st.integers(0, 2_000))
def test_decomposition_iff_no_bad_triangle_on_complete(seed):
    g = gen_random(6, 0.5, 0.5, complete=True, seed=seed)
    has_decomposition = cluster_decomposition(g) is not None
    assert has_decomposition == (find_bad_triangle(g) is None)


def test_induced_subgraph():
    g = complete_graph(5, [(0, 1), (1, 2), (3, 4)])
    sub, id_map = g.induced_subgraph([1, 2, 4])
    assert id_map == (1, 2, 4)
    assert sub == complete_graph(3, [(0, 1)])
    assert sub.label(0, 2) is RED
    for bad in ([5], [9], [-1, 0], [0, 1.5], [0, 1.5, 2], [True], [1, True]):
        with pytest.raises(ValueError):
            g.induced_subgraph(bad)


def test_complete_graph_built_four_ways_has_one_hash():
    """The constructor, the bulk reader, ``induced_subgraph`` and a split graph."""
    g = complete_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    read = parse_graph(write_graph(g))
    larger = complete_graph(
        7, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 4), (3, 5), (5, 6)]
    )
    sub, _ = larger.induced_subgraph([1, 2, 4, 5, 6])
    # vertex 2 lies in both clusters: copies 2 and 3, one per cluster
    h = complete_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    base = clustering_to_splits(h, Clustering([{0, 1, 2}, {2, 3}])).base
    for other in (read, sub, base):
        assert other == g and hash(other) == hash(g)
        assert other._blue_adj == g._blue_adj and other._red_adj is None
    assert incomplete_graph(5, blue=g.blue_edges()) != g


@given(st.integers(0, 14), st.integers(0, 10_000), st.booleans())
def test_complete_label_agrees_with_blue_edges(n, seed, complete):
    """Both kinds bisect rows; a pair on neither row reads NEUTRAL."""
    g = gen_random(n, 0.5, 0.5 if complete else 0.3, complete=complete, seed=seed)
    blue = set(g.blue_edges())
    red = set(g.red_edges())
    assert blue.isdisjoint(red)
    for u in range(n):
        for v in range(n):
            if u != v:
                pair = (min(u, v), max(u, v))
                want = BLUE if pair in blue else RED if pair in red else NEUTRAL
                assert g.label(u, v) is want
                assert want is not NEUTRAL or not complete
    assert g.count_colors() == (len(blue), len(red))


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, -1, 3, "1", None])
def test_vertex_accessors_refuse_what_is_not_a_vertex_id(bad):
    """``bool`` ids would read as vertex 0 or 1, and floats as list indices."""
    path = [(0, 1), (1, 2)]
    g = incomplete_graph(3, blue=path)
    inst = MulticutInstance(3, path, [(0, 2)], 0)
    r = clustering_to_splits(complete_graph(3, path), Clustering([{0, 1}, {1, 2}]))
    for accessor in (g.blue_neighbors, inst.neighbors, r.descendants):
        with pytest.raises(ValueError):
            accessor(bad)


def test_count_colors():
    assert BAD_TRIANGLE.count_colors() == (2, 1)
    g = incomplete_graph(4, blue=[(0, 1)], red=[(2, 3), (1, 2)])
    assert g.count_colors() == (1, 2)
