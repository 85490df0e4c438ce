"""Clusterings: cost, validation, clu format, split conversions."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import splitclust.clustering
import splitclust.graphs
import splitclust.multicut
from splitclust import (
    BLUE,
    RED,
    Clustering,
    CorrelationGraph,
    FormatError,
    MulticutSolution,
    RealizedGraph,
    SearchBudget,
    ccvs_to_mcvs,
    clustering_to_multicut_solution,
    clustering_to_splits,
    complete_graph,
    cost,
    gen_random,
    has_erroneous_cycle,
    incomplete_graph,
    multicut_solution_to_clustering,
    parse_clustering,
    solve_exact,
    splits_to_clustering,
    verify_clustering,
    write_clustering,
)

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])
TRIANGLE_SOLUTION = Clustering([{0, 1}, {1, 2}])


def test_clustering_type():
    f = Clustering([[1, 0], (2,)])
    assert f.clusters == (frozenset({0, 1}), frozenset({2}))
    assert len(f) == 2
    assert f[0] == {0, 1}
    with pytest.raises(ValueError):
        Clustering([[0], []])
    with pytest.raises(ValueError):
        Clustering([[-1]])
    # ids are ints but not bools, which would be written as "c True"
    for bad in (True, False, 1.0, "1"):
        with pytest.raises(ValueError):
            Clustering([[0], [bad, 2]])


def test_cost():
    assert cost(TRIANGLE_SOLUTION, 3) == 1
    assert cost(Clustering([{0, 1, 2}]), 3) == 0
    assert cost(Clustering([{0}, {0}, {0}]), 1) == 2
    with pytest.raises(ValueError):
        cost(Clustering([{0}]), 2)  # vertex 1 uncovered


def test_cost_invariant_under_cluster_order():
    f = Clustering([{0, 1}, {1, 2}, {2}])
    g = Clustering([{2}, {1, 2}, {0, 1}])
    assert cost(f, 3) == cost(g, 3)


def test_verify_valid():
    report = verify_clustering(BAD_TRIANGLE, TRIANGLE_SOLUTION)
    assert report.ok
    assert report.uncovered_blue == ()
    assert report.unresolved_red == ()
    assert report.uncovered_vertices == ()
    assert str(report) == "valid"


def test_verify_unresolved_red():
    report = verify_clustering(BAD_TRIANGLE, Clustering([{0, 1, 2}]))
    assert not report.ok
    assert report.unresolved_red == ((0, 2),)
    assert report.uncovered_blue == ()


def test_verify_uncovered():
    report = verify_clustering(BAD_TRIANGLE, Clustering([{0}, {2}]))
    assert report.uncovered_vertices == (1,)
    assert report.uncovered_blue == ((0, 1), (1, 2))
    # red (0, 2): distinct clusters, resolved
    assert report.unresolved_red == ()
    # the words of ``splitclust verify``, also in the library's errors
    text = "uncovered-vertex 1, uncovered-blue 0 1, uncovered-blue 1 2"
    assert str(report) == text
    with pytest.raises(ValueError, match=f"^clustering is not valid for the graph: {text}$"):
        clustering_to_splits(BAD_TRIANGLE, Clustering([{0}, {2}]))


def test_verify_duplicate_clusters_resolve_red():
    g = complete_graph(2, [])
    report = verify_clustering(g, Clustering([{0, 1}, {0, 1}]))
    assert report.ok


def test_verify_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_clustering(BAD_TRIANGLE, Clustering([{0, 1, 2, 3}]))


def test_clu_round_trip():
    doc = b"clustering 2\nc 0 1\nc 1 2\n"
    f = parse_clustering(doc)
    assert f == TRIANGLE_SOLUTION
    assert write_clustering(f) == doc
    assert write_clustering(parse_clustering(write_clustering(f))) == write_clustering(f)


def test_clu_preserves_cluster_order():
    doc = b"clustering 2\nc 2 5\nc 0 1\n"
    assert write_clustering(parse_clustering(doc)) == doc


@pytest.mark.parametrize(
    "doc",
    [
        b"",
        b"clustering\n",
        b"clustering x\n",
        b"clustering -1\n",
        b"clustering 2\nc 0 1\n",
        b"clustering 1\nc 0 1\nc 2\n",
        b"clustering 1\nc\n",
        b"clustering 1\nc 1 0\n",
        b"clustering 1\nc 0 0\n",
        b"clustering 1\nc -2\n",
        b"clustering 1\nd 0\n",
        b"ccg 2 complete\n",
        b"clustering 1\nc +0\n",
        b"clustering 1\nc 1_0\n",
        "clustering 1\nc \u0663\n".encode(),
        b"clustering " + b"1" * 5000 + b"\n",
        b"clustering 1\nc " + b"1" * 5000 + b"\n",
    ],
)
def test_clu_rejects_malformed(doc):
    with pytest.raises(FormatError):
        parse_clustering(doc)


def test_has_erroneous_cycle():
    assert has_erroneous_cycle(BAD_TRIANGLE)
    assert not has_erroneous_cycle(complete_graph(3, [(0, 1)]))
    # long cycle: blue path 0-1-2-3 closed by one red edge
    g = incomplete_graph(4, blue=[(0, 1), (1, 2), (2, 3)], red=[(0, 3)])
    assert has_erroneous_cycle(g)
    assert not has_erroneous_cycle(incomplete_graph(4, blue=[(0, 1)], red=[(2, 3)]))


def test_split_readers_label_blue_components_once(monkeypatch):
    # the erroneous-cycle test and the clusters share one labelling:
    # splits_to_clustering labels the split graph with _blue_labels, and
    # multicut_solution_to_clustering labels the copies with _split_components
    # and never builds the split graph
    labelled = []
    real = splitclust.graphs._blue_labels
    real_split = splitclust.multicut._split_components

    def counting(g):
        labelled.append(("_blue_labels", g.n))
        return real(g)

    def counting_split(inst, sol):
        labelled.append(("_split_components", inst.n))
        return real_split(inst, sol)

    for module in (splitclust.graphs, splitclust.clustering):
        monkeypatch.setattr(module, "_blue_labels", counting)
    monkeypatch.setattr(splitclust.multicut, "_split_components", counting_split)
    incomplete = incomplete_graph(3, blue=[(0, 1), (1, 2)], red=[(0, 2)])
    for g in (BAD_TRIANGLE, incomplete):
        r = clustering_to_splits(g, TRIANGLE_SOLUTION)
        inst = ccvs_to_mcvs(g, 1)
        sol = clustering_to_multicut_solution(g, TRIANGLE_SOLUTION)
        labelled.clear()
        assert splits_to_clustering(r) == TRIANGLE_SOLUTION
        assert labelled == [("_blue_labels", 4)]
        labelled.clear()
        assert multicut_solution_to_clustering(inst, sol) == TRIANGLE_SOLUTION
        assert labelled == [("_split_components", 3)]
    labelled.clear()
    with pytest.raises(ValueError, match="^realized graph has an erroneous cycle$"):
        splits_to_clustering(RealizedGraph(BAD_TRIANGLE, [0, 1, 2], 3))
    with pytest.raises(ValueError, match="^solution does not separate all terminal pairs$"):
        multicut_solution_to_clustering(ccvs_to_mcvs(BAD_TRIANGLE, 1), MulticutSolution({}))
    assert labelled == [("_blue_labels", 3), ("_split_components", 3)]


def test_clustering_to_splits_on_triangle():
    r = clustering_to_splits(BAD_TRIANGLE, TRIANGLE_SOLUTION)
    # descendants in (vertex, cluster) order: 0@0, 1@0, 1@1, 2@1
    assert r.ancestors == (0, 1, 1, 2)
    assert r.original_n == 3
    assert r.split_count == 1
    assert r.base.complete
    assert r.base.blue_edges() == [(0, 1), (2, 3)]
    assert not has_erroneous_cycle(r.base)
    assert r.descendants(1) == [1, 2]


def test_clustering_to_splits_incomplete_keeps_neutral():
    g = incomplete_graph(3, blue=[(0, 1), (1, 2)], red=[(0, 2)])
    r = clustering_to_splits(g, TRIANGLE_SOLUTION)
    assert r.ancestors == (0, 1, 1, 2)
    assert r.base.blue_edges() == [(0, 1), (2, 3)]
    # copies of 1 are red; the red ancestor pair (0, 2) stays red
    assert r.base.red_edges() == [(0, 3), (1, 2)]
    assert not has_erroneous_cycle(r.base)


def test_clustering_to_splits_rejects_invalid():
    with pytest.raises(ValueError):
        clustering_to_splits(BAD_TRIANGLE, Clustering([{0, 1, 2}]))


def test_realized_graph_validation():
    base = complete_graph(2, [])
    with pytest.raises(ValueError):
        RealizedGraph(base, (0,), 2)  # wrong length
    with pytest.raises(ValueError):
        RealizedGraph(base, (0, 0), 2)  # vertex 1 has no descendant
    with pytest.raises(ValueError):
        RealizedGraph(base, (0, 2), 2)  # ancestor out of range


# the rule each case breaks, named apart from the wording of its error
ANCESTORS = "ancestors must be integers"
ORIGINAL_N = "original vertex count must be an integer"


@pytest.mark.parametrize(
    "ancestors, original_n, rule, message",
    [
        ((0.0, 1), 2, ANCESTORS, "ancestor must be a non-negative integer below 2, got 0.0"),
        ((0, 1.0), 2, ANCESTORS, "ancestor must be a non-negative integer below 2, got 1.0"),
        ((False, 1), 2, ANCESTORS, "ancestor must be a non-negative integer below 2, got False"),
        ((0, True), 2, ANCESTORS, "ancestor must be a non-negative integer below 2, got True"),
        ((0, "1"), 2, ANCESTORS, "ancestor must be a non-negative integer below 2, got '1'"),
        ((0, 1), 2.0, ORIGINAL_N, "original_n must be a non-negative integer, got 2.0"),
        ((0, 1), True, ORIGINAL_N, "original_n must be a non-negative integer, got True"),
        ((0, 1), None, ORIGINAL_N, "original_n must be a non-negative integer, got None"),
    ],
)
def test_realized_graph_rejects_non_integers(ancestors, original_n, rule, message):
    # accepted, these would reach splits_to_clustering as list indices
    base = complete_graph(2, [])
    with pytest.raises(ValueError) as info:
        RealizedGraph(base, ancestors, original_n)
    assert str(info.value) == message, rule
    r = RealizedGraph(base, (0, 1), 2)
    assert r.split_count == 0 and splits_to_clustering(r) == Clustering([{0}, {1}])


def test_splits_to_clustering_round():
    r = clustering_to_splits(BAD_TRIANGLE, TRIANGLE_SOLUTION)
    f = splits_to_clustering(r)
    assert f == TRIANGLE_SOLUTION
    assert cost(f, 3) <= r.split_count


def test_splits_to_clustering_rejects_erroneous_cycle():
    with pytest.raises(ValueError):
        splits_to_clustering(RealizedGraph(BAD_TRIANGLE, (0, 1, 2), 3))


def test_splits_to_clustering_merges_duplicates_and_adds_singleton():
    # two descendants each of 0 and 1; both components carry ancestors {0, 1},
    # so after the merge the red pair (0, 1) needs a singleton cluster
    base = CorrelationGraph(
        4,
        [(0, 2, BLUE), (1, 3, BLUE), (0, 1, RED), (0, 3, RED), (1, 2, RED), (2, 3, RED)],
        complete=True,
    )
    r = RealizedGraph(base, (0, 0, 1, 1), 2)
    assert r.split_count == 2
    f = splits_to_clustering(r)
    assert f == Clustering([{0, 1}, {0}])
    assert cost(f, 2) == 1
    g = complete_graph(2, [])  # the original: lone red pair
    assert verify_clustering(g, f).ok


def test_read_off_repairs_pairs_in_order():
    read_off = splitclust.clustering._read_off
    # (0, 1) and (0, 2) both lie in the one cluster {0, 1, 2}; the first
    # gives the split end 0 a singleton, which resolves the second
    sets = [frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({0, 1, 2})]
    assert read_off(sets, 5, [(0, 1), (0, 2)], {0}) == Clustering(
        [{0, 1, 2}, {3, 4}, {0}]
    )
    # the smaller split end gets the singleton
    assert read_off(sets, 5, [(1, 2)], {0, 1, 2}) == Clustering(
        [{0, 1, 2}, {3, 4}, {1}]
    )
    # ends with different homes, or an end in several clusters, need none
    sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3})]
    pairs = [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert read_off(sets, 4, pairs, {1}) == Clustering(sets)
    with pytest.raises(AssertionError, match="no split endpoint"):
        read_off([frozenset({0, 1})], 2, [(0, 1)], set())


def test_splits_to_clustering_repairs_only_single_cluster_members():
    # 1 lies in both distinct clusters, so of the duplicated {0, 1, 2} only
    # 0 and 2 are repaired: the pair (0, 2) must be listed, though 1 sits
    # between them
    g = complete_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    r = clustering_to_splits(g, Clustering([{0, 1, 2}, {0, 1, 2}, {1, 3}]))
    assert splits_to_clustering(r) == Clustering([{0, 1, 2}, {1, 3}, {0}])


def test_splits_to_clustering_lists_few_pairs_on_complete_graphs(monkeypatch):
    # every vertex of the all-blue graph is split into two copies of one
    # merged cluster: all but the largest need a singleton, and the read-off
    # gets a chain of pairs, not all n(n-1)/2 of them
    n = 1000
    real = splitclust.clustering._read_off
    listed = []

    def counting(sets, n, pairs, split):
        listed.append(len(pairs))
        return real(sets, n, pairs, split)

    monkeypatch.setattr(splitclust.clustering, "_read_off", counting)
    g = complete_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    r = clustering_to_splits(g, Clustering([range(n), range(n)]))
    f = splits_to_clustering(r)
    assert f == Clustering([range(n), *({v} for v in range(n - 1))])
    assert listed and listed[0] <= n


@given(st.integers(0, 300))
def test_split_round_trip_random(seed):
    n = 3 + seed % 5
    g = gen_random(n, 0.5, 0.5, complete=True, seed=seed)
    f = solve_exact(g, SearchBudget(max_cost=n))
    assert f is not None
    k = cost(f, n)
    r = clustering_to_splits(g, f)
    assert r.split_count == k
    assert not has_erroneous_cycle(r.base)
    back = splits_to_clustering(r)
    assert verify_clustering(g, back).ok
    assert cost(back, n) <= k
