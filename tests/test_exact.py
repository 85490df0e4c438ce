"""Exact search: minimality, budget semantics, limits, pruning."""

from __future__ import annotations

import pickle
import random
from itertools import combinations, product

import pytest

from splitclust import (
    BLUE,
    NEUTRAL,
    RED,
    Clustering,
    CorrelationGraph,
    SearchBudget,
    SearchLimitReached,
    Kernelized,
    complete_graph,
    cost,
    decide,
    gen_random,
    kernelize,
    solve_exact,
    verify_clustering,
)
from oracles import (
    blocks_solve_exact,
    brute_min_clustering_cost,
    unpruned_solve_exact,
)

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])


def test_trivial_graphs():
    assert solve_exact(CorrelationGraph(0, [], complete=True)) == Clustering(())
    f = solve_exact(complete_graph(1, []))
    assert f == Clustering([{0}])
    f = solve_exact(complete_graph(4, [(0, 1)]))
    assert f is not None and cost(f, 4) == 0


def test_bad_triangle_optimum():
    f = solve_exact(BAD_TRIANGLE)
    assert f is not None
    assert cost(f, 3) == 1
    assert verify_clustering(BAD_TRIANGLE, f).ok


def test_bad_star_optimum():
    g = complete_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    f = solve_exact(g)
    assert f is not None and cost(f, 5) == 3


def test_budget_semantics():
    assert not decide(BAD_TRIANGLE, 0)
    assert decide(BAD_TRIANGLE, 1)
    assert solve_exact(BAD_TRIANGLE, SearchBudget(max_cost=0)) is None
    with pytest.raises(ValueError):
        decide(BAD_TRIANGLE, -1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_cost": 2.5},
        {"max_cost": True},
        {"max_cost": "2"},
        {"max_cost": -1},
        {"node_limit": 1.5},
        {"node_limit": True},
        {"node_limit": 0},
    ],
)
def test_search_budget_rejects_non_integers(kwargs):
    with pytest.raises(ValueError):
        SearchBudget(**kwargs)


def test_decide_rejects_non_integers():
    for k in (2.5, True, None):
        with pytest.raises(ValueError):
            decide(BAD_TRIANGLE, k)
    with pytest.raises(ValueError):
        decide(BAD_TRIANGLE, 1, node_limit=1.5)
    with pytest.raises(ValueError):
        decide(BAD_TRIANGLE, 1, node_limit=False)


def test_vertex_cap():
    big = complete_graph(13, [])
    with pytest.raises(ValueError):
        solve_exact(big)
    f = solve_exact(big, vertex_cap=13)
    assert f is not None and cost(f, 13) == 0
    for cap in ("12", None, 12.5, True):
        with pytest.raises(ValueError):
            solve_exact(BAD_TRIANGLE, vertex_cap=cap)


def test_vertex_limit_below_recursion_limit():
    # the search recurses once per vertex, so it refuses before the stack
    # overflows, whatever the cap
    big = complete_graph(1500, [(i, i + 1) for i in range(0, 1499, 2)])
    with pytest.raises(ValueError, match="takes at most 500"):
        solve_exact(big, SearchBudget(max_cost=0), vertex_cap=1500)
    g = complete_graph(500, [(i, i + 1) for i in range(0, 499, 2)])
    f = solve_exact(g, SearchBudget(max_cost=0), vertex_cap=500)
    assert f is not None and len(f) == 250 and cost(f, 500) == 0


def test_node_limit():
    g = gen_random(8, 0.5, 0.5, complete=True, seed=11)
    with pytest.raises(SearchLimitReached):
        solve_exact(g, SearchBudget(max_cost=8, node_limit=5))


def test_limit_reports_nodes_and_level():
    # the suffix bounds start this graph at level 3; its optimum is 5
    g = gen_random(10, 0.5, 0.5, complete=True, seed=0)
    with pytest.raises(SearchLimitReached) as info:
        solve_exact(g, SearchBudget(max_cost=10, node_limit=100))
    assert (info.value.nodes, info.value.level) == (101, 4)
    assert str(info.value) == "search aborted after 101 nodes at cost level 4"
    copy = pickle.loads(pickle.dumps(info.value))
    assert (copy.nodes, copy.level, str(copy)) == (101, 4, str(info.value))


def test_prune_node_count_regression():
    # unpruned, this graph takes 12 660 nodes; the suffix bounds cut it to
    # a few hundred, so a limit of 1000 passes only with the prune working
    g = gen_random(10, 0.5, 0.5, complete=True, seed=0)
    reference, nodes = unpruned_solve_exact(g, 10)
    assert nodes > 10_000
    f = solve_exact(g, SearchBudget(max_cost=10, node_limit=1000))
    assert f == reference and cost(f, 10) == 5


def _planted(n: int, clusters: int, overlaps: int, seed: int):
    """Complete graph blue exactly on co-clustered pairs, and the planted cost."""
    rng = random.Random(seed)
    members: list[set[int]] = [set() for _ in range(clusters)]
    for v in range(n):
        members[v if v < clusters else rng.randrange(clusters)].add(v)
    for v in rng.sample(range(n), overlaps):
        members[rng.randrange(clusters)].add(v)
    blue = [(u, v) for m in members for u in m for v in m if u < v]
    return complete_graph(n, blue), cost(Clustering(members), n)


def _pruned_search_cases():
    for seed in range(300):
        n = 5 + seed % 5
        yield gen_random(n, 0.5, 0.5, complete=True, seed=seed), n, n
    for seed in range(300, 340):
        n = 5 + seed % 5
        p = random.Random(seed).choice((0.3, 0.7))
        yield gen_random(n, p, 1 - p, complete=True, seed=seed), n, 2
    for seed in range(150):
        n = 3 + seed % 5
        yield gen_random(n, 0.4, 0.35, complete=False, seed=seed), n, n
    for seed in range(40):
        rng = random.Random(seed)
        g, k = _planted(rng.randint(15, 60), rng.randint(2, 6), rng.randint(1, 4), seed)
        kernel = kernelize(g, k)
        assert isinstance(kernel, Kernelized)
        yield kernel.graph, kernel.graph.n, k


def test_pruned_search_matches_unpruned_reference():
    # same clustering (or the same None below the optimum) in no more nodes
    outcomes = set()
    for g, cap, max_cost in _pruned_search_cases():
        reference, nodes = unpruned_solve_exact(g, max_cost)
        budget = SearchBudget(max_cost=max_cost, node_limit=max(nodes, 1))
        assert solve_exact(g, budget, vertex_cap=cap) == reference
        outcomes.add(reference is None)
    assert outcomes == {False, True}


def _bitmask_search_cases():
    for seed in range(160):
        n = 3 + seed % 8
        if seed % 2:
            g = gen_random(n, 0.4, 0.35, complete=False, seed=seed)
        else:
            g = gen_random(n, 0.5, 0.5, complete=True, seed=seed)
        yield g, n, n
        yield g, n, 2
    for seed in range(20):
        rng = random.Random(seed)
        g, k = _planted(rng.randint(15, 60), rng.randint(2, 6), rng.randint(1, 4), seed)
        kernel = kernelize(g, k)
        assert isinstance(kernel, Kernelized)
        yield kernel.graph, kernel.graph.n, k


def test_bitmask_search_matches_list_of_blocks_search():
    # the same clustering (or None) in exactly as many nodes, and one node
    # fewer trips the limit at the same count and level
    trips = 0
    for g, cap, max_cost in _bitmask_search_cases():
        reference, nodes = blocks_solve_exact(g, max_cost)
        budget = SearchBudget(max_cost=max_cost, node_limit=max(nodes, 1))
        assert solve_exact(g, budget, vertex_cap=cap) == reference
        if nodes < 2:
            continue
        with pytest.raises(SearchLimitReached) as expected:
            blocks_solve_exact(g, max_cost, nodes - 1)
        with pytest.raises(SearchLimitReached) as info:
            solve_exact(g, SearchBudget(max_cost, nodes - 1), vertex_cap=cap)
        got = (info.value.nodes, info.value.level)
        assert got == (expected.value.nodes, expected.value.level)
        assert got[0] == nodes
        trips += 1
    assert trips > 300


def test_determinism():
    g = gen_random(7, 0.5, 0.5, complete=True, seed=3)
    a = solve_exact(g, SearchBudget(max_cost=7))
    b = solve_exact(g, SearchBudget(max_cost=7))
    assert a == b


def _all_complete_graphs(n):
    pairs = list(combinations(range(n), 2))
    for colors in product((BLUE, RED), repeat=len(pairs)):
        edges = [(u, v, c) for (u, v), c in zip(pairs, colors)]
        yield CorrelationGraph(n, edges, complete=True)


def test_matches_oracle_on_all_complete_4_graphs():
    for g in _all_complete_graphs(4):
        f = solve_exact(g, SearchBudget(max_cost=6))
        assert f is not None
        got = cost(f, 4)
        assert verify_clustering(g, f).ok
        assert got == brute_min_clustering_cost(g)
        if got > 0:
            assert solve_exact(g, SearchBudget(max_cost=got - 1)) is None


def test_matches_oracle_on_random_incomplete_4_graphs():
    for seed in range(120):
        g = gen_random(4, 0.4, 0.3, complete=False, seed=seed)
        f = solve_exact(g, SearchBudget(max_cost=6))
        assert f is not None
        assert verify_clustering(g, f).ok
        assert cost(f, 4) == brute_min_clustering_cost(g)


def test_blue_clique_forced_whole():
    # any blue clique larger than the budget sits inside one cluster
    for seed in range(60):
        n = 5 + seed % 3
        g = gen_random(n, 0.6, 0.4, complete=True, seed=seed)
        f = solve_exact(g, SearchBudget(max_cost=n))
        assert f is not None
        k = cost(f, n)
        for size in range(k + 1, n + 1):
            for clique in combinations(range(n), size):
                if all(
                    g.label(u, v) is BLUE for u, v in combinations(clique, 2)
                ):
                    assert any(set(clique) <= c for c in f)
