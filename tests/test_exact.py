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
    # the suffix bounds start this graph at level 3; its optimum is 5, and
    # levels 3, 4 and 5 take 3, 24 and 11 nodes
    g = gen_random(10, 0.5, 0.5, complete=True, seed=0)
    with pytest.raises(SearchLimitReached) as info:
        solve_exact(g, SearchBudget(max_cost=10, node_limit=20))
    assert (info.value.nodes, info.value.level) == (21, 4)
    assert str(info.value) == "search aborted after 21 nodes at cost level 4"
    copy = pickle.loads(pickle.dumps(info.value))
    assert (copy.nodes, copy.level, str(copy)) == (21, 4, str(info.value))


def test_prune_node_count_regression():
    # unpruned, this graph takes 12 660 nodes; the suffix bounds cut it to
    # a few hundred, so a limit of 1000 passes only with the prune working
    g = gen_random(10, 0.5, 0.5, complete=True, seed=0)
    reference, nodes = unpruned_solve_exact(g, 10)
    assert nodes > 10_000
    f = solve_exact(g, SearchBudget(max_cost=10, node_limit=1000))
    assert f == reference and cost(f, 10) == 5


@pytest.mark.parametrize("n, seed", [(12, 0), (12, 2), (13, 0)])
def test_stuck_vertex_node_count_regression(n, seed):
    # with the suffix bounds alone these take 134 387, 68 603 and 23 427
    # nodes; counting the stuck vertices cuts them to 3 612, 916 and 540
    g = gen_random(n, 0.5, 0.5, complete=True, seed=seed)
    reference, nodes = blocks_solve_exact(g, n)
    assert nodes > 20_000
    f = solve_exact(g, SearchBudget(max_cost=n, node_limit=5_000), vertex_cap=n)
    assert f == reference and cost(f, n) == 7


def _nodes_searched(g, max_cost: int, most: int) -> int:
    """The smallest node limit up to ``most`` that ``solve_exact`` passes."""
    lo, hi = 1, most
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            solve_exact(g, SearchBudget(max_cost, mid), vertex_cap=g.n)
            hi = mid
        except SearchLimitReached:
            lo = mid + 1
    return lo


# nodes that solve_exact searches on gen_random(n, .5, .5, complete=True,
# seed), recorded before the suffix bounds moved onto vertex bitmasks: the
# bounds, and so the search, must stay as they were
_N8_NODES = [
    36, 23, 66, 19, 70, 18, 25, 9, 8, 105, 62, 13, 13, 76, 47, 54, 18, 8, 17, 15,
    79, 20, 162, 8, 171, 109, 13, 51, 9, 68, 34, 56, 89, 105, 15, 30, 8, 33, 18, 64,
    8, 21, 13, 16, 37, 13, 16, 10, 45, 35,
]  # seeds 0 to 49
_LARGER_NODES = {(12, 0): 3612, (12, 2): 916, (13, 0): 540}


def test_node_counts_pinned():
    cases = [(8, seed) for seed in range(len(_N8_NODES))] + list(_LARGER_NODES)
    got = [
        _nodes_searched(gen_random(n, 0.5, 0.5, complete=True, seed=seed), n, 5_000)
        for n, seed in cases
    ]
    assert got == _N8_NODES + list(_LARGER_NODES.values())


def test_stuck_vertices_prune_incomplete_graphs():
    # incomplete graphs get zero suffix bounds, so the stuck count is their
    # only pruning: the same clustering in no more nodes on every graph,
    # and far fewer in all (102 297 cut to 8 207 when it was added)
    total = total_reference = 0
    for seed in range(40):
        n = 8 + seed % 3
        g = gen_random(n, 0.4, 0.35, complete=False, seed=seed)
        reference, reference_nodes = blocks_solve_exact(g, n)
        assert solve_exact(g, SearchBudget(n, reference_nodes), vertex_cap=n) == reference
        total += _nodes_searched(g, n, reference_nodes)
        total_reference += reference_nodes
    assert 10 * total < total_reference


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
    # the same clustering (or None) in no more nodes: the stuck-vertex
    # bound only cuts subtrees of the list-of-blocks search
    outcomes = set()
    for g, cap, max_cost in _bitmask_search_cases():
        reference, nodes = blocks_solve_exact(g, max_cost)
        budget = SearchBudget(max_cost=max_cost, node_limit=max(nodes, 1))
        assert solve_exact(g, budget, vertex_cap=cap) == reference
        outcomes.add(reference is None)
    assert outcomes == {False, True}


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
