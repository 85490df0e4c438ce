"""Factor-7 approximation and the bipartite vertex cover behind it."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from splitclust import (
    BipartiteGraph,
    Clustering,
    SearchBudget,
    approximate,
    bipartite_min_vertex_cover,
    candidate_solutions,
    complete_graph,
    cost,
    gen_random,
    incomplete_graph,
    maximal_bad_star_forest,
    solve_exact,
    verify_clustering,
)
from oracles import brute_bipartite_cover_size, first_cheapest_candidate

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])


def test_bipartite_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph((0, 0), (1,), ())
    with pytest.raises(ValueError):
        BipartiteGraph((0,), (0,), ())
    with pytest.raises(ValueError):
        BipartiteGraph((0,), (1,), ((0, 2),))


def test_min_vertex_cover_examples():
    # A path l0-r0-l1: the single middle vertex covers both edges.
    b = BipartiteGraph(("l0", "l1"), ("r0",), (("l0", "r0"), ("l1", "r0")))
    assert bipartite_min_vertex_cover(b) == frozenset({"r0"})
    # Perfect matching on two pairs needs two vertices.
    b = BipartiteGraph((0, 1), (2, 3), ((0, 2), (1, 3)))
    assert len(bipartite_min_vertex_cover(b)) == 2
    # No edges, no cover.
    assert bipartite_min_vertex_cover(BipartiteGraph((0,), (1,), ())) == frozenset()
    # Duplicate edges are tolerated.
    b = BipartiteGraph((0,), (1,), ((0, 1), (0, 1)))
    assert bipartite_min_vertex_cover(b) == frozenset({0})


def _cover_is_valid(b: BipartiteGraph, cover: frozenset) -> bool:
    return all(l in cover or r in cover for l, r in b.edges)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_min_vertex_cover_matches_brute(data):
    nl = data.draw(st.integers(0, 5))
    nr = data.draw(st.integers(0, 5))
    left = tuple(range(nl))
    right = tuple(range(100, 100 + nr))
    pool = [(l, r) for l in left for r in right]
    edges = tuple(data.draw(st.permutations(pool))[: data.draw(st.integers(0, len(pool)))])
    b = BipartiteGraph(left, right, edges)
    cover = bipartite_min_vertex_cover(b)
    assert _cover_is_valid(b, cover)
    assert len(cover) == brute_bipartite_cover_size(left, right, edges)


def _alternating_chain(pairs: int, tail: bool) -> BipartiteGraph:
    """Path l0 r0 l1 r1 ... listing every (l[i+1], r[i]) before the (l[i], r[i]).

    Each left vertex first grabs r[i-1], so l[i] has to re-route all of
    l[0..i-1]: augmenting paths grow as long as the chain.  With ``tail``
    an extra l[pairs] hangs off r[pairs - 1].
    """
    left = [f"l{i}" for i in range(pairs + tail)]
    right = [f"r{i}" for i in range(pairs)]
    edges = [(left[i + 1], right[i]) for i in range(len(left) - 1)]
    edges += [(left[i], right[i]) for i in range(pairs)]
    return BipartiteGraph(tuple(left), tuple(right), tuple(edges))


@pytest.mark.parametrize("pairs, tail, n_edges", [(1500, False, 2999), (1500, True, 3000)])
def test_min_vertex_cover_long_alternating_chain(pairs, tail, n_edges):
    # the recursive augmenting search used to raise RecursionError here
    b = _alternating_chain(pairs, tail)
    assert len(b.edges) == n_edges
    cover = bipartite_min_vertex_cover(b)
    assert _cover_is_valid(b, cover)
    assert len(cover) == pairs


def test_argument_errors():
    with pytest.raises(ValueError):
        approximate(incomplete_graph(3, [(0, 1)], [(0, 2)]))
    # the empty graph has the empty clustering, as lower_bound, kernelize
    # and solve_exact already accept it
    assert approximate(complete_graph(0, [])) == Clustering([])


def test_cluster_graph_single_candidate():
    g = complete_graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    (cand,) = candidate_solutions(g)
    assert cand.s_vertices == frozenset()
    assert cand.cost == 0
    assert cand.assembled == Clustering([{0, 1}, {2, 3, 4}])
    assert approximate(g) == cand.assembled


def test_flat_fallback_costs_forest_size():
    # One clique (nothing) outside S: flat solution, cost |S| = 3.
    (cand,) = candidate_solutions(BAD_TRIANGLE)
    assert cand.s_vertices == frozenset({0, 1, 2})
    assert cand.guess is None and cand.covers == ()
    assert cand.cost == 3
    f = cand.assembled
    assert f == Clustering([{0, 1, 2}, {0}, {1}, {2}])
    assert verify_clustering(BAD_TRIANGLE, f).ok
    assert approximate(BAD_TRIANGLE) == f


def test_guessing_frozen_example():
    # S = {0,1,2}; vertices 3 and 4 are singleton cliques, each blue only
    # to 0, so each cover is {0}.  Merging either clique into the hub saves
    # its cover; the no-guess candidate pays both.
    g = complete_graph(5, [(0, 1), (1, 2), (0, 3), (0, 4)])
    cands = candidate_solutions(g)
    assert [c.guess for c in cands] == [frozenset({3}), frozenset({4}), None]
    assert [c.cost for c in cands] == [4, 4, 5]
    for c in cands:
        assert verify_clustering(g, c.assembled).ok
        assert cost(c.assembled, g.n) == c.cost
        assert c.s_vertices == frozenset({0, 1, 2})
        assert all(cov == frozenset({0}) for _, cov in c.covers)
    best = approximate(g)
    assert best == cands[0].assembled
    assert best == Clustering([{0, 1, 2, 3}, {0, 4}, {0}, {1}, {2}])


def test_candidates_always_valid_and_within_factor_seven():
    worst = 0.0
    for seed in range(150):
        n = 3 + seed % 6
        g = gen_random(n, 0.5, 0.5, complete=True, seed=3000 + seed)
        cands = candidate_solutions(g)
        for c in cands:
            assert verify_clustering(g, c.assembled).ok
            assert cost(c.assembled, g.n) == c.cost
        f = approximate(g)
        opt = solve_exact(g, SearchBudget(max_cost=n))
        assert opt is not None
        c_opt = cost(opt, g.n)
        c_apx = cost(f, g.n)
        assert c_apx <= 7 * c_opt
        if c_opt:
            worst = max(worst, c_apx / c_opt)
    assert worst <= 7.0


def test_flat_fallback_bound_against_forest():
    # Whenever the fallback fires its cost equals the forest vertex count,
    # which is at most 3 times the forest weight (a lower bound on opt).
    for seed in range(80):
        g = gen_random(6, 0.7, 0.3, complete=True, seed=5000 + seed)
        cands = candidate_solutions(g)
        forest = maximal_bad_star_forest(g)
        if len(cands) == 1 and forest.vertices:
            assert cands[0].cost == len(forest.vertices) <= 3 * forest.weight


@given(st.integers(1, 24), st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_approximate_is_first_cheapest_candidate(n, p_blue, seed):
    # approximate ranks the candidates by cost and assembles only the winner
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    assert approximate(g) == first_cheapest_candidate(g)
