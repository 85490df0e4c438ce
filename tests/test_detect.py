"""Bad triangles, bad star forests, lower bounds."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from splitclust import (
    BadStar,
    BadStarForest,
    SearchBudget,
    complete_graph,
    cost,
    find_bad_triangle,
    gen_random,
    incomplete_graph,
    is_bad_star,
    lower_bound,
    maximal_bad_star_forest,
    solve_exact,
)
from splitclust.detect import _greedy_stars, _suffix_bounds, _twin_classes
from oracles import on_induced_subgraph

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])


def test_bad_star_validation():
    star = BadStar(0, (1, 2, 3))
    assert star.weight == 2
    assert star.vertices == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        BadStar(0, (1,))
    with pytest.raises(ValueError):
        BadStar(0, (2, 1))
    with pytest.raises(ValueError):
        BadStar(1, (1, 2))


def test_forest_validation():
    a = BadStar(0, (1, 2))
    b = BadStar(3, (4, 5))
    forest = BadStarForest((a, b))
    assert forest.weight == 2
    assert forest.vertices == {0, 1, 2, 3, 4, 5}
    with pytest.raises(ValueError):
        BadStarForest((a, BadStar(5, (1, 6))))


def test_is_bad_star():
    g = complete_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert is_bad_star(g, BadStar(0, (1, 2, 3)))
    assert not is_bad_star(g, BadStar(1, (0, 2)))
    assert not is_bad_star(g, BadStar(0, (1, 9)))


def test_find_bad_triangle():
    assert find_bad_triangle(BAD_TRIANGLE) == (0, 1, 2)
    assert find_bad_triangle(complete_graph(3, [(0, 1)])) is None
    assert on_induced_subgraph(find_bad_triangle, BAD_TRIANGLE, [0, 1]) is None


def test_find_bad_triangle_picks_smallest():
    # two bad triangles: (1, 0, 2) and (3, 4, 5); smallest first coordinate wins
    g = complete_graph(6, [(0, 1), (0, 2), (3, 4), (4, 5)])
    assert find_bad_triangle(g) == (1, 0, 2)


def test_forest_on_triangle():
    forest = maximal_bad_star_forest(BAD_TRIANGLE)
    assert forest.stars == (BadStar(1, (0, 2)),)
    assert forest.weight == 1
    assert lower_bound(BAD_TRIANGLE) == 1


def test_forest_grows_stars():
    g = complete_graph(4, [(0, 1), (0, 2), (0, 3)])
    forest = maximal_bad_star_forest(g)
    assert forest.stars == (BadStar(0, (1, 2, 3)),)
    assert forest.weight == 2


def test_forest_multiple_stars():
    g = complete_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    forest = maximal_bad_star_forest(g)
    assert forest.stars == (BadStar(1, (0, 2)), BadStar(4, (3, 5)))
    assert forest.weight == 2


def test_forest_empty_on_cluster_graph():
    g = complete_graph(4, [(0, 1)])
    forest = maximal_bad_star_forest(g)
    assert forest.stars == ()
    assert lower_bound(g) == 0


def test_forest_requires_complete():
    with pytest.raises(ValueError):
        maximal_bad_star_forest(incomplete_graph(3, blue=[(0, 1)]))
    with pytest.raises(ValueError):
        lower_bound(incomplete_graph(2))


@given(st.integers(0, 300))
def test_forest_invariants_random(seed):
    n = 4 + seed % 4
    g = gen_random(n, 0.5, 0.5, complete=True, seed=seed)
    forest = maximal_bad_star_forest(g)
    for star in forest.stars:
        assert is_bad_star(g, star)
    unused = set(range(n)) - forest.vertices
    assert on_induced_subgraph(find_bad_triangle, g, unused) is None


@given(st.integers(0, 120))
def test_lower_bound_at_most_optimum(seed):
    n = 4 + seed % 3
    g = gen_random(n, 0.5, 0.5, complete=True, seed=seed)
    f = solve_exact(g, SearchBudget(max_cost=n))
    assert f is not None
    assert lower_bound(g) <= cost(f, n)


@given(st.integers(1, 24), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10_000))
def test_suffix_forests_match_induced_subgraphs(n, p_blue, seed):
    # the stars found from whole-graph twin classes are those of each induced suffix
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    twins = _twin_classes(g)
    expected = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        sub, ids = g.induced_subgraph(range(v, n))
        stars = [
            (ids[s.center], tuple(ids[x] for x in s.leaves))
            for s in maximal_bad_star_forest(sub).stars
        ]
        got = _greedy_stars(g, twins, v)
        assert [(s.center, s.leaves) for s in got] == stars
        expected[v] = max(lower_bound(sub), expected[v + 1])
    assert _suffix_bounds(g) == expected
    assert _suffix_bounds(g)[0] >= lower_bound(g)


@given(st.integers(1, 24), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10_000))
def test_suffix_bounds_never_rise(n, p_blue, seed):
    # the exact search relies on this to keep every child's budget >= 0
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    bounds = _suffix_bounds(g)
    assert len(bounds) == n + 1 and bounds[n] == 0
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_suffix_bounds_zero_on_incomplete_graphs():
    g = incomplete_graph(3, blue=[(0, 1), (1, 2)], red=[(0, 2)])
    assert _suffix_bounds(g) == [0, 0, 0, 0]
    assert _suffix_bounds(complete_graph(0, [])) == [0]
