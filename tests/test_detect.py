"""Bad triangles, bad star forests, lower bounds."""

from __future__ import annotations

import random
import re
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from splitclust import (
    BadStar,
    BadStarForest,
    Kernelized,
    SearchBudget,
    complete_graph,
    cost,
    find_bad_triangle,
    gen_random,
    incomplete_graph,
    is_bad_star,
    kernelize,
    lower_bound,
    maximal_bad_star_forest,
    parse_graph,
    solve_exact,
)
from splitclust.detect import _suffix_bounds
from oracles import on_induced_subgraph, unpruned_solve_exact

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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


@pytest.mark.parametrize(
    "center, leaves, bad",
    [
        (True, (0, 2), "True"),
        (1, (0, 2.5), "2.5"),
        (0, (False, 2), "False"),
        ("0", (1, 2), "'0'"),
        (-1, (0, 2), "-1"),
        (0, (-2, 1), "-2"),
    ],
)
def test_bad_star_rejects_what_is_not_a_vertex_id(center, leaves, bad):
    # a checker reading stars from a document must not accept these
    message = f"^vertex id must be a non-negative integer, got {re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        BadStar(center, leaves)


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


def _induced_suffix_bounds(g):
    """Running max of ``lower_bound`` over the induced suffixes G[{v..n-1}]."""
    expected = [0] * (g.n + 1)
    for v in range(g.n - 1, -1, -1):
        sub, _ = g.induced_subgraph(range(v, g.n))
        expected[v] = max(lower_bound(sub), expected[v + 1])
    return expected


@given(st.integers(1, 24), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10_000))
def test_suffix_forests_match_induced_subgraphs(n, p_blue, seed):
    # the bitmask forests weigh what the public forest weighs on each suffix
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    assert _suffix_bounds(g) == _induced_suffix_bounds(g)
    assert _suffix_bounds(g)[0] >= lower_bound(g)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
@pytest.mark.parametrize("p_blue", [0.2, 0.5, 0.8])
def test_suffix_bounds_beyond_one_machine_word(n, p_blue):
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=n)
    assert _suffix_bounds(g) == _induced_suffix_bounds(g)


def _perfbench_planted_complete():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from instances import planted_complete
    finally:
        sys.path.remove(str(PERFBENCH))
    return planted_complete


def test_suffix_bounds_on_planted_graphs_and_their_kernels():
    # the planted graphs of the benchmark's kernel chains, and the kernels
    # the exact search is run on
    planted = _perfbench_planted_complete()
    for seed in range(1, 21):
        for n, overlaps in ((100, 1), (200, 2)):
            doc = planted(seed, n, n // 30, overlaps)
            g = parse_graph(doc.ccg)
            if seed == 1:
                assert _suffix_bounds(g) == _induced_suffix_bounds(g)
            kernel = kernelize(g, doc.planted_cost)
            assert isinstance(kernel, Kernelized)
            assert _suffix_bounds(kernel.graph) == _induced_suffix_bounds(kernel.graph)


@pytest.mark.parametrize("seed", range(6))
def test_suffix_bounds_on_twin_heavy_graphs(seed):
    # disjoint blue cliques, one vertex joined blue to two of them, and the
    # ids shuffled: every vertex but that one has a twin
    rng = random.Random(seed)
    sizes = [rng.randint(2, 9) for _ in range(8)]
    n = sum(sizes) + 1
    ids = list(range(n))
    rng.shuffle(ids)
    cliques, start = [], 0
    for size in sizes:
        cliques.append(ids[start : start + size])
        start += size
    hub = ids[-1]
    blue = [(u, v) for c in cliques for u, v in combinations(sorted(c), 2)]
    blue += [tuple(sorted((hub, v))) for v in cliques[0] + cliques[1]]
    g = complete_graph(n, blue)
    bounds = _suffix_bounds(g)
    assert bounds == _induced_suffix_bounds(g)
    # one bad star, the hub with a leaf in each of its two cliques
    assert bounds[0] == lower_bound(g) == 1


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


@given(st.integers(1, 7), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 10_000))
def test_suffix_bounds_at_most_suffix_optima(n, p_blue, seed):
    # admissibility, which the exact search's pruning rests on; the optimum
    # comes from the unpruned search, which reads no suffix bound
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    bounds = _suffix_bounds(g)
    for v in range(n):
        sub, _ = g.induced_subgraph(range(v, n))
        reference, _ = unpruned_solve_exact(sub, sub.n * sub.n)
        assert reference is not None
        optimum = cost(reference, sub.n)
        f = solve_exact(sub, SearchBudget(max_cost=optimum), vertex_cap=sub.n)
        assert f is not None and cost(f, sub.n) == optimum
        assert bounds[v] <= optimum
