"""Multicut with vertex splitting: model, reductions, translations, formats."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

import splitclust.multicut
from splitclust import (
    MAX_VERTICES,
    Clustering,
    CorrelationGraph,
    FormatError,
    MulticutInstance,
    MulticutSolution,
    SearchBudget,
    ccvs_to_mcvs,
    clustering_to_multicut_solution,
    complete_graph,
    cost,
    gen_random,
    incomplete_graph,
    mcvs_to_ccvs,
    multicut_solution_to_clustering,
    parse_multicut_instance,
    parse_multicut_solution,
    solve_exact,
    verify_clustering,
    verify_multicut_solution,
    write_multicut_instance,
    write_multicut_solution,
)
from oracles import brute_min_multicut_cost

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])
PATH = MulticutInstance(3, [(0, 1), (1, 2)], [(0, 2)], 1)


def test_instance_validation():
    assert PATH.edges == frozenset({(0, 1), (1, 2)})
    assert PATH.terminals == frozenset({(0, 2)})
    assert PATH.neighbors(1) == [0, 2]
    assert PATH == MulticutInstance(3, [(1, 0), (2, 1)], [(2, 0)], 1)
    assert hash(PATH) == hash(MulticutInstance(3, [(1, 0), (2, 1)], [(2, 0)], 1))
    with pytest.raises(ValueError):
        MulticutInstance(-1, [], [], 0)
    with pytest.raises(ValueError):  # the cap parse_multicut_instance enforces
        MulticutInstance(100_001, [], [], 0)
    with pytest.raises(ValueError):
        MulticutInstance(3, [], [], -1)
    with pytest.raises(ValueError):
        MulticutInstance(3, [(0, 3)], [], 0)
    with pytest.raises(ValueError):
        MulticutInstance(3, [(0, 0)], [], 0)
    with pytest.raises(ValueError):
        MulticutInstance(3, [], [(1, 1)], 0)
    with pytest.raises(ValueError):  # a pair cannot be both edge and terminal
        MulticutInstance(3, [(0, 1)], [(1, 0)], 0)

    def refused(u, v, bad):
        message = f"vertex of pair ({u!r},{v!r}) must be a non-negative integer below 3, got {bad!r}"
        return pytest.raises(ValueError, match=f"^{re.escape(message)}$")

    # ids, n and k must be ints: a float edge used to raise TypeError
    for bad in (1.0, 1.5, "1", None):
        with refused(0, bad, bad):
            MulticutInstance(3, [(0, bad)], [], 0)
        with refused(bad, 2, bad):
            MulticutInstance(3, [], [(bad, 2)], 0)
        with pytest.raises(ValueError, match="vertex count must be a non-negative integer"):
            MulticutInstance(bad, [], [], 0)
        with pytest.raises(ValueError, match="budget must be a non-negative integer"):
            MulticutInstance(3, [], [], bad)
    # bool is an int, but an instance holding one would be written as "True"
    with refused(0, True, True):
        MulticutInstance(3, [(0, True)], [], 0)
    with refused(False, 2, False):
        MulticutInstance(3, [], [(False, 2)], 0)
    with pytest.raises(ValueError, match="vertex count must be a non-negative integer"):
        MulticutInstance(True, [], [], 0)
    with pytest.raises(ValueError, match="budget must be a non-negative integer"):
        MulticutInstance(3, [], [], True)
    with pytest.raises(ValueError, match="budget must be a non-negative integer"):
        ccvs_to_mcvs(BAD_TRIANGLE, True)
    with pytest.raises(ValueError):
        ccvs_to_mcvs(BAD_TRIANGLE, -1)
    with pytest.raises(ValueError):
        PATH.neighbors(5)


def test_solution_normalization():
    sol = MulticutSolution({0: [{3, 4}, set(), {2}]})
    assert sol.splits == ((0, (frozenset({2}), frozenset({3, 4}), frozenset())),)
    assert sol.cost == 2
    assert sol.split_vertices == frozenset({0})
    assert sol.parts_of(0) == (frozenset({2}), frozenset({3, 4}), frozenset())
    assert sol.parts_of(9) is None  # a solution has no vertex count
    # True == 1 and 0.0 == 0, but neither is a vertex id
    for v in (-1, True, False, 0.0, "0", None):
        message = f"vertex id must be a non-negative integer, got {v!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sol.parts_of(v)
    assert sol == MulticutSolution({0: [set(), {2}, {4, 3}]})
    with pytest.raises(ValueError):
        MulticutSolution({0: [{1, 2}]})
    with pytest.raises(ValueError):
        MulticutSolution({0: [{1}, {1, 2}]})
    with pytest.raises(ValueError):
        MulticutSolution({-1: [{0}, {1}]})
    # split vertices and part members are non-negative ints, not bools:
    # each of these used to build and write an unparsable document
    for splits in (
        {True: [[0], [2]]},
        {"1": [[0], [2]]},
        {0: [["a"], []]},
        {0: [[True], [2]]},
        {0: [[1.0], [2]]},
        {0: [[-1], [2]]},
    ):
        with pytest.raises(ValueError):
            MulticutSolution(splits)


def test_verify_solution():
    assert not verify_multicut_solution(PATH, MulticutSolution({}))
    assert verify_multicut_solution(PATH, MulticutSolution({1: [{0}, {2}]}))
    # Splitting a terminal endpoint removes the pair, even via an empty part.
    assert verify_multicut_solution(PATH, MulticutSolution({0: [{1}, set()]}))
    with pytest.raises(ValueError):  # parts must cover exactly the neighborhood
        verify_multicut_solution(PATH, MulticutSolution({1: [{0}, {9}]}))
    with pytest.raises(ValueError):  # ... and miss none of it
        verify_multicut_solution(PATH, MulticutSolution({1: [{0}, set()]}))
    with pytest.raises(ValueError):
        verify_multicut_solution(PATH, MulticutSolution({7: [{0}, {1}]}))


def test_reduction_round_trip():
    inst = ccvs_to_mcvs(BAD_TRIANGLE, 1)
    assert inst == PATH
    g, k = mcvs_to_ccvs(inst)
    assert k == 1
    assert g == incomplete_graph(3, [(0, 1), (1, 2)], [(0, 2)])
    assert ccvs_to_mcvs(g, k) == inst


def test_clustering_to_solution_frozen():
    sol = clustering_to_multicut_solution(BAD_TRIANGLE, Clustering([{0, 1}, {1, 2}]))
    assert sol == MulticutSolution({1: [{0}, {2}]})
    assert sol.cost == 1
    assert verify_multicut_solution(ccvs_to_mcvs(BAD_TRIANGLE, 1), sol)

    star = complete_graph(4, [(0, 1), (0, 2), (0, 3)])
    sol = clustering_to_multicut_solution(
        star, Clustering([{0, 1}, {0, 2}, {0, 3}])
    )
    assert sol == MulticutSolution({0: [{1}, {2}, {3}]})
    assert sol.cost == 2

    with pytest.raises(ValueError):  # invalid clusterings are rejected
        clustering_to_multicut_solution(BAD_TRIANGLE, Clustering([{0, 1, 2}]))


def test_clustering_to_solution_keeps_empty_parts():
    # Vertex 0 sits in two clusters but all its blue neighbors live in the
    # first; the second cluster contributes an empty part.
    g = incomplete_graph(3, [(0, 1)], [(0, 2)])
    f = Clustering([{0, 1}, {0, 2}])
    sol = clustering_to_multicut_solution(g, f)
    assert sol == MulticutSolution({0: [{1}, set()]})
    assert sol.cost == cost(f, 3) == 1


def test_clustering_to_solution_uses_smallest_shared_cluster():
    # 0 and 1 share clusters 1 and 2, so 1 joins the part of cluster 1;
    # 2 shares only cluster 2 with 0, and cluster 0 keeps no neighbor
    g = incomplete_graph(3, [(0, 1), (0, 2)])
    f = Clustering([{0}, {0, 1}, {0, 1, 2}])
    sol = clustering_to_multicut_solution(g, f)
    assert sol == MulticutSolution({0: [set(), {1}, {2}], 1: [{0}, set()]})
    assert sol.cost == cost(f, 3) == 3


def test_solution_to_clustering_frozen():
    f = multicut_solution_to_clustering(PATH, MulticutSolution({1: [{0}, {2}]}))
    assert f == Clustering([{0, 1}, {1, 2}])

    # The removing split of 0 leaves an edgeless copy; the copy becomes a
    # singleton cluster resolving the terminal pair.
    f = multicut_solution_to_clustering(PATH, MulticutSolution({0: [{1}, set()]}))
    assert f == Clustering([{0, 1, 2}, {0}])
    assert cost(f, 3) == 1

    with pytest.raises(ValueError):  # non-separating solutions are rejected
        multicut_solution_to_clustering(PATH, MulticutSolution({}))


def test_solution_to_clustering_terminal_fixup():
    # Both copies of the split graph span every original vertex, so the
    # component clusters collapse to one and the terminal pair loses its
    # resolution; the translation restores it with a singleton cluster.
    inst = MulticutInstance(
        5,
        [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)],
        [(0, 1)],
        5,
    )
    sol = MulticutSolution(
        {
            0: [{2}, {3, 4}],
            1: [{2, 3}, {4}],
            2: [{0, 1}, {3, 4}],
            3: [{1, 4}, {0, 2}],
            4: [{3}, {0, 1, 2}],
        }
    )
    assert sol.cost == 5
    assert verify_multicut_solution(inst, sol)
    f = multicut_solution_to_clustering(inst, sol)
    assert f == Clustering([{0, 1, 2, 3, 4}, {0}])
    g, _ = mcvs_to_ccvs(inst)
    assert verify_clustering(g, f).ok
    assert cost(f, 5) == 1 <= sol.cost


def test_translations_preserve_cost_on_random_graphs():
    for seed in range(60):
        n = 3 + seed % 4
        g = gen_random(n, 0.5, 0.5, complete=True, seed=7000 + seed)
        f = solve_exact(g, SearchBudget(max_cost=n))
        assert f is not None
        c = cost(f, n)
        inst = ccvs_to_mcvs(g, c)
        sol = clustering_to_multicut_solution(g, f)
        assert sol.cost == c
        assert verify_multicut_solution(inst, sol)
        back = multicut_solution_to_clustering(inst, sol)
        assert verify_clustering(g, back).ok
        assert cost(back, n) <= sol.cost


def test_optimum_matches_brute_multicut():
    for seed in range(40):
        g = gen_random(5, 0.4, 0.3, complete=False, seed=8000 + seed)
        f = solve_exact(g, SearchBudget(max_cost=5))
        assert f is not None
        c = cost(f, 5)
        inst = ccvs_to_mcvs(g, 5)
        assert brute_min_multicut_cost(inst, 5) == c


def test_ccvs_to_mcvs_caps_listed_red_pairs(monkeypatch):
    def refuse(self):
        raise AssertionError("red pairs listed before the cap was checked")

    with monkeypatch.context() as m:
        m.setattr(CorrelationGraph, "_red_rows", refuse)
        with pytest.raises(ValueError, match="red pairs"):
            ccvs_to_mcvs(complete_graph(MAX_VERTICES, []), 0)
    # the cap is on listed red pairs: at the cap a complete graph is reduced,
    # one pair over it is not, and an incomplete graph's red pairs are stored
    monkeypatch.setattr(splitclust.multicut, "_MAX_LISTED_RED_PAIRS", 5)
    assert len(ccvs_to_mcvs(complete_graph(4, [(0, 1)]), 0).terminals) == 5
    with pytest.raises(ValueError, match="6 red pairs"):
        ccvs_to_mcvs(complete_graph(4, []), 0)
    red = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert len(ccvs_to_mcvs(incomplete_graph(5, [], red), 0).terminals) == 10


def test_ccvs_to_mcvs_checks_budget_before_listing_red_pairs(monkeypatch):
    def refuse(self):
        raise AssertionError("red pairs listed before the budget was checked")

    monkeypatch.setattr(CorrelationGraph, "_red_rows", refuse)
    for bad in (-1, True, 1.5):
        with pytest.raises(ValueError, match="^budget must be a non-negative integer, got "):
            ccvs_to_mcvs(complete_graph(1400, []), bad)


def test_instance_format_round_trip():
    data = write_multicut_instance(PATH)
    assert data == b"mcvs 3 2 1 1\ne 0 1\ne 1 2\nt 0 2\n"
    assert parse_multicut_instance(data) == PATH
    assert parse_multicut_instance(b"# c\nmcvs 2 0 1 0\n\nt 1 0\n") == (
        MulticutInstance(2, [], [(0, 1)], 0)
    )
    assert write_multicut_instance(ccvs_to_mcvs(BAD_TRIANGLE, 1)) == data


MALFORMED_INSTANCES = [
    b"",
    b"mcvs 3 0 0\n",
    b"mcvs a 0 0 0\n",
    b"mcvs 3 0 0 -1\n",
    b"mcvs 3 1 0 0\n",
    b"mcvs 3 0 1 0\ne 0 1\nt 0 2\n",
    b"mcvs 3 0 0 0\nx 0 1\n",
    b"mcvs 3 1 0 0\ne 0 0\n",
    b"mcvs 3 1 0 0\ne 0 3\n",
    b"mcvs 3 1 0 0\ne 0 q\n",
    b"mcvs 3 1 1 0\ne 0 1\nt 1 0\n",
    b"mcvs 100001 0 0 0\n",
    b"mcvs +3 0 0 0\n",
    b"mcvs 12 1 0 0\ne 0 1_1\n",
    "mcvs 3 1 0 0\ne \u0660 1\n".encode(),
    b"mcvs 3 0 0 " + b"1" * 5000 + b"\n",
    b"mcvs 3 1 0 0\ne 0 " + b"1" * 5000 + b"\n",
]


@pytest.mark.parametrize("data", MALFORMED_INSTANCES)
def test_parse_instance_malformed(data):
    with pytest.raises(FormatError):
        parse_multicut_instance(data)


def test_solution_format_round_trip():
    sol = MulticutSolution({1: [{0}, {2}]})
    data = write_multicut_solution(3, sol)
    assert data == b"mcsol 3\ns 1 : 0 | 2\n"
    assert parse_multicut_solution(data) == (3, sol)

    sol = MulticutSolution({0: [{1}, set()], 2: [{1}, {3, 4}]})
    data = write_multicut_solution(5, sol)
    assert data == b"mcsol 5\ns 0 : 1 |\ns 2 : 1 | 3 4\n"
    assert parse_multicut_solution(data) == (5, sol)

    assert parse_multicut_solution(b"mcsol 0\n") == (0, MulticutSolution({}))


@st.composite
def counted_solutions(draw) -> tuple[object, MulticutSolution]:
    """A vertex count, in half the draws not one, and a solution.

    In a quarter of the draws the ids reach the vertex count itself.
    """
    n = draw(st.integers(0, 8))
    top = n if draw(st.integers(0, 3)) == 0 else n - 1
    splits = {}
    for v in draw(st.sets(st.integers(0, top), max_size=4)) if top >= 0 else ():
        parts = [set() for _ in range(draw(st.integers(2, 3)))]
        for u in draw(st.sets(st.integers(0, top), max_size=5)):
            parts[draw(st.integers(0, len(parts) - 1))].add(u)
        splits[v] = parts
    count = draw(st.sampled_from([n, n, n, n, -1, True, 2.0, MAX_VERTICES + 1]))
    return count, MulticutSolution(splits)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(counted_solutions())
def test_written_solutions_parse_back(drawn):
    n, sol = drawn
    ids = [x for v, parts in sol.splits for x in (v, *set().union(*parts))]
    count = type(n) is int and 0 <= n <= MAX_VERTICES
    if not (count and all(x < n for x in ids)):
        with pytest.raises(ValueError):
            write_multicut_solution(n, sol)
        return
    assert parse_multicut_solution(write_multicut_solution(n, sol)) == (n, sol)


# the rule a case breaks, named apart from the wording of its error
COUNTS = "vertex counts are non-negative integers"


@pytest.mark.parametrize(
    "n, splits, rule, message",
    [
        (2, {5: [[], []]}, "split vertex 5 out of range", "split vertex must be a non-negative integer below 2, got 5"),
        (2, {0: [[7], []]}, "part member of 0 out of range", "part member must be a non-negative integer below 2, got 7"),
        (2, {0: [[1], [2]]}, "part member of 0 out of range", "part member must be a non-negative integer below 2, got 2"),
        (0, {0: [[], []]}, "split vertex 0 out of range", "split vertex must be a non-negative integer below 0, got 0"),
        (-1, {}, COUNTS, "vertex count must be a non-negative integer, got -1"),
        (True, {}, COUNTS, "vertex count must be a non-negative integer, got True"),
        (2.0, {}, COUNTS, "vertex count must be a non-negative integer, got 2.0"),
        (
            MAX_VERTICES + 1,
            {},
            f"vertex count {MAX_VERTICES + 1} over the cap",
            f"vertex count {MAX_VERTICES + 1} exceeds the cap",
        ),
    ],
)
def test_write_solution_rejects_what_it_cannot_write(n, splits, rule, message):
    # each of these used to be written as a document the parser rejects
    with pytest.raises(ValueError) as info:
        write_multicut_solution(n, MulticutSolution(splits))
    assert message in str(info.value), rule


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"mcsol\n",
        b"mcsol -1\n",
        b"mcsol x\n",
        b"mcsol 3\ns 1 0 | 2\n",
        b"mcsol 3\ns 3 : 0 | 2\n",
        b"mcsol 3\ns 1 : 0\n",
        b"mcsol 3\ns 1 : 0 | 2\ns 1 : 0 | 2\n",
        b"mcsol 3\ns 1 : 2 0 |\n",
        b"mcsol 3\ns 1 : 0 | 9\n",
        b"mcsol 3\ns 1 : 0 | 3\n",
        b"mcsol 3\ns 1 : a | 2\n",
        b"mcsol 3\ns 1 : 0 | 0\n",
        b"mcsol 100001\n",
        b"mcsol 3\ns +1 : 0 | 2\n",
        b"mcsol 12\ns 1 : 0 | 1_1\n",
        "mcsol 3\ns 1 : \u0660 | 2\n".encode(),
        b"mcsol " + b"1" * 5000 + b"\n",
        b"mcsol 3\ns 1 : 0 | " + b"2" * 5000 + b"\n",
    ],
)
def test_parse_solution_malformed(data):
    with pytest.raises(FormatError):
        parse_multicut_solution(data)
