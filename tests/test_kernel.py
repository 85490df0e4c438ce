"""Kernelization: pipeline stages, transcripts, lifting, equivalence."""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

from splitclust import (
    BadStar,
    Clustering,
    FormatError,
    KernelTranscript,
    Kernelized,
    NoInstance,
    SearchBudget,
    complete_graph,
    cost,
    decide,
    gen_random,
    incomplete_graph,
    is_bad_star,
    kernelize,
    lift_clustering,
    parse_graph,
    parse_transcript,
    solve_exact,
    verify_clustering,
    write_transcript,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])

# Star center 1 with blue arms to everything, plus an all-blue clique
# {3..9}; only {4, 5, 6} survive marking at budget 2.
MARKING_GRAPH = complete_graph(
    10,
    [(0, 1), (1, 2)]
    + [(1, x) for x in range(3, 10)]
    + [(x, y) for x in range(3, 10) for y in range(x + 1, 10)],
)

MARKING_TRANSCRIPT = KernelTranscript(
    forest_vertices=frozenset({0, 1, 2, 3}),
    removed_cliques=(),
    clusters=(
        (
            frozenset(range(4, 10)),
            frozenset({4, 5, 6}),
            frozenset({7, 8, 9}),
        ),
    ),
    original_n=10,
)


def test_transcript_validation():
    t = MARKING_TRANSCRIPT
    assert t.id_map == (0, 1, 2, 3, 4, 5, 6)
    assert t.kernel_n == 7
    with pytest.raises(ValueError):  # groups must cover 0..n-1
        KernelTranscript(frozenset({0, 2}), (), (), 3)
    with pytest.raises(ValueError):  # groups must be disjoint
        KernelTranscript(frozenset({0}), (frozenset({0, 1}),), (), 2)
    with pytest.raises(ValueError):  # marked/removed must partition clique
        KernelTranscript(
            frozenset(), (), ((frozenset({0, 1}), frozenset({0}), frozenset()),), 2
        )
    with pytest.raises(ValueError):  # empty clique
        KernelTranscript(frozenset({0}), (), ((frozenset(), frozenset(), frozenset()),), 1)
    # written, an empty removed clique was an "rc" line that parse_transcript refuses
    with pytest.raises(ValueError, match="^empty clique in transcript$"):
        KernelTranscript(frozenset({0}), (frozenset(),), (), 1)
    with pytest.raises(ValueError):  # removals need surviving marked mates
        KernelTranscript(
            frozenset({0}), (), ((frozenset({1}), frozenset(), frozenset({1})),), 2
        )


CLIQUE = frozenset({0, True})  # a clique kept whole, holding the id True


@pytest.mark.parametrize(
    "transcript, bad",
    [
        ((frozenset({True, 0}), (), (), 2), "True"),
        ((frozenset({0.0, 1}), (), (), 2), "0.0"),
        ((frozenset({0}), (frozenset({1.0}),), (), 2), "1.0"),
        ((frozenset(), (), ((CLIQUE, CLIQUE, frozenset()),), 2), "True"),
    ],
)
def test_transcript_rejects_ids_that_are_not_ints(transcript, bad):
    # accepted, these were written as ``S 0 True`` or ``S 0.0 1``, which
    # parse_transcript refuses
    message = f"^vertex id must be a non-negative integer, got {re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        KernelTranscript(*transcript)


def test_rule_remove_isolated_cliques():
    # Bad triangle on {0,1,2} plus an isolated blue clique {3,4}: kernelize
    # removes the clique and keeps the triangle.
    g = complete_graph(5, [(0, 1), (1, 2), (3, 4)])
    result = kernelize(g, 1)
    assert isinstance(result, Kernelized)
    assert result.transcript.removed_cliques == (frozenset({3, 4}),)
    assert result.transcript.id_map == (0, 1, 2)
    assert result.graph == BAD_TRIANGLE
    with pytest.raises(ValueError):
        kernelize(incomplete_graph(2, [(0, 1)], []), 1)


def test_rule_preserves_optimum():
    # Appending an isolated blue clique never changes the optimal cost, and
    # kernelize removes it.
    for seed in range(30):
        core = gen_random(5, 0.5, 0.5, complete=True, seed=seed)
        blue = list(core.blue_edges()) + [(5, 6), (5, 7), (6, 7)]
        g = complete_graph(8, blue)
        result = kernelize(g, 8)
        assert isinstance(result, Kernelized)
        assert frozenset({5, 6, 7}) in result.transcript.removed_cliques
        fg = solve_exact(g, SearchBudget(max_cost=8))
        fk = solve_exact(result.graph, SearchBudget(max_cost=8))
        assert fg is not None and fk is not None
        assert cost(fg, g.n) == cost(fk, result.graph.n)
        lifted = lift_clustering(fk, result.transcript)
        assert verify_clustering(g, lifted).ok
        assert cost(lifted, g.n) == cost(fg, g.n)


def test_kernelize_argument_errors():
    with pytest.raises(ValueError):
        kernelize(incomplete_graph(3, [(0, 1)], [(0, 2)]), 1)
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError):
            kernelize(MARKING_GRAPH, bad)


def test_kernelize_rejects_over_budget():
    result = kernelize(BAD_TRIANGLE, 0)
    assert isinstance(result, NoInstance)
    assert result.witness.stars == (BadStar(1, (0, 2)),)
    assert result.witness.weight == 1


def test_kernelize_bad_triangle_is_its_own_kernel():
    result = kernelize(BAD_TRIANGLE, 1)
    assert isinstance(result, Kernelized)
    assert result.graph == BAD_TRIANGLE
    t = result.transcript
    assert t.forest_vertices == frozenset({0, 1, 2})
    assert t.removed_cliques == ()
    assert t.clusters == ()
    assert lift_clustering(Clustering([{0, 1}, {1, 2}]), t) == Clustering(
        [{0, 1}, {1, 2}]
    )


def test_kernelize_cluster_graph_empties_out():
    g = complete_graph(4, [(0, 1)])
    result = kernelize(g, 0)
    assert isinstance(result, Kernelized)
    assert result.graph.n == 0
    t = result.transcript
    assert t.forest_vertices == frozenset()
    assert set(t.removed_cliques) == {
        frozenset({0, 1}),
        frozenset({2}),
        frozenset({3}),
    }
    lifted = lift_clustering(Clustering(()), t)
    assert verify_clustering(g, lifted).ok
    assert cost(lifted, 4) == 0


def test_kernelize_clique_count_cutoff():
    # Hub vertices 0 and 1 are blue to every leaf 3..7; the leaves are
    # pairwise red, so after removing the greedy star on {0,1,2} five
    # singleton cliques remain: too many for budget 1.
    blue = [(0, 1), (1, 2)] + [(h, x) for h in (0, 1) for x in range(3, 8)]
    g = complete_graph(8, blue)
    result = kernelize(g, 1)
    assert isinstance(result, NoInstance)
    assert result.witness.stars == (BadStar(0, (3, 4, 5, 6, 7)),)
    assert result.witness.weight == 4
    assert all(is_bad_star(g, star) for star in result.witness.stars)
    # The witness is honest: the instance really has no cost-1 clustering.
    assert not decide(g, 1)


def test_kernelize_marking():
    result = kernelize(MARKING_GRAPH, 2)
    assert isinstance(result, Kernelized)
    assert result.transcript == MARKING_TRANSCRIPT
    expected, id_map = MARKING_GRAPH.induced_subgraph(range(7))
    assert id_map == (0, 1, 2, 3, 4, 5, 6)
    assert result.graph == expected

    f = solve_exact(result.graph, SearchBudget(max_cost=2))
    assert f is not None
    lifted = lift_clustering(f, result.transcript)
    assert verify_clustering(MARKING_GRAPH, lifted).ok
    assert cost(lifted, 10) == cost(f, result.graph.n) == 2


def _planted_graphs():
    """Five of the benchmark's planted complete graphs on 200 vertices."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from instances import planted_complete
    finally:
        sys.path.remove(str(PERFBENCH))
    return [parse_graph(planted_complete(seed, 200, 6, 2).ccg) for seed in range(1, 6)]


def test_kernelize_budget_beyond_sys_maxsize():
    # a budget of n or more marks every clique member; the red marks used to
    # go through islice, which takes no stop above sys.maxsize
    for g in [MARKING_GRAPH, *_planted_graphs()]:
        kernel = kernelize(g, g.n)
        assert isinstance(kernel, Kernelized)
        assert kernelize(g, 2**63) == kernelize(g, 10**30) == kernel


def test_kernelize_transcripts_round_trip():
    graphs = _planted_graphs()
    graphs += [gen_random(12, 0.6, 0.4, complete=True, seed=seed) for seed in range(20)]
    written = 0
    for g in graphs:
        for k in (0, 1, 2, 3, 5, g.n):
            result = kernelize(g, k)
            if isinstance(result, Kernelized):
                data = write_transcript(result.transcript)
                assert parse_transcript(data) == result.transcript
                assert write_transcript(parse_transcript(data)) == data
                written += 1
    assert written >= 60


def test_lift_rejects_misshapen_solutions():
    with pytest.raises(ValueError):  # kernel id beyond the id map
        lift_clustering(Clustering([{7}]), MARKING_TRANSCRIPT)
    with pytest.raises(ValueError):  # no cluster holds the marked part whole
        lift_clustering(
            Clustering([{0, 1, 2, 3, 4}, {5}, {6}]), MARKING_TRANSCRIPT
        )
    with pytest.raises(ValueError, match="kernel vertex 6 is in no cluster"):
        lift_clustering(Clustering([{0, 1, 2}, {1, 3, 4, 5}]), MARKING_TRANSCRIPT)


def test_transcript_round_trip():
    data = write_transcript(MARKING_TRANSCRIPT)
    assert data == b"S 0 1 2 3\ncl 4 5 6 7 8 9 | 4 5 6 | 7 8 9\n"
    assert parse_transcript(data) == MARKING_TRANSCRIPT

    t = KernelTranscript(
        frozenset({0, 1, 2}), (frozenset({3, 4}),), (), 5
    )
    assert write_transcript(t) == b"S 0 1 2\nrc 3 4\n"
    assert parse_transcript(write_transcript(t)) == t
    assert parse_transcript(b"# comment\nS 0 1 2\n\nrc 3 4\n") == t


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"rc 0 1\n",
        b"S 0 x\n",
        b"S 0 -1\n",
        b"S 1 0\n",
        b"S 0\nrc\n",
        b"S 0\ncl 1 2 | 1 2\n",
        b"S 0\ncl 1 2 | 1 | 2 | 3\n",
        b"S 0\ncl 1 2 | 1 | 2\nrc 3\n",
        b"S 0\nxyzzy 1\n",
        b"S 0 2\n",
        b"S 0\nrc 0 1\n",
        b"S 0\ncl 1 2 | 1 | 3\n",
        b"S +0\n",
        b"S 0 1 2 3 4 5 6 7 8 9 1_0\n",
        "S 0\nrc \u0661 2\n".encode(),
        b"S 0 " + b"1" * 5000 + b"\n",
    ],
)
def test_parse_transcript_malformed(data):
    with pytest.raises(FormatError):
        parse_transcript(data)


def test_kernel_matches_exact_decisions():
    # Kernelizing then deciding agrees with deciding directly, and kernel
    # solutions lift to equal-cost solutions of the original instance.
    checked_yes = checked_no = 0
    for seed in range(120):
        n = 4 + seed % 5
        g = gen_random(n, 0.55, 0.45, complete=True, seed=900 + seed)
        for k in range(4):
            result = kernelize(g, k)
            direct = decide(g, k)
            if isinstance(result, NoInstance):
                assert result.witness.weight > k
                assert all(is_bad_star(g, s) for s in result.witness.stars)
                assert not direct
                checked_no += 1
                continue
            bound = 24 * k**3 + 24 * k**2 + 3 * k
            assert result.graph.n <= bound
            f = solve_exact(result.graph, SearchBudget(max_cost=k))
            assert (f is not None) == direct
            if f is not None:
                lifted = lift_clustering(f, result.transcript)
                assert verify_clustering(g, lifted).ok
                assert cost(lifted, g.n) == cost(f, result.graph.n) <= k
                checked_yes += 1
    assert checked_yes >= 50 and checked_no >= 50
