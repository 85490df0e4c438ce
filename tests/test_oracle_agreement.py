"""The set-based scans against the pair-by-pair references in ``oracles``.

Forests, bad triangles, validation reports, clique decompositions, vertex
covers, the split graphs of clusterings and the clusterings read back off
split graphs and multicut solutions must come out exactly as the
straightforward versions compute them, order included, on random and
planted graphs.  Both translations of an invalid clustering must refuse
it with the pairwise report.  Forests and bad triangles are also checked
on twin-rich graphs, where the scan skips twins, and so is ``approximate``
against the first cheapest of all assembled candidates.  The kernel's
isolated, kept and marked cliques and its many-cliques witness must match
the reference that rescans the forest vertices for every clique.
Erroneous-cycle tests and multicut verification, which label blue
components, must agree with union-find references.  The builders that
skip the public constructors' pair checks must give the same graphs and
instances, adjacency lists included, as the checked references that pass
every pair through those constructors.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from splitclust import (
    BipartiteGraph,
    Clustering,
    CorrelationGraph,
    Kernelized,
    MulticutSolution,
    NoInstance,
    RealizedGraph,
    ValidationReport,
    approximate,
    bipartite_min_vertex_cover,
    ccvs_to_mcvs,
    cluster_decomposition,
    clustering_to_multicut_solution,
    clustering_to_splits,
    complete_graph,
    cost,
    find_bad_triangle,
    gen_random,
    has_erroneous_cycle,
    incomplete_graph,
    kernelize,
    lower_bound,
    maximal_bad_star_forest,
    mcvs_to_ccvs,
    multicut_solution_to_clustering,
    parse_graph,
    parse_multicut_instance,
    splits_to_clustering,
    verify_clustering,
    verify_multicut_solution,
    write_graph,
    write_multicut_instance,
)
from splitclust.graphs import _parse_graph_lines
from splitclust.multicut import _parse_instance_lines, _realize
from oracles import (
    _separates,
    _split_choices,
    _UnionFind,
    checked_ccvs_to_mcvs,
    checked_induced_subgraph,
    checked_mcvs_to_ccvs,
    checked_realize,
    first_bad_triangle,
    first_cheapest_candidate,
    greedy_bad_star_forest,
    pairwise_cluster_decomposition,
    pairwise_clustering_to_splits,
    pairwise_verify,
    recursive_min_vertex_cover,
    repairing_multicut_to_clustering,
    repairing_splits_to_clustering,
    rescanning_kernel_parts,
)

P_BLUE = st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9])


def planted(
    n: int, clusters: int, overlaps: int, flips: int, seed: int
) -> tuple[CorrelationGraph, Clustering]:
    """Complete graph blue on co-clustered pairs, with a few pairs flipped.

    Every vertex has a home cluster and ``overlaps`` of them join one more,
    so overlapping vertices are bad-star centers.  The clustering returned
    is the planted one, valid when ``flips`` is 0.
    """
    rng = random.Random(seed)
    members: list[set[int]] = [set() for _ in range(clusters)]
    for v in range(n):
        members[v if v < clusters else rng.randrange(clusters)].add(v)
    for v in rng.sample(range(n), overlaps):
        members[rng.randrange(clusters)].add(v)
    blue = {(u, v) for m in members for u in m for v in m if u < v}
    for _ in range(flips):
        u, v = sorted(rng.sample(range(n), 2))
        blue ^= {(u, v)}
    return complete_graph(n, blue), Clustering(members)


def forest_stars(g: CorrelationGraph):
    return tuple((s.center, s.leaves) for s in maximal_bad_star_forest(g).stars)


def report_fields(g: CorrelationGraph, f: Clustering):
    r = verify_clustering(g, f)
    return r.uncovered_blue, r.unresolved_red, r.uncovered_vertices


def check_verify(g: CorrelationGraph, f: Clustering) -> bool:
    """The report of f equals the pairwise one; both translations refuse it if invalid.

    The refusal must carry the pairwise report, so each translation checks
    as much as ``verify_clustering`` and says the same.  Returns validity.
    """
    fields = pairwise_verify(g, f)
    assert report_fields(g, f) == fields
    report = ValidationReport(*fields)
    if not report.ok:
        for translate in (clustering_to_splits, clustering_to_multicut_solution):
            with pytest.raises(ValueError) as info:
                translate(g, f)
            assert str(info.value) == f"clustering is not valid for the graph: {report}"
    return report.ok


@given(st.integers(4, 30), P_BLUE, st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_forest_matches_rescanning_greedy_on_random(n, p_blue, seed):
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    assert forest_stars(g) == greedy_bad_star_forest(g)


@given(
    st.integers(20, 90),
    st.integers(2, 8),
    st.integers(0, 8),
    st.integers(0, 6),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_forest_matches_rescanning_greedy_on_planted(n, clusters, overlaps, flips, seed):
    g, _ = planted(n, clusters, overlaps, flips, seed)
    assert forest_stars(g) == greedy_bad_star_forest(g)


@given(st.integers(2, 25), P_BLUE, st.floats(0.0, 1.0), st.integers(0, 10_000), st.data())
@settings(max_examples=150, deadline=None)
def test_bad_triangle_matches_reference_on_incomplete(n, p_blue, red_share, seed, data):
    # the remaining share of pairs stays neutral and must never close a triangle
    g = gen_random(n, p_blue, (1 - p_blue) * red_share, complete=False, seed=seed)
    within = data.draw(st.none() | st.sets(st.integers(0, n - 1)))
    assert find_bad_triangle(g, within) == first_bad_triangle(g, within)
    assert cluster_decomposition(g, within) == pairwise_cluster_decomposition(g, within)


@given(st.integers(2, 25), P_BLUE, st.integers(0, 10_000), st.data())
@settings(max_examples=100, deadline=None)
def test_bad_triangle_and_cliques_match_reference_on_complete(n, p_blue, seed, data):
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    within = data.draw(st.none() | st.sets(st.integers(0, n - 1)))
    assert find_bad_triangle(g, within) == first_bad_triangle(g, within)
    assert cluster_decomposition(g, within) == pairwise_cluster_decomposition(g, within)
    assert has_erroneous_cycle(g) == (pairwise_cluster_decomposition(g) is None)


def blow_up(n: int, p_blue: float, seed: int) -> CorrelationGraph:
    """A random complete graph with each vertex replaced by 1-4 twins.

    The copies of a vertex are blue to every copy of its blue neighbours.
    Most vertices get true twins, a blue clique sharing one closed
    neighbourhood without being an isolated clique; the rest get false
    twins, pairwise red, which share only their open neighbourhood.  Ids
    are shuffled so that twins are not consecutive.
    """
    rng = random.Random(seed)
    base = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    sizes = [rng.randint(1, 4) for _ in range(n)]
    ids = list(range(sum(sizes)))
    rng.shuffle(ids)
    twins = []
    for size in sizes:
        twins.append(ids[:size])
        del ids[:size]
    blue = [
        (a, b)
        for group in twins
        if rng.random() < 0.75
        for a in group
        for b in group
        if a < b
    ]
    blue += [(a, b) for u, v in base.blue_edges() for a in twins[u] for b in twins[v]]
    return complete_graph(sum(sizes), blue)


@given(st.integers(2, 12), P_BLUE, st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_forest_matches_rescanning_greedy_on_blow_ups(n, p_blue, seed):
    g = blow_up(n, p_blue, seed)
    assert forest_stars(g) == greedy_bad_star_forest(g)


def twin_rich(blown_up: bool, seed: int, data) -> CorrelationGraph:
    """A blown-up random graph, or a planted one with a few pairs flipped."""
    if blown_up:
        return blow_up(data.draw(st.integers(2, 12)), data.draw(P_BLUE), seed)
    n = data.draw(st.integers(10, 60))
    clusters, flips = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 4))
    return planted(n, clusters, n // 8, flips, seed)[0]


@given(st.booleans(), st.integers(0, 10_000), st.data())
@settings(max_examples=200, deadline=None)
def test_bad_triangle_matches_reference_on_twin_rich(blown_up, seed, data):
    g = twin_rich(blown_up, seed, data)
    within = data.draw(st.none() | st.sets(st.integers(0, g.n - 1)))
    assert find_bad_triangle(g, within) == first_bad_triangle(g, within)


@given(st.booleans(), st.integers(0, 10_000), st.data())
@settings(max_examples=100, deadline=None)
def test_approximate_is_first_cheapest_candidate_on_twin_rich(blown_up, seed, data):
    g = twin_rich(blown_up, seed, data)
    assert approximate(g) == first_cheapest_candidate(g)


def with_pendants(core: CorrelationGraph, count: int, seed: int) -> CorrelationGraph:
    """core plus ``count`` pairwise red pendants, each blue to one leaf of its forest.

    Pendants are red to the star centers, so most stay out of the forest
    as singleton cliques with one blue edge into it: many cliques against
    a light forest, the case where ``kernelize`` rejects with the
    many-cliques witness.
    """
    rng = random.Random(seed)
    leaves = [v for star in maximal_bad_star_forest(core).stars for v in star.leaves]
    if not leaves:
        return core
    pendants = [(rng.choice(leaves), core.n + i) for i in range(count)]
    return complete_graph(core.n + count, core.blue_edges() + pendants)


def test_kernel_parts_match_rescanning_reference():
    """Isolated cliques, kept and marked cliques and the witness, at several budgets."""
    graphs = []
    for seed in range(40):
        rng = random.Random(seed)
        p_blue = rng.choice([0.2, 0.5, 0.8])
        n = rng.randint(1, 25)
        graphs.append(gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed))
        n, clusters, overlaps = rng.randint(10, 80), rng.randint(2, 8), rng.randint(0, 6)
        graphs.append(planted(n, clusters, overlaps, rng.randint(0, 3), seed)[0])
        graphs.append(blow_up(rng.randint(2, 10), p_blue, seed))
        core = gen_random(rng.randint(3, 8), 0.5, 0.5, complete=True, seed=seed)
        graphs.append(with_pendants(core, rng.randint(4, 16), seed))
    paths = {"forest": 0, "many cliques": 0, "kernel": 0}
    for g in graphs:
        weight = lower_bound(g)
        for k in {weight, weight + 1, weight + 4}:
            isolated, clusters, witness = rescanning_kernel_parts(g, k)
            result = kernelize(g, k)
            if len(clusters) >= 4 * k + 1:
                assert isinstance(result, NoInstance)
                assert tuple((s.center, s.leaves) for s in result.witness.stars) == witness
                paths["many cliques"] += 1
                continue
            assert isinstance(result, Kernelized)
            t = result.transcript
            assert t.removed_cliques == isolated
            assert tuple((c, marked) for c, marked, _ in t.clusters) == clusters
            paths["kernel"] += 1
        if weight:
            assert kernelize(g, weight - 1) == NoInstance(maximal_bad_star_forest(g))
            paths["forest"] += 1
    assert min(paths.values()) >= 10, paths


def mutations(f: Clustering, rng: random.Random) -> list[Clustering]:
    """f itself, f with one membership dropped, two clusters merged, one duplicated."""
    clusters = [set(c) for c in f]
    out = [f]
    i = rng.randrange(len(clusters))
    dropped = [set(c) for c in clusters]
    dropped[i].discard(rng.choice(sorted(dropped[i])))
    out.append(Clustering(c for c in dropped if c))
    if len(clusters) >= 2:
        a, b = rng.sample(range(len(clusters)), 2)
        merged = [c for j, c in enumerate(clusters) if j not in (a, b)]
        out.append(Clustering([clusters[a] | clusters[b], *merged]))
    out.append(Clustering([*clusters, clusters[i]]))
    return out


@given(st.integers(4, 30), P_BLUE, st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_verify_matches_pairwise_on_random(n, p_blue, seed):
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    rng = random.Random(seed)
    for f in mutations(approximate(g), rng):
        check_verify(g, f)
    check_verify(g, arbitrary_family(n, rng))


@given(
    st.integers(20, 90),
    st.integers(2, 8),
    st.integers(0, 8),
    st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_verify_matches_pairwise_on_planted(n, clusters, overlaps, seed):
    g, f = planted(n, clusters, overlaps, 0, seed)
    assert verify_clustering(g, f).ok
    for mutated in mutations(f, random.Random(seed)):
        check_verify(g, mutated)


def test_verify_matches_pairwise_on_complete_groups():
    """Groups of vertices with one sole cluster, on complete graphs.

    A group that is a blue clique is skipped without listing its pairs;
    one missing a blue pair, and an uncovered vertex, are listed.
    """
    for seed in range(40):
        g, f = planted(40, 4, 5, 0, seed)
        assert check_verify(g, f)  # every group fully blue
        where = f.membership(g.n)
        inside = [
            (u, v) for u, v in g.blue_edges() if len(where[u]) == 1 and where[u] == where[v]
        ]
        rng = random.Random(seed)
        u, v = rng.choice(inside)
        missing = complete_graph(g.n, set(g.blue_edges()) - {(u, v)})
        assert not check_verify(missing, f)
        assert report_fields(missing, f) == ((), ((u, v),), ())
        w = rng.randrange(g.n)
        dropped = Clustering(c - {w} for c in f if c != {w})
        assert not check_verify(g, dropped)
        assert report_fields(g, dropped)[2] == (w,)


def test_verify_matches_pairwise_on_incomplete():
    """Random graphs with neutral pairs, and planted ones with overlaps.

    Each valid clustering goes through ``mutations``, and an arbitrary
    family joins them; every invalid one must be refused by both
    translations with the pairwise report.
    """
    valid = {True: 0, False: 0}
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        if seed % 2:
            p_blue = rng.choice([0.1, 0.3, 0.5])
            g = gen_random(n, p_blue, rng.uniform(0, 1 - p_blue), complete=False, seed=seed)
            f = edge_clustering(g)
        else:
            g, f = planted_incomplete(n, rng.randint(1, 6), seed)
            f = with_overlaps(f, n, rng)
        assert verify_clustering(g, f).ok
        for chosen in (*mutations(f, rng), arbitrary_family(n, rng)):
            valid[check_verify(g, chosen)] += 1
    assert min(valid.values()) >= 150, valid


def arbitrary_family(n: int, rng: random.Random) -> Clustering:
    """Random clusters: uncovered vertices, several of them adjacent."""
    return Clustering(
        rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 5))
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_iterative_cover_matches_recursive(data):
    left = tuple(range(data.draw(st.integers(1, 7))))
    right = tuple(range(10, 10 + data.draw(st.integers(1, 7))))
    edges = tuple(
        data.draw(
            st.lists(st.tuples(st.sampled_from(left), st.sampled_from(right)), max_size=25)
        )
    )
    assert bipartite_min_vertex_cover(
        BipartiteGraph(left, right, edges)
    ) == recursive_min_vertex_cover(left, right, edges)


def with_overlaps(f: Clustering, n: int, rng: random.Random) -> Clustering:
    """f with a few vertices added to one more cluster each.

    Extra memberships never uncover a blue pair or unresolve a red one, so
    a valid f stays valid.
    """
    clusters = [set(c) for c in f]
    for v in rng.sample(range(n), min(n, 3)):
        clusters[rng.randrange(len(clusters))].add(v)
    return Clustering(clusters)


def planted_incomplete(n: int, clusters: int, seed: int) -> tuple[CorrelationGraph, Clustering]:
    """Incomplete graph labelled to fit a random overlapping clustering.

    Pairs sharing a cluster are blue or neutral, other resolved pairs red
    or neutral, so the clustering is valid by construction.
    """
    rng = random.Random(seed)
    members: list[set[int]] = [set() for _ in range(clusters)]
    for v in range(n):
        for i in rng.sample(range(clusters), rng.randint(1, min(3, clusters))):
            members[i].add(v)
    f = Clustering(m for m in members if m)
    where = [set(w) for w in f.membership(n)]
    blue, red = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if where[u] & where[v] and rng.random() < 0.6:
                blue.append((u, v))
            elif not (where[u] == where[v] and len(where[u]) == 1) and rng.random() < 0.5:
                red.append((u, v))
    return incomplete_graph(n, blue, red), f


@given(st.integers(2, 30), P_BLUE, st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_clustering_to_splits_matches_pairwise_on_complete(n, p_blue, seed):
    g = gen_random(n, p_blue, 1 - p_blue, complete=True, seed=seed)
    for f in (approximate(g), with_overlaps(approximate(g), n, random.Random(seed))):
        assert clustering_to_splits(g, f) == pairwise_clustering_to_splits(g, f)


def test_clustering_to_splits_matches_pairwise_on_incomplete():
    """Planted clusterings with and without overlaps.

    Both kinds of red pair must occur in many cases: between two unsplit
    vertices, which gets one label, and touching a split vertex, which
    gets one per pair of copies in distinct clusters.
    """
    cases = {"unsplit": 0, "split": 0}
    for seed in range(100):
        rng = random.Random(seed)
        g, f = planted_incomplete(rng.randint(2, 30), rng.randint(1, 6), seed)
        assert verify_clustering(g, f).ok
        for f in (f, with_overlaps(f, g.n, rng)):
            assert clustering_to_splits(g, f) == pairwise_clustering_to_splits(g, f)
            split = [len(w) > 1 for w in f.membership(g.n)]
            red = g.red_edges()
            cases["unsplit"] += any(not (split[u] or split[v]) for u, v in red)
            cases["split"] += any(split[u] or split[v] for u, v in red)
    assert min(cases.values()) >= 30, cases


@given(st.integers(2, 25), P_BLUE, st.floats(0.0, 1.0), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_erroneous_cycle_matches_union_find_on_incomplete(n, p_blue, red_share, seed):
    # blue is kept sparse, so that graphs with and without such a cycle both occur
    g = gen_random(n, p_blue / 3, (1 - p_blue / 3) * red_share, complete=False, seed=seed)
    uf = _UnionFind(g.n)
    for u, v in g.blue_edges():
        uf.union(u, v)
    expected = any(uf.find(u) == uf.find(v) for u, v in g.red_edges())
    assert has_erroneous_cycle(g) == expected


def random_realized(complete: bool, seed: int) -> RealizedGraph:
    """A split graph with no erroneous cycle: one group of copies per vertex set.

    Random vertex lists, some of them repeated, each get one copy per entry;
    groups of equal sets give clusters that merge, so pairs inside them
    need singletons, and a list may name a vertex twice, so that two blue
    copies share a group.  Complete graphs are blue exactly inside groups;
    incomplete ones are blue on some pairs inside a group and red on some
    pairs across groups.
    """
    rng = random.Random(seed)
    original_n = rng.randint(1, 7)
    sets = [
        rng.choices(range(original_n), k=rng.randint(1, original_n))
        for _ in range(rng.randint(1, 4))
    ]
    sets += [rng.choice(sets) for _ in range(rng.randint(0, 2))]
    covered = set().union(*sets)
    sets += [[v] for v in range(original_n) if v not in covered]
    copies = [(v, i) for i, members in enumerate(sets) for v in members]
    rng.shuffle(copies)
    ancestors = [v for v, _ in copies]
    group = [i for _, i in copies]
    blue, red = [], []
    for x in range(len(ancestors)):
        for y in range(x + 1, len(ancestors)):
            if group[x] == group[y]:
                if complete or rng.random() < 0.7:
                    blue.append((x, y))
            elif not complete and rng.random() < 0.6:
                red.append((x, y))
    if complete:
        base = complete_graph(len(ancestors), blue)
    else:
        base = incomplete_graph(len(ancestors), blue, red)
    return RealizedGraph(base, ancestors, original_n)


def test_splits_to_clustering_matches_repairing():
    """Random split graphs, and split graphs of clusterings with a duplicate."""
    repaired = {True: 0, False: 0}
    for seed in range(300):
        for complete in (True, False):
            r = random_realized(complete, seed)
            expected, added = repairing_splits_to_clustering(r)
            assert splits_to_clustering(r) == expected
            repaired[complete] += added > 0
    assert min(repaired.values()) >= 30
    for seed in range(40):
        rng = random.Random(seed)
        g, f = planted(rng.randint(10, 50), rng.randint(2, 5), rng.randint(0, 5), 0, seed)
        h, e = planted_incomplete(rng.randint(2, 30), rng.randint(1, 5), seed)
        for graph, clustering in ((g, f), (h, with_overlaps(e, h.n, rng))):
            twice = Clustering([*clustering, clustering[rng.randrange(len(clustering))]])
            for chosen in (clustering, twice):
                r = clustering_to_splits(graph, chosen)
                assert splits_to_clustering(r) == repairing_splits_to_clustering(r)[0]


def test_splits_to_clustering_lists_no_red_pairs_on_complete(monkeypatch):
    g, f = planted(300, 9, 8, 0, seed=3)
    # the duplicate makes pairs inside f[0] red across its two copies
    r = clustering_to_splits(g, Clustering([*f, f[0]]))
    expected, added = repairing_splits_to_clustering(r)
    assert added > 0

    def refuse(self):
        raise AssertionError("red_edges() listed in splits_to_clustering")

    monkeypatch.setattr(CorrelationGraph, "red_edges", refuse)
    assert splits_to_clustering(r) == expected


def test_verify_multicut_matches_separates():
    """Random instances and solutions: separating, not separating, removing.

    Separating ones must read back as the reference that repairs every
    terminal pair does, singletons included.
    """
    outcomes = {True: 0, False: 0}
    removals = repaired = 0
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        g = gen_random(n, rng.choice([0.3, 0.5, 0.7]), 0.3, complete=False, seed=seed)
        inst = ccvs_to_mcvs(g, 0)
        chosen = [
            None if rng.random() < 0.5 else rng.choice(list(_split_choices(inst.neighbors(v))))
            for v in range(n)
        ]
        sol = MulticutSolution({v: parts for v, parts in enumerate(chosen) if parts})
        removals += any(parts and not parts[-1] for parts in chosen)
        ok = verify_multicut_solution(inst, sol)
        assert ok == _separates(inst, chosen)
        outcomes[ok] += 1
        if not ok:
            with pytest.raises(ValueError):
                multicut_solution_to_clustering(inst, sol)
            continue
        f = multicut_solution_to_clustering(inst, sol)
        expected, added = repairing_multicut_to_clustering(inst, sol)
        assert f == expected
        assert verify_clustering(mcvs_to_ccvs(inst)[0], f).ok
        assert cost(f, n) <= sol.cost
        repaired += added > 0
    assert min(outcomes.values()) >= 50 and removals >= 50 and repaired >= 10


def test_complete_graph_pipeline_makes_no_label_calls(monkeypatch):
    g, planted_f = planted(200, 7, 6, 0, seed=5)

    def refuse(self, u, v):
        raise AssertionError("label() called in a complete-graph scan")

    monkeypatch.setattr(CorrelationGraph, "label", refuse)
    assert lower_bound(g) >= 1
    f = approximate(g)
    assert verify_clustering(g, f).ok
    assert verify_clustering(g, planted_f).ok
    result = kernelize(g, cost(f, g.n))
    assert isinstance(result, Kernelized)
    with pytest.raises(AssertionError):
        g.label(0, 1)


def graph_fields(g: CorrelationGraph):
    """Everything a graph stores; ``==`` compares only the labels."""
    return g.n, g.complete, g._labels, g._blue_adj


def instance_fields(inst):
    return inst.n, inst.edges, inst.terminals, inst.k, inst._adj


def edge_clustering(g: CorrelationGraph) -> Clustering:
    """One cluster per blue pair and one singleton per vertex: valid for any graph."""
    return Clustering([*map(set, g.blue_edges()), *([v] for v in range(g.n))])


def test_trusted_builders_match_checked_references():
    """Random, planted and incomplete graphs through every trusted builder."""
    cases = []
    for seed in range(30):
        rng = random.Random(seed)
        g = gen_random(rng.randint(2, 25), 0.5, 0.5, complete=True, seed=seed)
        cases.append((g, approximate(g)))
        g = gen_random(rng.randint(2, 25), 0.3, 0.3, complete=False, seed=seed)
        cases.append((g, edge_clustering(g)))
        cases.append(planted(rng.randint(10, 80), rng.randint(2, 6), rng.randint(0, 6), 0, seed))
        g, f = planted_incomplete(rng.randint(2, 30), rng.randint(1, 5), seed)
        cases.append((g, with_overlaps(f, g.n, rng)))
    for seed, (g, f) in enumerate(cases):
        assert verify_clustering(g, f).ok
        rng = random.Random(seed)
        keep = rng.sample(range(g.n), rng.randint(0, g.n))
        sub, id_map = g.induced_subgraph(keep)
        ref, ref_map = checked_induced_subgraph(g, keep)
        assert graph_fields(sub) == graph_fields(ref) and id_map == ref_map

        r = clustering_to_splits(g, f)
        ref = pairwise_clustering_to_splits(g, f)
        assert graph_fields(r.base) == graph_fields(ref.base)
        assert r.ancestors == ref.ancestors

        k = cost(f, g.n)
        inst = ccvs_to_mcvs(g, k)
        assert instance_fields(inst) == instance_fields(checked_ccvs_to_mcvs(g, k))
        back, budget = mcvs_to_ccvs(inst)
        ref, ref_budget = checked_mcvs_to_ccvs(inst)
        assert graph_fields(back) == graph_fields(ref) and budget == ref_budget == k

        sol = clustering_to_multicut_solution(g, f)
        r = _realize(inst, sol)
        ref = checked_realize(inst, sol)
        assert graph_fields(r.base) == graph_fields(ref.base)
        assert r.ancestors == ref.ancestors

        for doc in (write_graph(g), write_graph(sub), write_graph(back)):
            assert graph_fields(parse_graph(doc)) == graph_fields(_parse_graph_lines(doc))
        doc = write_multicut_instance(inst)
        assert instance_fields(parse_multicut_instance(doc)) == instance_fields(
            _parse_instance_lines(doc)
        )
