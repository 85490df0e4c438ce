"""Independent brute-force reference implementations for tests.

Everything here recomputes answers from first principles, sharing no
algorithmic code with the package: set-family enumeration for minimum
clustering cost, subset enumeration for covers, assignment enumeration
for colorability, and exhaustive split enumeration with a local
union-find for multicut.  Only data accessors of the package types are
used.

The pair-by-pair references at the end are the package's original,
straightforward versions of routines that now run on neighbour sets: the
greedy bad star forest that rescans from vertex 0 for every star, the
pairwise clustering check, the clique test over all member pairs, the
recursive augmenting-path matching, the split graph of a clustering
built over all descendant pairs, and the clustering read off a split graph
by repairing every red ancestor pair (or, for a multicut solution, every
terminal pair), and the kernel's parts found by separate component and
clique passes that rescan the forest vertices for every clique.  The fast versions must agree with them exactly, down to
order.

The checked builders at the very end are the package's earlier versions
of code that now builds graphs and instances through their private
trusted constructors: every pair goes through the public constructor.
(``pairwise_clustering_to_splits`` serves as the checked split graph of
a clustering.)  The trusted versions must give the same objects,
adjacency lists included.  The references for the bulk reading of
canonical ``ccg`` and ``mcvs`` documents are not here: they are the
package's fallback readers, ``graphs._parse_graph_lines`` and
``multicut._parse_instance_lines``, which read all pair lines and then
let the public constructor check them.  The bulk readers must agree with
them on every document.  ``sorting_write_graph`` and
``sorting_write_multicut_instance`` are the writers as they were before
they read pairs off the sorted adjacency lists: they sort every listed
pair and format each line on its own.  The writers must emit the same
bytes.

``unpruned_solve_exact`` is the exact search as it was before suffix
lower bounds pruned it: every level is explored without a bound, and
deepening starts at ``lower_bound``.  The pruned search must return the
same clustering in no more nodes.  ``blocks_solve_exact`` is the pruned
search, on the package's ``_suffix_bounds``, as it was before it ran on
membership bitmasks alone, with blocks kept as member lists.  The bitmask
search must return the same clustering in the same number of nodes, and
trip the node limit at the same count and level.

``first_cheapest_candidate`` is ``approximate`` as it was before it
ranked the candidates by cost and assembled only the winner: it takes
the first cheapest of all assembled candidates.
"""

from __future__ import annotations

from itertools import combinations, product

from splitclust import (
    BLUE,
    RED,
    Clustering,
    CorrelationGraph,
    MulticutInstance,
    PlainGraph,
    RealizedGraph,
    SearchLimitReached,
    blue_components,
    candidate_solutions,
    has_erroneous_cycle,
    lower_bound,
)
from splitclust.detect import _suffix_bounds


def _family_is_valid(g: CorrelationGraph, family: tuple[frozenset[int], ...]) -> bool:
    where = [set() for _ in range(g.n)]
    for i, cluster in enumerate(family):
        for v in cluster:
            where[v].add(i)
    if any(not w for w in where):
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            color = g.label(u, v)
            if color is BLUE and not (where[u] & where[v]):
                return False
            if color is RED:
                if where[u] == where[v] and len(where[u]) == 1:
                    return False
    return True


def brute_min_clustering_cost(g: CorrelationGraph, cap: int | None = None) -> int:
    """Minimum clustering cost by enumerating set families.  For n <= 4.

    Duplicate clusters never help (dropping one and adding a singleton is
    at least as cheap), so plain set families suffice.
    """
    n = g.n
    if n == 0:
        return 0
    if cap is None:
        cap = n * (n - 1) // 2
    subsets = [
        frozenset(c)
        for size in range(1, n + 1)
        for c in combinations(range(n), size)
    ]
    for extra in range(cap + 1):
        total = n + extra
        for count in range(1, total + 1):
            for family in combinations(subsets, count):
                if sum(len(c) for c in family) != total:
                    continue
                if _family_is_valid(g, family):
                    return extra
    raise AssertionError(f"no clustering within cost {cap}")


def brute_vertex_cover_size(g: PlainGraph) -> int:
    edges = sorted(g.edges)
    if not edges:
        return 0
    for size in range(0, g.n + 1):
        for subset in combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable")


def brute_colorable(g: PlainGraph, colors: int) -> bool:
    edges = sorted(g.edges)
    for assignment in product(range(colors), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            return True
    return g.n == 0


def brute_bipartite_cover_size(left, right, edges) -> int:
    vertices = list(left) + list(right)
    edges = list(edges)
    if not edges:
        return 0
    for size in range(0, len(vertices) + 1):
        for subset in combinations(vertices, size):
            chosen = set(subset)
            if all(a in chosen or b in chosen for a, b in edges):
                return size
    raise AssertionError("unreachable")


def _partitions(items: list[int]):
    """All partitions of items into nonempty parts (each as list of sets)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in _partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] | {head}] + partial[i + 1 :]
        yield partial + [{head}]


def _split_choices(neighborhood: list[int]):
    """None (unsplit) plus every way to split: partitions into >= 2 parts,

    and the pair (all neighbors, empty) that models removing the vertex.
    """
    yield None
    for parts in _partitions(neighborhood):
        if len(parts) >= 2:
            yield parts
    yield [set(neighborhood), set()]


class _UnionFind:
    def __init__(self, n: int):
        self.p = list(range(n))

    def find(self, x: int) -> int:
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.p[self.find(x)] = self.find(y)


def _separates(inst: MulticutInstance, chosen: list) -> bool:
    ids: dict[tuple[int, int], int] = {}
    counter = 0
    for v in range(inst.n):
        parts = chosen[v]
        copies = 1 if parts is None else len(parts)
        for i in range(copies):
            ids[(v, i)] = counter
            counter += 1

    def owner(v: int, nbr: int) -> int:
        parts = chosen[v]
        if parts is None:
            return ids[(v, 0)]
        for i, part in enumerate(parts):
            if nbr in part:
                return ids[(v, i)]
        raise AssertionError("partition misses a neighbor")

    uf = _UnionFind(counter)
    for u, v in inst.edges:
        uf.union(owner(u, v), owner(v, u))
    for u, v in inst.terminals:
        if chosen[u] is None and chosen[v] is None:
            if uf.find(ids[(u, 0)]) == uf.find(ids[(v, 0)]):
                return False
    return True


def brute_min_multicut_cost(inst: MulticutInstance, cap: int) -> int | None:
    """Minimum split cost to separate all terminals, or None if above cap.

    Exhausts per-vertex choices: keep, any neighborhood partition into two
    or more nonempty parts, or the removing split (everything, empty).
    Refining parts only helps separation, so together with the removing
    split this covers every useful solution shape.
    """
    choices = [list(_split_choices(inst.neighbors(v))) for v in range(inst.n)]
    best: int | None = None
    chosen: list = [None] * inst.n

    def rec(v: int, spent: int) -> None:
        nonlocal best
        if best is not None and spent >= best:
            return
        if spent > cap:
            return
        if v == inst.n:
            if _separates(inst, chosen):
                best = spent
            return
        for parts in choices[v]:
            chosen[v] = parts
            extra = 0 if parts is None else len(parts) - 1
            rec(v + 1, spent + extra)
        chosen[v] = None

    rec(0, 0)
    return best


def first_bad_triangle(
    g: CorrelationGraph, within=None
) -> tuple[int, int, int] | None:
    """Lexicographically smallest bad triangle (u, v, w), u < w, by label()."""
    pool = range(g.n) if within is None else sorted(set(within))
    allowed = set(pool)
    for u in pool:
        for v in g.blue_neighbors(u):
            if v not in allowed:
                continue
            for w in g.blue_neighbors(v):
                if w > u and w in allowed and g.label(u, w) is RED:
                    return (u, v, w)
    return None


def greedy_bad_star_forest(g: CorrelationGraph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(center, sorted leaves) per star of the greedy forest, rescanning each time."""
    unused = set(range(g.n))
    stars = []
    while True:
        triangle = first_bad_triangle(g, unused)
        if triangle is None:
            return tuple(stars)
        u, center, w = triangle
        leaves = [u, w]
        for x in sorted(unused):
            if x in (u, center, w):
                continue
            if g.label(center, x) is BLUE and all(
                g.label(x, leaf) is RED for leaf in leaves
            ):
                leaves.append(x)
        stars.append((center, tuple(sorted(leaves))))
        unused -= {center, *leaves}


def rescanning_kernel_parts(g: CorrelationGraph, k: int):
    """(isolated cliques, (clique, marked) per kept clique, witness stars).

    The kernel's earlier derivation of its parts from the forest vertices
    S: isolated cliques from a full-graph blue component pass, kept
    cliques from a second clique decomposition of the vertices left
    outside S and the isolated cliques, each s in S marking its k+1
    smallest blue and red members of every kept clique, and the
    many-cliques witness from rescanning S once per kept clique for the
    smallest s with a blue edge into it, then that edge's smallest end.
    The witness comes as (center, sorted leaves) per star, for every
    center with two leaves or more.
    """
    s_sorted = sorted(
        {v for center, leaves in greedy_bad_star_forest(g) for v in (center, *leaves)}
    )
    isolated = tuple(
        frozenset(comp)
        for comp in blue_components(g)
        if all(g.label(u, v) is BLUE for u, v in combinations(comp, 2))
    )
    gone = set(s_sorted).union(*isolated)
    kept = pairwise_cluster_decomposition(g, [v for v in range(g.n) if v not in gone])
    clusters = []
    for clique in kept:
        members = sorted(clique)
        marked: set[int] = set()
        for s in s_sorted:
            blue = [v for v in members if g.label(s, v) is BLUE]
            red = [v for v in members if g.label(s, v) is RED]
            marked.update(blue[: k + 1] + red[: k + 1])
        clusters.append((clique, frozenset(marked)))
    leaves_by_center: dict[int, list[int]] = {}
    for clique in kept:
        s, c = next((s, c) for s in s_sorted for c in g.blue_neighbors(s) if c in clique)
        leaves_by_center.setdefault(s, []).append(c)
    witness = tuple(
        (center, tuple(sorted(leaves)))
        for center, leaves in sorted(leaves_by_center.items())
        if len(leaves) >= 2
    )
    return isolated, tuple(clusters), witness


def pairwise_verify(g: CorrelationGraph, clusters) -> tuple[tuple, tuple, tuple]:
    """(uncovered blue, unresolved red, uncovered vertices), checking every pair."""
    where = [set() for _ in range(g.n)]
    for i, cluster in enumerate(clusters):
        for v in cluster:
            where[v].add(i)
    uncovered_blue = []
    unresolved_red = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            color = g.label(u, v)
            if color is BLUE and not (where[u] & where[v]):
                uncovered_blue.append((u, v))
            if color is RED and (
                not where[u]
                or not where[v]
                or (where[u] == where[v] and len(where[u]) == 1)
            ):
                unresolved_red.append((u, v))
    uncovered = tuple(v for v in range(g.n) if not where[v])
    return tuple(uncovered_blue), tuple(unresolved_red), uncovered


def pairwise_cluster_decomposition(g: CorrelationGraph, within=None):
    """Blue components of the pool as frozensets if all are cliques, else None."""
    pool = sorted(range(g.n) if within is None else set(within))
    allowed = set(pool)
    seen: set[int] = set()
    out = []
    for start in pool:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in g.blue_neighbors(u):
                if w in allowed and w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        if any(g.label(u, v) is not BLUE for u, v in combinations(sorted(comp), 2)):
            return None
        out.append(frozenset(comp))
    return out


def recursive_min_vertex_cover(left, right, edges) -> frozenset:
    """Minimum vertex cover by recursive augmenting paths, then Koenig's sets."""
    adj: dict = {l: [] for l in left}
    for l, r in dict.fromkeys(edges):
        adj[l].append(r)
    match_left: dict = {}
    match_right: dict = {}

    def augment(l, visited: set) -> bool:
        for r in adj[l]:
            if r in visited:
                continue
            visited.add(r)
            if r not in match_right or augment(match_right[r], visited):
                match_left[l] = r
                match_right[r] = l
                return True
        return False

    for l in left:
        if adj[l]:
            augment(l, set())
    reach_left = {l for l in left if l not in match_left}
    reach_right: set = set()
    frontier = list(reach_left)
    while frontier:
        l = frontier.pop()
        for r in adj[l]:
            if match_left.get(l) == r or r in reach_right:
                continue
            reach_right.add(r)
            back = match_right.get(r)
            if back is not None and back not in reach_left:
                reach_left.add(back)
                frontier.append(back)
    return frozenset(
        [l for l in left if l not in reach_left] + [r for r in right if r in reach_right]
    )


def pairwise_clustering_to_splits(g: CorrelationGraph, f: Clustering) -> RealizedGraph:
    """The split graph of a valid clustering, labelling every descendant pair."""
    idx = f.membership(g.n)
    descendants = [(v, i) for v in range(g.n) for i in idx[v]]
    edges = []
    for d1 in range(len(descendants)):
        u, i = descendants[d1]
        for d2 in range(d1 + 1, len(descendants)):
            v, j = descendants[d2]
            if u == v:
                edges.append((d1, d2, RED))
            elif i == j:
                edges.append((d1, d2, BLUE))
            else:
                color = RED if g.complete else g.label(u, v)
                if color is RED:
                    edges.append((d1, d2, RED))
    base = CorrelationGraph(len(descendants), edges, complete=g.complete)
    return RealizedGraph(base, (v for v, _ in descendants), g.n)


def repairing_splits_to_clustering(r: RealizedGraph) -> tuple[Clustering, int]:
    """Clusters of a split graph, then a singleton for every unresolved red pair.

    Lists every red pair of the base, O(N^2) on complete graphs, and tries
    each ancestor pair in sorted order.  Returns the clustering and the
    number of singletons added.
    """
    if has_erroneous_cycle(r.base):
        raise ValueError("realized graph has an erroneous cycle")
    clusters = list(
        dict.fromkeys(
            frozenset(r.ancestors[d] for d in comp) for comp in blue_components(r.base)
        )
    )
    pairs = sorted(
        {
            (min(r.ancestors[x], r.ancestors[y]), max(r.ancestors[x], r.ancestors[y]))
            for x, y in r.base.red_edges()
            if r.ancestors[x] != r.ancestors[y]
        }
    )
    copies = [0] * r.original_n
    for a in r.ancestors:
        copies[a] += 1
    where = [set() for _ in range(r.original_n)]
    for i, cluster in enumerate(clusters):
        for v in cluster:
            where[v].add(i)
    merged = len(clusters)
    for u, v in pairs:
        if where[u] and where[v] and not (where[u] == where[v] and len(where[u]) == 1):
            continue
        w = min(x for x in (u, v) if copies[x] >= 2)
        where[w].add(len(clusters))
        clusters.append(frozenset((w,)))
    return Clustering(clusters), len(clusters) - merged


def repairing_multicut_to_clustering(
    inst: MulticutInstance, sol
) -> tuple[Clustering, int]:
    """Clusters of a solution's copies, then a singleton per unresolved terminal pair.

    Copies are numbered by vertex and then by part, and joined along the
    edges by a union-find; every terminal pair is tried in sorted order.
    Returns the clustering and the number of singletons added.
    """
    parts_of = dict(sol.splits)
    ancestors: list[int] = []
    owner: dict[tuple[int, int | None], int] = {}
    for v in range(inst.n):
        if v not in parts_of:
            owner[v, None] = len(ancestors)
            ancestors.append(v)
            continue
        for part in parts_of[v]:
            for u in part:
                owner[v, u] = len(ancestors)
            ancestors.append(v)

    def copy(v: int, u: int) -> int:
        return owner[v, u] if v in parts_of else owner[v, None]

    uf = _UnionFind(len(ancestors))
    for u, v in inst.edges:
        uf.union(copy(u, v), copy(v, u))
    components: dict[int, list[int]] = {}
    for d in range(len(ancestors)):
        components.setdefault(uf.find(d), []).append(d)
    clusters = list(
        dict.fromkeys(
            frozenset(ancestors[d] for d in comp)
            for comp in sorted(components.values(), key=min)
        )
    )
    where = [set() for _ in range(inst.n)]
    for i, cluster in enumerate(clusters):
        for v in cluster:
            where[v].add(i)
    merged = len(clusters)
    for u, v in sorted(inst.terminals):
        if not (where[u] == where[v] and len(where[u]) == 1):
            continue
        w = min(x for x in (u, v) if x in parts_of)
        where[w].add(len(clusters))
        clusters.append(frozenset((w,)))
    return Clustering(clusters), len(clusters) - merged


def checked_induced_subgraph(
    g: CorrelationGraph, vertices
) -> tuple[CorrelationGraph, tuple[int, ...]]:
    """``g.induced_subgraph`` with every kept pair re-checked by the constructor."""
    keep = sorted(set(vertices))
    index = {old: new for new, old in enumerate(keep)}
    edges = [
        (index[u], index[v], c)
        for (u, v), c in g._labels.items()
        if u in index and v in index
    ]
    return CorrelationGraph(len(keep), edges, complete=g.complete), tuple(keep)


def checked_realize(inst: MulticutInstance, sol) -> RealizedGraph:
    """``multicut._realize`` passing every pair of the split graph to the constructor."""
    split_parts = dict(sol.splits)
    ancestors: list[int] = []
    plain: dict[int, int] = {}
    owner: dict[tuple[int, int], int] = {}
    for v in range(inst.n):
        parts = split_parts.get(v)
        if parts is None:
            plain[v] = len(ancestors)
            ancestors.append(v)
            continue
        for part in parts:
            for u in part:
                owner[v, u] = len(ancestors)
            ancestors.append(v)

    def copy(v: int, u: int) -> int:
        return plain[v] if v in plain else owner[v, u]

    edges = [(copy(u, v), copy(v, u), BLUE) for u, v in inst.edges]
    edges += [
        (plain[u], plain[v], RED)
        for u, v in inst.terminals
        if u in plain and v in plain
    ]
    base = CorrelationGraph(len(ancestors), edges, complete=False)
    return RealizedGraph(base, ancestors, inst.n)


def checked_ccvs_to_mcvs(g: CorrelationGraph, k: int) -> MulticutInstance:
    return MulticutInstance(g.n, g.blue_edges(), g.red_edges(), k)


def checked_mcvs_to_ccvs(inst: MulticutInstance) -> tuple[CorrelationGraph, int]:
    edges = [(u, v, BLUE) for u, v in inst.edges]
    edges += [(u, v, RED) for u, v in inst.terminals]
    return CorrelationGraph(inst.n, edges, complete=False), inst.k


def sorting_write_graph(g: CorrelationGraph) -> bytes:
    """The canonical ``ccg`` form, one sorted line per listed pair."""
    kind = "complete" if g.complete else "incomplete"
    out = [f"ccg {g.n} {kind}"]
    if g.complete:
        listed = [(u, v, BLUE) for u, v in g.blue_edges()]
    else:
        listed = sorted((u, v, c) for (u, v), c in g._labels.items())
    out.extend(f"e {u} {v} {c.value}" for u, v, c in listed)
    return ("\n".join(out) + "\n").encode("utf-8")


def sorting_write_multicut_instance(inst: MulticutInstance) -> bytes:
    """The canonical ``mcvs`` form: sorted e lines, then sorted t lines."""
    out = [f"mcvs {inst.n} {len(inst.edges)} {len(inst.terminals)} {inst.k}"]
    out.extend(f"e {u} {v}" for u, v in sorted(inst.edges))
    out.extend(f"t {u} {v}" for u, v in sorted(inst.terminals))
    return ("\n".join(out) + "\n").encode("utf-8")


def unpruned_solve_exact(
    g: CorrelationGraph, max_cost: int
) -> tuple[Clustering | None, int]:
    """(first minimum clustering of cost <= max_cost or None, nodes searched).

    Iterative deepening from ``lower_bound`` (0 on incomplete graphs) over
    the unpruned branch search; nodes are counted as ``solve_exact`` counts
    them, once per vertex placement tried, over all levels.
    """
    if g.n == 0:
        return Clustering(()), 0
    n = g.n
    blue_pred = [[u for u in g.blue_neighbors(v) if u < v] for v in range(n)]
    red_pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.red_edges():
        red_pred[v].append(u)
    nodes = 0

    def search(extra: int) -> list[list[int]] | None:
        blocks: list[list[int]] = []
        vmask = [0] * n
        result: list[list[int]] | None = None

        def dfs(v: int, used: int) -> bool:
            nonlocal result, nodes
            if v == n:
                result = [list(b) for b in blocks]
                return True
            nodes += 1
            budget_left = extra - used
            req = [vmask[u] for u in blue_pred[v]]
            nb = len(blocks)
            and_req = (1 << nb) - 1
            for r in req:
                and_req &= r
            red_masks = [vmask[u] for u in red_pred[v]]
            mask = and_req
            while mask:
                low = mask & -mask
                mask ^= low
                if any(rm == low for rm in red_masks):
                    continue
                b = low.bit_length() - 1
                blocks[b].append(v)
                vmask[v] = low
                if dfs(v + 1, used):
                    return True
                blocks[b].pop()
            if not req:
                blocks.append([v])
                vmask[v] = 1 << nb
                if dfs(v + 1, used):
                    return True
                blocks.pop()
            for m in range(2, budget_left + 2):
                for s in range(min(m, nb) + 1):
                    t = m - s
                    for combo in combinations(range(nb), s):
                        cm = 0
                        for b in combo:
                            cm |= 1 << b
                        if any(r & cm == 0 for r in req):
                            continue
                        for b in combo:
                            blocks[b].append(v)
                        for _ in range(t):
                            blocks.append([v])
                        vmask[v] = cm | (((1 << t) - 1) << nb)
                        if dfs(v + 1, used + m - 1):
                            return True
                        for _ in range(t):
                            blocks.pop()
                        for b in combo:
                            blocks[b].pop()
            return False

        return result if dfs(0, 0) else None

    for extra in range(lower_bound(g) if g.complete else 0, max_cost + 1):
        found = search(extra)
        if found is not None:
            return Clustering(found), nodes
    return None, nodes


def blocks_solve_exact(
    g: CorrelationGraph, max_cost: int, node_limit: int | None = None
) -> tuple[Clustering | None, int]:
    """(first minimum clustering of cost <= max_cost or None, nodes searched).

    The suffix-bound search as it was before it ran on membership bitmasks
    alone: each block is a list of its members, every node builds the
    masks of its blue and red predecessors, and every multi-membership try
    rebuilds its block subsets with ``combinations``.  Raises
    ``SearchLimitReached`` as ``solve_exact`` does once more than
    ``node_limit`` nodes are searched.
    """
    if g.n == 0:
        return Clustering(()), 0
    n = g.n
    suffix = _suffix_bounds(g)
    blue_pred = [[u for u in g.blue_neighbors(v) if u < v] for v in range(n)]
    red_pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.red_edges():
        red_pred[v].append(u)
    nodes = 0

    def search(extra: int) -> list[list[int]] | None:
        blocks: list[list[int]] = []
        vmask = [0] * n
        result: list[list[int]] | None = None

        def dfs(v: int, used: int) -> bool:
            nonlocal result, nodes
            if v == n:
                result = [list(b) for b in blocks]
                return True
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                raise SearchLimitReached(nodes, extra)
            budget_left = extra - used - suffix[v + 1]
            if budget_left < 0:
                return False
            req = [vmask[u] for u in blue_pred[v]]
            nb = len(blocks)
            and_req = (1 << nb) - 1
            for r in req:
                and_req &= r
            red_masks = [vmask[u] for u in red_pred[v]]
            mask = and_req
            while mask:
                low = mask & -mask
                mask ^= low
                if any(rm == low for rm in red_masks):
                    continue
                b = low.bit_length() - 1
                blocks[b].append(v)
                vmask[v] = low
                if dfs(v + 1, used):
                    return True
                blocks[b].pop()
            if not req:
                blocks.append([v])
                vmask[v] = 1 << nb
                if dfs(v + 1, used):
                    return True
                blocks.pop()
            for m in range(2, budget_left + 2):
                for s in range(min(m, nb) + 1):
                    t = m - s
                    for combo in combinations(range(nb), s):
                        cm = 0
                        for b in combo:
                            cm |= 1 << b
                        if any(r & cm == 0 for r in req):
                            continue
                        for b in combo:
                            blocks[b].append(v)
                        for _ in range(t):
                            blocks.append([v])
                        vmask[v] = cm | (((1 << t) - 1) << nb)
                        if dfs(v + 1, used + m - 1):
                            return True
                        for _ in range(t):
                            blocks.pop()
                        for b in combo:
                            blocks[b].pop()
            return False

        return result if dfs(0, 0) else None

    for extra in range(suffix[0], max_cost + 1):
        found = search(extra)
        if found is not None:
            return Clustering(found), nodes
    return None, nodes


def first_cheapest_candidate(g: CorrelationGraph) -> Clustering:
    """The clustering of the first cheapest of all assembled candidates."""
    return min(candidate_solutions(g), key=lambda c: c.cost).assembled
