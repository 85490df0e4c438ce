"""Seeded instance generators for the benchmark.

Every generator draws from ``splitclust.generators.SplitMix64`` and returns
documents as bytes in the library's canonical text formats, together with
the planted clustering, whose cost certifies an upper bound on the optimum.
The library itself only ever sees the generated bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from splitclust.generators import SplitMix64


@dataclass(frozen=True)
class Planted:
    """A generated graph document and the clustering it was built from."""

    ccg: bytes
    clu: bytes
    planted_cost: int


def _below(rng: SplitMix64, k: int) -> int:
    return rng.next_u64() % k


def _shuffled(rng: SplitMix64, n: int) -> list[int]:
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = _below(rng, i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def planted_clusters(
    rng: SplitMix64, n: int, clusters: int, overlaps: int
) -> list[list[int]]:
    """Sorted member lists of ``clusters`` nonempty clusters covering 0..n-1.

    Vertices get a uniform home cluster (the first ``clusters`` vertices of
    a random order seed one cluster each, so none is empty); ``overlaps``
    further vertices of that order join one more cluster, so the planted
    cost is exactly ``overlaps``.
    """
    if not 2 <= clusters <= n or not 0 <= overlaps <= n - clusters:
        raise ValueError("need 2 <= clusters <= n and overlaps <= n - clusters")
    order = _shuffled(rng, n)
    home = [0] * n
    members: list[list[int]] = [[] for _ in range(clusters)]
    for i, v in enumerate(order):
        c = i if i < clusters else _below(rng, clusters)
        home[v] = c
        members[c].append(v)
    for v in order[clusters : clusters + overlaps]:
        members[(home[v] + 1 + _below(rng, clusters - 1)) % clusters].append(v)
    return [sorted(m) for m in members]


def _clu(members: list[list[int]]) -> bytes:
    lines = [f"clustering {len(members)}"]
    lines += ["c " + " ".join(map(str, m)) for m in members]
    return ("\n".join(lines) + "\n").encode()


def _blue_pairs(members: list[list[int]]) -> set[tuple[int, int]]:
    return {(u, v) for m in members for i, u in enumerate(m) for v in m[i + 1 :]}


def planted_complete(seed: int, n: int, clusters: int, overlaps: int) -> Planted:
    """Complete graph whose blue pairs are exactly the co-clustered pairs."""
    members = planted_clusters(SplitMix64(seed), n, clusters, overlaps)
    lines = [f"ccg {n} complete"]
    lines += [f"e {u} {v} b" for u, v in sorted(_blue_pairs(members))]
    return Planted(("\n".join(lines) + "\n").encode(), _clu(members), overlaps)


def planted_incomplete(
    seed: int, n: int, clusters: int, overlaps: int, p_red: float
) -> Planted:
    """Incomplete graph: co-clustered pairs blue, other pairs red with p_red.

    Red pairs share no planted cluster, so the planted clustering resolves
    every one of them and stays valid; all remaining pairs are neutral.
    """
    rng = SplitMix64(seed)
    members = planted_clusters(rng, n, clusters, overlaps)
    where: list[set[int]] = [set() for _ in range(n)]
    for i, m in enumerate(members):
        for v in m:
            where[v].add(i)
    blue = _blue_pairs(members)
    lines = [f"ccg {n} incomplete"]
    for u in range(n):
        wu = where[u]
        for v in range(u + 1, n):
            if (u, v) in blue:
                lines.append(f"e {u} {v} b")
            elif wu.isdisjoint(where[v]) and rng.next_float() < p_red:
                lines.append(f"e {u} {v} r")
    return Planted(("\n".join(lines) + "\n").encode(), _clu(members), overlaps)
