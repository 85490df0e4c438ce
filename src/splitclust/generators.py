"""Instance generators: seeded random graphs and hardness gadgets.

Random generation uses a self-contained splitmix64 stream so the same
seed yields byte-identical instances on every platform and Python
version.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from .graphs import (
    BLUE,
    RED,
    CorrelationGraph,
    _check_non_negative,
    _check_vertex_count,
    _checked_pair,
    _is_integer,
    complete_graph,
)
from .multicut import MulticutInstance

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: tiny deterministic 64-bit generator.

    The seed is any int but a ``bool``, negative ones included; it is
    taken modulo 2^64, so -1 seeds the stream of 2^64 - 1.  Anything else
    raises ``ValueError``.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not _is_integer(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self._state = seed & _MASK64

    def __reduce__(self):
        # a copy continues the stream, at every pickle protocol
        return type(self), (self._state,)

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / float(1 << 53)


@dataclass(frozen=True)
class PlainGraph:
    """Ordinary undirected graph used as raw material for gadgets."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        _check_vertex_count(n)
        normalized = frozenset([_checked_pair(u, v, n) for u, v in edges])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", normalized)


def gen_random(
    n: int, p_blue: float, p_red: float, *, complete: bool, seed: int
) -> CorrelationGraph:
    """Seeded random graph; pairs are drawn in ascending (u, v) order.

    For complete graphs the probabilities must sum to 1, and only the blue
    pairs are listed (the rest are red by default); for incomplete ones the
    remainder is the neutral probability.  Every pair takes one draw.
    """
    _check_vertex_count(n)
    if not (0.0 <= p_blue <= 1.0 and 0.0 <= p_red <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if complete and abs(p_blue + p_red - 1.0) > 1e-9:
        raise ValueError("complete graphs need p_blue + p_red = 1")
    if p_blue + p_red > 1.0 + 1e-9:
        raise ValueError("p_blue + p_red must not exceed 1")
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            x = rng.next_float()
            if x < p_blue:
                edges.append((u, v, BLUE))
            elif not complete and x < p_blue + p_red:
                edges.append((u, v, RED))
    return CorrelationGraph(n, edges, complete=complete)


def gen_vertex_cover_gadget(g: PlainGraph, k: int) -> CorrelationGraph:
    """Complete graph whose budget-k clustering decides vertex cover.

    The input's edges turn red, everything else blue, and k+1 fresh
    vertices form a blue clique forcing one big cluster.  The result has a
    clustering of cost at most k iff g has a vertex cover of size at most
    k.  The budget and the vertex count g.n + k + 1 are checked before any
    of the O((g.n + k)^2) pairs is listed.
    """
    _check_non_negative("budget", k)
    total = g.n + k + 1
    _check_vertex_count(total)
    blue = [
        (u, v)
        for u in range(total)
        for v in range(u + 1, total)
        if (u, v) not in g.edges
    ]
    return complete_graph(total, blue)


def gen_coloring_gadget(g: PlainGraph, colors: int) -> MulticutInstance:
    """Multicut instance whose budget-(colors-1) solution decides coloring.

    An apex vertex is joined to every input vertex; input edges become
    terminal pairs.  Splitting the apex into c parts groups the vertices
    into c color classes, so the instance is solvable with colors-1 splits
    iff g is properly colorable with the given number of colors (at least
    3).
    """
    _check_non_negative("colors", colors)
    if colors < 3:
        raise ValueError("coloring gadget needs at least three colors")
    apex = g.n
    edges = [(v, apex) for v in range(g.n)]
    return MulticutInstance(g.n + 1, edges, g.edges, colors - 1)
