"""Seeded random instances and the two hardness gadgets."""

from __future__ import annotations

import re
from itertools import combinations

import pytest

from splitclust import (
    BLUE,
    MAX_VERTICES,
    RED,
    CorrelationGraph,
    MulticutInstance,
    PlainGraph,
    SplitMix64,
    decide,
    gen_coloring_gadget,
    gen_random,
    gen_vertex_cover_gadget,
    write_graph,
    write_multicut_instance,
)
from oracles import brute_colorable, brute_min_multicut_cost, brute_vertex_cover_size


def test_splitmix64_reference_stream():
    # Published reference outputs of splitmix64 for these seeds; the
    # implementation must reproduce them bit for bit on every platform.
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(2)] == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
    ]


def test_seed_is_any_int_but_a_bool():
    # a negative seed is a valid 64-bit seed, taken modulo 2^64
    r, s = SplitMix64(-1), SplitMix64((1 << 64) - 1)
    assert [r.next_u64() for _ in range(5)] == [s.next_u64() for _ in range(5)]
    assert gen_random(6, 0.5, 0.5, complete=True, seed=-1) == gen_random(
        6, 0.5, 0.5, complete=True, seed=(1 << 64) - 1
    )
    for bad in (1.5, "1", None, True):
        message = f"seed must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SplitMix64(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_random(3, 0.5, 0.5, complete=True, seed=bad)


def test_splitmix64_floats():
    r = SplitMix64(0)
    x = r.next_float()
    assert x == (0xE220A8397B1DCDAF >> 11) / float(1 << 53)
    for _ in range(100):
        assert 0.0 <= r.next_float() < 1.0


def test_gen_random_frozen_bytes():
    g = gen_random(5, 0.5, 0.5, complete=True, seed=42)
    assert write_graph(g) == (
        b"ccg 5 complete\n"
        b"e 0 2 b\ne 0 3 b\ne 0 4 b\ne 1 2 b\ne 1 4 b\ne 2 4 b\n"
    )
    g = gen_random(5, 0.3, 0.3, complete=False, seed=42)
    assert write_graph(g) == (
        b"ccg 5 incomplete\n"
        b"e 0 2 b\ne 0 3 b\ne 0 4 r\ne 1 2 b\ne 1 4 b\ne 2 4 r\n"
    )


def test_gen_random_determinism_and_spread():
    a = gen_random(8, 0.4, 0.6, complete=True, seed=7)
    b = gen_random(8, 0.4, 0.6, complete=True, seed=7)
    assert a == b
    assert a != gen_random(8, 0.4, 0.6, complete=True, seed=8)


def test_gen_random_extremes():
    g = gen_random(6, 1.0, 0.0, complete=True, seed=1)
    assert g.count_colors() == (15, 0)
    g = gen_random(6, 0.0, 1.0, complete=True, seed=1)
    assert g.count_colors() == (0, 15)
    g = gen_random(6, 0.0, 0.0, complete=False, seed=1)
    assert g.count_colors() == (0, 0)
    g = gen_random(6, 0.5, 0.5, complete=True, seed=3)
    blue, red = g.count_colors()
    assert blue + red == 15


def test_gen_random_validation():
    with pytest.raises(ValueError):
        gen_random(-1, 0.5, 0.5, complete=True, seed=0)
    with pytest.raises(ValueError):
        gen_random(MAX_VERTICES + 1, 0.5, 0.5, complete=True, seed=0)
    for bad in (1.5, 3.0, True):
        with pytest.raises(ValueError, match="vertex count must be a non-negative integer"):
            gen_random(bad, 0.5, 0.5, complete=True, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 1.2, 0.0, complete=False, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 0.5, -0.1, complete=False, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 0.5, 0.4, complete=True, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 0.7, 0.7, complete=False, seed=0)


def test_plain_graph():
    g = PlainGraph(3, [(2, 1), (1, 2), (0, 1)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        PlainGraph(-1, [])
    with pytest.raises(ValueError):
        PlainGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        PlainGraph(2, [(1, 1)])
    for bad in (1.5, 1.0, True):
        message = f"vertex of pair (0,{bad!r}) must be a non-negative integer below 3, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PlainGraph(3, [(0, bad)])
        with pytest.raises(ValueError, match="vertex count must be a non-negative integer"):
            PlainGraph(bad, [])


def test_vertex_cover_gadget_frozen():
    g = gen_vertex_cover_gadget(PlainGraph(3, [(0, 1), (1, 2)]), 1)
    assert g.n == 5 and g.complete
    assert g.red_edges() == [(0, 1), (1, 2)]
    assert write_graph(g) == (
        b"ccg 5 complete\n"
        b"e 0 2 b\ne 0 3 b\ne 0 4 b\ne 1 3 b\ne 1 4 b\ne 2 3 b\ne 2 4 b\ne 3 4 b\n"
    )
    with pytest.raises(ValueError):
        gen_vertex_cover_gadget(PlainGraph(2, []), -1)


def test_vertex_cover_gadget_matches_labelled_construction():
    # the gadget lists only its blue pairs; the graph is the one built from
    # every pair labelled, red on the input's edges and blue elsewhere
    graphs = [
        PlainGraph(0, []),
        PlainGraph(3, [(0, 1), (1, 2)]),
        PlainGraph(4, list(combinations(range(4), 2))),
        PlainGraph(5, [(0, 4), (1, 3)]),
    ]
    for g in graphs:
        for k in range(3):
            total = g.n + k + 1
            labelled = [
                (u, v, RED if (u, v) in g.edges else BLUE)
                for u, v in combinations(range(total), 2)
            ]
            expected = CorrelationGraph(total, labelled, complete=True)
            assert gen_vertex_cover_gadget(g, k) == expected


def test_vertex_cover_gadget_checks_budget_first():
    for bad in (-1, 1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="budget must be a non-negative integer"):
            gen_vertex_cover_gadget(PlainGraph(2, []), bad)
    # over the cap it fails before listing the (cap + 1)^2 / 2 pairs; edges
    # that refuse lookups stop a gadget that lists them at the first pair
    class Unlisted:
        def __contains__(self, pair):
            raise AssertionError("a pair was listed before the cap check")

    over = PlainGraph(3, [(0, 1)])
    object.__setattr__(over, "edges", Unlisted())
    with pytest.raises(ValueError, match="exceeds the cap"):
        gen_vertex_cover_gadget(over, MAX_VERTICES - 3)
    assert gen_vertex_cover_gadget(PlainGraph(0, []), 2).n == 3


def test_vertex_cover_gadget_decides_cover():
    graphs = [
        PlainGraph(4, []),
        PlainGraph(4, [(0, 1), (2, 3)]),
        PlainGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        PlainGraph(4, list(combinations(range(4), 2))),
        PlainGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    ]
    for g in graphs:
        tau = brute_vertex_cover_size(g)
        for k in range(4):
            assert decide(gen_vertex_cover_gadget(g, k), k) == (tau <= k)


def test_coloring_gadget_frozen():
    triangle = PlainGraph(3, [(0, 1), (0, 2), (1, 2)])
    inst = gen_coloring_gadget(triangle, 3)
    assert inst == MulticutInstance(
        4, [(0, 3), (1, 3), (2, 3)], [(0, 1), (0, 2), (1, 2)], 2
    )
    assert write_multicut_instance(inst) == (
        b"mcvs 4 3 3 2\ne 0 3\ne 1 3\ne 2 3\nt 0 1\nt 0 2\nt 1 2\n"
    )
    with pytest.raises(ValueError):
        gen_coloring_gadget(triangle, 2)
    for bad in ("5", None, 3.5):
        with pytest.raises(ValueError, match="colors must be a non-negative integer"):
            gen_coloring_gadget(triangle, bad)


def test_coloring_gadget_decides_coloring():
    graphs = [
        PlainGraph(3, [(0, 1), (0, 2), (1, 2)]),
        PlainGraph(4, list(combinations(range(4), 2))),
        PlainGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        PlainGraph(4, [(0, 1), (1, 2), (2, 3)]),
        PlainGraph(4, []),
    ]
    for g in graphs:
        for colors in (3, 4):
            inst = gen_coloring_gadget(g, colors)
            solvable = brute_min_multicut_cost(inst, inst.k) is not None
            assert solvable == brute_colorable(g, colors)
