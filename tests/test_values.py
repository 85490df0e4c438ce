"""Every public value type survives pickling and copying, and stays frozen.

One instance of each public class in ``splitclust.__all__`` goes through a
pickle round trip at every protocol, ``copy.copy`` and ``copy.deepcopy``;
each copy must equal the original, print the same and hash the same.
Assigning any field of a value raises ``AttributeError``.  ``SplitMix64``
is the one public class that is not a value: it is a generator whose state
advances, so its copies are checked to continue the same stream.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

import splitclust
from splitclust import (
    BadStar,
    BipartiteGraph,
    Clustering,
    Kernelized,
    MulticutInstance,
    MulticutSolution,
    NoInstance,
    PlainGraph,
    SearchBudget,
    SplitMix64,
    approximate,
    candidate_solutions,
    ccvs_to_mcvs,
    clustering_to_splits,
    complete_graph,
    cost,
    gen_random,
    incomplete_graph,
    kernelize,
    maximal_bad_star_forest,
    verify_clustering,
)

BAD_TRIANGLE = complete_graph(3, [(0, 1), (1, 2)])
# a complete graph whose kernel keeps three cliques and whose approximation
# has four candidates, so the kernel transcript and the candidates' covers
# are not empty
RANDOM = gen_random(10, 0.6, 0.4, complete=True, seed=4)
INCOMPLETE = incomplete_graph(5, blue=[(0, 1), (1, 2), (3, 4)], red=[(0, 2), (2, 3)])


def _kernelized() -> Kernelized:
    kernel = kernelize(RANDOM, cost(approximate(RANDOM), RANDOM.n))
    assert isinstance(kernel, Kernelized) and kernel.transcript.clusters
    return kernel


def _no_instance() -> NoInstance:
    witness = kernelize(BAD_TRIANGLE, 0)
    assert isinstance(witness, NoInstance)
    return witness


def _candidate():
    candidate = candidate_solutions(RANDOM)[0]
    assert candidate.guess is not None and candidate.covers
    return candidate


VALUES = {
    "complete CorrelationGraph": lambda: RANDOM,
    "incomplete CorrelationGraph": lambda: INCOMPLETE,
    "empty Clustering": lambda: Clustering([]),
    "Clustering": lambda: Clustering([{0, 1}, {1, 2}, {3, 4}]),
    "RealizedGraph": lambda: clustering_to_splits(
        BAD_TRIANGLE, Clustering([{0, 1}, {1, 2}])
    ),
    "MulticutInstance": lambda: MulticutInstance(4, [(0, 1), (1, 2)], [(0, 3)], 2),
    "MulticutInstance of ccvs_to_mcvs": lambda: ccvs_to_mcvs(BAD_TRIANGLE, 1),
    "MulticutSolution": lambda: MulticutSolution({1: [{2}, {0}], 3: [{4}, set()]}),
    "Kernelized": _kernelized,
    "NoInstance": _no_instance,
    "KernelTranscript": lambda: _kernelized().transcript,
    "BadStar": lambda: BadStar(1, (0, 2)),
    "BadStarForest": lambda: maximal_bad_star_forest(RANDOM),
    "ValidationReport": lambda: verify_clustering(INCOMPLETE, Clustering([{0, 1, 2}])),
    "SearchBudget": lambda: SearchBudget(max_cost=3, node_limit=100),
    "PlainGraph": lambda: PlainGraph(4, [(0, 1), (2, 1)]),
    "BipartiteGraph": lambda: BipartiteGraph(("a", "b"), (1, 2), (("a", 1), ("b", 1))),
    "SimpleSolutionParts": _candidate,
}

# public classes that are not values: the generator, an enum, exceptions
NOT_VALUES = {"SplitMix64", "EdgeColor", "FormatError", "SearchLimitReached"}


def _copies(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle protocol {protocol}", pickle.loads(pickle.dumps(value, protocol))
    yield "copy", copy.copy(value)
    yield "deepcopy", copy.deepcopy(value)


def test_every_public_class_is_covered():
    public = {
        name
        for name in splitclust.__all__
        if isinstance(getattr(splitclust, name), type)
    }
    covered = {type(make()).__name__ for make in VALUES.values()}
    assert public == covered | NOT_VALUES


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_copies_are_equal(make):
    value = make()
    try:
        digest = hash(value)
    except TypeError:
        digest = None
    for how, twin in _copies(value):
        assert type(twin) is type(value), how
        assert twin == value and not twin != value, how
        assert repr(twin) == repr(value), how
        if digest is not None:
            assert hash(twin) == digest, how


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_fields_are_frozen(make):
    value = make()
    fields = dataclasses.fields(value)
    assert fields
    before = [getattr(value, field.name) for field in fields]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field.name, None)
    assert [getattr(value, field.name) for field in fields] == before


def test_deep_copies_share_nothing_mutable():
    # a graph's rows are lists; a deep copy gets its own
    twin = copy.deepcopy(INCOMPLETE)
    assert twin._blue_adj is not INCOMPLETE._blue_adj
    assert twin._red_adj[2] is not INCOMPLETE._red_adj[2]
    assert twin.label(0, 2) is INCOMPLETE.label(0, 2)


def test_split_mix_copies_continue_the_stream():
    rng = SplitMix64(2024)
    stream = [rng.next_u64() for _ in range(8)]
    rng = SplitMix64(2024)
    for _ in range(3):
        rng.next_u64()
    for how, twin in _copies(rng):
        assert type(twin) is SplitMix64, how
        assert [twin.next_u64() for _ in range(5)] == stream[3:], how
    # copying did not advance the original
    assert [rng.next_u64() for _ in range(5)] == stream[3:]


def test_graph_kinds_stay_unequal():
    blue = [(0, 1), (1, 2)]
    complete, incomplete = complete_graph(3, blue), incomplete_graph(3, blue=blue)
    assert complete._blue_adj == incomplete._blue_adj
    assert complete != incomplete and incomplete != complete
    for twin in (pickle.loads(pickle.dumps(incomplete)), copy.deepcopy(incomplete)):
        assert twin == incomplete and twin != complete
        assert twin.complete is False


def test_graph_never_equals_its_multicut_instance():
    for g in (BAD_TRIANGLE, INCOMPLETE):
        inst = ccvs_to_mcvs(g, 1)
        assert inst != g and g != inst
        assert inst._graph != inst
    # an incomplete graph's instance shares the graph, and still differs
    inst = ccvs_to_mcvs(INCOMPLETE, 1)
    assert inst._graph is INCOMPLETE
    assert pickle.loads(pickle.dumps(inst)) == inst != INCOMPLETE
