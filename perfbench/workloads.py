"""The benchmark's three workloads: seeded set-up, one operation, its checks.

Every call into the library goes through ``api``, a namespace per module
(``api.graphs.parse_graph``, ``api.cli.run``, ...), so that a traced run
can put a span around each call without touching the library.  An
operation returns an ``Outcome`` or raises; a raised ``CheckFailed`` means
the library answered but the answer is wrong.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, replace
from collections.abc import Callable

from splitclust.exact import SearchBudget
from splitclust.generators import SplitMix64
from splitclust.kernel import Kernelized

from instances import planted_complete, planted_incomplete


class CheckFailed(Exception):
    """The library returned an answer that fails one of the benchmark's checks."""


class CliExit(CheckFailed):
    """A CLI invocation ended with a nonzero exit code."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Case:
    """One generated input: a graph document plus what the operation needs."""

    kind: str
    n: int
    ccg: bytes
    bound: int  # cost budget: the planted cost, or max_cost for random graphs
    clu: bytes = b""
    files: tuple[str, ...] = ()


@dataclass
class Outcome:
    """Output documents of one operation and the deterministic counts it yields."""

    docs: list[bytes]
    cost: int  # cost of the clusterings the operation returned
    reference: int  # what cost_over_lb divides by (see the workloads)
    bytes_in: int  # ccg bytes parsed
    lb: int = 0  # sum of the lower_bound results on the input graph
    kernel_n: int = 0
    kernel_of: int = 0
    levels: int = 0
    terminals: int = 0


@dataclass(frozen=True)
class Workload:
    """A seeded stream of cases in rounds, and the operation run on each case.

    Each round holds the workload's instance mix once; the timed loop stops
    only at a round boundary, so every run measures the same mix.
    """

    name: str
    rounds: int  # rounds of cases generated per set-up; the loop cycles through them
    round_spec: Callable[[int, bool], list[tuple]]
    make_case: Callable[..., Case]
    op: Callable[[object, Case], Outcome]
    smallest: bool = False

    def setup(self, api, seed: int, out_dir: str) -> list[Case]:
        """Generate and serialize every case of every round from the seed."""
        rng = SplitMix64(seed ^ _salt(self.name))
        cases = []
        for r in range(self.rounds):
            for spec in self.round_spec(r, self.smallest):
                case_seed = rng.next_u64()
                cases.append(self.make_case(api, case_seed, out_dir, len(cases), *spec))
        return cases

    def at_smallest_size(self) -> "Workload":
        """One round holding only the smallest case of each kind."""
        return replace(self, rounds=1, smallest=True)


def _salt(name: str) -> int:
    return int.from_bytes(name.encode()[:8].ljust(8, b"\0"), "big")


def _valid(api, g, f) -> None:
    check(api.clustering.verify_clustering(g, f).ok, "clustering fails verify_clustering")


# planted-approx -----------------------------------------------------------


# In both planted workloads two of the three cases in a round are large, so
# that the median and the tail both fall inside a group of many operations
# of one size, where single slow operations move them least.  Each pool
# holds at least six large cases, so that neither percentile sits on the
# boundary between the times of two cases.
def _planted_spec(r: int, smallest: bool) -> list[tuple]:
    sizes = (200,) if smallest else (200, 500, 500)
    return [(n, n // 30, n // 70) for n in sizes]


def _planted_case(api, seed, out_dir, index, n, clusters, overlaps) -> Case:
    p = planted_complete(seed, n, clusters, overlaps)
    return Case("planted", n, p.ccg, p.planted_cost)


def _planted_op(api, case: Case) -> Outcome:
    g = api.graphs.parse_graph(case.ccg)
    lb = api.detect.lower_bound(g)
    f = api.approx.approximate(g)
    _valid(api, g, f)
    c = api.clustering.cost(f, g.n)
    check(lb <= c, f"lower bound {lb} above approximate cost {c}")
    check(c <= 7 * case.bound, f"approximate cost {c} above 7 x planted {case.bound}")
    kernel = api.kernel.kernelize(g, c)
    check(isinstance(kernel, Kernelized), "kernelize rejected the approximate cost")
    docs = [
        api.clustering.write_clustering(f),
        api.kernel.write_transcript(kernel.transcript),
    ]
    return Outcome(docs, c, lb, len(case.ccg), lb, kernel.graph.n, g.n)


# exact-certify ------------------------------------------------------------


def _exact_spec(r: int, smallest: bool) -> list[tuple]:
    # 32 random 8-vertex graphs and one kernel chain per round.  Search time
    # on random graphs is heavy-tailed and grows about 5x per vertex: at 9
    # or more vertices the pool one run can measure is too small to keep
    # the spread between seeds low.  The chain's planted graph alternates
    # between 100 vertices with one overlap and 200 with two; its
    # lower_bound and kernelize calls cost more than the search, so chains
    # stay rare enough for exact search to carry most of the time.
    chain = ("kernel", 100, 1) if smallest or r % 2 == 0 else ("kernel", 200, 2)
    return [("random", 8, 0)] * (1 if smallest else 32) + [chain]


def _exact_case(api, seed, out_dir, index, kind, n, overlaps) -> Case:
    if kind == "random":
        g = api.generators.gen_random(n, 0.5, 0.5, complete=True, seed=seed)
        return Case(kind, n, api.graphs.write_graph(g), n)
    p = planted_complete(seed, n, n // 30, overlaps)
    return Case(kind, n, p.ccg, p.planted_cost)


def _exact_op(api, case: Case) -> Outcome:
    g = api.graphs.parse_graph(case.ccg)
    lb = api.detect.lower_bound(g)
    if case.kind == "random":
        f = api.exact.solve_exact(g, SearchBudget(max_cost=case.bound))
        check(f is not None, f"no clustering of cost <= {case.bound}")
        _valid(api, g, f)
        c = api.clustering.cost(f, g.n)
        approx_cost = api.clustering.cost(api.approx.approximate(g), g.n)
        check(lb <= c <= approx_cost, f"need lb {lb} <= exact {c} <= approx {approx_cost}")
        docs = [api.clustering.write_clustering(f)]
        return Outcome(docs, c, lb, len(case.ccg), lb, levels=c - lb + 1)
    kernel = api.kernel.kernelize(g, case.bound)
    check(isinstance(kernel, Kernelized), "kernelize rejected the planted cost")
    k = kernel.graph
    kf = api.exact.solve_exact(k, SearchBudget(max_cost=case.bound), vertex_cap=k.n)
    check(kf is not None, f"kernel has no clustering of cost <= {case.bound}")
    kc = api.clustering.cost(kf, k.n)
    klb = api.detect.lower_bound(k)
    check(klb <= kc, f"kernel lower bound {klb} above kernel optimum {kc}")
    lifted = api.kernel.lift_clustering(kf, kernel.transcript)
    _valid(api, g, lifted)
    c = api.clustering.cost(lifted, g.n)
    check(c == kc, f"lifting changed the cost from {kc} to {c}")
    check(lb <= c <= case.bound, f"need lb {lb} <= cost {c} <= planted {case.bound}")
    docs = [
        api.clustering.write_clustering(lifted),
        api.kernel.write_transcript(kernel.transcript),
    ]
    return Outcome(docs, c, lb, len(case.ccg), lb, k.n, g.n, levels=kc - klb + 1)


# interchange --------------------------------------------------------------

_P_RED = 0.1


def _interchange_spec(r: int, smallest: bool) -> list[tuple]:
    sizes = (200,) if smallest else (200, 400, 400)
    return [(n, n // 30, n // 70) for n in sizes]


def _interchange_case(api, seed, out_dir, index, n, clusters, overlaps) -> Case:
    p = planted_incomplete(seed, n, clusters, overlaps, _P_RED)
    files = (os.path.join(out_dir, f"{index}.ccg"), os.path.join(out_dir, f"{index}.clu"))
    for path, data in zip(files, (p.ccg, p.clu)):
        with open(path, "wb") as handle:
            handle.write(data)
    return Case("interchange", n, p.ccg, p.planted_cost, p.clu, files)


def _cli(api, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = api.cli.run(argv, None, out, err)
    if code != 0:
        raise CliExit(f"splitclust {' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _interchange_op(api, case: Case) -> Outcome:
    g = api.graphs.parse_graph(case.ccg)
    f = api.clustering.parse_clustering(case.clu)
    _valid(api, g, f)
    check(api.graphs.write_graph(g) == case.ccg, "write_graph(parse_graph(doc)) != doc")
    check(api.clustering.write_clustering(f) == case.clu, "write_clustering(parse_clustering(doc)) != doc")
    k = api.clustering.cost(f, g.n)

    inst = api.multicut.ccvs_to_mcvs(g, k)
    mcvs = api.multicut.write_multicut_instance(inst)
    check(api.multicut.parse_multicut_instance(mcvs) == inst, "mcvs document does not round-trip")
    check(api.multicut.mcvs_to_ccvs(inst) == (g, k), "mcvs_to_ccvs does not invert ccvs_to_mcvs")

    sol = api.multicut.clustering_to_multicut_solution(g, f)
    check(sol.cost <= k, f"multicut solution cost {sol.cost} above clustering cost {k}")
    mcsol = api.multicut.write_multicut_solution(g.n, sol)
    check(api.multicut.parse_multicut_solution(mcsol) == (g.n, sol), "mcsol document does not round-trip")
    check(api.multicut.verify_multicut_solution(inst, sol), "multicut solution leaves a terminal pair connected")
    f_mc = api.multicut.multicut_solution_to_clustering(inst, sol)
    _valid(api, g, f_mc)
    cost_mc = api.clustering.cost(f_mc, g.n)
    check(cost_mc <= sol.cost, f"multicut round trip raised the cost from {sol.cost} to {cost_mc}")

    realized = api.clustering.clustering_to_splits(g, f)
    check(realized.split_count <= k, f"{realized.split_count} splits for a clustering of cost {k}")
    f_sp = api.clustering.splits_to_clustering(realized)
    _valid(api, g, f_sp)
    cost_sp = api.clustering.cost(f_sp, g.n)
    check(cost_sp <= realized.split_count, f"split round trip raised the cost to {cost_sp}")

    ccg_path, clu_path = case.files
    _cli(api, ["verify", ccg_path, clu_path])
    reduced = _cli(api, ["reduce", "ccvs-to-mcvs", ccg_path, "--budget", str(k)])
    check(reduced.encode() == mcvs, "CLI ccvs-to-mcvs output differs from the library's")
    docs = [
        mcvs,
        mcsol,
        api.clustering.write_clustering(f_mc),
        api.clustering.write_clustering(f_sp),
    ]
    # no lower bound here: the round trips are held to the input clustering's cost
    return Outcome(docs, cost_mc + cost_sp, 2 * k, len(case.ccg), terminals=len(inst.terminals))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-approx", 8, _planted_spec, _planted_case, _planted_op),
        Workload("exact-certify", 70, _exact_spec, _exact_case, _exact_op),
        Workload("interchange", 3, _interchange_spec, _interchange_case, _interchange_op),
    )
}
