"""The exact solver: provable optima for small graphs, within budgets.

The search places vertices one at a time into "blocks" (the clusters
under construction), trying every way to reuse existing blocks or open
fresh ones, with iterative deepening on the extra-membership budget.
On complete graphs, branches whose cost so far plus a bad-star-forest
lower bound on the vertices still to place exceeds the level are pruned.
Hard caps keep it honest: a vertex cap, a cost budget, and a node limit
that raises instead of silently returning a wrong answer.
"""

from splitclust import (
    SearchBudget,
    SearchLimitReached,
    complete_graph,
    cost,
    decide,
    gen_random,
    solve_exact,
    verify_clustering,
)

triangle = complete_graph(3, blue=[(0, 1), (1, 2)])

# solve_exact returns a cheapest clustering within the budget, or None.
best = solve_exact(triangle)
print("optimum:", [sorted(c) for c in best], " cost:", cost(best, 3))
print("within budget 0?", solve_exact(triangle, SearchBudget(max_cost=0)))

# decide answers the budget question directly.
print("decide(k=0):", decide(triangle, 0), " decide(k=1):", decide(triangle, 1))

# A random 10-vertex graph exceeds the default 12-vertex cap? No: the cap
# is 12, so this still runs; vertex 13 onwards would raise ValueError.
g = gen_random(10, 0.5, 0.5, complete=True, seed=5)
best = solve_exact(g, SearchBudget(max_cost=10))
print("\nrandom n=10 optimum cost:", cost(best, g.n))
print("still valid:", verify_clustering(g, best).ok)

# Node limits turn runaway searches into a clean exception.
try:
    solve_exact(g, SearchBudget(max_cost=10, node_limit=50))
except SearchLimitReached as exc:
    print("node limit hit after", exc.nodes, "nodes at cost level", exc.level)
