"""End-to-end solvers: double the graph, solve independent set, lift back.

Every pipeline re-verifies its own output before returning it: the lift
checks the solution against the source graph, so a returned solution always
carries a checked bipartition witness.
"""

from __future__ import annotations

from typing import Callable

from .graph import WeightedGraph
from .reduction import (
    BipartiteSolution,
    _require_valid,
    build_doubled_graph,
    check_solution,
    lift_independent_set,
)
from .solvers import (
    SolveResult,
    SolverLimits,
    mwis_exact,
    mwis_greedy,
    mwis_local_search,
)


def solve_exact(
    g: WeightedGraph, limits: SolverLimits | None = None
) -> tuple[BipartiteSolution, SolveResult]:
    """Optimal maximum-weight induced bipartite subgraph of ``g``.

    Runs the branch-and-reduce independent-set engine on the doubled graph
    and lifts the result.  Also returns the engine's result for its
    statistics and optimality flag; with a budget the flag may be False and
    the solution is the best one found.
    """
    return _solve(g, lambda h: mwis_exact(h, limits))


def solve_approx(g: WeightedGraph) -> BipartiteSolution:
    """Fast heuristic solution: greedy plus local search on the doubled graph.

    No optimality proof is attached; on test corpora the result stays
    within a 3/(max_degree+3) factor of the optimum.
    """
    sol, _ = _solve(g, lambda h: mwis_local_search(h, mwis_greedy(h).solution))
    return sol


def _solve(
    g: WeightedGraph, engine: Callable[[WeightedGraph], SolveResult]
) -> tuple[BipartiteSolution, SolveResult]:
    # double -> engine -> lift (which verifies); the steps are called through
    # this module's names, so wrapping one here covers both solvers
    dg = build_doubled_graph(g)
    result = engine(dg.graph)
    return lift_independent_set(dg, result.solution), result


def verify(g: WeightedGraph, sol: BipartiteSolution) -> tuple[bool, str]:
    """Re-derive all solution invariants from scratch.

    Returns (True, "ok") or (False, diagnostic) where the diagnostic names
    the first violated condition.
    """
    problem = check_solution(g, sol)
    if problem is None:
        return True, "ok"
    return False, problem


def oct_weight(g: WeightedGraph, sol: BipartiteSolution) -> int:
    """Weight of the deletion set complementary to ``sol``.

    Deleting everything outside the solution leaves the bipartite induced
    subgraph, so this is the weight of an odd cycle transversal; it is
    minimal exactly when the solution is optimal.
    """
    _require_valid(g, sol)
    return g.total_weight() - sol.weight
