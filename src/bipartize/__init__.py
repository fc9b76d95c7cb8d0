"""Maximum-weight induced bipartite subgraph toolkit.

The core idea: double the input graph (two copies joined by a perfect
matching), find a maximum-weight independent set there, and map it back to
a maximum-weight node set inducing a bipartite subgraph.  The package
bundles the construction, exact and heuristic independent-set engines,
an exhaustive oracle for cross-validation, file formats, generators, and a
CLI.
"""

from .graph import (
    Bipartition,
    WeightedGraph,
    from_edge_list,
    induced_subgraph,
    is_bipartite,
    is_independent_set,
    max_degree,
    set_weight,
    two_coloring,
)
from .pipeline import oct_weight, solve_approx, solve_exact, verify
from .reduction import (
    BipartiteSolution,
    DoubledGraph,
    build_doubled_graph,
    check_solution,
    lift_independent_set,
    project_bipartite,
)
from .solvers import (
    LimitExceededError,
    SearchStats,
    SolveResult,
    SolverLimits,
    induced_bipartite_bruteforce,
    mwis_exact,
    mwis_greedy,
    mwis_local_search,
)

__all__ = [
    "Bipartition",
    "BipartiteSolution",
    "DoubledGraph",
    "LimitExceededError",
    "SearchStats",
    "SolveResult",
    "SolverLimits",
    "WeightedGraph",
    "build_doubled_graph",
    "check_solution",
    "from_edge_list",
    "induced_bipartite_bruteforce",
    "induced_subgraph",
    "is_bipartite",
    "is_independent_set",
    "lift_independent_set",
    "max_degree",
    "mwis_exact",
    "mwis_greedy",
    "mwis_local_search",
    "oct_weight",
    "project_bipartite",
    "set_weight",
    "solve_approx",
    "solve_exact",
    "two_coloring",
    "verify",
]
