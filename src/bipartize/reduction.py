"""Doubled-graph construction and weight-preserving solution transforms.

The doubled graph of ``g`` has two full copies of ``g`` (layer 1 on indices
``0..n-1``, layer 2 on ``n..2n-1``) plus a perfect matching joining node
``i`` to ``n+i``.  Node weights are duplicated.  Independent sets of the
doubled graph correspond one-to-one with node sets of ``g`` that induce a
bipartite subgraph: the matching edges forbid picking both copies of a
node, and each layer contributes one independent side of the bipartition.
Total weight is preserved in both directions, so optima transfer exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Bipartition,
    WeightedGraph,
    _node_ids,
    is_independent_set,
    set_weight,
)


@dataclass(frozen=True)
class DoubledGraph:
    """The doubled graph plus enough provenance to undo the construction."""

    graph: WeightedGraph
    source_node_count: int


@dataclass(frozen=True)
class BipartiteSolution:
    """A node set inducing a bipartite subgraph, with its witness and weight."""

    node_set: frozenset[int]
    bipartition: Bipartition
    weight: int


def build_doubled_graph(g: WeightedGraph) -> DoubledGraph:
    """Construct the doubled graph: two copies of ``g`` plus a matching.

    The result has 2n nodes, 2|E|+n edges, maximum degree one above the
    source graph's (for nonempty sources), and duplicated weights.

    The adjacency is written straight from ``g``'s, which is already
    normalized: layer-1 node v lists its neighbors then n+v, layer-2 node
    n+v lists v then n+u for each neighbor u, so every tuple stays sorted.
    """
    n = g.node_count
    adjacency = [(*nbrs, n + v) for v, nbrs in enumerate(g.adjacency)]
    adjacency.extend(
        (v, *[n + u for u in nbrs]) for v, nbrs in enumerate(g.adjacency)
    )
    doubled = WeightedGraph(2 * n, tuple(adjacency), g.weights + g.weights)
    return DoubledGraph(doubled, n)


def lift_independent_set(
    dg: DoubledGraph, g: WeightedGraph, ind_set: Iterable[int]
) -> BipartiteSolution:
    """Turn an independent set of the doubled graph into a bipartite node set.

    Layer-1 members become ``side_a``, layer-2 members map down to
    ``side_b``.  The matching edges make the sides disjoint, and each
    layer's copy of the source edges makes each side independent in ``g``,
    so the union induces a bipartite subgraph of equal total weight.  So
    the set is independent in the doubled graph exactly when the lifted
    solution passes :func:`check_solution` on ``g``, the lift's one check.

    Raises ValueError if ``dg`` does not match ``g``, if a member of
    ``ind_set`` is not an integer, or if ``ind_set`` is not independent in
    the doubled graph, naming the failed condition.
    """
    _check_pair(dg, g)
    n = g.node_count
    chosen = _node_ids(ind_set)
    side_a = frozenset(v for v in chosen if v < n)
    side_b = frozenset(v - n for v in chosen if v >= n)
    node_set = side_a | side_b
    # an out-of-range member fails the check before the weight is compared
    weight = sum(g.weights[v] for v in node_set if 0 <= v < n)
    sol = BipartiteSolution(node_set, Bipartition(side_a, side_b), weight)
    fault = check_solution(g, sol)
    if fault is not None:
        raise ValueError(f"input set is not independent in the doubled graph: {fault}")
    return sol


def project_bipartite(
    dg: DoubledGraph, g: WeightedGraph, sol: BipartiteSolution
) -> frozenset[int]:
    """Embed a bipartite solution as an independent set of the doubled graph.

    ``side_a`` goes to layer 1 and ``side_b`` to layer 2; the provided
    bipartition is used as-is, so solutions with several valid bipartitions
    project according to the one supplied.  The result is independent in
    the doubled graph and has weight ``sol.weight``.

    Raises ValueError naming the first violated solution invariant.
    """
    _check_pair(dg, g)
    _require_valid(g, sol)
    n = g.node_count
    return frozenset(sol.bipartition.side_a) | frozenset(
        n + v for v in sol.bipartition.side_b
    )


def check_solution(g: WeightedGraph, sol: BipartiteSolution) -> str | None:
    """Re-derive every BipartiteSolution invariant from scratch.

    Returns None when the solution is valid, otherwise a short diagnostic
    naming the first violated condition.
    """
    side_a, side_b = sol.bipartition.side_a, sol.bipartition.side_b
    for v in sol.node_set | side_a | side_b:
        if not isinstance(v, int) or not (0 <= v < g.node_count):
            return "member out of range"
    if side_a & side_b:
        return "sides intersect"
    if side_a | side_b != sol.node_set:
        return "sides do not cover node_set"
    if not is_independent_set(g, side_a):
        return "side_a not independent"
    if not is_independent_set(g, side_b):
        return "side_b not independent"
    if sol.weight != set_weight(g, sol.node_set):
        return "weight mismatch"
    return None


def _require_valid(g: WeightedGraph, sol: BipartiteSolution) -> None:
    problem = check_solution(g, sol)
    if problem is not None:
        raise ValueError(f"invalid solution: {problem}")


def _check_pair(dg: DoubledGraph, g: WeightedGraph) -> None:
    if dg.source_node_count != g.node_count:
        raise ValueError(
            f"doubled graph was built from {dg.source_node_count} nodes, "
            f"got a graph with {g.node_count}"
        )
