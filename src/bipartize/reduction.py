"""Doubled-graph construction and weight-preserving solution transforms.

The doubled graph of ``g`` has two full copies of ``g`` (layer 1 on indices
``0..n-1``, layer 2 on ``n..2n-1``) plus a perfect matching joining node
``i`` to ``n+i``.  Node weights are duplicated.  Independent sets of the
doubled graph correspond one-to-one with node sets of ``g`` that induce a
bipartite subgraph: the matching edges forbid picking both copies of a
node, and each layer contributes one independent side of the bipartition.
Total weight is preserved in both directions, so optima transfer exactly.
The transforms read ``g`` from the :class:`DoubledGraph` built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Bipartition,
    WeightedGraph,
    _checked_members,
    _independent,
    _node_ids,
)


@dataclass(frozen=True)
class DoubledGraph:
    """The doubled ``graph`` of ``source``: source node v is v and n + v there."""

    graph: WeightedGraph
    source: WeightedGraph


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
    return DoubledGraph(doubled, g)


def lift_independent_set(dg: DoubledGraph, ind_set: Iterable[int]) -> BipartiteSolution:
    """Turn an independent set of the doubled graph into a bipartite node set.

    Layer-1 members become ``side_a``, layer-2 members map down to
    ``side_b``.  The matching edges make the sides disjoint, and each
    layer's copy of the source edges makes each side independent in
    ``g = dg.source``, so the union induces a bipartite subgraph of equal
    total weight.  So the set is independent in the doubled graph exactly
    when the lifted solution passes :func:`check_solution` on ``g``, the
    lift's one check.  The ids are converted and range-checked once, here,
    and the rest of that check runs on the converted sets; its weight test
    holds by construction.

    Raises ValueError if a member of ``ind_set`` is not an integer, or if
    ``ind_set`` is not independent in the doubled graph, naming the failed
    condition.
    """
    g = dg.source
    n = g.node_count
    chosen = _node_ids(ind_set)
    if chosen and not (min(chosen) >= 0 and max(chosen) < 2 * n):
        fault = "member out of range"
    else:
        side_a = frozenset(v for v in chosen if v < n)
        side_b = frozenset(v - n for v in chosen if v >= n)
        node_set = side_a | side_b
        fault = _side_fault(g, node_set, side_a, side_b)
    if fault is not None:
        raise ValueError(f"input set is not independent in the doubled graph: {fault}")
    weight = sum(g.weights[v] for v in node_set)
    return BipartiteSolution(node_set, Bipartition(side_a, side_b), weight)


def project_bipartite(dg: DoubledGraph, sol: BipartiteSolution) -> frozenset[int]:
    """Embed a bipartite solution of ``dg.source`` as an independent set of
    the doubled graph.

    ``side_a`` goes to layer 1 and ``side_b`` to layer 2; the provided
    bipartition is used as-is, so solutions with several valid bipartitions
    project according to the one supplied.  The result is independent in
    the doubled graph and has weight ``sol.weight``.

    Raises ValueError naming the first violated solution invariant.
    """
    g = dg.source
    _require_valid(g, sol)
    n = g.node_count
    side_b = _node_ids(sol.bipartition.side_b)
    return _node_ids(sol.bipartition.side_a) | frozenset(n + v for v in side_b)


def check_solution(g: WeightedGraph, sol: BipartiteSolution) -> str | None:
    """Re-derive every BipartiteSolution invariant from scratch.

    Members are read as the graph queries read node ids, so int-likes count.
    Returns None when the solution is valid, otherwise a short diagnostic
    naming the first violated condition.
    """
    try:
        node_set, side_a, side_b = (
            _checked_members(g, members)
            for members in (sol.node_set, sol.bipartition.side_a, sol.bipartition.side_b)
        )
    except ValueError:
        return "member out of range"
    fault = _side_fault(g, node_set, side_a, side_b)
    if fault is None and sol.weight != sum(g.weights[v] for v in node_set):
        return "weight mismatch"
    return fault


def _side_fault(
    g: WeightedGraph,
    node_set: frozenset[int],
    side_a: frozenset[int],
    side_b: frozenset[int],
) -> str | None:
    """The side checks of :func:`check_solution`, in its order, on sets of
    in-range node ids."""
    if side_a & side_b:
        return "sides intersect"
    if side_a | side_b != node_set:
        return "sides do not cover node_set"
    if not _independent(g.adjacency, side_a):
        return "side_a not independent"
    if not _independent(g.adjacency, side_b):
        return "side_b not independent"
    return None


def _require_valid(g: WeightedGraph, sol: BipartiteSolution) -> None:
    problem = check_solution(g, sol)
    if problem is not None:
        raise ValueError(f"invalid solution: {problem}")
