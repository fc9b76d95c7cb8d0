"""Seeded graph generators for the test corpus and the benchmark harness.

All generators are deterministic given a seed: edges are drawn first in a
fixed scan order, then node weights, from one ``random.Random`` stream.
``weights=None`` gives all-1 weights; a (low, high) pair draws uniform
integers from that inclusive range (default 1..100).
"""

from __future__ import annotations

import random
from typing import Iterable

from .graph import WeightedGraph, from_edge_list

DEFAULT_WEIGHT_RANGE = (1, 100)


def gnp(
    n: int,
    p: float,
    *,
    seed: int = 0,
    weights: tuple[int, int] | None = DEFAULT_WEIGHT_RANGE,
) -> WeightedGraph:
    """Erdős–Rényi G(n, p): each pair independently an edge with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    _check_n(n)
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return _finish(n, edges, weights, rng)


def cycle(
    n: int,
    *,
    seed: int = 0,
    weights: tuple[int, int] | None = DEFAULT_WEIGHT_RANGE,
) -> WeightedGraph:
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 nodes, got {n}")
    edges = [(v, (v + 1) % n) for v in range(n)]
    return _finish(n, edges, weights, random.Random(seed))


def complete(
    n: int,
    *,
    seed: int = 0,
    weights: tuple[int, int] | None = DEFAULT_WEIGHT_RANGE,
) -> WeightedGraph:
    _check_n(n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _finish(n, edges, weights, random.Random(seed))


def star(
    n: int,
    *,
    seed: int = 0,
    weights: tuple[int, int] | None = DEFAULT_WEIGHT_RANGE,
) -> WeightedGraph:
    """Star on ``n`` nodes: node 0 is the hub, nodes 1..n-1 are leaves."""
    if n < 1:
        raise ValueError(f"a star needs at least 1 node, got {n}")
    edges = [(0, v) for v in range(1, n)]
    return _finish(n, edges, weights, random.Random(seed))


def bipartite_random(
    left: int,
    right: int,
    p: float,
    *,
    seed: int = 0,
    weights: tuple[int, int] | None = DEFAULT_WEIGHT_RANGE,
) -> WeightedGraph:
    """Random bipartite graph: left nodes 0..left-1, right nodes after them,
    each cross pair an edge with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    _check_n(left)
    _check_n(right)
    rng = random.Random(seed)
    edges = [
        (u, left + v)
        for u in range(left)
        for v in range(right)
        if rng.random() < p
    ]
    return _finish(left + right, edges, weights, rng)


FAMILIES = {
    "gnp": gnp,
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "bipartite-random": bipartite_random,
}


def generate(
    family: str,
    *,
    seed: int = 0,
    weights: tuple[int, int] | None = DEFAULT_WEIGHT_RANGE,
    **params,
) -> WeightedGraph:
    """Dispatch by family name; see the individual generators for params."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}, expected one of {', '.join(FAMILIES)}"
        ) from None
    return builder(seed=seed, weights=weights, **params)


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")


def _finish(
    n: int,
    edges: Iterable[tuple[int, int]],
    weights: tuple[int, int] | None,
    rng: random.Random,
) -> WeightedGraph:
    if weights is None:
        weight_list = [1] * n
    else:
        low, high = weights
        if low < 0 or high < low:
            raise ValueError(f"bad weight range {weights}")
        weight_list = [rng.randint(low, high) for _ in range(n)]
    return from_edge_list(n, edges, weight_list)
