"""Undirected node-weighted graphs and the structural predicates the solvers rely on.

Nodes are integer indices ``0..node_count-1``.  Graphs are simple (no
self-loops, no parallel edges) and immutable once built.  Weights are
nonnegative integers so that every objective value is exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Union

MAX_WEIGHT = 2**32 - 1


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable simple graph with one nonnegative integer weight per node."""

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u in range(self.node_count):
            for v in self.adjacency[u]:
                if u < v:
                    yield u, v

    def total_weight(self) -> int:
        return sum(self.weights)

    def neighbor_masks(self) -> list[int]:
        """Per-node neighborhoods as int bitmasks (bit v set iff v adjacent)."""
        return _build_masks(self.node_count, self.adjacency)


def _build_masks(n: int, adjacency: tuple[tuple[int, ...], ...]) -> list[int]:
    masks = [0] * n
    for v in range(n):
        m = 0
        for u in adjacency[v]:
            m |= 1 << u
        masks[v] = m
    return masks


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint node sets; each side must be independent in its host graph.

    The object itself is a plain holder: solution checking lives with the
    operations that receive untrusted bipartitions.
    """

    side_a: frozenset[int]
    side_b: frozenset[int]


def from_edge_list(
    node_count: int,
    edges: Iterable[tuple[int, int]],
    weights: Iterable[int],
) -> WeightedGraph:
    """Build a normalized graph: deduplicated, symmetrized, sorted adjacency.

    Raises ValueError naming the offending item on a node count, endpoint
    or weight that is not an integer (``operator.index`` refuses floats and
    strings and accepts int-likes such as numpy integers), on self-loops,
    out-of-range endpoints, bad weight counts, negative weights, or weights
    above 2**32-1.
    """
    try:
        node_count = index(node_count)
    except TypeError:
        raise ValueError(f"node count must be an integer, got {node_count!r}") from None
    if node_count < 0:
        raise ValueError(f"node count must be nonnegative, got {node_count}")
    weight_list = list(weights)
    if len(weight_list) != node_count:
        raise ValueError(
            f"expected {node_count} weights, got {len(weight_list)}"
        )
    for v, w in enumerate(weight_list):
        try:
            w = weight_list[v] = index(w)
        except TypeError:
            raise ValueError(f"weight of node {v} is not an integer ({w!r})") from None
        if w < 0:
            raise ValueError(f"weight of node {v} is negative ({w})")
        if w > MAX_WEIGHT:
            raise ValueError(f"weight of node {v} exceeds {MAX_WEIGHT} ({w})")
    checked = []
    for u, v in edges:
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint") from None
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < node_count) or not (0 <= v < node_count):
            raise ValueError(
                f"edge ({u}, {v}) has an endpoint out of range for "
                f"{node_count} nodes"
            )
        checked.append((u, v))
    return _normalized_graph(node_count, checked, weight_list)


def _normalized_graph(
    node_count: int, edges: Iterable[tuple[int, int]], weights: Iterable[int]
) -> WeightedGraph:
    """The graph of :func:`from_edge_list` without its checks: the caller
    guarantees in-range endpoints, no self-loops and valid weights.

    Each edge is appended to its two endpoints' rows.  A row whose appends
    each exceed its last element is already strictly ascending, so only
    the rows that break this are sorted and deduplicated.  Canonical files
    list edges ascending with u < v, so none of their rows needs it."""
    rows: list[list[int]] = [[] for _ in range(node_count)]
    unsorted: set[int] = set()
    for u, v in edges:
        row = rows[u]
        if row and row[-1] >= v:
            unsorted.add(u)
        row.append(v)
        row = rows[v]
        if row and row[-1] >= u:
            unsorted.add(v)
        row.append(u)
    for v in unsorted:
        rows[v] = sorted(set(rows[v]))
    adjacency = tuple(map(tuple, rows))
    return WeightedGraph(node_count, adjacency, tuple(weights))


def _node_ids(members: Iterable[int]) -> frozenset[int]:
    """``members`` as a set of node ids.  Each is converted with
    ``operator.index``, which refuses floats and strings and accepts
    int-likes such as numpy integers; raises ValueError naming the first
    item that is not an integer."""
    ids = set()
    add = ids.add
    for v in members:
        try:
            add(index(v))
        except TypeError:
            raise ValueError(f"node {v!r} is not an integer") from None
    return frozenset(ids)


def _checked_members(g: WeightedGraph, members: Iterable[int]) -> frozenset[int]:
    result = _node_ids(members)
    for v in result:
        if not (0 <= v < g.node_count):
            raise ValueError(f"node {v} out of range for {g.node_count} nodes")
    return result


def max_degree(g: WeightedGraph) -> int:
    """Largest node degree; 0 for edgeless or empty graphs."""
    if g.node_count == 0:
        return 0
    return max(len(nbrs) for nbrs in g.adjacency)


def induced_subgraph(
    g: WeightedGraph, members: Iterable[int]
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Subgraph on ``members`` reindexed to 0..k-1, plus the map back.

    The returned tuple maps each new index to its original index.  Exactly
    the edges of ``g`` with both endpoints in ``members`` survive; weights
    carry over.
    """
    kept = sorted(_checked_members(g, members))
    position = {v: i for i, v in enumerate(kept)}
    adjacency = tuple(
        tuple(position[u] for u in g.adjacency[v] if u in position)
        for v in kept
    )
    weights = tuple(g.weights[v] for v in kept)
    return WeightedGraph(len(kept), adjacency, weights), tuple(kept)


def is_independent_set(g: WeightedGraph, members: Iterable[int]) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``members``."""
    return _independent(g.adjacency, _checked_members(g, members))


def _independent(adjacency: tuple[tuple[int, ...], ...], chosen: frozenset[int]) -> bool:
    # ``chosen`` holds in-range node ids, as _checked_members returns them
    for v in chosen:
        for u in adjacency[v]:
            if u > v and u in chosen:
                return False
    return True


def set_weight(g: WeightedGraph, members: Iterable[int]) -> int:
    """Total weight of a node set; 0 for the empty set."""
    chosen = _checked_members(g, members)
    return sum(g.weights[v] for v in chosen)


TwoColoringResult = Union[Bipartition, tuple[int, ...]]


def two_coloring(g: WeightedGraph) -> TwoColoringResult:
    """2-color ``g`` or exhibit an odd cycle.

    Returns a :class:`Bipartition` covering all nodes when ``g`` is
    bipartite.  Components are colored independently by BFS and the
    smallest-index node of each component lands in ``side_a`` (isolated
    nodes included), so the output is deterministic.

    Otherwise returns a witness: a tuple of nodes forming a closed walk of
    odd length in which consecutive nodes (including last back to first)
    are adjacent.
    """
    n = g.node_count
    color = [-1] * n
    parent = [-1] * n
    depth = [0] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in g.adjacency[v]:
                if color[u] == -1:
                    color[u] = color[v] ^ 1
                    parent[u] = v
                    depth[u] = depth[v] + 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return _odd_cycle(parent, depth, v, u)
    side_a = frozenset(v for v in range(n) if color[v] == 0)
    side_b = frozenset(v for v in range(n) if color[v] == 1)
    return Bipartition(side_a, side_b)


def _odd_cycle(
    parent: list[int], depth: list[int], u: int, v: int
) -> tuple[int, ...]:
    # u and v are adjacent, same BFS parity: the tree paths to their lowest
    # common ancestor plus the edge (v, u) close an odd cycle.
    path_u = [u]
    path_v = [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
        path_u.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        path_v.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        path_u.append(a)
        path_v.append(b)
    return tuple(path_u + path_v[-2::-1])


def is_bipartite(g: WeightedGraph) -> bool:
    return isinstance(two_coloring(g), Bipartition)
