"""Shared builders and independent reference oracles for the test suite.

The literal oracles here enumerate subsets with itertools and check each
candidate with the structural predicates only; they share no code with the
engines they validate.  :func:`mwis_bruteforce` is the fast exhaustive
oracle for independent sets up to 25 nodes, for doubled graphs too large
for plain enumeration; the literal oracle checks it, and it borrows only
the package's bit-listing helper ``_bits``.  :func:`reference_greedy_order`
and :func:`reference_local_search` are the heuristics' plain rescans on
neighbor bitmasks: each pick or move scans every live node again, so
their orders are easy to read off, and the engines must reproduce them
pick for pick and move for move.
"""

from __future__ import annotations

import itertools
import time

import pytest

from bipartize import (
    LimitExceededError,
    SearchStats,
    SolveResult,
    WeightedGraph,
    from_edge_list,
    induced_subgraph,
    is_bipartite,
    is_independent_set,
    set_weight,
)
from bipartize.solvers import _bits


def cycle_graph(n: int, weights=None) -> WeightedGraph:
    return from_edge_list(
        n, [(v, (v + 1) % n) for v in range(n)], weights or [1] * n
    )


def complete_graph(n: int, weights=None) -> WeightedGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, edges, weights or [1] * n)


def star_graph(n: int, weights=None) -> WeightedGraph:
    return from_edge_list(n, [(0, v) for v in range(1, n)], weights or [1] * n)


def path_graph(n: int, weights=None) -> WeightedGraph:
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)], weights or [1] * n)


def edgeless_graph(n: int, weights=None) -> WeightedGraph:
    return from_edge_list(n, [], weights or [1] * n)


def literal_mwis(g: WeightedGraph) -> tuple[int, list[int]]:
    """Max-weight independent set by plain subset enumeration.

    Returns (weight, lexicographically smallest member list without
    zero-weight nodes), matching the engines' canonical-output contract.
    """
    pos = [v for v in range(g.node_count) if g.weights[v] > 0]
    best_w, best_set = 0, []
    for r in range(len(pos) + 1):
        for combo in itertools.combinations(pos, r):
            if not is_independent_set(g, combo):
                continue
            w = set_weight(g, combo)
            if w > best_w or (w == best_w and list(combo) < best_set):
                best_w, best_set = w, list(combo)
    return best_w, best_set


def literal_induced_bipartite(g: WeightedGraph) -> tuple[int, list[int]]:
    """Max-weight bipartite-inducing set by plain subset enumeration."""
    pos = [v for v in range(g.node_count) if g.weights[v] > 0]
    best_w, best_set = 0, []
    for r in range(len(pos) + 1):
        for combo in itertools.combinations(pos, r):
            sub, _ = induced_subgraph(g, combo)
            if not is_bipartite(sub):
                continue
            w = set_weight(g, combo)
            if w > best_w or (w == best_w and list(combo) < best_set):
                best_w, best_set = w, list(combo)
    return best_w, best_set


def mwis_bruteforce(g: WeightedGraph, *, max_nodes: int = 25) -> SolveResult:
    """Exact maximum-weight independent set by exhausting all subsets.

    Every subset of nodes is accounted for: the optimum value comes from a
    split-and-merge sweep over all subsets of each half of the node list,
    and the returned set is the lexicographically smallest optimum,
    recovered by a first-hit scan in ascending-index order.  Refuses graphs
    above ``max_nodes`` rather than approximating.
    """
    if g.node_count > max_nodes:
        raise LimitExceededError(
            f"brute force refused: {g.node_count} nodes exceeds the cap of "
            f"{max_nodes}"
        )
    start = time.perf_counter()
    masks = g.neighbor_masks()
    weights = g.weights
    universe = [v for v in range(g.node_count) if weights[v] > 0]
    table = _HalfTable(universe, masks, weights)
    optimum, states = table.optimum()
    if optimum == 0:
        solution: frozenset[int] = frozenset()
    else:
        chosen, lex_states = _lex_smallest_optimum(
            universe, masks, weights, optimum, table
        )
        states += lex_states
        solution = frozenset(_bits(chosen))
    stats = SearchStats(search_nodes=states)
    stats.elapsed_s = time.perf_counter() - start
    return SolveResult(solution, optimum, True, stats)


class _HalfTable:
    """Best independent-set weight inside every subset of the low half.

    Splitting the candidate nodes into halves keeps both the table and the
    sweep over the high half at 2^(n/2) entries, while still covering every
    one of the 2^n subsets: each subset is the disjoint union of its low
    and high parts, and the table answers the low part exactly.
    """

    def __init__(self, universe: list[int], masks: list[int], weights):
        half = (len(universe) + 1) // 2
        self.left = universe[:half]
        self.right = universe[half:]
        self.weights = weights
        # closed neighborhoods within the left block, in compressed bits
        self._left_closed = []
        for i, v in enumerate(self.left):
            m = 1 << i
            for j, u in enumerate(self.left):
                if masks[v] >> u & 1:
                    m |= 1 << j
            self._left_closed.append(m)
        size = 1 << len(self.left)
        f = [0] * size
        lw = [weights[v] for v in self.left]
        closed = self._left_closed
        for s in range(1, size):
            i = (s & -s).bit_length() - 1
            skip = f[s & (s - 1)]
            take = lw[i] + f[s & ~closed[i]]
            f[s] = take if take > skip else skip
        self.f = f
        # for each right node: forbidden left bits, and right-block adjacency
        self._cross = []
        self._right_adj = []
        for v in self.right:
            cm = 0
            for i, u in enumerate(self.left):
                if masks[v] >> u & 1:
                    cm |= 1 << i
            self._cross.append(cm)
            rm = 0
            for b, u in enumerate(self.right):
                if masks[v] >> u & 1:
                    rm |= 1 << b
            self._right_adj.append(rm)

    def optimum(self) -> tuple[int, int]:
        full = (1 << len(self.left)) - 1
        best = self.f[full]
        states = 1 << len(self.left)
        rw = [self.weights[v] for v in self.right]
        cross, right_adj, f = self._cross, self._right_adj, self.f
        count = len(self.right)

        def sweep(idx: int, wt: int, allowed_left: int, cand: int) -> None:
            nonlocal best, states
            for i in range(idx, count):
                if cand >> i & 1:
                    states += 1
                    new_wt = wt + rw[i]
                    new_left = allowed_left & ~cross[i]
                    value = new_wt + f[new_left]
                    if value > best:
                        best = value
                    sweep(i + 1, new_wt, new_left, cand & ~right_adj[i] & ~(1 << i))

        sweep(0, 0, full, (1 << count) - 1)
        return best, states

    def upper_bound(self, cand_mask: int) -> int:
        """Weight bound for any independent set inside ``cand_mask``."""
        lc = 0
        for i, v in enumerate(self.left):
            if cand_mask >> v & 1:
                lc |= 1 << i
        bound = self.f[lc]
        for v in self.right:
            if cand_mask >> v & 1:
                bound += self.weights[v]
        return bound


def _lex_smallest_optimum(
    universe: list[int],
    masks: list[int],
    weights,
    optimum: int,
    table: _HalfTable,
) -> tuple[int, int]:
    # Ascending include-first scan: the first set reaching the optimum is
    # the lexicographically smallest one, because every candidate node has
    # positive weight.  Branches that provably cannot reach the optimum
    # are skipped via the half-table bound.
    states = 0

    def walk(i: int, cur: int, cand: int, chosen: int) -> int | None:
        nonlocal states
        states += 1
        if cur == optimum:
            return chosen
        if i == len(universe):
            return None
        v = universe[i]
        bit = 1 << v
        if cand & bit:
            taken_cand = cand & ~masks[v] & ~bit
            if cur + weights[v] + table.upper_bound(taken_cand) >= optimum:
                found = walk(i + 1, cur + weights[v], taken_cand, chosen | bit)
                if found is not None:
                    return found
            cand &= ~bit
        if cur + table.upper_bound(cand) >= optimum:
            return walk(i + 1, cur, cand, chosen)
        return None

    start_mask = 0
    for v in universe:
        start_mask |= 1 << v
    chosen = walk(0, 0, start_mask, 0)
    if chosen is None:
        raise AssertionError("optimum reconstruction failed")
    return chosen, states


def reference_greedy_order(masks: list[int], weights, mask: int) -> list[int]:
    """The plain greedy scan: rescan every live node on every pick."""
    order = []
    cur = mask
    while cur:
        best_v = -1
        best_w = 0
        best_d = 0
        m = cur
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (masks[v] & cur).bit_count()
            if best_v < 0 or weights[v] * (best_d + 1) > best_w * (d + 1):
                best_v, best_w, best_d = v, weights[v], d
        order.append(best_v)
        cur &= ~(masks[best_v] | (1 << best_v))
    return order


def reference_branch_node(mask: int, masks: list[int], weights) -> int:
    """The plain branch pick: scan every live node for the maximum live
    degree; ties: larger weight, then smaller index."""
    best_v = best_deg = best_w = -1
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        deg = (masks[v] & mask).bit_count()
        wv = weights[v]
        if deg > best_deg or (deg == best_deg and wv > best_w):
            best_v, best_deg, best_w = v, deg, wv
    return best_v


def reference_local_search(g: WeightedGraph, start) -> tuple[frozenset[int], int]:
    """Local search by a full rescan per move: (final set, number of moves).

    Drops the zero-weight members of ``start``, then applies the first
    move that :func:`_first_move` finds until there is none.
    """
    masks, weights = g.neighbor_masks(), g.weights
    candidates = [v for v in range(g.node_count) if weights[v] > 0]
    sel_mask = 0
    for v in start:
        if weights[v] > 0:
            sel_mask |= 1 << v
    moves = 0
    while (move := _first_move(candidates, sel_mask, masks, weights)) is not None:
        removed, inserted = move
        sel_mask = sel_mask & ~removed | inserted
        moves += 1
    return frozenset(_bits(sel_mask)), moves


def _first_move(
    candidates: list[int], sel_mask: int, masks: list[int], weights
) -> tuple[int, int] | None:
    """First improving move as (removed mask, inserted mask), or None.

    One pass classifies each unselected candidate by its selected
    neighbors: the first one with none is returned as an add-move, and
    one with exactly one, u, is owned by u.  With no add-move left,
    removing u frees exactly the nodes u owns.  So the swaps are tried
    from the owned lists in this order: every (1,1)-swap, then every
    (1,2)-swap, each by ascending u and ascending replacements.
    """
    owned: dict[int, list[int]] = {}
    for v in candidates:
        if sel_mask >> v & 1:
            continue
        hit = masks[v] & sel_mask
        if not hit:
            return 0, 1 << v
        if not hit & (hit - 1):
            owned.setdefault(hit.bit_length() - 1, []).append(v)
    owners = sorted(owned)
    for u in owners:
        for v in owned[u]:
            if weights[v] > weights[u]:
                return 1 << u, 1 << v
    for u in owners:
        free = owned[u]
        for i, a in enumerate(free):
            for b in free[i + 1 :]:
                if not masks[a] >> b & 1 and weights[a] + weights[b] > weights[u]:
                    return 1 << u, 1 << a | 1 << b
    return None


@pytest.fixture(scope="session")
def k3() -> WeightedGraph:
    return complete_graph(3)


@pytest.fixture(scope="session")
def c5() -> WeightedGraph:
    return cycle_graph(5)
