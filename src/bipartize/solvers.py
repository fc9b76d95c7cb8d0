"""Independent-set engines and the direct bipartite-subgraph oracle.

Four maximum-weight independent set engines with different guarantees:

* :func:`mwis_bruteforce` — exhaustive oracle with a hard size guard.
* :func:`mwis_exact` — branch-and-reduce, optimal unless a budget runs out.
* :func:`mwis_greedy` — weight/(degree+1) greedy, no optimality claim.
* :func:`mwis_local_search` — add-moves and (1,2)-swaps to a local optimum.

Plus :func:`induced_bipartite_bruteforce`, an exhaustive oracle for the
maximum-weight induced bipartite subgraph itself, used to cross-validate
the doubled-graph pipeline end to end.

All engines treat zero-weight nodes as never worth selecting: they cannot
change the objective, and dropping them keeps returned solutions canonical.
Tie-breaking is by lexicographically smallest member list for the oracles
and by fixed deterministic scan order everywhere else; no engine uses
randomness or floating point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graph import (
    Bipartition,
    WeightedGraph,
    induced_subgraph,
    is_independent_set,
    two_coloring,
)
from .reduction import BipartiteSolution

DEFAULT_MWIS_BRUTEFORCE_NODES = 25
DEFAULT_BIPARTITE_BRUTEFORCE_NODES = 20


class LimitExceededError(ValueError):
    """Raised when a brute-force engine refuses an oversized instance."""


@dataclass(frozen=True)
class SolverLimits:
    """Resource limits; ``None`` means the engine default / unlimited."""

    max_nodes_for_bruteforce: int | None = None
    node_budget: int | None = None
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_nodes_for_bruteforce", "node_budget", "time_budget_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class SearchStats:
    search_nodes: int = 0
    reductions: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    solution: frozenset[int]
    weight: int
    optimal: bool
    stats: SearchStats


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _positive_mask(weights) -> int:
    mask = 0
    for v, w in enumerate(weights):
        if w > 0:
            mask |= 1 << v
    return mask


def _bruteforce_cap(limits: SolverLimits | None, default: int) -> int:
    if limits is not None and limits.max_nodes_for_bruteforce is not None:
        return limits.max_nodes_for_bruteforce
    return default


# ---------------------------------------------------------------------------
# Exhaustive oracle


def mwis_bruteforce(
    g: WeightedGraph, limits: SolverLimits | None = None
) -> SolveResult:
    """Exact maximum-weight independent set by exhausting all subsets.

    Every subset of nodes is accounted for: the optimum value comes from a
    split-and-merge sweep over all subsets of each half of the node list,
    and the returned set is the lexicographically smallest optimum,
    recovered by a first-hit scan in ascending-index order.  Refuses graphs
    above the node cap (default 25) rather than approximating.
    """
    cap = _bruteforce_cap(limits, DEFAULT_MWIS_BRUTEFORCE_NODES)
    if g.node_count > cap:
        raise LimitExceededError(
            f"brute force refused: {g.node_count} nodes exceeds the cap of {cap}"
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
        self.universe = universe
        half = (len(universe) + 1) // 2
        self.left = universe[:half]
        self.right = universe[half:]
        self.left_pos = {v: i for i, v in enumerate(self.left)}
        self.weights = weights
        self.masks = masks
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


# ---------------------------------------------------------------------------
# Branch and reduce


def mwis_exact(g: WeightedGraph, limits: SolverLimits | None = None) -> SolveResult:
    """Exact maximum-weight independent set by branch and reduce.

    Before every branch, two safe rules run to fixpoint: nodes whose weight
    dominates their remaining neighborhood's total are taken, and
    zero-weight nodes are dropped.  Branching picks a maximum-degree node
    (ties: larger weight, then smaller index) and explores taking it before
    excluding it.  Pruning uses a greedy clique-cover bound.  With a node
    or time budget the search may stop early; the result is then the best
    solution found, flagged ``optimal=False``.
    """
    limits = limits or SolverLimits()
    search = _BranchAndReduce(g, limits)
    return search.run()


class _BranchAndReduce:
    def __init__(self, g: WeightedGraph, limits: SolverLimits):
        self.n = g.node_count
        self.weights = g.weights
        self.masks = g.neighbor_masks()
        self.closed = [self.masks[v] | (1 << v) for v in range(self.n)]
        self.limits = limits
        self.stats = SearchStats(reductions={"domination": 0, "zero_weight": 0})
        self.exhausted = False
        self.best_weight = 0
        self.best_mask = 0
        self.deadline = None

    def run(self) -> SolveResult:
        start = time.perf_counter()
        if self.limits.time_budget_s is not None:
            self.deadline = start + self.limits.time_budget_s
        alive = _positive_mask(self.weights)
        self.stats.reductions["zero_weight"] = self.n - alive.bit_count()
        # greedy incumbent: cheap, deterministic, prunes most of the tree
        for v in _greedy_order(self.masks, self.weights, alive):
            self.best_mask |= 1 << v
            self.best_weight += self.weights[v]
        self._search(alive, 0, 0)
        self.stats.elapsed_s = time.perf_counter() - start
        return SolveResult(
            frozenset(_bits(self.best_mask)),
            self.best_weight,
            not self.exhausted,
            self.stats,
        )

    def _over_budget(self) -> bool:
        if (
            self.limits.node_budget is not None
            and self.stats.search_nodes >= self.limits.node_budget
        ):
            return True
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return True
        return False

    def _search(self, mask: int, current: int, chosen: int) -> None:
        if self.exhausted:
            return
        if self._over_budget():
            self.exhausted = True
            return
        self.stats.search_nodes += 1
        weights, masks, closed = self.weights, self.masks, self.closed
        # domination to fixpoint: take v when w(v) covers its whole
        # remaining neighborhood (isolated nodes always qualify)
        changed = True
        while changed:
            changed = False
            m = mask
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                nbrs = masks[v] & mask
                total = 0
                nb = nbrs
                while nb:
                    nlow = nb & -nb
                    total += weights[nlow.bit_length() - 1]
                    nb ^= nlow
                if weights[v] >= total:
                    chosen |= low
                    current += weights[v]
                    mask &= ~closed[v]
                    self.stats.reductions["domination"] += 1
                    changed = True
                    break
        if not mask:
            if current > self.best_weight:
                self.best_weight = current
                self.best_mask = chosen
            return
        if current + _clique_cover_bound(mask, masks, weights) <= self.best_weight:
            return
        v = self._branch_node(mask)
        self._search(mask & ~closed[v], current + weights[v], chosen | (1 << v))
        if self.exhausted:
            return
        self._search(mask & ~(1 << v), current, chosen)

    def _branch_node(self, mask: int) -> int:
        weights, masks = self.weights, self.masks
        best_v = -1
        best_deg = -1
        best_w = -1
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            deg = (masks[v] & mask).bit_count()
            if deg > best_deg or (deg == best_deg and weights[v] > best_w):
                best_v, best_deg, best_w = v, deg, weights[v]
        return best_v


def _clique_cover_bound(mask: int, masks: list[int], weights) -> int:
    """Greedy clique cover by ascending index; sums each clique's max weight.

    Any independent set takes at most one node per clique, so this bounds
    the best achievable weight inside ``mask`` from above.
    """
    cliques: list[list[int]] = []  # [common neighborhood mask, max weight]
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        wv = weights[v]
        for clique in cliques:
            if clique[0] >> v & 1:
                clique[0] &= masks[v]
                if wv > clique[1]:
                    clique[1] = wv
                break
        else:
            cliques.append([masks[v], wv])
    return sum(c[1] for c in cliques)


# ---------------------------------------------------------------------------
# Greedy and local search


def _greedy_order(masks: list[int], weights, mask: int) -> list[int]:
    """Pick nodes by descending weight/(degree+1), degrees taken in the
    shrinking graph; cross-multiplied integer comparisons, smallest index
    on ties.  Only positive-weight nodes are considered."""
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


def mwis_greedy(g: WeightedGraph) -> SolveResult:
    """Greedy independent set: repeatedly take the node with the best
    weight/(current degree + 1) ratio and delete its closed neighborhood.

    The result's weight is at least the sum over all nodes of
    ``w(v)/(degree(v)+1)`` in the input graph.  Never claims optimality.
    """
    start = time.perf_counter()
    order = _greedy_order(g.neighbor_masks(), g.weights, _positive_mask(g.weights))
    weight = sum(g.weights[v] for v in order)
    stats = SearchStats(search_nodes=len(order))
    stats.elapsed_s = time.perf_counter() - start
    return SolveResult(frozenset(order), weight, False, stats)


def mwis_local_search(g: WeightedGraph, start: frozenset[int] | set[int]) -> SolveResult:
    """Improve an independent set with add-moves and (1,2)-swaps.

    Moves, tried in a fixed order and applied first-improvement-first:
    insert a node none of whose neighbors are selected; or remove one
    selected node and insert one or two mutually non-adjacent replacements.
    Only strictly improving moves are accepted, so the weight rises with
    every move and the search terminates at a local optimum.

    Zero-weight members of ``start`` are dropped up front (they never
    affect the objective).  Raises ValueError when ``start`` is not an
    independent set.
    """
    began = time.perf_counter()
    members = frozenset(int(v) for v in start)
    if not is_independent_set(g, members):
        raise ValueError("start is not an independent set")
    weights = g.weights
    masks = g.neighbor_masks()
    selected = {v for v in members if weights[v] > 0}
    sel_mask = 0
    for v in selected:
        sel_mask |= 1 << v
    candidates = [v for v in range(g.node_count) if weights[v] > 0]
    moves = 0
    while True:
        move = _find_move(candidates, selected, sel_mask, masks, weights)
        if move is None:
            break
        removed, inserted = move
        for v in removed:
            selected.discard(v)
            sel_mask &= ~(1 << v)
        for v in inserted:
            selected.add(v)
            sel_mask |= 1 << v
        moves += 1
    stats = SearchStats(search_nodes=moves)
    stats.elapsed_s = time.perf_counter() - began
    weight = sum(weights[v] for v in selected)
    return SolveResult(frozenset(selected), weight, False, stats)


def _find_move(
    candidates: list[int],
    selected: set[int],
    sel_mask: int,
    masks: list[int],
    weights,
) -> tuple[list[int], list[int]] | None:
    # add-moves first
    for v in candidates:
        if v not in selected and masks[v] & sel_mask == 0:
            return [], [v]
    # one-for-one swaps
    for u in sorted(selected):
        reduced = sel_mask & ~(1 << u)
        for v in candidates:
            if v not in selected and masks[v] & reduced == 0 and weights[v] > weights[u]:
                return [u], [v]
    # one-for-two swaps
    for u in sorted(selected):
        reduced = sel_mask & ~(1 << u)
        free = [
            v
            for v in candidates
            if v not in selected and masks[v] & reduced == 0
        ]
        for i, a in enumerate(free):
            for b in free[i + 1 :]:
                if masks[a] >> b & 1:
                    continue
                if weights[a] + weights[b] > weights[u]:
                    return [u], [a, b]
    return None


# ---------------------------------------------------------------------------
# Direct bipartite-subgraph oracle


def induced_bipartite_bruteforce(
    g: WeightedGraph, limits: SolverLimits | None = None
) -> BipartiteSolution:
    """Exact maximum-weight node set inducing a bipartite subgraph.

    Works straight from the definition in two exhaustive passes.  The
    optimum value comes from a search that assigns each node to side A,
    side B, or neither (a set induces a bipartite subgraph exactly when it
    splits into two independent sides), cutting only assignments whose
    sides stop being independent or that cannot reach the incumbent.  The
    returned set is then the lexicographically smallest one achieving that
    value, found by an ascending include-first scan over node sets with an
    incremental 2-colorability check.  The witness bipartition is
    recomputed by 2-coloring the induced subgraph.  Refuses graphs above
    the node cap (default 20).
    """
    cap = _bruteforce_cap(limits, DEFAULT_BIPARTITE_BRUTEFORCE_NODES)
    if g.node_count > cap:
        raise LimitExceededError(
            f"brute force refused: {g.node_count} nodes exceeds the cap of {cap}"
        )
    masks = g.neighbor_masks()
    weights = g.weights
    nodes = [v for v in range(g.node_count) if weights[v] > 0]
    suffix = [0] * (len(nodes) + 1)
    for i in range(len(nodes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[nodes[i]]
    best_weight = _bipartite_optimum(nodes, suffix, masks, weights)
    if best_weight == 0:
        node_set: frozenset[int] = frozenset()
    else:
        node_set = _lex_bipartite_optimum(
            g.node_count, nodes, suffix, masks, weights, best_weight
        )
    sub, back = induced_subgraph(g, node_set)
    coloring = two_coloring(sub)
    assert not isinstance(coloring, tuple), "found set is not bipartite"
    side_a = frozenset(back[i] for i in coloring.side_a)
    side_b = frozenset(back[i] for i in coloring.side_b)
    return BipartiteSolution(
        node_set=node_set,
        bipartition=Bipartition(side_a, side_b),
        weight=best_weight,
    )


def _bipartite_optimum(
    nodes: list[int], suffix: list[int], masks: list[int], weights
) -> int:
    best = 0

    def assign(i: int, a_mask: int, b_mask: int, cur: int) -> None:
        nonlocal best
        if cur + suffix[i] <= best:
            return
        if i == len(nodes):
            best = cur
            return
        v = nodes[i]
        bit = 1 << v
        if masks[v] & a_mask == 0:
            assign(i + 1, a_mask | bit, b_mask, cur + weights[v])
        # the very first selected node always goes to side A: the sides of
        # a bipartition are interchangeable, so this halves the search
        if (a_mask or b_mask) and masks[v] & b_mask == 0:
            assign(i + 1, a_mask, b_mask | bit, cur + weights[v])
        assign(i + 1, a_mask, b_mask, cur)

    assign(0, 0, 0, 0)
    return best


class _ParityForest:
    """Union-find with edge parity and rollback.

    Tracks 2-colorability of a growing induced subgraph: joining two
    neighbors asserts they get opposite colors, and a contradiction means
    the current node set contains an odd cycle.  No path compression, so
    unions undo exactly.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.parity = [0] * n  # color flip relative to parent

    def find(self, v: int) -> tuple[int, int]:
        flip = 0
        while self.parent[v] != v:
            flip ^= self.parity[v]
            v = self.parent[v]
        return v, flip

    def join_opposite(self, a: int, b: int, trail: list) -> bool:
        """Constrain color(a) != color(b); False if that is contradictory."""
        ra, fa = self.find(a)
        rb, fb = self.find(b)
        if ra == rb:
            return fa != fb
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
            fa, fb = fb, fa
        self.parent[rb] = ra
        self.parity[rb] = fa ^ fb ^ 1
        bumped = self.rank[ra] == self.rank[rb]
        if bumped:
            self.rank[ra] += 1
        trail.append((rb, ra, bumped))
        return True

    def undo(self, trail: list) -> None:
        while trail:
            rb, ra, bumped = trail.pop()
            self.parent[rb] = rb
            self.parity[rb] = 0
            if bumped:
                self.rank[ra] -= 1


def _lex_bipartite_optimum(
    n: int,
    nodes: list[int],
    suffix: list[int],
    masks: list[int],
    weights,
    optimum: int,
) -> frozenset[int]:
    # Ascending include-first scan over node sets: the first set reaching
    # the optimum is the lexicographically smallest optimal one.  Branches
    # that cannot reach the optimum by total remaining weight, or whose
    # set already contains an odd cycle, are skipped.
    forest = _ParityForest(n)

    def walk(i: int, cur: int, in_mask: int) -> int | None:
        if cur == optimum:
            return in_mask
        if i == len(nodes):
            return None
        v = nodes[i]
        if cur + weights[v] + suffix[i + 1] >= optimum:
            trail: list = []
            feasible = True
            nbrs = masks[v] & in_mask
            while nbrs:
                low = nbrs & -nbrs
                if not forest.join_opposite(v, low.bit_length() - 1, trail):
                    feasible = False
                    break
                nbrs ^= low
            if feasible:
                found = walk(i + 1, cur + weights[v], in_mask | (1 << v))
                if found is not None:
                    return found
            forest.undo(trail)
        if cur + suffix[i + 1] >= optimum:
            return walk(i + 1, cur, in_mask)
        return None

    found = walk(0, 0, 0)
    if found is None:
        raise AssertionError("optimum reconstruction failed")
    return frozenset(_bits(found))
