"""Independent-set engines and the direct bipartite-subgraph oracle.

Three maximum-weight independent set engines with different guarantees:

* :func:`mwis_exact` — branch-and-reduce, optimal unless a budget runs out.
* :func:`mwis_greedy` — weight/(degree+1) greedy, no optimality claim.
* :func:`mwis_local_search` — add-moves and (1,1)- and (1,2)-swaps to a
  local optimum.

The exact engine works on per-node neighbor bitmasks; the greedy and the
local search work on the adjacency lists, in memory linear in n + m.

Plus :func:`induced_bipartite_bruteforce`, an exhaustive oracle for the
maximum-weight induced bipartite subgraph itself, used to cross-validate
the doubled-graph pipeline end to end.

All engines treat zero-weight nodes as never worth selecting: they cannot
change the objective, and dropping them keeps returned solutions canonical.
Tie-breaking is by lexicographically smallest member list for the oracle
and by fixed deterministic scan order everywhere else; no engine uses
randomness or floating point.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .graph import (
    Bipartition,
    WeightedGraph,
    _checked_members,
    _independent,
    induced_subgraph,
    two_coloring,
)
from .reduction import BipartiteSolution

DEFAULT_BIPARTITE_BRUTEFORCE_NODES = 20


class LimitExceededError(ValueError):
    """Raised when the brute-force oracle refuses an oversized instance."""


@dataclass(frozen=True)
class SolverLimits:
    """Search budgets for the exact engine; ``None`` means unlimited."""

    node_budget: int | None = None
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("node_budget", "time_budget_s"):
            value = getattr(self, name)
            # ``not value > 0`` also rejects NaN, which compares false to
            # everything and would make the deadline unreachable
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class SearchStats:
    """Search counts of one solve.  ``reductions`` is kept as a read-only
    copy of the mapping given, so the stats stay immutable."""

    search_nodes: int = 0
    reductions: Mapping[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "reductions", MappingProxyType(dict(self.reductions)))


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


# ---------------------------------------------------------------------------
# Branch and reduce


def mwis_exact(g: WeightedGraph, limits: SolverLimits | None = None) -> SolveResult:
    """Exact maximum-weight independent set by branch and reduce.

    The live nodes are the positive-weight ones.  Zero-weight nodes cannot
    raise the weight, so they are dropped once, before the search, and
    counted in ``stats.reductions["zero_weight"]``; the root's live mask is
    the union of the classes of :func:`_branch_classes`, the one place
    that tells them apart.  Before every branch, a safe rule runs to
    fixpoint: nodes whose weight dominates their remaining neighborhood's
    total are taken, lowest first.  Domination is incremental: a node's
    status can only change when one of its neighbors is removed, so each
    search node re-examines only the neighbors of what was removed since
    the last fixpoint.  Branching picks the node of the largest integer
    key w(v)·(d(v)+1), d(v) its live degree (ties: the lower one), and
    explores taking it before excluding it: the greedy picks the largest
    w/(d+1) first, and the search branches first where that ratio is
    inverted, on heavy nodes with many live neighbors.  Pruning uses a
    greedy clique-cover bound.  The incumbent comes from the greedy, which
    reads the same positive nodes off the weights and also stops at the
    time budget.  With a node or time budget the search may stop early;
    the result is then the best solution found, flagged ``optimal=False``.

    Engine order.  The search runs on the nodes relabeled once per solve,
    and "lowest", "below" and "first" here and in the helpers it calls
    mean first in this order, not by the caller's index.  The nodes go by
    descending weight, ties by ascending index (see :func:`_engine_order`),
    so the cover's founders come heaviest first.  When n is even and the
    two halves weigh alike, as on every doubled graph, only the low half
    is sorted and each v + n/2 goes n/2 after v.  That relabeling keeps
    each half in place and commutes with the half swap v <-> v + n/2, so
    the relabeled graph is a doubled graph exactly when the caller's is.
    A graph whose halves weigh differently is no doubled graph, and nor is
    its relabeling: sorted halves weigh alike only when every weight is
    equal, a case the first branch takes.
    The neighbor masks are built once, straight in engine order.  The
    greedy incumbent runs on the caller's labels and is mapped in, and the
    answer is mapped back.

    The search is depth first, without recursion, so its depth is not bound
    by Python's recursion limit.  The pending search nodes wait on a stack.
    Each entry is a live mask, the part of it that may dominate, the weight
    and mask of the nodes taken so far, and whether its branch dropped a
    mirror twin.  A branch pushes its exclude child below its take child,
    so the take child's whole subtree is searched before the exclude child
    starts.  A twin exclusion counts when its child is popped, just before
    the budget check.

    Dirty-set invariant.  A live node outside the dirty part was found not
    to dominate, and none of its neighbors has been removed since, so it
    still does not.  The root passes every node; a child passes the
    neighbors of the nodes its branch removed.  The fixpoint examines the
    lowest dirty node: the dirty nodes below it were found not to dominate
    and the clean ones are known not to, so when it dominates it is the
    lowest dominating node, the one a scan of every live node would take.
    A take removes its closed neighborhood and makes that neighborhood's
    neighbors dirty again.

    Mirror rule.  On a doubled graph (see :func:`_doubling_half`) the swap
    s of the halves, v <-> v + n/2, maps the graph onto itself with equal
    weights: it swaps the two layers, and so the two sides of the
    bipartition.  So each solution has a mirror image of the same weight,
    and the search proves only one of the two.  At a branch on v whose
    live set M has s(M) = M, the exclude child also drops v's twin
    t = s(v).  This loses no weight.  By the stack order above, the take-v
    child has been searched in full before the exclude child starts (on a
    budget stop the search ends at once), so the incumbent already weighs
    at least as much as the nodes taken so far plus any independent set
    inside M that holds v.  Let S be an independent set inside M that
    holds t but not v.  Its mirror image s(S) lies inside s(M) = M, is
    independent, holds s(t) = v and weighs the same as S; no live node is
    adjacent to a node taken so far, so s(S) completes them to a solution,
    one the incumbent already matches.  So the exclude child need only
    search M minus {v, t}, and it re-examines the neighbors of both for
    domination.  ``stats.reductions["mirror"]`` counts these twin
    exclusions.

    Twin pairing.  On a doubled graph, whose matching edges join every node
    to its twin, the cover bound counts a pair of cliques whose heaviest
    nodes a and a' are twins as w(a) plus the larger of the two cliques'
    second weights, not 2 w(a): a solution never holds both a and a', so
    with one of them it takes at most a second weight from the other's
    clique.  Scratch for this is allocated once per solve (see
    :func:`_clique_cover_bound`).  On any other graph neither rule applies.

    Both per-node scans end early without changing the search.  The cover
    bound is asked only whether it exceeds the room left, the incumbent
    less the weight taken: it stops once its running total does, and its
    totals never fall (each clique, paired or not, adds a weight of at
    least 0), so it prunes exactly where the full cover would.
    The branch scan visits the live nodes by the cap w(v)·(D(v)+1), D(v)
    the whole-graph degree, highest first, and stops at the first cap below
    the best key found.  The live nodes are the union of the classes, so
    each sits in one, and its live degree never exceeds D(v), so its key
    never exceeds its cap: no node the scan skips could win, and it picks
    the node a scan of every live node would.
    """
    limits = limits or SolverLimits()
    start = time.perf_counter()
    budget = limits.node_budget
    deadline = None if limits.time_budget_s is None else start + limits.time_budget_s
    adjacency = g.adjacency
    # greedy incumbent: cheap, deterministic, prunes most of the tree; cut
    # short at the deadline, when the search's first budget check stops too
    greedy = _greedy_order(adjacency, g.weights, deadline)
    # the search runs in engine order: engine node i is the caller's order[i]
    order = _engine_order(g.weights)
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    weights = [g.weights[v] for v in order]
    masks = [0] * len(order)
    for v, nbrs in enumerate(adjacency):
        m = 0
        for u in nbrs:
            m |= 1 << pos[u]
        masks[pos[v]] = m
    h = _doubling_half(masks, weights)
    lower = (1 << h) - 1
    # scratch for the cover's twin pairing, reused by every call
    pairing = (h, [0] * h, [0] * h)
    # the live nodes are the positive ones, each in one branch class
    classes = _branch_classes(masks, weights)
    alive = 0
    for _, members in classes:
        alive |= members
    zero_weight = g.node_count - alive.bit_count()
    domination = mirror = 0
    best_weight = best_mask = 0
    for v in greedy:
        best_mask |= 1 << pos[v]
        best_weight += g.weights[v]
    search_nodes, optimal = 0, True
    stack = [(alive, alive, 0, 0, False)]
    while stack:
        mask, dirty, current, chosen, mirrored = stack.pop()
        mirror += mirrored
        if (budget is not None and search_nodes >= budget) or (
            deadline is not None and time.perf_counter() > deadline
        ):
            optimal = False
            break
        search_nodes += 1
        # domination to fixpoint: take v when w(v) covers its whole
        # remaining neighborhood (isolated nodes always qualify)
        dirty &= mask
        while dirty:
            low = dirty & -dirty
            v = low.bit_length() - 1
            dirty ^= low
            wv = weights[v]
            total = 0
            nb = masks[v] & mask
            while nb and total <= wv:
                nlow = nb & -nb
                total += weights[nlow.bit_length() - 1]
                nb ^= nlow
            if total <= wv:
                removed = (masks[v] | low) & mask
                mask ^= removed
                dirty = (dirty | _neighborhood(removed, masks)) & mask
                chosen |= low
                current += wv
                domination += 1
        if not mask:
            if current > best_weight:
                best_weight, best_mask = current, chosen
            continue
        room = best_weight - current
        if _clique_cover_bound(mask, masks, weights, room, pairing, search_nodes) <= room:
            continue
        v = _branch_node(mask, masks, weights, classes)
        dropped, dirty = 1 << v, masks[v]
        mirrored = h and mask >> h == mask & lower
        if mirrored:
            # the mirror rule: t's solutions mirror v's, searched first
            t = v + h if v < h else v - h
            dropped |= 1 << t
            dirty |= masks[t]
        stack.append((mask & ~dropped, dirty, current, chosen, mirrored))
        removed = (masks[v] | 1 << v) & mask
        dirty = _neighborhood(removed, masks)
        take = (mask ^ removed, dirty, current + weights[v], chosen | 1 << v, False)
        stack.append(take)
    reductions = {"domination": domination, "zero_weight": zero_weight, "mirror": mirror}
    stats = SearchStats(search_nodes, reductions, time.perf_counter() - start)
    solution = frozenset(order[i] for i in _bits(best_mask))
    return SolveResult(solution, best_weight, optimal, stats)


def _engine_order(weights) -> list[int]:
    """The exact engine's node order: the nodes by descending weight, ties
    by ascending index.  When n is even and the two halves weigh alike, the
    low half sorted so, then the high half in the same order, so that
    v + n/2 lands n/2 after v.  ``sorted(..., reverse=True)`` is stable, so
    the ties keep their ascending order."""
    n = len(weights)
    h = n // 2
    if n % 2 == 0 and weights[:h] == weights[h:]:
        low = sorted(range(h), key=weights.__getitem__, reverse=True)
        return low + [v + h for v in low]
    return sorted(range(n), key=weights.__getitem__, reverse=True)


def _doubling_half(masks: list[int], weights) -> int:
    """n/2 when the graph with neighbor ``masks`` and ``weights`` is the
    doubled graph of its low half, else 0.  That is: n is even, the halves
    weigh alike, and the neighbors of each twin v + n/2 of a low node v are
    v and the twins of v's low neighbors.  The masks are symmetric, so each
    low node then meets no high node but its twin.  One pass over the low
    half, O(n + m) on the masks."""
    n = len(masks)
    h = n // 2
    if n % 2 or weights[:h] != weights[h:]:
        return 0
    lower = (1 << h) - 1
    for v in range(h):
        if masks[v + h] != (masks[v] & lower) << h | 1 << v:
            return 0
    return h


def _neighborhood(nodes: int, masks: list[int]) -> int:
    """Union of the neighbor masks of the nodes in ``nodes``."""
    out = 0
    while nodes:
        low = nodes & -nodes
        out |= masks[low.bit_length() - 1]
        nodes ^= low
    return out


def _branch_classes(masks: list[int], weights) -> list[tuple[int, int]]:
    """The positive-weight nodes, the exact engine's live nodes, grouped by
    their key's cap w(v)·(D(v)+1), D(v) the whole-graph degree: one (cap,
    mask) pair per distinct cap, highest cap first."""
    by_cap: dict[int, int] = {}
    for v, w in enumerate(weights):
        if w > 0:
            cap = w * (masks[v].bit_count() + 1)
            by_cap[cap] = by_cap.get(cap, 0) | 1 << v
    return sorted(by_cap.items(), reverse=True)


def _branch_node(mask: int, masks: list[int], weights, classes) -> int:
    """Live node of the largest key w(v)·(d(v)+1), d(v) its live degree;
    ties: smaller index.

    ``classes`` holds the positive nodes by the cap w(v)·(D(v)+1), D(v)
    the whole-graph degree, highest first (see :func:`_branch_classes`).
    The live nodes lie in the union of the classes, and a live node's live
    degree never exceeds D(v), so its key never exceeds its cap.  Once a
    class's cap is below the best key found so far, no node in it or in a
    later class can win, and the scan stops.  A class whose cap equals the best key may still hold a node
    that ties with a smaller index, so that class is scanned.
    """
    best_v = best_key = -1
    for cap, members in classes:
        if cap < best_key:
            break
        m = mask & members
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            key = weights[v] * ((masks[v] & mask).bit_count() + 1)
            if key > best_key or (key == best_key and v < best_v):
                best_v, best_key = v, key
    return best_v


def _clique_cover_bound(
    mask: int,
    masks: list[int],
    weights,
    limit: int,
    pairing: tuple[int, list[int], list[int]],
    call: int,
) -> int:
    """Greedy clique cover by ascending index; sums each clique's max weight,
    less what twin pairs can save.  :func:`mwis_exact` calls it in its
    engine order, where the nodes, or on a doubled graph the nodes of each
    half, come by descending weight, so this is ascending first fit with
    the heaviest founder first.

    Any independent set takes at most one node per clique, so this bounds
    the best achievable weight inside ``mask`` from above.  The cliques are
    grown one at a time.  Each starts at the lowest node not yet covered,
    its founder, and then keeps taking the lowest uncovered node adjacent
    to every member so far; the members' common neighborhood among the
    uncovered nodes holds exactly these candidates.  When it is empty, the
    next clique starts from the lowest node left.

    This is the partition of ascending first fit, where each node in turn
    joins the first clique, in order of creation, that it is adjacent to in
    full, or else founds a new one.  By induction on the node index, say
    every node below u lies in the same clique in both schemes.  A clique
    takes its members in ascending order, so u, if still uncovered, is
    taken by a clique exactly when it is adjacent to all of that clique's
    members below u: the same test first fit applies.  The cliques are
    grown in order of their founders, so u joins the first clique that
    passes it, as in first fit, and when none does it is the lowest node
    left and founds the next one.

    Twin pairing.  ``pairing`` holds h and two scratch lists of h entries,
    zero at first.  On a doubled graph h is its half (see
    :func:`_doubling_half`); h = 0 gives the plain cover.  ``call`` must be
    positive and differ from every earlier call on that scratch.  A
    clique's top is its first member of the largest weight, and its second
    weight the largest among its other members (0 for a single node).  A
    clique whose top t is low opens t, recording its second weight; a
    later clique whose top is the twin t + h of an open t closes that pair
    and adds the larger of the two second weights in place of w(t + h).
    The sum stays an upper bound.  The pair's tops
    a and a' = a + h weigh the same, w say, and are adjacent, so an
    independent set holds at most one of them and at most one node of
    each clique.  If it holds a, its node in the other clique is not a',
    so it weighs at most that clique's second weight; if it holds a', the
    same holds the other way round; if neither, it weighs at most both
    second weights, each at most w.  So the pair adds at most w plus the
    larger second weight.  A top lies in one clique only, so each clique
    joins at most one pair.  The stamp list holds the ``call`` that opened
    each low top, so entries left by earlier calls never count as open and
    nothing is cleared between calls.

    A running total is kept and returned once it exceeds ``limit``, after a
    whole clique.  Each clique adds a weight of at least 0, so the total
    never falls: the result exceeds ``limit`` exactly when the full cover
    does, it equals the full cover whenever that is at most ``limit``, and
    it never exceeds the full cover.
    """
    h, second, opened = pairing
    total = 0
    rest = mask
    while rest:
        low = rest & -rest
        t = low.bit_length() - 1
        rest ^= low
        top, runner_up = weights[t], 0
        common = masks[t] & rest
        while common:
            low = common & -common
            u = low.bit_length() - 1
            rest ^= low
            common &= masks[u]
            wu = weights[u]
            if wu > top:
                t, top, runner_up = u, wu, top
            elif wu > runner_up:
                runner_up = wu
        if t < h:
            second[t] = runner_up
            opened[t] = call
            total += top
        elif h and opened[t - h] == call:
            paired = second[t - h]
            total += runner_up if runner_up > paired else paired
        else:
            total += top
        if total > limit:
            break
    return total


# ---------------------------------------------------------------------------
# Greedy and local search


def _greedy_order(adjacency, weights, deadline: float | None = None) -> list[int]:
    """Greedy pick order among the positive-weight nodes: repeatedly the
    node with the largest weight/(degree+1), degrees taken in the shrinking
    graph among the positive nodes, smallest index on ties.  Zero-weight
    nodes are never live, so they neither get picked nor count as
    neighbors.

    With a ``deadline`` (a ``time.perf_counter`` reading), the clock is
    read every 256 picks, and once it is past the deadline the picks so
    far are returned: a prefix of the full order, still independent.

    The nodes sit in a lazily updated min-heap under exact integer keys.
    With D the largest starting degree, S = (D+1)^2 and n one more than the
    largest live index, the key ``v - (w(v) * S // (d+1)) * n`` orders by
    descending w/(d+1), then by ascending index, and ``key % n`` recovers
    v.  The floor keeps the exact order: two different ratios with degrees
    at most D differ by at least 1/S, so their multiples of S have distinct
    floors, and equal ratios get equal keys.  S adds only about
    2 log2(D+1) bits to a key, so its memory grows as log D, not with D.

    A pick removes its closed neighborhood, one node at a time.  Each
    removed node lowers the degree of the nodes still live next to it by
    one, and each such drop pushes the node again under its new key, so a
    pick costs work in proportion to the edges at the nodes it removes.
    The old entries stay in the heap: keys never rise, so a live node's
    newest entry is its smallest and pops first, and any entry popped for
    a node no longer live is skipped, among them the entries pushed for a
    neighbor of the pick that its removal had not reached yet.
    """
    live = bytearray([w > 0 for w in weights])
    nodes = [v for v, flag in enumerate(live) if flag]
    if not nodes:
        return []
    n = nodes[-1] + 1
    # live degrees: every neighbor counts, less the ones not live
    degree = [len(nbrs) for nbrs in adjacency]
    for v, flag in enumerate(live):
        if not flag:
            for u in adjacency[v]:
                degree[u] -= 1
    scale = (max(degree[v] for v in nodes) + 1) ** 2
    heap = [v - weights[v] * scale // (degree[v] + 1) * n for v in nodes]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order = []
    remaining = len(nodes)
    while remaining:
        v = pop(heap) % n
        if not live[v]:
            continue
        order.append(v)
        if (
            deadline is not None
            and len(order) % 256 == 0
            and time.perf_counter() > deadline
        ):
            break
        # v's neighbors all leave with it, so only theirs lose degree
        live[v] = 0
        remaining -= 1
        for r in adjacency[v]:
            if live[r]:
                live[r] = 0
                remaining -= 1
                for u in adjacency[r]:
                    if live[u]:
                        d = degree[u] = degree[u] - 1
                        push(heap, u - weights[u] * scale // (d + 1) * n)
    return order


def mwis_greedy(g: WeightedGraph) -> SolveResult:
    """Greedy independent set: repeatedly take the node with the best
    weight/(current degree + 1) ratio and delete its closed neighborhood.

    The result's weight is at least the sum over all nodes of
    ``w(v)/(degree(v)+1)`` in the input graph (GWMIN; Sakai, Togasaki &
    Yamazaki, DAM 2003).  Never claims optimality.  Zero-weight nodes are
    never picked and do not count toward a degree.  The picks come from a
    min-heap under exact integer keys that re-keys only the nodes whose
    degree dropped (see :func:`_greedy_order`), and degrees are kept as
    counts on the adjacency lists, so the whole greedy costs
    O((n + m) log n) time and O(n + m) memory.  ``stats.search_nodes``
    counts the picks.
    """
    start = time.perf_counter()
    weights = g.weights
    order = _greedy_order(g.adjacency, weights)
    weight = sum(weights[v] for v in order)
    stats = SearchStats(len(order), elapsed_s=time.perf_counter() - start)
    return SolveResult(frozenset(order), weight, False, stats)


def mwis_local_search(g: WeightedGraph, start: frozenset[int] | set[int]) -> SolveResult:
    """Improve an independent set with add-moves and (1,1)- and (1,2)-swaps.

    A node's tightness is the count of its selected neighbors.  A node is
    free when it has positive weight, is not selected and has tightness 0;
    it is owned by u when it has positive weight and tightness 1 with u as
    that one selected neighbor (a selected node has tightness 0, as the set
    is independent).  Removing a selected node u frees exactly the nodes u
    owns.  Each move is the first of these that exists, and only strictly
    improving moves count, so the weight rises with every move and the
    search stops at a local optimum:

    1. insert the smallest free node;
    2. else swap out the smallest owner u with an improving (1,1)-swap, for
       the smallest node it owns that outweighs it;
    3. else swap out the smallest owner u with an improving (1,2)-swap, for
       the first pair, in ascending order, of mutually non-adjacent nodes
       it owns whose weights add up to more than u's.

    The state is kept up to date across moves instead of being rescanned
    (Andrade, Resende & Werneck, J. Heuristics 2012).  Each node keeps its
    tightness and the sum of its selected neighbors' indices, which names
    the owner at tightness 1.  A move changes these only at the neighbors
    of the nodes it moves.  Owned sets are not stored: u's is read off
    ``adjacency[u]``, already ascending, when u's cached swap is recomputed.

    Each selected owner caches its first swap (see :func:`_first_swap`).
    Once no free node is left, the swaps of the owners marked dirty since
    the last time are recomputed; at the start every owner is dirty.  A
    move marks the owner of each owned neighbor of a moved node twice, once
    before the move and once after it, and so finds every owner whose
    owned set changed.  A node's status changes only with its selection or
    its tightness, so only at a moved node or a neighbor of one.  In a swap
    every moved node neighbors another (u neighbors each node it swaps
    in); an add-move inserts a free node, owned neither before nor after.
    So a node whose status changes and that was or becomes owned neighbors
    a moved node.  A node that leaves an owned set was owned just before
    the move, and the first mark finds its old owner; among these is u,
    which owned the nodes it swaps in.  A node that joins an owned set is
    owned just after, and the second mark finds its new owner; among these
    is each inserted node that now owns nodes.

    A cached swap is ``(0, (v,))`` for a (1,1)-swap, found first, else
    ``(1, (a, b))``; one min-heap holds ``(kind, owner)``, and entries that
    no longer match an owner's cache are skipped.  The heap's top is the
    smallest owner with a (1,1)-swap when there is one, else the smallest
    with a (1,2)-swap: the move order above, since an owner's (1,2)-swap
    can be taken only when no owner has a (1,1)-swap.  The heap of free
    nodes skips entries selected or no longer at tightness 0; a move can
    free only neighbors of the node it removes.  So a move costs the edges
    at the nodes it moves plus a rescan of each owner it marks, not a pass
    over the whole graph, and memory stays O(n + m).  ``stats.search_nodes``
    counts the moves.

    Zero-weight members of ``start`` are dropped up front (they never
    affect the objective).  Raises ValueError when a member of ``start`` is
    not an integer or out of range, or ``start`` is not an independent set.
    """
    began = time.perf_counter()
    members = _checked_members(g, start)
    if not _independent(g.adjacency, members):
        raise ValueError("start is not an independent set")
    adjacency, weights = g.adjacency, g.weights
    n = g.node_count
    selected = bytearray(n)
    tight = [0] * n
    owner_sum = [0] * n  # the sum of the selected neighbors, the owner at tightness 1
    for v in members:
        if weights[v] > 0:
            selected[v] = 1
            for x in adjacency[v]:
                tight[x] += 1
                owner_sum[x] += v
    # ascending, so already a heap
    free = [v for v in range(n) if weights[v] and not selected[v] and not tight[v]]
    dirty = {owner_sum[x] for x in range(n) if tight[x] == 1 and weights[x]}
    swaps: dict[int, tuple[int, tuple[int, ...]]] = {}
    heap: list[tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    moves = 0

    def mark_owners(nodes):
        for v in nodes:
            for x in adjacency[v]:
                if tight[x] == 1 and weights[x]:
                    dirty.add(owner_sum[x])

    while True:
        while free and (selected[free[0]] or tight[free[0]]):
            pop(free)
        if free:
            out, into = (), (free[0],)
        else:
            for u in dirty:
                swaps.pop(u, None)
                if selected[u]:
                    group = [x for x in adjacency[u] if tight[x] == 1 and weights[x]]
                    swap = _first_swap(weights[u], group, adjacency, weights)
                    if swap:
                        swaps[u] = swap
                        push(heap, (swap[0], u))
            dirty.clear()
            # stale: the owner's cached swap is gone or of the other kind
            while heap and swaps.get(heap[0][1], (-1,))[0] != heap[0][0]:
                pop(heap)
            if not heap:
                break
            u = heap[0][1]
            out, into = (u,), swaps[u][1]
        moved = out + into
        mark_owners(moved)
        for u in out:
            selected[u] = 0
            for x in adjacency[u]:
                tight[x] -= 1
                owner_sum[x] -= u
                if not tight[x] and weights[x]:
                    push(free, x)
        for v in into:
            selected[v] = 1
            for x in adjacency[v]:
                tight[x] += 1
                owner_sum[x] += v
        mark_owners(moved)
        moves += 1
    stats = SearchStats(moves, elapsed_s=time.perf_counter() - began)
    chosen = [v for v in range(n) if selected[v]]
    weight = sum(weights[v] for v in chosen)
    return SolveResult(frozenset(chosen), weight, False, stats)


def _first_swap(
    wu: int, group: list[int], adjacency, weights
) -> tuple[int, tuple[int, ...]] | None:
    """The first improving swap out of an owner of weight ``wu`` that owns
    the ascending list ``group``: ``(0, (v,))`` for the first node that
    outweighs it, else ``(1, (a, b))`` for the first pair, in ascending
    order, of non-adjacent nodes whose weights add up to more, else None.

    No ``a`` can pair when even the heaviest node in ``group`` does not
    lift it above ``wu``; skipping those keeps a group that cannot pair
    linear to scan, not quadratic.
    """
    top = 0
    for v in group:
        wv = weights[v]
        if wv > wu:
            return 0, (v,)
        if wv > top:
            top = wv
    for i, a in enumerate(group):
        need = wu - weights[a]
        if need >= top:
            continue
        rest = [b for b in group[i + 1 :] if weights[b] > need]
        if rest:
            near = set(adjacency[a])
            for b in rest:
                if b not in near:
                    return 1, (a, b)
    return None


# ---------------------------------------------------------------------------
# Direct bipartite-subgraph oracle


def induced_bipartite_bruteforce(g: WeightedGraph) -> BipartiteSolution:
    """Exact maximum-weight node set inducing a bipartite subgraph.

    Works straight from the definition in one exhaustive search.  It walks
    the positive-weight nodes in ascending order, tries including each
    node before excluding it, and includes a node only when the chosen set
    stays 2-colorable.  It keeps a set only when it is strictly heavier
    than the best so far, and cuts a branch when even all the remaining
    weight cannot beat it.  Every searched node weighs more than zero, so
    no optimal set contains another, and the include-first walk meets the
    optimal sets in lexicographic order: the first one kept is the
    lexicographically smallest optimum, and none after it is heavier.
    Until then the best weight stays below the optimum, so no branch
    leading to it is cut.  The witness bipartition 2-colors the induced
    subgraph, each component's smallest node on side A.  Refuses graphs
    above the node cap of 20.
    """
    if g.node_count > DEFAULT_BIPARTITE_BRUTEFORCE_NODES:
        raise LimitExceededError(
            f"brute force refused: {g.node_count} nodes exceeds the cap of "
            f"{DEFAULT_BIPARTITE_BRUTEFORCE_NODES}"
        )
    masks = g.neighbor_masks()
    weights = g.weights
    nodes = [v for v in range(g.node_count) if weights[v] > 0]
    suffix = [0] * (len(nodes) + 1)
    for i in range(len(nodes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[nodes[i]]
    best_weight = best_mask = 0

    def walk(i: int, cur: int, chosen: int) -> None:
        nonlocal best_weight, best_mask
        if cur + suffix[i] <= best_weight:
            return
        if i == len(nodes):
            best_weight, best_mask = cur, chosen
            return
        v = nodes[i]
        if _two_colorable(v, chosen | 1 << v, masks):
            walk(i + 1, cur + weights[v], chosen | 1 << v)
        walk(i + 1, cur, chosen)

    walk(0, 0, 0)
    node_set = frozenset(_bits(best_mask))
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


def _two_colorable(v: int, live: int, masks: list[int]) -> bool:
    """Whether v's component in the subgraph induced by ``live`` is
    bipartite.  A breadth-first search from v visits the component in
    layers by distance, and the component has an odd cycle exactly when an
    edge joins two nodes of one layer."""
    seen = layer = 1 << v
    while layer:
        reach = _neighborhood(layer, masks) & live
        if reach & layer:
            return False
        layer = reach & ~seen
        seen |= layer
    return True
