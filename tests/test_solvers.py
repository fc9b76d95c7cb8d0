import dataclasses
import hashlib
import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bipartize.graph as graph_module
import bipartize.solvers as solvers
from bipartize import (
    LimitExceededError,
    SolverLimits,
    build_doubled_graph,
    check_solution,
    from_edge_list,
    induced_bipartite_bruteforce,
    induced_subgraph,
    is_independent_set,
    mwis_exact,
    mwis_greedy,
    mwis_local_search,
    set_weight,
    solve_approx,
    solve_exact,
)
from bipartize.generate import gnp
from bipartize.graph import MAX_WEIGHT
from bipartize.solvers import (
    _bits,
    _branch_node,
    _clique_cover_bound,
    _degree_classes,
    _first_swap,
    _greedy_order,
    _positive_mask,
)

from .conftest import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    literal_mwis,
    literal_induced_bipartite,
    mwis_bruteforce,
    reference_branch_node,
    reference_greedy_order,
    reference_local_search,
    star_graph,
)


def _random_instance(seed, max_n=11, zero_weights=False):
    rng = random.Random(seed)
    n = rng.randint(0, max_n)
    p = rng.choice([0.1, 0.3, 0.6, 0.9])
    low = 0 if zero_weights else 1
    base = gnp(n, p, seed=seed)
    weights = [rng.randint(low, 20) for _ in range(n)]
    return from_edge_list(n, list(base.edges()), weights)


class TestSolverLimits:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_budget": -1},
            {"time_budget_s": 0},
            {"time_budget_s": float("nan")},
        ],
    )
    def test_rejects_nonpositive_budgets(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            SolverLimits(**kwargs)

    def test_defaults_are_unlimited(self):
        limits = SolverLimits()
        assert limits.node_budget is None
        assert limits.time_budget_s is None


class TestMwisBruteforce:
    def test_c4_unit(self):
        result = mwis_bruteforce(cycle_graph(4))
        assert result.weight == 2
        assert sorted(result.solution) == [0, 2]
        assert result.optimal

    def test_doubled_edge(self):
        g = from_edge_list(2, [(0, 1)], [3, 5])
        result = mwis_bruteforce(build_doubled_graph(g).graph)
        assert result.weight == 8
        assert sorted(result.solution) == [0, 3]

    def test_triangle_prism(self, k3):
        result = mwis_bruteforce(build_doubled_graph(k3).graph)
        assert result.weight == 2
        assert sorted(result.solution) == [0, 4]

    def test_refuses_oversized(self):
        g = edgeless_graph(26)
        with pytest.raises(LimitExceededError, match="26 nodes"):
            mwis_bruteforce(g)
        # a raised cap admits the same instance
        result = mwis_bruteforce(g, max_nodes=26)
        assert result.weight == 26

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_literal_oracle(self, seed):
        g = _random_instance(seed, zero_weights=seed % 3 == 0)
        expected_w, expected_set = literal_mwis(g)
        result = mwis_bruteforce(g)
        assert result.weight == expected_w
        assert sorted(result.solution) == expected_set
        assert is_independent_set(g, result.solution)
        assert set_weight(g, result.solution) == result.weight

    def test_deterministic(self, c5):
        first = mwis_bruteforce(c5)
        second = mwis_bruteforce(c5)
        assert first.solution == second.solution
        assert first.stats.search_nodes == second.stats.search_nodes


class TestMwisExact:
    def test_edgeless(self):
        g = edgeless_graph(5, [2, 0, 3, 1, 4])
        result = mwis_exact(g)
        assert result.weight == 10
        assert result.solution == frozenset({0, 2, 3, 4})
        assert result.optimal

    def test_clique_takes_heaviest(self):
        g = complete_graph(3, [10, 1, 1])
        result = mwis_exact(g)
        assert result.weight == 10
        assert result.solution == frozenset({0})

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bruteforce(self, seed):
        g = _random_instance(seed + 500, max_n=16, zero_weights=seed % 4 == 0)
        expected = mwis_bruteforce(g).weight
        result = mwis_exact(g)
        assert result.weight == expected
        assert result.optimal
        assert is_independent_set(g, result.solution)
        assert set_weight(g, result.solution) == result.weight

    def test_node_budget_exhaustion(self):
        g = gnp(20, 0.3, seed=3, weights=(1, 50))
        result = mwis_exact(g, SolverLimits(node_budget=1))
        assert not result.optimal
        assert is_independent_set(g, result.solution)
        assert set_weight(g, result.solution) == result.weight
        # unconstrained run can only be at least as good
        assert result.weight <= mwis_exact(g).weight

    def test_deep_search_does_not_recurse(self):
        # 250 disjoint 5-cycles, doubled: the first dive branches about once
        # per cycle, so it goes about 250 levels deep
        edges = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(250) for i in range(5)]
        g = build_doubled_graph(from_edge_list(1250, edges, [1] * 1250)).graph
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            result = mwis_exact(g, SolverLimits(node_budget=300))
        finally:
            sys.setrecursionlimit(limit)
        assert not result.optimal
        assert result.weight == 1000
        assert is_independent_set(g, result.solution)
        # the counts of a recursive search under a large recursion limit
        assert result.stats.search_nodes == 300
        assert result.stats.reductions == {
            "domination": 826,
            "zero_weight": 0,
            "mirror": 26,
        }

    def test_deterministic_including_stats(self):
        g = gnp(18, 0.4, seed=11, weights=(1, 30))
        first = mwis_exact(g)
        second = mwis_exact(g)
        assert first.solution == second.solution
        assert first.stats.search_nodes == second.stats.search_nodes
        assert first.stats.reductions == second.stats.reductions


def _disjoint_copies(g):
    """g and a copy of g on nodes n..2n-1, with no edge between them."""
    n = g.node_count
    edges = list(g.edges()) + [(u + n, v + n) for u, v in g.edges()]
    return from_edge_list(2 * n, edges, g.weights + g.weights)


def _broken_swap(h, rng):
    """``h`` with the half swap broken by one added edge or one weight."""
    half = h.node_count // 2
    edges = list(h.edges())
    missing = [
        (u, x)
        for u in range(h.node_count)
        for x in range(u + 1, h.node_count)
        if x != u + half and x not in h.adjacency[u]
    ]
    weights = list(h.weights)
    if missing and rng.random() < 0.5:
        edges.append(rng.choice(missing))
    else:
        weights[rng.randrange(h.node_count)] += 1
    return from_edge_list(h.node_count, edges, weights)


def _swap_instance(seed, kind):
    """A seeded graph of at most 24 nodes: ``doubled``, two disjoint
    ``copies`` of one graph, a doubled graph with swap-symmetric cross
    edges (``crossed``), or a doubled graph whose swap is ``broken``."""
    g = _random_instance(seed + 3000, max_n=12, zero_weights=seed % 4 == 0)
    if kind == "copies":
        return _disjoint_copies(g)
    if kind == "crossed":
        return _crossed(g, random.Random(seed))
    h = build_doubled_graph(g).graph
    if kind == "broken" and h.node_count:
        return _broken_swap(h, random.Random(seed))
    return h


def _half(g):
    """The exact engine's swap check, on ``g``'s neighbor masks and weights:
    the half h (0 for none) and whether every low node meets its twin."""
    return solvers._swap_half(g.neighbor_masks(), g.weights)


class TestLayerSwap:
    """The mirror rule of the exact engine and the swap check behind it."""

    @pytest.mark.parametrize("seed", range(10))
    def test_detects_doubled_and_disjoint_copies(self, seed):
        g = _random_instance(seed + 3000, max_n=12)
        n = g.node_count
        # the matching edges join the twins of a doubled graph, none of G + G
        assert _half(build_doubled_graph(g).graph) == (n, n > 0)
        assert _half(_disjoint_copies(g)) == (n, False)

    def test_one_weight_breaks_the_swap(self):
        h = build_doubled_graph(gnp(8, 0.3, seed=5, weights=(1, 20))).graph
        edges = list(h.edges())
        for v in range(h.node_count):
            weights = list(h.weights)
            weights[v] += 1
            broken = from_edge_list(h.node_count, edges, weights)
            assert _half(broken) == (0, False)

    def test_one_edge_breaks_the_swap(self):
        g = gnp(8, 0.3, seed=5, weights=(1, 20))
        h = build_doubled_graph(g).graph
        half = g.node_count
        edges = list(h.edges())
        for u in range(h.node_count):
            for x in range(u + 1, h.node_count):
                if x in h.adjacency[u]:
                    continue
                # every edge {u, twin of u} is already there
                grown = from_edge_list(h.node_count, edges + [(u, x)], h.weights)
                assert _half(grown) == (0, False)
        for edge in edges:
            u, x = edge
            shrunk = [e for e in edges if e != edge]
            # an edge {u, twin of u} is its own image under the swap, so
            # dropping one keeps the swap and loses the twins
            expected = (half, False) if x == u + half else (0, False)
            cut = from_edge_list(h.node_count, shrunk, h.weights)
            assert _half(cut) == expected

    def test_odd_node_count(self):
        assert _half(edgeless_graph(5)) == (0, False)

    @pytest.mark.parametrize("kind", ["doubled", "copies", "crossed", "broken"])
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce(self, kind, seed):
        h = _swap_instance(seed, kind)
        assert h.node_count <= 24
        result = mwis_exact(h)
        assert result.weight == mwis_bruteforce(h).weight
        assert result.optimal
        assert is_independent_set(h, result.solution)
        assert set_weight(h, result.solution) == result.weight

    @pytest.mark.parametrize("kind", ["doubled", "copies"])
    @pytest.mark.parametrize("seed", range(20))
    def test_no_dominating_node_at_a_branch(self, monkeypatch, kind, seed):
        # the exclude child's dirty set must cover both removed twins, or a
        # node that dominates after the twin's removal goes unseen
        branch_node = solvers._branch_node

        def checked(mask, masks, weights, classes):
            for v in _bits(mask):
                total = sum(weights[u] for u in _bits(masks[v] & mask))
                assert total > weights[v], f"node {v} dominates at a branch"
            return branch_node(mask, masks, weights, classes)

        monkeypatch.setattr(solvers, "_branch_node", checked)
        mwis_exact(_swap_instance(seed, kind))

    def test_rule_fires_only_on_swap_symmetric_graphs(self):
        g = gnp(12, 0.3, seed=7, weights=(1, 50))
        h = build_doubled_graph(g).graph
        assert mwis_exact(h).stats.reductions["mirror"] > 0
        assert mwis_exact(_disjoint_copies(g)).stats.reductions["mirror"] > 0
        assert mwis_exact(g).stats.reductions["mirror"] == 0
        broken = _broken_swap(h, random.Random(7))
        assert mwis_exact(broken).stats.reductions["mirror"] == 0


@st.composite
def relabel_cases(draw):
    """A graph of at most 23 nodes whose weights run from 0 to a small top,
    so that zero and tied weights are common: a doubled graph, two disjoint
    copies of one graph, an even-n graph whose halves weigh alike but whose
    half swap is no automorphism (``alike``), or an odd-n graph."""
    kind = draw(st.sampled_from(["doubled", "copies", "alike", "odd"]))
    weight = st.integers(0, draw(st.sampled_from([1, 3, 20])))
    m = draw(st.integers(0, 11))
    n = {"alike": 2 * m, "odd": 2 * m + 1}.get(kind, m)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    weights = draw(st.lists(weight, min_size=m, max_size=m))
    if kind in ("alike", "odd"):
        weights += weights + draw(st.lists(weight, min_size=n - 2 * m, max_size=n - 2 * m))
    g = from_edge_list(n, edges, weights)
    if kind == "doubled":
        return build_doubled_graph(g).graph
    if kind == "copies":
        return _disjoint_copies(g)
    assume(_half(g) == (0, False))
    return g


class TestEngineOrder:
    """``mwis_exact`` searches in its own node order and answers in the
    caller's."""

    @given(relabel_cases())
    @settings(deadline=None, max_examples=300)
    def test_matches_bruteforce_in_the_callers_labels(self, g):
        result = mwis_exact(g)
        assert result.optimal
        assert result.weight == mwis_bruteforce(g).weight
        assert is_independent_set(g, result.solution)
        assert set_weight(g, result.solution) == result.weight

    @given(relabel_cases())
    @settings(deadline=None, max_examples=100)
    def test_heaviest_first_and_commutes_with_the_half_swap(self, g):
        weights, n = g.weights, g.node_count
        order = solvers._engine_order(weights)
        assert sorted(order) == list(range(n))
        h = n // 2
        if n % 2 == 0 and weights[:h] == weights[h:]:
            assert order[h:] == [v + h for v in order[:h]]
            order = order[:h]
        keys = [(-weights[v], v) for v in order]
        assert keys == sorted(keys)


def _reference_clique_cover_bound(mask, masks, weights, h=0):
    """The cover, each node scanning every clique made so far.  With ``h``,
    a clique whose heaviest node is the twin t + h of an earlier clique's
    heaviest node t counts the larger of the two second weights in place of
    its own heaviest; h = 0 gives the plain cover."""
    cliques = []  # [common neighborhood mask, members]
    for v in range(mask.bit_length()):
        if not mask >> v & 1:
            continue
        for clique in cliques:
            if clique[0] >> v & 1:
                clique[0] &= masks[v]
                clique[1].append(v)
                break
        else:
            cliques.append([masks[v], [v]])
    total = 0
    seconds = {}  # low top -> second weight of its clique
    for _, members in cliques:
        ranked = sorted(members, key=lambda v: (-weights[v], v))
        top = ranked[0]
        second = weights[ranked[1]] if len(ranked) > 1 else 0
        if h and top - h in seconds:
            total += max(second, seconds[top - h])
        else:
            total += weights[top]
            if top < h:
                seconds[top] = second
    return total


def _reference_twin_half(g):
    """n/2 when swapping the halves maps ``g`` onto itself with equal
    weights and every low node v is adjacent to v + n/2; else 0."""
    n = g.node_count
    h = n // 2
    if n % 2 or not h:
        return 0
    edges = set(g.edges())
    swap = [(v + h) % n for v in range(n)]
    if any(g.weights[v] != g.weights[swap[v]] for v in range(n)):
        return 0
    if any(tuple(sorted((swap[u], swap[v]))) not in edges for u, v in edges):
        return 0
    return h if all((v, v + h) in edges for v in range(h)) else 0


def _cover(g, live, limit=None, pairing=None, call=1):
    """The engine's cover on ``g``'s live mask, with the twin pairing that
    ``mwis_exact`` sets up (fresh scratch unless ``pairing`` is given); no
    limit by default."""
    masks, weights = g.neighbor_masks(), g.weights
    h, twins = solvers._swap_half(masks, weights)
    if twins and pairing is None:
        pairing = (h, [0] * h, [0] * h)
    limit = sum(weights) if limit is None else limit  # no cover exceeds the sum
    return _clique_cover_bound(live, masks, weights, limit, pairing, call)


def _crossed(g, rng):
    """The doubled graph of ``g`` plus cross edges {u, x + n} taken with
    their swap images {x, u + n}: the swap still maps it onto itself, and
    each node still meets its twin."""
    n = g.node_count
    h = build_doubled_graph(g)
    pairs = [(u, x) for u in range(n) for x in range(u + 1, n)]
    cross = [pair for pair in pairs if rng.random() < 0.3]
    edges = list(h.graph.edges())
    edges += [(u, x + n) for u, x in cross] + [(x, u + n) for u, x in cross]
    return from_edge_list(2 * n, edges, h.graph.weights)


KINDS = ("plain", "doubled", "copies", "crossed")


@st.composite
def graphs_with_live_masks(
    draw, max_nodes=12, weight=st.integers(0, 20), kind=st.sampled_from(KINDS[1:])
):
    """A live mask on a graph of one ``kind``, built from a graph G of at
    most ``max_nodes`` nodes: G itself (``plain``), its doubled graph,
    two disjoint copies of G (a half swap without twins), or its doubled
    graph with swap-symmetric cross edges between the layers (``crossed``).
    """
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    g = from_edge_list(n, edges, weights)
    shape = draw(kind)
    if shape == "doubled":
        g = build_doubled_graph(g).graph
    elif shape == "copies":
        g = _disjoint_copies(g)
    elif shape == "crossed":
        g = _crossed(g, draw(st.randoms(use_true_random=False)))
    live = draw(st.integers(min_value=0, max_value=(1 << g.node_count) - 1))
    return g, live


class TestCliqueCoverBound:
    @pytest.mark.parametrize(
        "n,p", [(20, 0.3), (60, 0.1), (60, 0.5), (150, 0.05), (400, 0.01), (400, 0.4)]
    )
    def test_matches_reference(self, n, p):
        rng = random.Random(n * 1000 + int(p * 100))
        g = gnp(n, p, seed=n, weights=(1, 100))
        h = build_doubled_graph(g).graph
        masks, weights = h.neighbor_masks(), h.weights
        full = (1 << h.node_count) - 1
        lives = [0, full]
        for keep in (0.1, 0.5, 0.9):
            for _ in range(4):
                kept = [v for v in range(h.node_count) if rng.random() < keep]
                lives.append(sum(1 << v for v in kept))
        # one scratch for every call, as in the engine: the stamps keep
        # each call's pairs apart
        pairing = (n, [0] * n, [0] * n)
        for call, live in enumerate(lives, 1):
            expected = _reference_clique_cover_bound(live, masks, weights, n)
            assert _cover(h, live, pairing=pairing, call=call) == expected
            plain = _reference_clique_cover_bound(live, masks, weights)
            assert _clique_cover_bound(live, masks, weights, sum(weights)) == plain
            assert expected <= plain
        source = g.neighbor_masks()
        for live in lives[:3]:
            expected = _reference_clique_cover_bound(live % (1 << n), source, g.weights)
            assert _cover(g, live % (1 << n)) == expected

    @given(graphs_with_live_masks(kind=st.sampled_from(KINDS)))
    @settings(deadline=None, max_examples=300)
    def test_matches_reference_on_random_live_masks(self, case):
        g, live = case
        masks, weights = g.neighbor_masks(), g.weights
        expected = _reference_clique_cover_bound(
            live, masks, weights, _reference_twin_half(g)
        )
        assert _cover(g, live) == expected

    def test_node_next_to_two_founders_joins_the_lower(self):
        # 0 and 1 are not adjacent, so both found a clique; 2 is adjacent to
        # both and joins 0's: {0, 2}, {1} weighs 5 + 1, where {0}, {1, 2}
        # would weigh 5 + 5.  3 is adjacent to 0 but not to 2, so it is
        # turned down by {0, 2} and founds a clique of its own.
        g = from_edge_list(4, [(0, 2), (1, 2), (0, 3)], [5, 1, 5, 2])
        masks, weights = g.neighbor_masks(), g.weights
        assert _reference_clique_cover_bound(0b1111, masks, weights) == 8
        assert _clique_cover_bound(0b1111, masks, weights, 100) == 8
        assert _clique_cover_bound(0b0111, masks, weights, 100) == 6

    def test_twin_tops_count_once(self):
        # the doubled edge: cliques {0, 1} and {2, 3}, whose tops 0 and 2
        # are twins of weight 5; the plain cover counts 5 + 5, the pair
        # 5 + max(3, 3) = 8, the optimum ({0, 3} or {1, 2})
        h = build_doubled_graph(from_edge_list(2, [(0, 1)], [5, 3])).graph
        masks, weights = h.neighbor_masks(), h.weights
        assert _clique_cover_bound(0b1111, masks, weights, 100) == 10
        assert _reference_clique_cover_bound(0b1111, masks, weights, 2) == 8
        assert _cover(h, 0b1111) == 8
        assert mwis_bruteforce(h).weight == 8
        # two disjoint edges have the same cliques but no twins to pair
        assert _cover(_disjoint_copies(from_edge_list(2, [(0, 1)], [5, 3])), 0b1111) == 10

    @given(graphs_with_live_masks())
    @settings(deadline=None, max_examples=150)
    def test_bounds_the_live_optimum(self, case):
        g, live = case
        members = [v for v in range(g.node_count) if live >> v & 1]
        optimum = mwis_bruteforce(induced_subgraph(g, members)[0]).weight
        assert _cover(g, live) >= optimum

    @given(graphs_with_live_masks(kind=st.sampled_from(KINDS)))
    @settings(deadline=None, max_examples=300)
    def test_pairing_never_loosens_the_cover(self, case):
        g, live = case
        masks, weights = g.neighbor_masks(), g.weights
        assert _cover(g, live) <= _clique_cover_bound(live, masks, weights, sum(weights))

    @given(graphs_with_live_masks(), st.integers(-5, 5), st.integers(0, 4))
    @settings(deadline=None, max_examples=300)
    def test_early_exit_contract(self, case, offset, scale):
        # limits below, at and above the full cover, negative ones included
        g, live = case
        masks, weights = g.neighbor_masks(), g.weights
        full = _reference_clique_cover_bound(
            live, masks, weights, _reference_twin_half(g)
        )
        limit = full * scale // 2 + offset
        result = _cover(g, live, limit)
        if full <= limit:
            assert result == full
        else:
            assert limit < result <= full


class TestBranchNode:
    # weights from {1, 2}, so that ties on degree and weight are common
    @given(graphs_with_live_masks(14, st.integers(1, 2), st.sampled_from(KINDS)))
    @settings(deadline=None, max_examples=300)
    def test_matches_reference(self, case):
        g, live = case
        masks, weights = g.neighbor_masks(), g.weights
        classes = _degree_classes(g.adjacency, [w > 0 for w in weights])
        expected = reference_branch_node(live, masks, weights)
        assert _branch_node(live, masks, weights, classes) == expected

    def test_tie_in_a_later_class_takes_the_smaller_index(self):
        # node 2 has whole-graph degree 2 and is scanned first; with node 4
        # gone, nodes 0 and 2 both have live degree 1 and weight 1, and the
        # smaller index wins although its class comes later
        g = from_edge_list(5, [(0, 1), (2, 3), (2, 4)], [1] * 5)
        classes = _degree_classes(g.adjacency, [True] * 5)
        assert classes[0] == (2, 0b00100)
        assert _branch_node(0b01111, g.neighbor_masks(), g.weights, classes) == 0


class TestMwisGreedy:
    def test_clique(self):
        result = mwis_greedy(complete_graph(3, [10, 1, 1]))
        assert result.solution == frozenset({0})
        assert result.weight == 10
        assert not result.optimal

    def test_edgeless(self):
        result = mwis_greedy(edgeless_graph(4, [1, 0, 2, 3]))
        assert result.solution == frozenset({0, 2, 3})
        assert result.weight == 6

    def test_star_prefers_leaves(self):
        result = mwis_greedy(star_graph(4))
        assert result.solution == frozenset({1, 2, 3})
        assert result.weight == 3

    def test_c5(self, c5):
        result = mwis_greedy(c5)
        assert result.weight == 2
        assert sorted(result.solution) == [0, 2]

    @pytest.mark.parametrize("seed", range(25))
    def test_classical_bound(self, seed):
        g = _random_instance(seed + 900, max_n=14, zero_weights=seed % 3 == 0)
        result = mwis_greedy(g)
        assert is_independent_set(g, result.solution)
        bound = sum(
            Fraction(g.weights[v], g.degree(v) + 1) for v in range(g.node_count)
        )
        assert Fraction(result.weight) >= bound


@pytest.mark.parametrize(
    "engine",
    [mwis_greedy, lambda g: mwis_local_search(g, frozenset()), mwis_exact],
    ids=["greedy", "local_search", "exact"],
)
def test_stats_are_frozen(engine, c5):
    stats = engine(build_doubled_graph(c5).graph).stats
    assert stats.elapsed_s > 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.elapsed_s = 0.0


def test_reductions_are_read_only(c5):
    reductions = mwis_exact(build_doubled_graph(c5).graph).stats.reductions
    before = dict(reductions)
    with pytest.raises(TypeError):
        reductions["mirror"] = 99
    assert reductions == before
    # the stats keep a copy: the caller's dict stays the caller's
    given = {"domination": 1}
    stats = solvers.SearchStats(3, given)
    given["domination"] = 2
    assert stats.reductions == {"domination": 1}


def _flags(mask, n):
    """One live flag per node, from a bitmask."""
    return [mask >> v & 1 for v in range(n)]


def _assert_greedy_matches_reference(g, mask):
    expected = reference_greedy_order(g.neighbor_masks(), g.weights, mask)
    assert _greedy_order(g.adjacency, g.weights, _flags(mask, g.node_count)) == expected


class TestGreedyOrder:
    """The greedy's pick order equals the plain rescan, pick for pick."""

    @pytest.mark.parametrize("weights", [None, (0, 3), (1, MAX_WEIGHT)])
    def test_matches_reference_on_gnp(self, weights):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(1, 60)
            p = rng.choice([0.05, 0.1, 0.2, 0.4, 0.7])
            g = gnp(n, p, seed=seed, weights=weights)
            for h in (g, build_doubled_graph(g).graph):
                positive = _positive_mask(h.weights)
                _assert_greedy_matches_reference(h, positive)
                # a partial live mask, as the exact engine may pass
                partial = positive & rng.getrandbits(h.node_count)
                _assert_greedy_matches_reference(h, partial)

    @pytest.mark.parametrize(
        "edges,weights,order",
        [
            # w=1, d=0 and w=2, d=1 tie on ratio: smaller index first
            ([(1, 2)], [1, 2, 2], [0, 1]),
            ([(0, 1)], [2, 2, 1], [0, 2]),
            # taking 0 removes 1, so node 2's ratio rises from 3/2 to 3/1
            # and now beats node 3's 5/2
            ([(0, 1), (1, 2), (3, 4)], [10, 1, 3, 5, 1], [0, 2, 3]),
        ],
    )
    def test_ties_and_rekeys(self, edges, weights, order):
        g = from_edge_list(len(weights), edges, weights)
        mask = _positive_mask(g.weights)
        live = _flags(mask, g.node_count)
        assert _greedy_order(g.adjacency, g.weights, live) == order
        _assert_greedy_matches_reference(g, mask)

    def test_empty(self):
        assert _greedy_order((), (), []) == []
        g = from_edge_list(3, [(0, 1)], [2, 3, 4])
        assert _greedy_order(g.adjacency, g.weights, [0, 0, 0]) == []

    def test_large_doubled_graph(self):
        g = build_doubled_graph(gnp(1000, 0.005, seed=2)).graph
        _assert_greedy_matches_reference(g, _positive_mask(g.weights))


class TestGreedyOrderHighDegree:
    """Near-tied ratios at large degrees keep the rescan's pick order."""

    @pytest.mark.parametrize("d", [300, 3000])
    def test_high_degree_ratio_gap(self, d):
        # hub 0 has degree d and hub 1 degree d - 1, both of weight 1, on
        # disjoint zero-weight leaves that stay in the mask: the ratios
        # 1/(d+1) < 1/d differ by only 1/(d(d+1)), so hub 1 must come first
        edges = [(0, 2 + i) for i in range(d)]
        edges += [(1, 2 + d + i) for i in range(d - 1)]
        n = 2 * d + 1
        g = from_edge_list(n, edges, [1, 1] + [0] * (n - 2))
        mask = (1 << n) - 1
        assert _greedy_order(g.adjacency, g.weights, _flags(mask, n)) == [1, 0]
        _assert_greedy_matches_reference(g, mask)

    @pytest.mark.parametrize(
        "shape,leaves,hub,leaf_weights",
        [
            ("star", 500, 1, (1, 1)),
            ("star", 1000, 50, (1, 100)),
            # the hub's ratio 3001/3001 ties the leaves' 2/2: index 0 wins
            ("star", 3000, 3001, (2, 2)),
            ("star", 3000, 3002, (2, 2)),
            ("wheel", 500, 1, (1, 1)),
            ("wheel", 1000, 10_000, (1, 100)),
        ],
    )
    def test_stars_and_wheels(self, shape, leaves, hub, leaf_weights):
        rng = random.Random(leaves + hub)
        edges = [(0, v) for v in range(1, leaves + 1)]
        if shape == "wheel":
            edges += [(v, v % leaves + 1) for v in range(1, leaves + 1)]
        weights = [hub] + [rng.randint(*leaf_weights) for _ in range(leaves)]
        g = from_edge_list(leaves + 1, edges, weights)
        _assert_greedy_matches_reference(g, _positive_mask(g.weights))


class _JumpClock:
    """Stand-in for the solvers module's ``time``: reads 0 s once, then 10 s."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return 0.0 if self.reads == 1 else 10.0


class TestGreedyDeadline:
    def test_exact_engine_greedy_stops_at_deadline(self, monkeypatch):
        g = build_doubled_graph(gnp(400, 0.01, seed=25, weights=(1, 100))).graph
        full = _greedy_order(g.adjacency, g.weights, [w > 0 for w in g.weights])
        assert len(full) > 256
        # the engine reads the clock at its start and sets the deadline 1 s
        # later; the greedy's first reading, after 256 picks, is 10 s
        monkeypatch.setattr(solvers, "time", _JumpClock())
        result = mwis_exact(g, SolverLimits(time_budget_s=1))
        assert not result.optimal
        assert result.solution == frozenset(full[:256])
        assert result.weight == set_weight(g, full[:256])
        assert result.stats.search_nodes == 0

    def test_deadline_not_reached_keeps_the_order(self, monkeypatch):
        g = build_doubled_graph(gnp(400, 0.01, seed=25, weights=(1, 100))).graph
        live = [w > 0 for w in g.weights]
        full = _greedy_order(g.adjacency, g.weights, live)
        clock = _JumpClock()
        monkeypatch.setattr(solvers, "time", clock)
        assert _greedy_order(g.adjacency, g.weights, live, deadline=20.0) == full
        assert clock.reads == len(full) // 256


def _no_improving_move(g, solution):
    """Independent re-scan of the move neighborhood, for local-optimality."""
    selected = set(solution)
    weight = set_weight(g, selected)
    outside = [v for v in range(g.node_count) if v not in selected]
    for v in outside:
        if not set(g.adjacency[v]) & selected:
            if weight + g.weights[v] > weight:
                return False
    for u in selected:
        rest = selected - {u}
        free = [v for v in outside if not set(g.adjacency[v]) & rest]
        for i, a in enumerate(free):
            if g.weights[a] > g.weights[u]:
                return False
            for b in free[i + 1 :]:
                if b not in g.adjacency[a] and g.weights[a] + g.weights[b] > g.weights[u]:
                    return False
    return True


class TestMwisLocalSearch:
    def test_fills_edgeless_from_empty(self):
        g = edgeless_graph(4, [1, 2, 0, 3])
        result = mwis_local_search(g, set())
        assert result.solution == frozenset({0, 1, 3})
        assert result.weight == 6

    def test_c5_from_greedy(self, c5):
        start = mwis_greedy(c5).solution
        result = mwis_local_search(c5, start)
        assert result.weight == 2

    def test_optimal_start_unchanged_weight(self, c5):
        result = mwis_local_search(c5, {0, 2})
        assert result.weight == 2

    def test_rejects_non_integer_start(self, c5):
        # int() would read 0.5 as node 0, an independent start
        with pytest.raises(ValueError, match=r"^node 0\.5 is not an integer$"):
            mwis_local_search(c5, {0.5})

    def test_rejects_dependent_start(self, k3):
        with pytest.raises(ValueError, match="not an independent set"):
            mwis_local_search(k3, {0, 1})

    def test_two_for_one_swap_fires(self):
        # removing the hub frees both leaves
        g = star_graph(3)
        result = mwis_local_search(g, {0})
        assert result.solution == frozenset({1, 2})
        assert result.weight == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_improves_to_local_optimum(self, seed):
        rng = random.Random(seed)
        g = _random_instance(seed + 1300, max_n=12)
        start = set()
        for v in range(g.node_count):
            if rng.random() < 0.4 and not (set(g.adjacency[v]) & start):
                start.add(v)
        start_weight = set_weight(g, start)
        result = mwis_local_search(g, start)
        assert result.weight >= start_weight
        assert is_independent_set(g, result.solution)
        assert set_weight(g, result.solution) == result.weight
        assert _no_improving_move(g, result.solution)

    @pytest.mark.parametrize(
        "g,start,moves",
        [
            # the hub has a (1,1)-swap to 1 and a (1,2)-swap to {1, 2}; the
            # (1,1)-swap goes first and frees 2 and 3 for two add-moves
            (star_graph(4, [2, 3, 2, 2]), {0}, 3),
            # owner 0 has only a (1,2)-swap to {2, 3} and owner 1 a
            # (1,1)-swap to 4, which is adjacent to 2: the higher owner's
            # (1,1)-swap goes first and spoils the lower owner's pair
            (
                from_edge_list(5, [(0, 2), (0, 3), (1, 4), (2, 4)], [3, 1, 2, 2, 2]),
                {0, 1},
                1,
            ),
        ],
    )
    def test_tier_order(self, g, start, moves):
        result = mwis_local_search(g, start)
        assert (result.solution, result.stats.search_nodes) == reference_local_search(
            g, start
        )
        assert result.stats.search_nodes == moves

    def test_sparse_corpus_from_empty(self):
        # the benchmark's 24 sparse graphs (400 nodes, 800 edges) doubled;
        # from the empty start add-moves dominate
        for k in range(24):
            h = build_doubled_graph(_sparse_graph(400, 800, f"sparse-{k}")).graph
            result = mwis_local_search(h, frozenset())
            solution, moves = reference_local_search(h, frozenset())
            assert (result.solution, result.stats.search_nodes) == (solution, moves)


class _CountingWeights(list):
    def __init__(self, values):
        super().__init__(values)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestFirstSwap:
    def test_kinds(self):
        # 1 and 2 are adjacent, so the first non-adjacent pair is (1, 3)
        adjacency = [(), (2,), (1,), ()]
        assert _first_swap(5, [1, 2, 3], adjacency, [0, 3, 3, 3]) == (1, (1, 3))
        assert _first_swap(5, [1, 2, 3], adjacency, [0, 3, 6, 3]) == (0, (2,))
        assert _first_swap(5, [1, 2, 3], adjacency, [0, 2, 2, 3]) is None
        assert _first_swap(5, [], adjacency, []) is None

    def test_unpairable_group_scans_in_linear_time(self):
        # a heavy owner of many light nodes, as the hub of a wheel: no two
        # owned weights beat the owner's, so no pair needs to be looked at
        size = 2000
        weights = _CountingWeights([10**6] + [100] * size)
        adjacency = [()] * (size + 1)
        assert _first_swap(10**6, list(range(1, size + 1)), adjacency, weights) is None
        assert weights.reads <= 3 * size


@st.composite
def heuristic_cases(draw, max_nodes=30):
    """A seeded G(n, p) with zero weights, or its doubled graph; any live
    mask; and an independent start that may hold zero-weight nodes."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    top = draw(st.sampled_from([1, 3, 100]))
    g = gnp(n, p, seed=draw(st.integers(0, 2**32 - 1)), weights=(0, top))
    if draw(st.booleans()):
        g = build_doubled_graph(g).graph
    live = draw(st.integers(min_value=0, max_value=(1 << g.node_count) - 1))
    start = set()
    for v in draw(st.permutations(range(g.node_count))):
        if draw(st.booleans()) and not set(g.adjacency[v]) & start:
            start.add(v)
    return g, live, frozenset(start)


class TestHeuristicsMatchReferences:
    """The greedy and the local search reproduce the plain rescans of
    ``conftest`` pick for pick and move for move."""

    @given(heuristic_cases())
    @settings(deadline=None, max_examples=200)
    def test_pick_order_moves_and_final_set(self, case):
        g, live, start = case
        positive = _positive_mask(g.weights)
        # the engine passes a positive live set; any live set keeps the order
        for mask in (positive, live & positive, live):
            _assert_greedy_matches_reference(g, mask)
        for begin in (mwis_greedy(g).solution, frozenset(), start):
            result = mwis_local_search(g, begin)
            solution, moves = reference_local_search(g, begin)
            assert (result.solution, result.stats.search_nodes) == (solution, moves)
            assert result.weight == set_weight(g, solution)


class TestHeuristicsBuildNoMasks:
    """The approx path runs on adjacency lists, in memory linear in n + m."""

    def test_no_neighbor_masks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("neighbor masks built on the heuristic path")

        monkeypatch.setattr(graph_module, "_build_masks", refuse)
        g = gnp(300, 0.01, seed=3, weights=(1, 100))
        h = build_doubled_graph(g).graph
        greedy = mwis_greedy(h)
        result = mwis_local_search(h, greedy.solution)
        assert result.weight > greedy.weight
        assert solve_approx(g).weight == result.weight


def _sparse_graph(n, m, seed):
    """Uniform simple graph with exactly ``m`` edges and weights 1..100,
    drawn edge by edge in O(n + m); ``generate.gnp`` draws one number per
    node pair, O(n^2)."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edge_list(n, edges, [rng.randint(1, 100) for _ in range(n)])


def _digest(nodes) -> str:
    return hashlib.sha256(",".join(map(str, sorted(nodes))).encode()).hexdigest()[:16]


def _unit_greedy_start(g):
    # greedy on unit weights: an independent set of g that keeps g's
    # zero-weight nodes, which local search must drop
    unit = from_edge_list(g.node_count, list(g.edges()), [1] * g.node_count)
    return mwis_greedy(unit).solution


def _reductions(domination, zero_weight=0, mirror=0):
    return {"domination": domination, "zero_weight": zero_weight, "mirror": mirror}


class TestPinnedOutputs:
    """Exact outputs of the heuristic and exact engines on seeded G(n, p).

    The engines promise deterministic scan orders, so a rewrite that keeps
    the behaviour must reproduce these solutions and counts exactly.
    Solutions are pinned by a digest of their sorted members.
    """

    @pytest.mark.parametrize(
        "case,start,weight,moves,digest",
        [
            ((40, 0.1, 1, (1, 100)), "greedy", 1160, 2, "9bb566caf981aaca"),
            ((40, 0.1, 1, (1, 100)), "empty", 1131, 28, "1595f08a1bc0d43d"),
            ((40, 0.1, 1, (1, 100)), "unit-greedy", 1131, 8, "1595f08a1bc0d43d"),
            ((60, 0.08, 2, (0, 3)), "greedy", 44, 0, "3e6fa68f1dacbc94"),
            ((60, 0.08, 2, (0, 3)), "empty", 42, 24, "12d1794e10b14d21"),
            ((60, 0.08, 2, (0, 3)), "unit-greedy", 45, 6, "86c7023bb745b0ff"),
            ((80, 0.05, 3, (1, 100)), "empty", 2225, 47, "441ff38868e248b3"),
            ((80, 0.05, 3, (1, 100)), "unit-greedy", 2079, 2, "e0d6dcf152c4a417"),
            ((50, 0.2, 4, (0, 10)), "greedy", 94, 1, "4d80db077f73b35b"),
            ((50, 0.2, 4, (0, 10)), "empty", 88, 18, "6fff08faa8fb3bd1"),
            ((120, 0.03, 5, (1, 100)), "empty", 2990, 62, "754e397bb0b4b215"),
            ((120, 0.03, 5, (1, 100)), "unit-greedy", 3053, 6, "f87f80378d6bdc2d"),
        ],
    )
    def test_local_search(self, case, start, weight, moves, digest):
        n, p, seed, weights = case
        g = gnp(n, p, seed=seed, weights=weights)
        starts = {
            "greedy": lambda: mwis_greedy(g).solution,
            "empty": frozenset,
            "unit-greedy": lambda: _unit_greedy_start(g),
        }
        result = mwis_local_search(g, starts[start]())
        assert result.weight == weight
        assert result.stats.search_nodes == moves
        assert _digest(result.solution) == digest

    @pytest.mark.parametrize(
        "case,weight,size_a,size_b,digest_a,digest_b",
        [
            ((150, 0.03, 11), 6540, 60, 47, "967fa2ec37a7c64b", "d34c4645b75acf3a"),
            ((200, 0.02, 12), 8442, 86, 69, "0a0e0292c6037960", "865dd2335a65e1cf"),
            ((120, 0.06, 13), 3978, 37, 33, "c871bdeb6ee2658b", "0673d62e41744dca"),
        ],
    )
    def test_solve_approx(self, case, weight, size_a, size_b, digest_a, digest_b):
        n, p, seed = case
        sol = solve_approx(gnp(n, p, seed=seed, weights=(1, 100)))
        side_a, side_b = sol.bipartition.side_a, sol.bipartition.side_b
        assert sol.weight == weight
        assert (len(side_a), len(side_b)) == (size_a, size_b)
        assert (_digest(side_a), _digest(side_b)) == (digest_a, digest_b)

    @pytest.mark.parametrize(
        "case,weight,search_nodes,domination,doubled",
        [
            (
                (30, 0.2, 21, (1, 100)), 689, 45, 80,
                (1278, 369, _reductions(667, mirror=8)),
            ),
            (
                (36, 0.1, 22, (1, 100)), 998, 7, 24,
                (1548, 61, _reductions(179, mirror=3)),
            ),
            (
                (28, 0.3, 23, (0, 5)), 25, 17, 17,
                (48, 43, _reductions(57, zero_weight=8, mirror=3)),
            ),
            (
                (40, 0.15, 24, (1, 100)), 779, 71, 143,
                (1413, 997, _reductions(2147, mirror=8)),
            ),
        ],
    )
    def test_exact(self, case, weight, search_nodes, domination, doubled):
        n, p, seed, weights = case
        g = gnp(n, p, seed=seed, weights=weights)
        # a G(n, p) graph has no half swap, so no mirror exclusions
        reductions = _reductions(domination, zero_weight=g.weights.count(0))
        graphs = [
            (g, (weight, search_nodes, reductions)),
            (build_doubled_graph(g).graph, doubled),
        ]
        for h, expected in graphs:
            result = mwis_exact(h)
            stats = result.stats
            assert (result.weight, stats.search_nodes, stats.reductions) == expected
            assert set_weight(h, result.solution) == result.weight

    @pytest.mark.parametrize(
        "n,p,weight,search_nodes",
        [
            pytest.param(60, 0.1, 2254, 5951, id="g60-p0.1"),
            pytest.param(40, 0.3, 1166, 1549, id="g40-p0.3"),
            pytest.param(50, 0.5, 949, 1999, id="g50-p0.5"),
            pytest.param(70, 0.08, 2883, 19679, id="g70-p0.08"),
            pytest.param(80, 0.06, 3510, 12079, id="g80-p0.06"),
        ],
    )
    def test_exact_past_the_oracle_caps(self, n, p, weight, search_nodes):
        # 80 to 160 doubled nodes, beyond every brute-force oracle; each
        # optimum agrees with an independent MILP solve (HiGHS with presolve
        # on, and with presolve off too except on G(80, 0.06), where that
        # mode claims 3,496 and the engine's 3,510 checks feasible)
        g = gnp(n, p, seed=1, weights=(1, 100))
        sol, result = solve_exact(g)
        assert (sol.weight, result.stats.search_nodes) == (weight, search_nodes)
        assert result.optimal
        assert check_solution(g, sol) is None

    @pytest.mark.parametrize(
        "case,digest,doubled_digest",
        [
            ((30, 0.2, 21, (1, 100)), "572c1cee36f6ce35", "581e1f4fcb03e642"),
            ((36, 0.1, 22, (1, 100)), "77699da3a8f50f33", "c7442582bcba34b5"),
            ((28, 0.3, 23, (0, 5)), "d47fe5a088cabea1", "250b0e9b9af21d3f"),
            ((40, 0.15, 24, (1, 100)), "79fc80eeeae0964a", "a844d48d9a0bf58b"),
        ],
    )
    def test_exact_solution(self, case, digest, doubled_digest):
        # among equal-weight optima the search order picks one; pin which
        n, p, seed, weights = case
        g = gnp(n, p, seed=seed, weights=weights)
        h = build_doubled_graph(g).graph
        assert _digest(mwis_exact(g).solution) == digest
        assert _digest(mwis_exact(h).solution) == doubled_digest

    def test_heuristics_at_scale(self):
        # 10^4 nodes and 2.5 * 10^4 edges, doubled to 2 * 10^4 nodes
        h = build_doubled_graph(_sparse_graph(10_000, 25_000, seed=11)).graph
        greedy = mwis_greedy(h)
        result = mwis_local_search(h, greedy.solution)
        assert (greedy.stats.search_nodes, greedy.weight) == (7033, 404738)
        assert (result.stats.search_nodes, result.weight) == (168, 408063)

    def test_exact_budgeted(self):
        g = build_doubled_graph(gnp(400, 0.01, seed=25, weights=(1, 100))).graph
        result = mwis_exact(g, SolverLimits(node_budget=20))
        assert not result.optimal
        assert (result.weight, result.stats.search_nodes) == (17196, 20)
        assert result.stats.reductions == _reductions(54)
        assert _digest(result.solution) == "546eb28a96cdd949"


class TestInducedBipartiteBruteforce:
    def test_triangle(self, k3):
        sol = induced_bipartite_bruteforce(k3)
        assert sol.weight == 2
        assert sorted(sol.node_set) == [0, 1]

    def test_c5(self, c5):
        sol = induced_bipartite_bruteforce(c5)
        assert sol.weight == 4
        assert sorted(sol.node_set) == [0, 1, 2, 3]

    def test_bipartite_graph_keeps_everything(self):
        g = cycle_graph(6, [4, 1, 3, 2, 6, 5])
        sol = induced_bipartite_bruteforce(g)
        assert sol.node_set == frozenset(range(6))
        assert sol.weight == 21

    def test_refuses_oversized(self):
        with pytest.raises(LimitExceededError):
            induced_bipartite_bruteforce(edgeless_graph(21))

    @pytest.mark.parametrize(
        "kind, seed",
        [
            *(pytest.param("mixed", seed, id=str(seed)) for seed in range(25)),
            # unit weights make ties common, so these guard the tie-break
            *(pytest.param("unit", seed, id=f"unit-{seed}") for seed in range(40)),
            # a 5-cycle 0-3-4-1-5 plus the isolated node 2: the
            # lexicographically smallest optimum is [0, 1, 2, 3, 4], while a
            # side A/side B/neither assignment search meets [0, 1, 2, 3, 5]
            # first
            pytest.param("c5-plus-isolated", None, id="c5-plus-isolated"),
        ],
    )
    def test_matches_literal_oracle(self, kind, seed):
        if kind == "mixed":
            g = _random_instance(seed + 2000, max_n=10, zero_weights=seed % 3 == 0)
        elif kind == "unit":
            rng = random.Random(seed + 3000)
            n = rng.randint(4, 10)
            g = gnp(n, rng.choice([0.3, 0.5, 0.7]), seed=seed + 3000, weights=None)
        else:
            g = from_edge_list(6, [(0, 3), (0, 5), (1, 4), (1, 5), (3, 4)], [1] * 6)
        expected_w, expected_set = literal_induced_bipartite(g)
        sol = induced_bipartite_bruteforce(g)
        assert sol.weight == expected_w
        assert sorted(sol.node_set) == expected_set
        assert check_solution(g, sol) is None
