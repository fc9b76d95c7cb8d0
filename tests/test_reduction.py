import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartize import (
    Bipartition,
    BipartiteSolution,
    build_doubled_graph,
    check_solution,
    from_edge_list,
    is_independent_set,
    lift_independent_set,
    max_degree,
    project_bipartite,
    set_weight,
)
from bipartize.generate import gnp

from .conftest import complete_graph, cycle_graph, literal_mwis, literal_induced_bipartite, star_graph


class TestBuildDoubledGraph:
    def test_single_edge(self):
        g = from_edge_list(2, [(0, 1)], [3, 5])
        dg = build_doubled_graph(g)
        assert dg.graph.node_count == 4
        assert sorted(dg.graph.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert dg.graph.weights == (3, 5, 3, 5)
        assert dg.source_node_count == 2

    def test_triangle_prism(self, k3):
        dg = build_doubled_graph(k3)
        assert dg.graph.node_count == 6
        assert dg.graph.edge_count == 9
        # two triangles joined by a perfect matching
        expected = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)}
        assert set(dg.graph.edges()) == expected

    def test_star_degree_bump(self):
        g = star_graph(4)
        assert max_degree(build_doubled_graph(g).graph) == 4

    def test_empty_graph(self):
        dg = build_doubled_graph(from_edge_list(0, [], []))
        assert dg.graph.node_count == 0
        assert dg.graph.edge_count == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_structural_invariants(self, seed):
        rng = random.Random(seed)
        g = gnp(rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]), seed=seed)
        dg = build_doubled_graph(g)
        n = g.node_count
        assert dg.graph.node_count == 2 * n
        assert dg.graph.edge_count == 2 * g.edge_count + n
        assert max_degree(dg.graph) == max_degree(g) + 1
        for v in range(n):
            assert dg.graph.weights[v] == g.weights[v]
            assert dg.graph.weights[n + v] == g.weights[v]
        # the definition, normalized by from_edge_list: both layers' copies
        # of every edge plus the matching; equality covers node count,
        # adjacency and weights
        edges = list(g.edges())
        edges += [(n + u, n + v) for u, v in g.edges()]
        edges += [(v, n + v) for v in range(n)]
        assert dg.graph == from_edge_list(2 * n, edges, g.weights * 2)

    def test_deterministic(self, c5):
        assert build_doubled_graph(c5) == build_doubled_graph(c5)


class TestLiftIndependentSet:
    def test_prism_example(self, k3):
        dg = build_doubled_graph(k3)
        sol = lift_independent_set(dg, k3, {0, 4})
        assert sol.node_set == frozenset({0, 1})
        assert sol.bipartition.side_a == frozenset({0})
        assert sol.bipartition.side_b == frozenset({1})
        assert sol.weight == 2

    def test_empty(self, k3):
        dg = build_doubled_graph(k3)
        sol = lift_independent_set(dg, k3, set())
        assert sol.node_set == frozenset()
        assert sol.weight == 0

    def test_weighted_edge(self):
        g = from_edge_list(2, [(0, 1)], [3, 5])
        dg = build_doubled_graph(g)
        sol = lift_independent_set(dg, g, {0, 3})
        assert sol.node_set == frozenset({0, 1})
        assert sol.weight == 8

    def test_rejects_dependent_set(self, k3):
        dg = build_doubled_graph(k3)
        with pytest.raises(ValueError, match="not independent"):
            lift_independent_set(dg, k3, {0, 1})
        # both copies of one node are joined by a matching edge
        with pytest.raises(ValueError, match="not independent"):
            lift_independent_set(dg, k3, {0, 3})

    @pytest.mark.parametrize(
        "members,condition",
        [
            ({0, 3}, "sides intersect"),
            ({0, 1}, "side_a not independent"),
            ({4, 5}, "side_b not independent"),
            ({-1}, "member out of range"),
        ],
    )
    def test_rejection_names_condition(self, k3, members, condition):
        dg = build_doubled_graph(k3)
        with pytest.raises(
            ValueError,
            match=f"^input set is not independent in the doubled graph: {condition}$",
        ):
            lift_independent_set(dg, k3, members)

    def test_rejects_out_of_range(self, k3):
        dg = build_doubled_graph(k3)
        with pytest.raises(ValueError, match="out of range"):
            lift_independent_set(dg, k3, {6})

    def test_rejects_non_integer_member(self, k3):
        # int() would read 1.5 as node 1, an independent set
        dg = build_doubled_graph(k3)
        with pytest.raises(ValueError, match=r"^node 1\.5 is not an integer$"):
            lift_independent_set(dg, k3, [1.5])

    def test_rejects_mismatched_pair(self, k3, c5):
        dg = build_doubled_graph(k3)
        with pytest.raises(ValueError, match="built from"):
            lift_independent_set(dg, c5, set())


class TestProjectBipartite:
    def test_edge_example(self):
        g = from_edge_list(2, [(0, 1)], [3, 5])
        dg = build_doubled_graph(g)
        sol = BipartiteSolution(
            frozenset({0, 1}), Bipartition(frozenset({0}), frozenset({1})), 8
        )
        assert project_bipartite(dg, g, sol) == frozenset({0, 3})

    def test_empty(self, k3):
        dg = build_doubled_graph(k3)
        sol = BipartiteSolution(frozenset(), Bipartition(frozenset(), frozenset()), 0)
        assert project_bipartite(dg, k3, sol) == frozenset()

    def test_c5_example(self, c5):
        dg = build_doubled_graph(c5)
        sol = BipartiteSolution(
            frozenset({0, 1, 2, 3}),
            Bipartition(frozenset({0, 2}), frozenset({1, 3})),
            4,
        )
        projected = project_bipartite(dg, c5, sol)
        assert projected == frozenset({0, 2, 6, 8})
        assert is_independent_set(dg.graph, projected)
        assert set_weight(dg.graph, projected) == 4

    def test_rejects_intersecting_sides(self, c5):
        dg = build_doubled_graph(c5)
        sol = BipartiteSolution(
            frozenset({0}), Bipartition(frozenset({0}), frozenset({0})), 1
        )
        with pytest.raises(ValueError, match="sides intersect"):
            project_bipartite(dg, c5, sol)

    def test_rejects_dependent_side(self):
        g = from_edge_list(2, [(0, 1)], [1, 1])
        dg = build_doubled_graph(g)
        sol = BipartiteSolution(
            frozenset({0, 1}), Bipartition(frozenset({0, 1}), frozenset()), 2
        )
        with pytest.raises(ValueError, match="side_a not independent"):
            project_bipartite(dg, g, sol)

    def test_rejects_weight_mismatch(self, c5):
        dg = build_doubled_graph(c5)
        sol = BipartiteSolution(
            frozenset({0}), Bipartition(frozenset({0}), frozenset()), 7
        )
        with pytest.raises(ValueError, match="weight mismatch"):
            project_bipartite(dg, c5, sol)


def _random_independent_set(g, rng):
    order = list(range(g.node_count))
    rng.shuffle(order)
    chosen: set[int] = set()
    for v in order:
        if rng.random() < 0.6 and not (set(g.adjacency[v]) & chosen):
            chosen.add(v)
    return chosen


def _random_bipartite_solution(g, rng):
    side_a = _random_independent_set(g, rng)
    side_b = set()
    order = [v for v in range(g.node_count) if v not in side_a]
    rng.shuffle(order)
    for v in order:
        if rng.random() < 0.6 and not (set(g.adjacency[v]) & side_b):
            side_b.add(v)
    node_set = side_a | side_b
    return BipartiteSolution(
        frozenset(node_set),
        Bipartition(frozenset(side_a), frozenset(side_b)),
        set_weight(g, node_set),
    )


class TestRoundTrips:
    @pytest.mark.parametrize("seed", range(12))
    def test_lift_then_project(self, seed):
        rng = random.Random(seed)
        g = gnp(rng.randint(1, 11), rng.choice([0.2, 0.5, 0.8]), seed=seed, weights=(1, 50))
        dg = build_doubled_graph(g)
        ind = _random_independent_set(dg.graph, rng)
        sol = lift_independent_set(dg, g, ind)
        assert check_solution(g, sol) is None
        back = project_bipartite(dg, g, sol)
        assert back == frozenset(ind)
        assert set_weight(dg.graph, back) == sol.weight == set_weight(dg.graph, ind)

    @pytest.mark.parametrize("seed", range(12))
    def test_project_then_lift(self, seed):
        rng = random.Random(100 + seed)
        g = gnp(rng.randint(1, 11), rng.choice([0.2, 0.5, 0.8]), seed=seed, weights=(1, 50))
        dg = build_doubled_graph(g)
        sol = _random_bipartite_solution(g, rng)
        projected = project_bipartite(dg, g, sol)
        assert is_independent_set(dg.graph, projected)
        lifted = lift_independent_set(dg, g, projected)
        assert lifted.node_set == sol.node_set
        assert lifted.weight == sol.weight
        assert lifted.bipartition == sol.bipartition


class TestOptimumTransfer:
    """The construction's defining property, checked with literal oracles."""

    @pytest.mark.parametrize("seed", range(15))
    def test_small_random(self, seed):
        rng = random.Random(seed)
        g = gnp(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), seed=seed, weights=(1, 9))
        dg = build_doubled_graph(g)
        doubled_opt, _ = literal_mwis(dg.graph)
        direct_opt, _ = literal_induced_bipartite(g)
        assert doubled_opt == direct_opt

    def test_named_graphs(self, k3, c5):
        for g in (k3, c5, complete_graph(4), cycle_graph(6), star_graph(5)):
            doubled_opt, _ = literal_mwis(build_doubled_graph(g).graph)
            direct_opt, _ = literal_induced_bipartite(g)
            assert doubled_opt == direct_opt


class TestCheckSolution:
    def test_valid(self, c5):
        sol = BipartiteSolution(
            frozenset({0, 2}), Bipartition(frozenset({0}), frozenset({2})), 2
        )
        assert check_solution(c5, sol) is None

    def test_member_out_of_range(self):
        g = from_edge_list(1, [], [1])
        sol = BipartiteSolution(
            frozenset({0, 1}), Bipartition(frozenset({0}), frozenset({1})), 2
        )
        assert check_solution(g, sol) == "member out of range"

    def test_cover_mismatch(self, c5):
        sol = BipartiteSolution(
            frozenset({0, 1}), Bipartition(frozenset({0}), frozenset()), 2
        )
        assert check_solution(c5, sol) == "sides do not cover node_set"
