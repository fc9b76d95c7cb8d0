import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipartize.graph as graph_module
from bipartize import (
    Bipartition,
    from_edge_list,
    induced_subgraph,
    is_bipartite,
    is_independent_set,
    max_degree,
    set_weight,
    two_coloring,
)
from bipartize.graph import MAX_WEIGHT

from .conftest import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    path_graph,
    star_graph,
)


@st.composite
def small_graphs(draw, max_nodes=9, max_weight=20):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_weight),
            min_size=n,
            max_size=n,
        )
    )
    return from_edge_list(n, edges, weights)


class TestFromEdgeList:
    def test_dedup_and_symmetry(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (1, 2)], [1, 1, 1])
        assert g.edge_count == 2
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_empty_edge_set(self):
        g = from_edge_list(2, [], [3, 5])
        assert g.edge_count == 0
        assert g.weights == (3, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(1, [(0, 0)], [1])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(2, [(0, 2)], [1, 1])

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            from_edge_list(2, [], [1, -1])

    def test_weight_overflow(self):
        with pytest.raises(ValueError, match="exceeds"):
            from_edge_list(1, [], [MAX_WEIGHT + 1])
        # the boundary itself is fine
        assert from_edge_list(1, [], [MAX_WEIGHT]).weights == (MAX_WEIGHT,)

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="expected 3 weights"):
            from_edge_list(3, [], [1, 1])

    @given(small_graphs())
    @settings(deadline=None)
    def test_invariants(self, g):
        for v in range(g.node_count):
            nbrs = g.adjacency[v]
            assert v not in nbrs
            assert list(nbrs) == sorted(set(nbrs))
            for u in nbrs:
                assert v in g.adjacency[u]
        assert len(g.weights) == g.node_count
        assert all(w >= 0 for w in g.weights)


class TestNeighborMasks:
    # 6 and 600 nodes: small and large graphs must take the same cached path
    @pytest.mark.parametrize("g", [cycle_graph(6), cycle_graph(600), edgeless_graph(3)])
    def test_bits_match_adjacency(self, g):
        masks = g.neighbor_masks()
        assert len(masks) == g.node_count
        for v, nbrs in enumerate(g.adjacency):
            assert masks[v] == sum(1 << u for u in nbrs)

    @pytest.mark.parametrize("n", [6, 600])
    def test_returns_fresh_list(self, n):
        g = cycle_graph(n)
        first = g.neighbor_masks()
        expected = list(first)
        first[0] = 0
        first.append(1)
        assert g.neighbor_masks() == expected

    @pytest.mark.parametrize("n", [6, 600])
    def test_built_once_per_graph(self, monkeypatch, n):
        calls = []
        original = graph_module._build_masks

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(graph_module, "_build_masks", counting)
        g = cycle_graph(n)
        assert calls == []
        for _ in range(3):
            g.neighbor_masks()
        assert calls == [n]
        cycle_graph(n).neighbor_masks()
        assert calls == [n, n]


class TestMaxDegree:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete_graph(3), 2),
            (star_graph(4), 3),
            (edgeless_graph(4), 0),
            (edgeless_graph(0, []), 0),
        ],
    )
    def test_examples(self, g, expected):
        assert max_degree(g) == expected


class TestInducedSubgraph:
    def test_k3_pair(self, k3):
        sub, back = induced_subgraph(k3, {0, 1})
        assert list(sub.edges()) == [(0, 1)]
        assert sub.weights == (1, 1)
        assert back == (0, 1)

    def test_empty_selection(self, c5):
        sub, back = induced_subgraph(c5, set())
        assert sub.node_count == 0
        assert back == ()

    def test_c5_three_nodes(self, c5):
        sub, back = induced_subgraph(c5, {0, 1, 3})
        assert list(sub.edges()) == [(0, 1)]
        assert back == (0, 1, 3)
        assert sub.degree(2) == 0

    def test_out_of_range(self, c5):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(c5, {0, 5})

    @given(small_graphs())
    @settings(deadline=None)
    def test_full_set_is_identity(self, g):
        sub, back = induced_subgraph(g, range(g.node_count))
        assert sub.adjacency == g.adjacency
        assert sub.weights == g.weights
        assert back == tuple(range(g.node_count))


class TestIsIndependentSet:
    def test_examples(self, k3, c5):
        assert not is_independent_set(k3, {0, 1})
        assert is_independent_set(k3, {0})
        assert is_independent_set(c5, {0, 2})
        assert is_independent_set(c5, set())

    @given(small_graphs(), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_matches_induced_edge_count(self, g, rnd):
        members = {v for v in range(g.node_count) if rnd.random() < 0.4}
        sub, _ = induced_subgraph(g, members)
        assert is_independent_set(g, members) == (sub.edge_count == 0)


class TestSetWeight:
    def test_examples(self):
        g = edgeless_graph(2, [3, 5])
        assert set_weight(g, {0, 1}) == 8
        assert set_weight(g, set()) == 0
        g3 = edgeless_graph(3, [2, 2, 2])
        assert set_weight(g3, {0, 2}) == 4

    @given(small_graphs(), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_additive_over_disjoint_sets(self, g, rnd):
        first = {v for v in range(g.node_count) if rnd.random() < 0.3}
        second = {
            v for v in range(g.node_count) if v not in first and rnd.random() < 0.3
        }
        assert set_weight(g, first | second) == set_weight(g, first) + set_weight(
            g, second
        )


class TestTwoColoring:
    def test_single_edge(self):
        g = path_graph(2)
        result = two_coloring(g)
        assert result == Bipartition(frozenset({0}), frozenset({1}))

    def test_triangle_witness(self, k3):
        witness = two_coloring(k3)
        assert isinstance(witness, tuple)
        assert len(witness) == 3

    def test_c5_minus_node(self, c5):
        sub, _ = induced_subgraph(c5, {0, 1, 3, 4})
        result = two_coloring(sub)
        assert isinstance(result, Bipartition)
        _assert_proper(sub, result)

    def test_component_rule(self):
        # two separate edges plus an isolated node: smallest index of every
        # component goes to side_a
        g = from_edge_list(5, [(0, 1), (2, 3)], [1] * 5)
        result = two_coloring(g)
        assert result.side_a == frozenset({0, 2, 4})
        assert result.side_b == frozenset({1, 3})

    @given(small_graphs())
    @settings(deadline=None)
    def test_dichotomy(self, g):
        result = two_coloring(g)
        if isinstance(result, Bipartition):
            _assert_proper(g, result)
        else:
            assert len(result) % 2 == 1
            assert len(result) >= 3
            for i, v in enumerate(result):
                u = result[(i + 1) % len(result)]
                assert u in g.adjacency[v]


def _assert_proper(g, bipartition):
    assert bipartition.side_a & bipartition.side_b == frozenset()
    assert bipartition.side_a | bipartition.side_b == frozenset(range(g.node_count))
    for u, v in g.edges():
        assert (u in bipartition.side_a) != (v in bipartition.side_a)


class TestIsBipartite:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (cycle_graph(4), True),
            (cycle_graph(5), False),
            (edgeless_graph(3), True),
            (star_graph(5), True),
            (complete_graph(4), False),
        ],
    )
    def test_examples(self, g, expected):
        assert is_bipartite(g) == expected
