import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartize import Bipartition, BipartiteSolution, from_edge_list, solve_exact
from bipartize.dimacs import (
    ParseError,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from bipartize.generate import gnp
from bipartize.solvers import SearchStats

from .conftest import complete_graph


class TestParseInstance:
    def test_weighted_example(self):
        g = parse_instance("p edge 2 1\nv 1 3\nv 2 5\ne 1 2\n")
        assert g.node_count == 2
        assert list(g.edges()) == [(0, 1)]
        assert g.weights == (3, 5)

    def test_missing_weights_default_to_one(self):
        g = parse_instance("p edge 3 1\ne 1 3\n")
        assert g.weights == (1, 1, 1)

    def test_partial_weights(self):
        g = parse_instance("p edge 2 0\nv 2 9\n")
        assert g.weights == (1, 9)

    def test_comments_and_blank_lines(self):
        g = parse_instance("c hello\n\np edge 2 1\nc mid\ne 1 2\n")
        assert g.edge_count == 1

    def test_self_loop_with_line_number(self):
        with pytest.raises(ParseError, match="line 2: self-loop"):
            parse_instance("p edge 2 1\ne 1 1\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="malformed header"):
            parse_instance("p graph 2 1\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing 'p edge' header"):
            parse_instance("c just a comment\n")

    def test_edge_before_header(self):
        with pytest.raises(ParseError, match="'e' line before header"):
            parse_instance("e 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2 edges but file has 1"):
            parse_instance("p edge 3 2\ne 1 2\n")

    def test_endpoint_out_of_range(self):
        with pytest.raises(ParseError, match="line 2: node id 4 out of range"):
            parse_instance("p edge 3 1\ne 1 4\n")

    def test_negative_weight(self):
        with pytest.raises(ParseError, match="negative weight"):
            parse_instance("p edge 1 0\nv 1 -2\n")

    def test_weight_over_limit_names_file_node_and_line(self):
        with pytest.raises(
            ParseError, match=r"^line 3: weight of node 2 exceeds 4294967295 "
        ):
            parse_instance("p edge 2 1\nv 1 3\nv 2 99999999999\ne 1 2\n")
        assert parse_instance("p edge 1 0\nv 1 4294967295\n").weights == (2**32 - 1,)

    def test_duplicate_weight_line(self):
        with pytest.raises(ParseError, match="duplicate weight for node 1"):
            parse_instance("p edge 1 0\nv 1 2\nv 1 3\n")

    def test_unknown_line_type(self):
        with pytest.raises(ParseError, match="unknown line type 'x'"):
            parse_instance("p edge 1 0\nx 1 2\n")

    def test_node_count_over_cap(self):
        # rejected on the header line, before any per-node allocation
        with pytest.raises(
            ParseError,
            match=r"^line 2: node count 1000001 exceeds the cap of 1000000$",
        ):
            parse_instance("c big\np edge 1000001 0\n")
        # the cap itself is accepted: parsing fails later, on the edge count
        with pytest.raises(ParseError, match="declares 1 edges but file has 0"):
            parse_instance("p edge 1000000 1\n")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="expected an integer"):
            parse_instance("p edge 1 0\nv 1 heavy\n")

    @pytest.mark.parametrize(
        "line,message",
        [
            ("e 1 x", "expected an integer, got 'x'"),
            ("e 2 2", "self-loop at node 2"),
            ("e 0 5", "node id 0 out of range 1..3"),
            ("e 1 9", "node id 9 out of range 1..3"),
            ("e 0 2", "node id 0 out of range 1..3"),
            ("e 2 4", "node id 4 out of range 1..3"),
            ("e 2 0", "node id 0 out of range 1..3"),
            ("e 1", "malformed 'e' line, expected 'e <u> <v>'"),
        ],
    )
    def test_bad_edge_line_messages(self, line, message):
        with pytest.raises(ParseError) as info:
            parse_instance(f"p edge 3 1\n{line}\n")
        assert str(info.value) == f"line 2: {message}"
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p edge 3 1\nv 1\n", "line 2: malformed 'v' line, expected 'v <id> <weight>'"),
            ("p edge 3 1\nv x 3\n", "line 2: expected an integer, got 'x'"),
            ("p edge 3 1\nv 1 y\n", "line 2: expected an integer, got 'y'"),
            ("p edge 3 1\nv x y\n", "line 2: expected an integer, got 'x'"),
            ("p edge 3 1\nv 0 y\n", "line 2: expected an integer, got 'y'"),
            ("p edge 3 1\nv 0 5\n", "line 2: node id 0 out of range 1..3"),
            ("p edge 3 1\nv 4 5\n", "line 2: node id 4 out of range 1..3"),
            ("p edge 3 1\nv 4 -2\n", "line 2: node id 4 out of range 1..3"),
            ("p edge 3 1\nv 1 -2\n", "line 2: negative weight -2"),
            ("p edge 3 1\nv 1 5\nv 1 5\n", "line 3: duplicate weight for node 1"),
            ("p edge 3 1\nv 1 5\nv 1 -2\n", "line 3: duplicate weight for node 1"),
            (
                "p edge 3 1\nv 1 4294967296\n",
                "line 2: weight of node 1 exceeds 4294967295 (4294967296)",
            ),
            ("c first\nv 1 5\np edge 3 0\n", "line 2: 'v' line before header"),
            ("v x\np edge 3 0\n", "line 1: 'v' line before header"),
            ("e 1 x y\np edge 3 0\n", "line 1: 'e' line before header"),
            ("p edge 3 1\ne 1 2 3\n", "line 2: malformed 'e' line, expected 'e <u> <v>'"),
            ("p edge 3 1\nv 1 2 3\n", "line 2: malformed 'v' line, expected 'v <id> <weight>'"),
            ("p edge 3 1\ne x 0\n", "line 2: expected an integer, got 'x'"),
            ("p edge 3 1\ne 0 0\n", "line 2: self-loop at node 0"),
            ("p edge 3 1\ne 4 x\n", "line 2: expected an integer, got 'x'"),
            ("p edge 3 1\ne 1 2\ne 4 4\n", "line 3: self-loop at node 4"),
        ],
    )
    def test_bad_line_messages(self, text, message):
        # the full message, line number included, for each check of a
        # 'v' or 'e' line and for the order in which the checks run
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == message

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_edge_order_does_not_matter(self, data):
        # shuffled, reversed and repeated edge lines give the graph of
        # from_edge_list, with every adjacency row strictly ascending
        n = data.draw(st.integers(min_value=2, max_value=12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=40))
        edges = [
            (v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges
        ]
        edges = data.draw(st.permutations(edges))
        weights = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        lines = [f"p edge {n} {len(edges)}"]
        lines += [f"v {v + 1} {w}" for v, w in enumerate(weights)]
        lines += [f"e {u + 1} {v + 1}" for u, v in edges]
        g = parse_instance("\n".join(lines) + "\n")
        assert g == from_edge_list(n, edges, weights)
        for v, row in enumerate(g.adjacency):
            assert all(a < b for a, b in zip(row, row[1:]))
            assert set(row) == {b for a, b in edges if a == v} | {
                a for a, b in edges if b == v
            }


class TestWriteInstance:
    def test_empty_graph(self):
        assert write_instance(from_edge_list(0, [], [])) == "p edge 0 0\n"

    def test_k3_canonical_form(self):
        text = write_instance(complete_graph(3))
        assert text == (
            "p edge 3 3\n"
            "v 1 1\n"
            "v 2 1\n"
            "v 3 1\n"
            "e 1 2\n"
            "e 1 3\n"
            "e 2 3\n"
        )
        assert len(text.splitlines()) == 7

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_is_byte_exact(self, seed):
        g = gnp(seed + 2, 0.5, seed=seed, weights=(1, 99))
        canonical = write_instance(g)
        assert write_instance(parse_instance(canonical)) == canonical

    def test_round_trip_preserves_graph(self):
        g = gnp(9, 0.4, seed=4, weights=(1, 50))
        assert parse_instance(write_instance(g)) == g


class TestSolutionJson:
    def test_schema(self, c5):
        sol, result = solve_exact(c5)
        text = write_solution(sol, optimal=result.optimal, stats=result.stats)
        payload = json.loads(text)
        assert list(payload) == ["weight", "optimal", "nodes", "side_a", "side_b", "stats"]
        assert payload["weight"] == 4
        assert payload["optimal"] is True
        assert payload["nodes"] == [1, 2, 3, 4]
        assert set(payload["side_a"]) | set(payload["side_b"]) == {1, 2, 3, 4}
        assert payload["stats"]["search_nodes"] == result.stats.search_nodes

    def test_round_trip(self, c5):
        sol, result = solve_exact(c5)
        text = write_solution(sol, optimal=result.optimal, stats=result.stats)
        parsed, optimal = parse_solution(text)
        assert optimal is True
        assert parsed.node_set == sol.node_set
        assert parsed.bipartition == sol.bipartition
        assert parsed.weight == sol.weight

    def test_parse_rejects_missing_field(self):
        with pytest.raises(ParseError, match="missing the 'side_b' field"):
            parse_solution('{"weight": 0, "optimal": true, "nodes": [], "side_a": []}')

    def test_parse_rejects_bad_ids(self):
        text = '{"weight": 1, "optimal": true, "nodes": [0], "side_a": [0], "side_b": []}'
        with pytest.raises(ParseError, match="invalid id"):
            parse_solution(text)

    def test_parse_rejects_non_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_solution("weight: 4")

    def test_parse_rejects_deeply_nested_json(self):
        # deeper than the json decoder's recursion allows
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_solution("[" * 200_000)

    def test_stats_default_empty(self):
        sol = BipartiteSolution(frozenset(), Bipartition(frozenset(), frozenset()), 0)
        payload = json.loads(write_solution(sol, optimal=True))
        assert payload["stats"] == {}

    def test_elapsed_rendered_in_ms(self):
        sol = BipartiteSolution(frozenset(), Bipartition(frozenset(), frozenset()), 0)
        stats = SearchStats(search_nodes=3, reductions={"domination": 1}, elapsed_s=0.25)
        payload = json.loads(write_solution(sol, optimal=True, stats=stats))
        assert payload["stats"]["elapsed_ms"] == 250.0
