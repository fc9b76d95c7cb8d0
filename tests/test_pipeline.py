import random
from fractions import Fraction

import pytest

from bipartize import (
    Bipartition,
    BipartiteSolution,
    SolverLimits,
    from_edge_list,
    induced_bipartite_bruteforce,
    max_degree,
    oct_weight,
    solve_approx,
    solve_exact,
    verify,
)
from bipartize import pipeline
from bipartize.generate import gnp
from bipartize.solvers import SearchStats, SolveResult

from .conftest import complete_graph, cycle_graph, edgeless_graph, star_graph


class TestSolveExact:
    def test_triangle(self, k3):
        sol, result = solve_exact(k3)
        assert sol.weight == 2
        assert result.optimal

    def test_c5(self, c5):
        sol, result = solve_exact(c5)
        assert sol.weight == 4
        assert result.optimal

    def test_bipartite_keeps_total(self):
        g = cycle_graph(6, [5, 2, 7, 1, 3, 4])
        sol, _ = solve_exact(g)
        assert sol.weight == 22
        assert sol.node_set == frozenset(range(6))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_direct_oracle(self, seed):
        rng = random.Random(seed)
        g = gnp(rng.randint(0, 12), rng.choice([0.2, 0.5, 0.8]), seed=seed, weights=(1, 40))
        sol, result = solve_exact(g)
        assert result.optimal
        assert verify(g, sol) == (True, "ok")
        assert sol.weight == induced_bipartite_bruteforce(g).weight

    def test_budget_flag_propagates(self):
        g = gnp(16, 0.4, seed=5, weights=(1, 30))
        sol, result = solve_exact(g, SolverLimits(node_budget=1))
        assert not result.optimal
        assert verify(g, sol) == (True, "ok")


class TestSolveApprox:
    def test_edgeless(self):
        g = edgeless_graph(4, [3, 0, 2, 5])
        sol = solve_approx(g)
        assert sol.weight == 10
        assert sol.node_set == frozenset({0, 2, 3})

    @pytest.mark.parametrize("seed", range(20))
    def test_verified_and_within_ratio(self, seed):
        rng = random.Random(200 + seed)
        g = gnp(rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]), seed=seed, weights=(1, 40))
        sol = solve_approx(g)
        assert verify(g, sol) == (True, "ok")
        opt = induced_bipartite_bruteforce(g).weight
        assert Fraction(sol.weight) >= Fraction(3, max_degree(g) + 3) * opt


class TestVerify:
    def test_valid(self, c5):
        sol, _ = solve_exact(c5)
        assert verify(c5, sol) == (True, "ok")

    def test_member_out_of_range(self):
        g = from_edge_list(1, [], [1])
        sol = BipartiteSolution(
            frozenset({0, 1}), Bipartition(frozenset({0}), frozenset({1})), 2
        )
        ok, diagnostic = verify(g, sol)
        assert not ok
        assert diagnostic == "member out of range"

    def test_dependent_side(self):
        g = from_edge_list(2, [(0, 1)], [1, 1])
        sol = BipartiteSolution(
            frozenset({0, 1}), Bipartition(frozenset({0, 1}), frozenset()), 2
        )
        ok, diagnostic = verify(g, sol)
        assert not ok
        assert diagnostic == "side_a not independent"

    def test_weight_mismatch(self, c5):
        sol = BipartiteSolution(
            frozenset({0}), Bipartition(frozenset({0}), frozenset()), 3
        )
        assert verify(c5, sol) == (False, "weight mismatch")


class TestOctWeight:
    def test_c5(self, c5):
        sol, _ = solve_exact(c5)
        assert oct_weight(c5, sol) == 1

    def test_bipartite_graph_needs_no_deletions(self):
        g = star_graph(5, [2, 1, 1, 1, 1])
        sol, _ = solve_exact(g)
        assert oct_weight(g, sol) == 0

    def test_weighted_triangle(self):
        g = complete_graph(3, [10, 1, 1])
        sol, _ = solve_exact(g)
        assert sol.weight == 11
        assert oct_weight(g, sol) == 1

    def test_rejects_invalid_solution(self, c5):
        bad = BipartiteSolution(
            frozenset({0}), Bipartition(frozenset({0}), frozenset()), 9
        )
        with pytest.raises(ValueError, match="weight mismatch"):
            oct_weight(c5, bad)

    @pytest.mark.parametrize("seed", range(10))
    def test_complement_identity(self, seed):
        g = gnp(10, 0.5, seed=seed, weights=(1, 20))
        sol, _ = solve_exact(g)
        assert oct_weight(g, sol) + sol.weight == g.total_weight()


class TestFaultyEngine:
    """A wrong engine answer is caught before a solver returns it."""

    @pytest.mark.parametrize(
        "members",
        [
            frozenset({0, 5}),  # both copies of node 0 in the doubled C5
            frozenset({0, 1}),  # two adjacent layer-1 nodes
        ],
    )
    def test_solvers_raise(self, monkeypatch, c5, members):
        result = SolveResult(members, 2, True, SearchStats())
        monkeypatch.setattr(pipeline, "mwis_exact", lambda h, limits: result)
        monkeypatch.setattr(pipeline, "mwis_local_search", lambda h, start: result)
        with pytest.raises(ValueError, match="not independent in the doubled graph"):
            solve_exact(c5)
        with pytest.raises(ValueError, match="not independent in the doubled graph"):
            solve_approx(c5)
