"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The corpus is fully
seeded, so every run checks byte-for-byte the same instances.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from bipartize import (
    build_doubled_graph,
    check_solution,
    from_edge_list,
    induced_bipartite_bruteforce,
    is_independent_set,
    lift_independent_set,
    max_degree,
    mwis_exact,
    mwis_greedy,
    oct_weight,
    project_bipartite,
    set_weight,
    solve_approx,
    solve_exact,
    verify,
)
from bipartize.cli import main
from bipartize.dimacs import write_instance
from bipartize.generate import gnp

from .conftest import mwis_bruteforce
from .test_reduction import _random_bipartite_solution, _random_independent_set


# ---------------------------------------------------------------------------
# corpus


def _nonisomorphic_graphs(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All simple graphs on n labeled nodes, one representative per
    isomorphism class (canonical form = minimal edge set over relabelings)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    representatives = []
    for mask in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        canonical = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
            for perm in perms
        )
        if canonical not in seen:
            seen.add(canonical)
            representatives.append(edges)
    return representatives


@pytest.fixture(scope="module")
def exhaustive_small():
    """Every non-isomorphic simple graph on 1..5 nodes, unit weights."""
    graphs = []
    counts = []
    for n in range(1, 6):
        reps = _nonisomorphic_graphs(n)
        counts.append(len(reps))
        for i, edges in enumerate(reps):
            graphs.append((f"exh-n{n}-{i}", from_edge_list(n, edges, [1] * n)))
    # the classical counts of non-isomorphic simple graphs on 1..5 nodes
    assert counts == [1, 2, 4, 11, 34]
    return graphs


@pytest.fixture(scope="module")
def random_corpus():
    """513 seeded G(n, p) instances: n 6..14, p in {0.2, 0.5, 0.8}, 19 seeds."""
    instances = []
    for n in range(6, 15):
        for p in (0.2, 0.5, 0.8):
            for s in range(19):
                seed = n * 10_000 + int(p * 10) * 100 + s
                gid = f"gnp-n{n}-p{p}-s{s}"
                instances.append((gid, gnp(n, p, seed=seed, weights=(1, 100))))
    assert len(instances) == 513
    return instances


@pytest.fixture(scope="module")
def larger_corpus():
    """30 instances at n = 15, 16 for the independent-set-engine checks."""
    instances = []
    for n in (15, 16):
        for p in (0.2, 0.5, 0.8):
            for s in range(5):
                seed = n * 10_000 + int(p * 10) * 100 + s
                gid = f"gnp-n{n}-p{p}-s{s}"
                instances.append((gid, gnp(n, p, seed=seed, weights=(1, 100))))
    return instances


_DIRECT_OPT_CACHE: dict[str, int] = {}


def _direct_optimum(gid, g) -> int:
    """Optimum via the direct bipartite oracle, cached across criteria."""
    if gid not in _DIRECT_OPT_CACHE:
        _DIRECT_OPT_CACHE[gid] = induced_bipartite_bruteforce(g).weight
    return _DIRECT_OPT_CACHE[gid]


# ---------------------------------------------------------------------------
# criteria


def test_c1_equivalence_exhaustive(exhaustive_small):
    """Doubled-graph optimum equals the direct optimum on every
    non-isomorphic graph with at most 5 nodes."""
    started = time.perf_counter()
    for gid, g in exhaustive_small:
        doubled = build_doubled_graph(g)
        via_doubling = mwis_bruteforce(doubled.graph).weight
        direct = _direct_optimum(gid, g)
        assert via_doubling == direct, gid
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nPASS  criterion 1: optimum transfer exact on all "
        f"{len(exhaustive_small)} non-isomorphic graphs (n<=5) in {elapsed:.1f}s"
    )


def test_c2_equivalence_randomized(random_corpus):
    """Same equality on 513 seeded weighted G(n, p) instances, n 6..14."""
    started = time.perf_counter()
    for gid, g in random_corpus:
        doubled = build_doubled_graph(g)
        via_doubling = mwis_bruteforce(doubled.graph, max_nodes=28).weight
        assert via_doubling == _direct_optimum(gid, g), gid
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"\nPASS  criterion 2: optimum transfer exact on "
        f"{len(random_corpus)} random instances in {elapsed:.1f}s"
    )


def test_c3_structural_invariants(exhaustive_small, random_corpus, larger_corpus):
    """Doubled graph: 2n nodes, 2m+n edges, degree bump of 1, copied weights."""
    everything = exhaustive_small + random_corpus + larger_corpus
    for gid, g in everything:
        doubled = build_doubled_graph(g)
        n = g.node_count
        assert doubled.graph.node_count == 2 * n, gid
        assert doubled.graph.edge_count == 2 * g.edge_count + n, gid
        assert max_degree(doubled.graph) == max_degree(g) + 1, gid
        for v in range(n):
            assert doubled.graph.weights[v] == g.weights[v], gid
            assert doubled.graph.weights[n + v] == g.weights[v], gid
    print(
        f"\nPASS  criterion 3: structural invariants hold on all "
        f"{len(everything)} corpus instances"
    )


def test_c4_round_trip_preservation():
    """Membership and weight survive both transform round trips, 1000 runs."""
    for trial in range(500):
        rng = random.Random(40_000 + trial)
        g = gnp(rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]), seed=trial, weights=(1, 100))
        doubled = build_doubled_graph(g)
        ind = _random_independent_set(doubled.graph, rng)
        sol = lift_independent_set(doubled, ind)
        assert check_solution(g, sol) is None
        assert sol.weight == set_weight(doubled.graph, ind)
        back = project_bipartite(doubled, sol)
        assert back == frozenset(ind)
        assert set_weight(doubled.graph, back) == sol.weight
    for trial in range(500):
        rng = random.Random(80_000 + trial)
        g = gnp(rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]), seed=trial, weights=(1, 100))
        doubled = build_doubled_graph(g)
        sol = _random_bipartite_solution(g, rng)
        projected = project_bipartite(doubled, sol)
        assert is_independent_set(doubled.graph, projected)
        assert set_weight(doubled.graph, projected) == sol.weight
        lifted = lift_independent_set(doubled, projected)
        assert lifted.node_set == sol.node_set
        assert lifted.weight == sol.weight
    print("\nPASS  criterion 4: 1000 transform round trips preserve sets and weights")


def test_c5_exact_engine_soundness(exhaustive_small, random_corpus, larger_corpus):
    """Branch-and-reduce matches the oracles: on the corpus graphs
    themselves, and end to end through the doubling pipeline."""
    started = time.perf_counter()
    everything = exhaustive_small + random_corpus + larger_corpus
    for gid, g in everything:
        assert g.node_count <= 16
        expected = mwis_bruteforce(g).weight
        result = mwis_exact(g)
        assert result.optimal and result.weight == expected, gid
    for gid, g in exhaustive_small + random_corpus:
        assert g.node_count <= 14
        sol, result = solve_exact(g)
        assert result.optimal, gid
        assert sol.weight == _direct_optimum(gid, g), gid
        assert verify(g, sol) == (True, "ok"), gid
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"\nPASS  criterion 5: exact engine matches both oracles on "
        f"{len(everything)} instances in {elapsed:.1f}s"
    )


def test_c6_empirical_approximation_ratio(
    exhaustive_small, random_corpus, larger_corpus
):
    """Heuristic pipeline stays within 3/(max_degree+3) of every known
    optimum, compared in exact rational arithmetic."""
    checked = 0
    for gid, g in exhaustive_small + random_corpus:
        approx = solve_approx(g)
        assert verify(g, approx) == (True, "ok"), gid
        opt = _direct_optimum(gid, g)
        ratio = Fraction(3, max_degree(g) + 3)
        assert Fraction(approx.weight) >= ratio * opt, (gid, approx.weight, opt)
        checked += 1
    for gid, g in larger_corpus:
        sol, result = solve_exact(g)
        assert result.optimal
        approx = solve_approx(g)
        ratio = Fraction(3, max_degree(g) + 3)
        assert Fraction(approx.weight) >= ratio * sol.weight, gid
        checked += 1
    print(
        f"\nPASS  criterion 6: approximation ratio >= 3/(max_degree+3) on all "
        f"{checked} instances with known optimum"
    )


def test_c7_greedy_bound(exhaustive_small, random_corpus, larger_corpus):
    """Greedy weight >= sum of w(v)/(degree(v)+1), exact rationals, on every
    corpus instance and on every doubled corpus instance."""
    checked = 0
    for gid, g in exhaustive_small + random_corpus + larger_corpus:
        for graph in (g, build_doubled_graph(g).graph):
            result = mwis_greedy(graph)
            assert is_independent_set(graph, result.solution), gid
            bound = sum(
                Fraction(graph.weights[v], graph.degree(v) + 1)
                for v in range(graph.node_count)
            )
            assert Fraction(result.weight) >= bound, gid
            checked += 1
    print(f"\nPASS  criterion 7: greedy bound holds on {checked} graphs")


def test_c8_determinism(tmp_path, capsys):
    """Every command with a fixed seed gives byte-identical non-timing output."""

    def run(args):
        code = main(args)
        out = capsys.readouterr().out
        return code, out

    # gen twice
    gen_args = ["gen", "gnp", "--nodes", "12", "--prob", "0.4", "--seed", "7"]
    _, first = run(gen_args)
    _, second = run(gen_args)
    assert first == second

    instance = tmp_path / "instance.col"
    instance.write_text(first, newline="")

    # reduce twice
    _, first = run(["reduce", str(instance)])
    _, second = run(["reduce", str(instance)])
    assert first == second

    # solve twice per engine; elapsed_ms is the one timing field
    def normalized_solution(engine):
        code, out = run(["solve", str(instance), "--engine", engine, "--json"])
        assert code == 0
        payload = json.loads(out)
        if payload["stats"]:
            payload["stats"]["elapsed_ms"] = 0.0
        return json.dumps(payload, sort_keys=True)

    for engine in ("exact", "approx", "bruteforce"):
        assert normalized_solution(engine) == normalized_solution(engine), engine

    # bench twice; the two trailing columns per row are wall times
    bench_args = [
        "bench", "--grid-n", "6", "8", "--grid-p", "0.3", "--grid-seeds", "2",
        "--seed", "11",
    ]

    def normalized_bench():
        code, out = run(bench_args)
        assert code == 0
        return [line.rsplit(",", 2)[0] for line in out.splitlines()]

    assert normalized_bench() == normalized_bench()
    print("\nPASS  criterion 8: seeded commands are byte-identical modulo timing")


def test_c9_performance_floor():
    """The exact pipeline clears n=30, p=0.3, unit weights inside 60s."""
    times = []
    for seed in (1, 2):
        g = gnp(30, 0.3, seed=seed, weights=None)
        started = time.perf_counter()
        sol, result = solve_exact(g)
        elapsed = time.perf_counter() - started
        assert result.optimal
        assert verify(g, sol) == (True, "ok")
        assert oct_weight(g, sol) + sol.weight == g.total_weight()
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
        times.append(elapsed)
    print(
        "\nPASS  criterion 9: n=30 p=0.3 unit instances solved in "
        + ", ".join(f"{t:.2f}s" for t in times)
    )
