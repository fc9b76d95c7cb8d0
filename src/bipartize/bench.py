"""Benchmark harness: run the exact and heuristic pipelines over a corpus.

Each instance yields one CSV row with sizes, both objective values, their
exact-rational ratio rendered to 6 decimal places, and per-engine search
statistics.  Timing columns are informational only and are the one part of
the output that varies between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Iterable

from .graph import WeightedGraph, max_degree
from .pipeline import solve_approx, solve_exact
from .solvers import SolverLimits


@dataclass(frozen=True)
class BenchRow:
    instance: str
    n: int
    m: int
    max_degree: int
    exact_weight: int
    exact_optimal: bool
    approx_weight: int
    ratio: str
    exact_search_nodes: int
    exact_ms: float
    approx_ms: float

    def to_csv(self) -> str:
        return ",".join(
            f"{value:.3f}" if isinstance(value, float) else str(value)
            for value in (getattr(self, f.name) for f in fields(self))
        )


CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


def format_ratio(numerator: int, denominator: int) -> str:
    """Exact rational numerator/denominator rounded to 6 decimal places."""
    if denominator == 0:
        return "1.000000"
    # integer arithmetic only: round half to even on the scaled value
    whole, rem = divmod(numerator * 10**6, denominator)
    if 2 * rem > denominator or (2 * rem == denominator and whole % 2 == 1):
        whole += 1
    return f"{whole // 10**6}.{whole % 10**6:06d}"


def run_instance(
    name: str, g: WeightedGraph, limits: SolverLimits | None = None
) -> BenchRow:
    t0 = time.perf_counter()
    exact_sol, exact_result = solve_exact(g, limits)
    exact_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    approx_sol = solve_approx(g)
    approx_ms = (time.perf_counter() - t1) * 1000.0
    return BenchRow(
        instance=name,
        n=g.node_count,
        m=g.edge_count,
        max_degree=max_degree(g),
        exact_weight=exact_sol.weight,
        exact_optimal=exact_result.optimal,
        approx_weight=approx_sol.weight,
        ratio=format_ratio(approx_sol.weight, exact_sol.weight),
        exact_search_nodes=exact_result.stats.search_nodes,
        exact_ms=exact_ms,
        approx_ms=approx_ms,
    )


def run_bench(
    instances: Iterable[tuple[str, WeightedGraph]],
    limits: SolverLimits | None = None,
) -> list[BenchRow]:
    return [run_instance(name, g, limits) for name, g in instances]


def rows_to_csv(rows: Iterable[BenchRow]) -> str:
    lines = [CSV_HEADER]
    lines.extend(row.to_csv() for row in rows)
    return "\n".join(lines) + "\n"
