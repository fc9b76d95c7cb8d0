"""Command-line interface.

Commands: ``gen`` (write a random instance), ``reduce`` (emit the doubled
graph of an instance), ``solve`` (run an engine and print the solution),
``verify`` (check a solution file against its instance), and ``bench``
(run both pipelines over a corpus and emit CSV).

Exit codes: 0 success, 1 infeasible input or failed verification, 2 usage
or input-format error, 3 search budget exhausted (a best-effort solution
is still emitted, flagged non-optimal).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dimacs, generate
from .bench import rows_to_csv, run_bench
from .dimacs import parse_instance, parse_solution, write_instance, write_solution
from .graph import WeightedGraph
from .pipeline import solve_approx, solve_exact, verify
from .reduction import build_doubled_graph
from .solvers import SearchStats, SolverLimits, induced_bipartite_bruteforce

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; pass both on
        return int(exc.code or 0)
    try:
        return args.handler(args)
    # ParseError and LimitExceededError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipartize",
        description="Maximum-weight induced bipartite subgraph toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("family", choices=generate.FAMILIES)
    gen.add_argument("--nodes", type=int, help="node count (gnp/cycle/complete/star)")
    gen.add_argument("--prob", type=float, help="edge probability (gnp/bipartite-random)")
    gen.add_argument("--left", type=int, help="left side size (bipartite-random)")
    gen.add_argument("--right", type=int, help="right side size (bipartite-random)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--weights",
        default="1..100",
        help="'unit' or an inclusive integer range like '1..100'",
    )
    gen.add_argument("-o", "--output", type=Path, help="output file (default stdout)")
    gen.set_defaults(handler=_cmd_gen)

    reduce_cmd = sub.add_parser("reduce", help="emit the doubled graph of an instance")
    reduce_cmd.add_argument("instance", type=Path)
    reduce_cmd.add_argument("-o", "--output", type=Path)
    reduce_cmd.set_defaults(handler=_cmd_reduce)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("instance", type=Path)
    solve.add_argument(
        "--engine", choices=("exact", "approx", "bruteforce"), default="exact"
    )
    _add_budget_flags(solve)
    solve.add_argument("--json", action="store_true", help="print schema JSON")
    solve.add_argument("-o", "--output", type=Path)
    solve.set_defaults(handler=_cmd_solve)

    verify_cmd = sub.add_parser("verify", help="check a solution against an instance")
    verify_cmd.add_argument("instance", type=Path)
    verify_cmd.add_argument("solution", type=Path)
    verify_cmd.set_defaults(handler=_cmd_verify)

    bench = sub.add_parser("bench", help="run both pipelines over a corpus")
    source = bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--dir", type=Path, help="directory of instance files")
    source.add_argument(
        "--grid-n", type=int, nargs="+", help="node counts for a generated G(n,p) grid"
    )
    bench.add_argument("--grid-p", type=float, nargs="+", default=[0.2, 0.5, 0.8])
    bench.add_argument("--grid-seeds", type=int, default=3, help="instances per cell")
    bench.add_argument("--seed", type=int, default=0, help="base seed for the grid")
    bench.add_argument(
        "--weights", default="1..100", help="'unit' or a range (grid only)"
    )
    _add_budget_flags(bench)
    bench.add_argument("-o", "--output", type=Path, help="CSV output (default stdout)")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget-nodes", type=int, help="search-node budget (exact)")
    parser.add_argument("--budget-ms", type=int, help="time budget in ms (exact)")


def _limits(args) -> SolverLimits:
    """The exact engine's budgets from ``--budget-nodes``/``--budget-ms``."""
    seconds = None
    if args.budget_ms is not None:
        try:
            seconds = args.budget_ms / 1000.0
        except OverflowError:
            raise ValueError("--budget-ms is out of range") from None
    return SolverLimits(node_budget=args.budget_nodes, time_budget_s=seconds)


def _parse_weights(spec: str) -> tuple[int, int] | None:
    if spec == "unit":
        return None
    # without "..", high is empty and fails int() like any other bad bound
    low, _, high = spec.partition("..")
    try:
        return int(low), int(high)
    except ValueError:
        raise ValueError(
            f"bad weight spec {spec!r}, expected 'unit' or 'LOW..HIGH'"
        ) from None


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, newline="")


def _load_instance(path: Path) -> WeightedGraph:
    return parse_instance(path.read_text())


def _cmd_gen(args) -> int:
    weights = _parse_weights(args.weights)
    params = {}
    if args.family in ("gnp", "cycle", "complete", "star"):
        if args.nodes is None:
            raise ValueError(f"--nodes is required for family {args.family!r}")
        params["n"] = args.nodes
    if args.family in ("gnp", "bipartite-random"):
        if args.prob is None:
            raise ValueError(f"--prob is required for family {args.family!r}")
        params["p"] = args.prob
    if args.family == "bipartite-random":
        if args.left is None or args.right is None:
            raise ValueError("--left and --right are required for bipartite-random")
        params["left"] = args.left
        params["right"] = args.right
    # refuse up front what no command could read back
    count = params["n"] if "n" in params else args.left + args.right
    if count > dimacs.MAX_NODES:
        raise ValueError(f"node count {count} exceeds the cap of {dimacs.MAX_NODES}")
    g = generate.generate(args.family, seed=args.seed, weights=weights, **params)
    _emit(write_instance(g), args.output)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    g = _load_instance(args.instance)
    dg = build_doubled_graph(g)
    _emit(write_instance(dg.graph), args.output)
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = _load_instance(args.instance)
    limits = _limits(args)
    if args.engine == "exact":
        sol, result = solve_exact(g, limits)
        optimal, stats = result.optimal, result.stats
    elif args.engine == "approx":
        sol = solve_approx(g)
        optimal, stats = False, SearchStats()
    else:
        sol = induced_bipartite_bruteforce(g)
        optimal, stats = True, SearchStats()
    text = write_solution(sol, optimal=optimal, stats=stats)
    if args.json or args.output is not None:
        _emit(text, args.output)
    if not args.json and args.output is None:
        print(f"weight   {sol.weight}")
        print(f"optimal  {str(optimal).lower()}")
        print(f"nodes    {' '.join(str(v + 1) for v in sorted(sol.node_set))}")
        print(f"side_a   {' '.join(str(v + 1) for v in sorted(sol.bipartition.side_a))}")
        print(f"side_b   {' '.join(str(v + 1) for v in sorted(sol.bipartition.side_b))}")
    if args.engine == "exact" and not optimal:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_instance(args.instance)
    sol, _claimed_optimal = parse_solution(args.solution.read_text())
    ok, diagnostic = verify(g, sol)
    print(diagnostic)
    return EXIT_OK if ok else EXIT_INFEASIBLE


def _cmd_bench(args) -> int:
    limits = _limits(args)
    instances: list[tuple[str, WeightedGraph]] = []
    if args.dir is not None:
        paths = sorted(p for p in args.dir.iterdir() if p.is_file())
        if not paths:
            raise ValueError(f"no instance files in {args.dir}")
        for path in paths:
            instances.append((path.name, _load_instance(path)))
    else:
        if args.grid_seeds < 1:
            raise ValueError(f"--grid-seeds must be positive, got {args.grid_seeds}")
        weights = _parse_weights(args.weights)
        seed = args.seed
        for n in args.grid_n:
            for p in args.grid_p:
                for s in range(args.grid_seeds):
                    name = f"gnp-n{n}-p{p:g}-s{s}"
                    instances.append(
                        (name, generate.gnp(n, p, seed=seed, weights=weights))
                    )
                    seed += 1
    rows = run_bench(instances, limits)
    _emit(rows_to_csv(rows), args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
