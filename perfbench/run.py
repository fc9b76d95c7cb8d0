"""Benchmark runner for bipartize.

    python3 perfbench/run.py --workload exact-gnp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One workload runs per process, single-threaded.  Set-up (input generation,
file writing, warm-up) is timed on its own, SETUP_BEFORE times before and
SETUP_AFTER times after the measured part, so that its median averages the
machine's speed over the run as the other times do.  The measured part makes
passes over the workload's items until ``--seconds`` have passed, stopping
inside a pass; the first pass is always complete.  Every
output is checked (see inputs.solution_problem); a failed check makes the
result incorrect.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

The traced run alternates a traced and an untraced execution of every item
(the order flips every pass), writes the spans to
``.bench_work/trace-<workload>-<seed>.json`` and reports the tracing
overhead as ``trace.overhead``.  ``--workload all`` runs the three workloads
one after another, each in its own process, and prints their results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("exact-gnp", "sparse-large", "io-roundtrip")
SETUP_BEFORE = 5
SETUP_AFTER = 4


def import_package():
    """Import ``bipartize`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "bipartize" / "__init__.py").is_file():
        raise SystemExit(f"error: no bipartize package under {src}")
    sys.path.insert(0, str(src))
    module = importlib.import_module("bipartize")
    if Path(module.__file__).resolve().parent != src / "bipartize":
        raise SystemExit(f"error: imported bipartize from {module.__file__}")
    importlib.import_module("bipartize.cli")
    return module


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with at least ten samples above it.

    Below 21 samples that percentile would not lie above the median, so the
    maximum is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], f"max of {n}"
    q = 100 * (n - 10) // n
    return ordered[math.ceil(q * n / 100) - 1], f"p{q} of {n}"


def make_workload(name: str, bip, checks):
    import workloads

    if name == "exact-gnp":
        return workloads.ExactGnp(bip, checks)
    if name == "sparse-large":
        return workloads.SparseLarge(bip, checks)
    return workloads.IoRoundtrip(bip, checks, io_workdir())


def io_workdir() -> Path:
    return WORK / f"io-{os.getpid()}"


def measure(workload, seconds: float, seed: int, tracer=None, bip=None):
    """Passes over the items until the deadline, which may end a pass early.

    Each pass takes the items in a fresh seeded order, so that every kind of
    item is spread over the whole run and a median over items averages the
    machine's speed over the run rather than over one stretch of it.  The
    first pass is always complete, so every item has a sample, and a run
    measures for ``seconds`` however long a pass takes.  Returns the number
    of passes begun and the tracing overhead.
    """
    items = workload.items()
    deadline = time.perf_counter() + seconds
    passes = 0
    item_time: dict[tuple[str, bool], list[float]] = {}
    while passes == 0 or time.perf_counter() < deadline:
        order = list(items)
        random.Random(f"order-{seed}-{passes}").shuffle(order)
        for item in order:
            if passes and time.perf_counter() >= deadline:
                break
            modes = (False,) if tracer is None else ((False, True) if passes % 2 else (True, False))
            for traced in modes:
                if traced:
                    tracer.start_run(item)
                    tracer.install(bip)
                t0 = time.perf_counter()
                try:
                    workload.run(item)
                finally:
                    elapsed = time.perf_counter() - t0
                    if traced:
                        tracer.uninstall()
                item_time.setdefault((item, traced), []).append(elapsed)
        passes += 1
    overhead = 0.0
    if tracer is not None:
        def pass_time(traced: bool) -> float:
            return sum(statistics.median(item_time[item, traced]) for item in items)

        overhead = pass_time(True) / pass_time(False) - 1.0
    return passes, overhead


def end_to_end(name: str, raw: dict, setup_s: float, checks) -> tuple[dict, list[str]]:
    import workloads

    meaning = workloads.MEANING[name]
    main_s, aux_s = raw["main_s"], raw["aux_s"]
    main_tail, tail_label = tail(main_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [
        ("setup_s", setup_s, "s", SETUP_BEFORE + SETUP_AFTER,
         f"median of set-ups, {SETUP_BEFORE} before and {SETUP_AFTER} after the measured part"),
        ("peak_rss_mb", rss_mb, "MB", 1, "peak resident set size of the process"),
        ("ok_share", (checks.attempted - checks.failed) / checks.attempted, "share",
         checks.attempted, "checked operations that passed (1 - failed_share)"),
        ("main_s.p50", statistics.median(main_s), "s", len(main_s), meaning["main_s"]),
        ("main_s.tail", main_tail, "s", len(main_s), f"{tail_label}: {meaning['main_s']}"),
        ("aux_s.p50", statistics.median(aux_s), "s", len(aux_s), meaning["aux_s"]),
        ("main_quality", raw["main_quality"], "share", 1, meaning["main_quality"]),
        ("aux_quality", raw["aux_quality"], "share", 1, meaning["aux_quality"]),
    ]
    metrics = {key: {"value": value, "unit": unit} for key, value, unit, _, _ in rows}
    report = [f"{'metric':<14} {'value':>12} {'unit':<6} {'samples':>7}  meaning"]
    report += [
        f"{key:<14} {value:>12.6g} {unit:<6} {count:>7}  {text}"
        for key, value, unit, count, text in rows
    ]
    return metrics, report


def per_layer(tracer, overhead: float) -> tuple[dict, list[str]]:
    total, own, counts = tracer.per_pass()

    def t(name):
        return total.get(name, 0.0)

    nodes = counts.get("solvers.mwis_exact.search_nodes", 0)
    greedy_w = counts.get("solvers.mwis_greedy.weight", 0)
    final_w = counts.get("solvers.mwis_local_search.weight", 0)
    parse_s = t("dimacs.parse_instance")
    rows = [
        ("solvers.mwis_exact.s", t("solvers.mwis_exact"), "s"),
        ("solvers.mwis_exact.search_nodes", nodes, "count"),
        ("solvers.mwis_exact.domination", counts.get("solvers.mwis_exact.domination", 0), "count"),
        ("solvers.mwis_exact.s_per_node", t("solvers.mwis_exact") / nodes if nodes else 0.0, "s"),
        ("solvers.mwis_greedy.s", t("solvers.mwis_greedy"), "s"),
        ("solvers.mwis_greedy.picks", counts.get("solvers.mwis_greedy.picks", 0), "count"),
        ("solvers.mwis_greedy.weight_share", greedy_w / final_w if final_w else 0.0, "share"),
        ("solvers.mwis_local_search.s", t("solvers.mwis_local_search"), "s"),
        ("solvers.mwis_local_search.moves", counts.get("solvers.mwis_local_search.moves", 0), "count"),
        ("solvers.mwis_local_search.gain", final_w - greedy_w, "weight"),
        ("reduction.build_doubled_graph.s", t("reduction.build_doubled_graph"), "s"),
        ("reduction.build_doubled_graph.self_s", own.get("reduction.build_doubled_graph", 0.0), "s"),
        ("reduction.doubled_nodes", counts.get("reduction.build_doubled_graph.nodes", 0), "count"),
        ("reduction.doubled_edges", counts.get("reduction.build_doubled_graph.edges", 0), "count"),
        ("reduction.lift_independent_set.s", t("reduction.lift_independent_set"), "s"),
        ("graph.neighbor_masks.s", t("graph.neighbor_masks"), "s"),
        ("graph.from_edge_list.s", t("graph.from_edge_list"), "s"),
        ("pipeline.verify.s", t("pipeline.verify"), "s"),
        ("pipeline.solve_exact.self_s", own.get("pipeline.solve_exact", 0.0), "s"),
        ("pipeline.solve_approx.self_s", own.get("pipeline.solve_approx", 0.0), "s"),
        ("dimacs.parse_instance.s", parse_s, "s"),
        ("dimacs.parse_instance.bytes_per_s",
         counts.get("dimacs.parse_instance.bytes", 0) / parse_s if parse_s else 0.0, "B/s"),
        ("dimacs.write_instance.s", t("dimacs.write_instance"), "s"),
        ("dimacs.parse_solution.s", t("dimacs.parse_solution"), "s"),
        ("cli.main.self_s", own.get("cli.main", 0.0), "s"),
        ("trace.overhead", overhead, "share"),
    ]
    metrics = {key: {"value": value, "unit": unit} for key, value, unit in rows}
    report = ["per pass over the items (each item: median of its traced runs)"]
    report += [f"{key:<38} {value:>14.6g} {unit}" for key, value, unit in rows]
    if tracer.missing:
        report.append("not traced (attribute not found): " + ", ".join(tracer.missing))
    return metrics, report


def run_one(args) -> int:
    bip = import_package()
    import spans
    from workloads import Checks

    setups = []
    tracer = spans.Tracer() if args.trace else None

    def set_up():
        checks = Checks()
        workload = make_workload(args.workload, bip, checks)
        began = time.perf_counter()
        workload.setup(args.seed)
        setups.append(time.perf_counter() - began)
        return workload, checks

    try:
        for _ in range(SETUP_BEFORE):
            workload, checks = set_up()
        passes, overhead = measure(workload, args.seconds, args.seed, tracer, bip)
        workload.finish()
        for _ in range(SETUP_AFTER):
            set_up()
        if tracer is None:
            metrics, report = end_to_end(
                args.workload, workload.metrics(), statistics.median(setups), checks
            )
        else:
            metrics, report = per_layer(tracer, overhead)
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(io_workdir(), ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"trace {args.trace}  checks {checks.attempted - checks.failed}/{checks.attempted}")
    for line in report + [f"FAILED: {m}" for m in checks.messages]:
        print(line)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}:{key}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="bipartize benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
