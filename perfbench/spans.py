"""Spans around the package's public calls, for the traced run only.

:meth:`Tracer.install` replaces public functions at the module attributes
through which the package and the benchmark call them (for example
``bipartize.pipeline.mwis_exact``, the name ``solve_exact`` looks up), so
nothing under ``src/`` changes.  Spans stay in memory as lists
``[name, start, end, parent, run]``, where ``run`` identifies one execution
of one benchmark item, and counts read from return values are attached at
the same boundary.  :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _exact_counts(args, result):
    return {
        "search_nodes": result.stats.search_nodes,
        "domination": result.stats.reductions.get("domination", 0),
    }


def _greedy_counts(args, result):
    return {"picks": len(result.solution), "weight": result.weight}


def _local_search_counts(args, result):
    return {"moves": result.stats.search_nodes, "weight": result.weight}


def _doubled_counts(args, result):
    return {"nodes": result.graph.node_count, "edges": result.graph.edge_count}


def _parse_counts(args, result):
    return {"bytes": len(args[0].encode())}


def targets(bip):
    """(owner, attribute, span name, count extractor) for every wrapped call."""
    import bipartize.cli as cli
    import bipartize.dimacs as dimacs
    import bipartize.pipeline as pipeline
    import bipartize.reduction as reduction

    return [
        (bip, "solve_exact", "pipeline.solve_exact", None),
        (bip, "solve_approx", "pipeline.solve_approx", None),
        (pipeline, "build_doubled_graph", "reduction.build_doubled_graph", _doubled_counts),
        (pipeline, "mwis_exact", "solvers.mwis_exact", _exact_counts),
        (pipeline, "mwis_greedy", "solvers.mwis_greedy", _greedy_counts),
        (pipeline, "mwis_local_search", "solvers.mwis_local_search", _local_search_counts),
        (pipeline, "lift_independent_set", "reduction.lift_independent_set", None),
        (pipeline, "check_solution", "pipeline.verify", None),
        (reduction, "from_edge_list", "graph.from_edge_list", None),
        (dimacs, "from_edge_list", "graph.from_edge_list", None),
        (bip.WeightedGraph, "neighbor_masks", "graph.neighbor_masks", None),
        (cli, "main", "cli.main", None),
        (cli, "parse_instance", "dimacs.parse_instance", _parse_counts),
        (cli, "write_instance", "dimacs.write_instance", None),
        (cli, "parse_solution", "dimacs.parse_solution", None),
        (cli, "build_doubled_graph", "reduction.build_doubled_graph", _doubled_counts),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, dict]] = []  # (run, span name, counts)
        self.runs: list[str] = []  # run id -> item name
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run = -1
        self._patches: list[tuple[object, str, object]] = []

    def install(self, bip) -> None:
        for owner, attr, name, counter in targets(bip):
            original = owner.__dict__.get(attr)
            if original is None:
                where = f"{getattr(owner, '__name__', owner)}.{attr}"
                if where not in self.missing:
                    self.missing.append(where)
                continue
            setattr(owner, attr, self._wrap(original, name, counter))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_run(self, item: str) -> None:
        self._run = len(self.runs)
        self.runs.append(item)

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer._run]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer.counts.append((tracer._run, name, counter(args, result)))
            return result

        return traced

    # -- aggregation ------------------------------------------------------

    def per_pass(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total time, self time and counts of each span name for one pass.

        Every item contributes the median over its runs (counts: its first
        run, they repeat exactly), so the totals are those of one pass over
        the workload's items.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[tuple[int, str], float] = defaultdict(float)
        own: dict[tuple[int, str], float] = defaultdict(float)
        for index, (name, start, end, parent, run) in enumerate(self.spans):
            total[run, name] += end - start
            own[run, name] += end - start - child_time[index]
        counts: dict[tuple[int, str], int] = defaultdict(int)
        for run, name, values in self.counts:
            for key, value in values.items():
                counts[run, f"{name}.{key}"] += value
        return self._by_item(total), self._by_item(own), self._by_item(counts, first=True)

    def _by_item(self, values: dict, first: bool = False) -> dict:
        samples: dict[tuple[str, str], list] = defaultdict(list)
        for (run, name), value in values.items():
            samples[self.runs[run], name].append(value)
        out: dict[str, float] = defaultdict(int)
        for (item, name), values_of_item in samples.items():
            out[name] += values_of_item[0] if first else statistics.median(values_of_item)
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "runs": self.runs,
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing,
        }
        path.write_text(json.dumps(payload))
