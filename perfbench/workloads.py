"""The three workloads: set-up, one timed item, and the end-to-end metrics.

Every workload exposes the same end-to-end metric names, because each run
reports all of them.  What each name measures on each workload is given by
``MEANING`` (also printed with the results):

* ``main_s.p50`` / ``main_s.tail`` and ``aux_s.p50``: wall time of the
  workload's main and auxiliary operation.  Solver workloads take one
  sample per graph, the median of its solves over the passes of the run;
  io-roundtrip takes one sample per CLI call.
* ``main_quality`` / ``aux_quality``: what the same operations return,
  relative to a reference computed by the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import statistics
import time
from pathlib import Path

import inputs

MEANING = {
    "exact-gnp": {
        "main_s": "solve_exact per graph, no budget (exact.solve_s)",
        "aux_s": "solve_approx per graph (approx.solve_s on small graphs)",
        "main_quality": "sum exact weight / sum pinned optimum (1 when exact)",
        "aux_quality": "sum approx weight / sum pinned optimum (approx.ratio)",
    },
    "sparse-large": {
        "main_s": "solve_approx per graph (approx.solve_s)",
        "aux_s": f"solve_exact per graph, node_budget={inputs.SPARSE_NODE_BUDGET} (budget.solve_s)",
        "main_quality": "sum approx weight / sum node weight (approx.weight_share)",
        "aux_quality": "sum budgeted weight / sum node weight (budget.weight_share)",
    },
    "io-roundtrip": {
        "main_s": "CLI reduce per call (reduce_s)",
        "aux_s": "CLI verify per call, valid and tampered solution (verify_s)",
        "main_quality": "share of reduce outputs byte-identical to the expected doubled graph",
        "aux_quality": "share of verify calls with the right exit code",
    },
}


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def _problem(inst, sol) -> str | None:
    return inputs.solution_problem(
        inst, sol.node_set, sol.bipartition.side_a, sol.bipartition.side_b, sol.weight
    )


def _timed(fn, *args):
    began = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - began


def _solve(checks: Checks, times: list[float], label: str, fn, *args):
    """Times one solve; an exception counts as a failed check and gives None."""
    began = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:
        checks.expect(False, f"{label} raised {exc!r}")
        return None
    finally:
        times.append(time.perf_counter() - began)


class ExactGnp:
    """Unbudgeted exact solves and approx solves of pinned G(n, p) graphs."""

    def __init__(self, bip, checks: Checks):
        self.bip = bip
        self.checks = checks
        self.times: dict[str, dict[str, list[float]]] = {"exact": {}, "approx": {}}
        self.weights: dict[str, dict[str, int]] = {"exact": {}, "approx": {}}

    def setup(self, seed: int) -> None:
        pool = inputs.load_pool()
        self.corpus = {}
        self.graphs = {}
        self.optimum = {}
        for inst in inputs.exact_gnp_corpus():
            pinned = pool[inst.name]
            if inst.digest() != pinned["digest"]:
                raise SystemExit(f"error: generated {inst.name} differs from the pinned graph")
            self.corpus[inst.name] = inst
            self.optimum[inst.name] = pinned["optimum"]
            self.graphs[inst.name] = self.bip.from_edge_list(inst.n, inst.edges, inst.weights)
        # a failing warm-up is left to the checked solves to report
        with contextlib.suppress(Exception):
            self.bip.solve_approx(next(iter(self.graphs.values())))

    def items(self) -> list[str]:
        return list(self.corpus)

    def finish(self) -> None:
        pass

    def run(self, item: str) -> None:
        bip, inst, g = self.bip, self.corpus[item], self.graphs[item]
        times = self.times["exact"].setdefault(item, [])
        solved = _solve(self.checks, times, f"{item}: solve_exact", bip.solve_exact, g)
        if solved is not None:
            sol, result = solved
            problem = _problem(inst, sol)
            self.checks.expect(
                problem is None and result.optimal and sol.weight == self.optimum[item],
                f"{item}: exact weight {sol.weight}, optimal={result.optimal}, "
                f"pinned {self.optimum[item]}, check: {problem}",
            )
            self.weights["exact"][item] = sol.weight
        times = self.times["approx"].setdefault(item, [])
        approx = _solve(self.checks, times, f"{item}: solve_approx", bip.solve_approx, g)
        if approx is not None:
            problem = _problem(inst, approx)
            self.checks.expect(
                problem is None and approx.weight <= self.optimum[item],
                f"{item}: approx weight {approx.weight}, check: {problem}",
            )
            self.weights["approx"][item] = approx.weight

    def metrics(self) -> dict:
        reference = sum(self.optimum.values())
        return {
            "main_s": _per_graph(self.times["exact"]),
            "aux_s": _per_graph(self.times["approx"]),
            "main_quality": sum(self.weights["exact"].values()) / reference,
            "aux_quality": sum(self.weights["approx"].values()) / reference,
        }


class SparseLarge:
    """Approx solves and node-budgeted exact solves of sparse G(n, m) graphs."""

    def __init__(self, bip, checks: Checks):
        self.bip = bip
        self.checks = checks
        self.limits = bip.SolverLimits(node_budget=inputs.SPARSE_NODE_BUDGET)
        self.times: dict[str, dict[str, list[float]]] = {"approx": {}, "budget": {}}
        self.weights: dict[str, dict[str, int]] = {"approx": {}, "budget": {}}

    def setup(self, seed: int) -> None:
        self.corpus = {inst.name: inst for inst in inputs.sparse_corpus()}
        self.graphs = {
            name: self.bip.from_edge_list(inst.n, inst.edges, inst.weights)
            for name, inst in self.corpus.items()
        }
        warm = inputs.gnm_instance("warm", 40, 80, random.Random(seed))
        with contextlib.suppress(Exception):
            self.bip.solve_approx(self.bip.from_edge_list(warm.n, warm.edges, warm.weights))

    def items(self) -> list[str]:
        return list(self.corpus)

    def finish(self) -> None:
        pass

    def run(self, item: str) -> None:
        bip, inst, g = self.bip, self.corpus[item], self.graphs[item]
        times = self.times["approx"].setdefault(item, [])
        approx = _solve(self.checks, times, f"{item}: solve_approx", bip.solve_approx, g)
        if approx is not None:
            problem = _problem(inst, approx)
            self.checks.expect(problem is None, f"{item}: approx check: {problem}")
            self.weights["approx"][item] = approx.weight
        times = self.times["budget"].setdefault(item, [])
        solved = _solve(
            self.checks, times, f"{item}: budgeted solve_exact", bip.solve_exact, g, self.limits
        )
        if solved is not None:
            sol, _ = solved
            problem = _problem(inst, sol)
            self.checks.expect(problem is None, f"{item}: budgeted exact check: {problem}")
            self.weights["budget"][item] = sol.weight

    def metrics(self) -> dict:
        reference = sum(inst.total_weight for inst in self.corpus.values())
        return {
            "main_s": _per_graph(self.times["approx"]),
            "aux_s": _per_graph(self.times["budget"]),
            "main_quality": sum(self.weights["approx"].values()) / reference,
            "aux_quality": sum(self.weights["budget"].values()) / reference,
        }


class IoRoundtrip:
    """CLI ``reduce`` and ``verify`` on one large instance file, in-process."""

    def __init__(self, bip, checks: Checks, workdir: Path):
        self.bip = bip
        self.checks = checks
        self.workdir = workdir
        self.times: dict[str, list[float]] = {"reduce": [], "verify": []}
        self.outcomes: dict[str, list[bool]] = {"reduce": [], "verify": []}

    def setup(self, seed: int) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.inst = inst = inputs.io_instance(seed)
        self.text = inputs.dimacs_text(inst.n, inst.edges, inst.weights)
        self.expected = inputs.doubled_dimacs_text(inst)
        side_a, side_b = inputs.bipartite_witness(inst)
        weight = sum(inst.weights[v] for v in side_a + side_b)
        self.instance_path = self.workdir / "instance.col"
        self.valid_path = self.workdir / "valid.json"
        self.tampered_path = self.workdir / "tampered.json"
        self.output_path = self.workdir / "doubled.col"
        self.instance_path.write_text(self.text, newline="")
        self.valid_path.write_text(inputs.solution_json(side_a, side_b, weight))
        # every check still runs, so verify does the same work on both files
        self.tampered_path.write_text(inputs.solution_json(side_a, side_b, weight + 1))
        small = inputs.gnm_instance("warm", 20, 30, random.Random(seed))
        warm_path = self.workdir / "warm.col"
        warm_path.write_text(inputs.dimacs_text(small.n, small.edges, small.weights))
        self._cli("reduce", str(warm_path), "-o", str(self.output_path))

    def items(self) -> list[str]:
        return ["reduce", "verify-valid", "verify-tampered"]

    def _cli(self, *argv: str) -> tuple[int, str, float]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, seconds = _timed(self.bip.cli.main, list(argv))
        return code, out.getvalue(), seconds

    def finish(self) -> None:
        """Untimed, once per run: parse -> write must reproduce the file's bytes."""
        text = self.bip.dimacs.write_instance(self.bip.dimacs.parse_instance(self.text))
        self.checks.expect(text == self.text, "parse -> write round trip is not byte-exact")

    def run(self, item: str) -> None:
        if item == "reduce":
            self.output_path.unlink(missing_ok=True)
            code, _, seconds = self._cli(
                "reduce", str(self.instance_path), "-o", str(self.output_path)
            )
            self.times["reduce"].append(seconds)
            output = self.output_path.read_text() if self.output_path.exists() else ""
            header = f"p edge {2 * self.inst.n} {2 * len(self.inst.edges) + self.inst.n}\n"
            ok = code == 0 and output == self.expected
            self.checks.expect(
                ok,
                f"reduce: exit {code}, header {output[:len(header)]!r} "
                f"(want {header!r}), byte-identical={output == self.expected}",
            )
            self.outcomes["reduce"].append(ok)
        else:
            path = self.valid_path if item == "verify-valid" else self.tampered_path
            want = 0 if item == "verify-valid" else 1
            code, printed, seconds = self._cli("verify", str(self.instance_path), str(path))
            self.times["verify"].append(seconds)
            ok = code == want and (want == 1 or printed.strip() == "ok")
            self.checks.expect(ok, f"{item}: exit {code} (want {want}), printed {printed.strip()!r}")
            self.outcomes["verify"].append(ok)

    def metrics(self) -> dict:
        return {
            "main_s": self.times["reduce"],
            "aux_s": self.times["verify"],
            "main_quality": _share(self.outcomes["reduce"]),
            "aux_quality": _share(self.outcomes["verify"]),
        }


def _per_graph(samples: dict[str, list[float]]) -> list[float]:
    """One sample per graph: the median of its solves over the passes."""
    return [statistics.median(values) for values in samples.values()]


def _share(flags: list[bool]) -> float:
    return sum(flags) / len(flags)
