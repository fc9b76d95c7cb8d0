"""Seeded inputs for the benchmark and the checks it applies to every output.

The generators here are the benchmark's own, so the inputs do not change
when the package's ``generate`` module does.  Graphs are handed to the
package only as edge lists (``from_edge_list``) or as DIMACS files.

The output check works from the raw edge list and weights, not from the
package's ``check_solution``: both sides disjoint, each side independent,
node set equal to their union, weight recomputed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
POOL_FILE = DATA_DIR / "exact_gnp_pool.json"

WEIGHT_RANGE = (1, 100)

# exact-gnp: G(n, p) cells of POOL_PER_CELL pinned graphs each, so every
# optimum is known in advance.  Every run solves the whole pool.
GNP_NODES = (28, 32, 36)
GNP_PROBS = (0.1, 0.2, 0.35, 0.5)
POOL_PER_CELL = 16

# sparse-large: SPARSE_GRAPHS fixed G(n, m) graphs with m = n * degree / 2,
# so the doubled graph has more than 512 nodes and neighbour masks are built
# on demand.
SPARSE_NODES = 400
SPARSE_DEGREE = 4
SPARSE_GRAPHS = 24
SPARSE_NODE_BUDGET = 20

# io-roundtrip: one large sparse instance.
IO_NODES = 50_000
IO_DEGREE = 4


@dataclass
class Instance:
    """One input graph kept as raw data, independent of the package."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    weights: list[int]

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def digest(self) -> str:
        payload = json.dumps([self.n, self.edges, self.weights], separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _weights(rng: random.Random, n: int) -> list[int]:
    low, high = WEIGHT_RANGE
    return [rng.randint(low, high) for _ in range(n)]


def gnp_instance(n: int, p: float, k: int) -> Instance:
    """Pool graph ``k`` of cell (n, p): each pair is an edge with probability p."""
    rng = random.Random(f"gnp-{n}-{p}-{k}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Instance(f"n{n}-p{p}-k{k}", n, edges, _weights(rng, n))


def gnm_instance(name: str, n: int, m: int, rng: random.Random) -> Instance:
    """Uniform simple graph with exactly ``m`` edges, in O(n + m) expected time."""
    if m > n * (n - 1) // 4:
        raise ValueError("gnm_instance is meant for sparse graphs")
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    return Instance(name, n, sorted(seen), _weights(rng, n))


def exact_gnp_corpus() -> list[Instance]:
    return [
        gnp_instance(n, p, k)
        for n in GNP_NODES
        for p in GNP_PROBS
        for k in range(POOL_PER_CELL)
    ]


def sparse_corpus() -> list[Instance]:
    m = SPARSE_NODES * SPARSE_DEGREE // 2
    return [
        gnm_instance(f"sparse-k{k}", SPARSE_NODES, m, random.Random(f"sparse-{k}"))
        for k in range(SPARSE_GRAPHS)
    ]


def io_instance(seed: int) -> Instance:
    rng = random.Random(f"io-{seed}")
    return gnm_instance("io", IO_NODES, IO_NODES * IO_DEGREE // 2, rng)


def load_pool() -> dict[str, dict]:
    """Pinned pool entries by graph name (see pin_optima.py)."""
    with POOL_FILE.open() as fh:
        return {entry["name"]: entry for entry in json.load(fh)["graphs"]}


# ---------------------------------------------------------------------------
# Rendering and checking, written independently of the package


def dimacs_text(n: int, edges: list[tuple[int, int]], weights: list[int]) -> str:
    """Canonical weighted DIMACS text: header, sorted v lines, sorted e lines."""
    lines = [f"p edge {n} {len(edges)}"]
    lines.extend(f"v {v + 1} {w}" for v, w in enumerate(weights))
    lines.extend(f"e {u + 1} {v + 1}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def doubled_dimacs_text(inst: Instance) -> str:
    """What ``bipartize reduce`` must print: two copies plus a perfect matching."""
    n = inst.n
    edges = list(inst.edges)
    edges += [(n + u, n + v) for u, v in inst.edges]
    edges += [(v, n + v) for v in range(n)]
    return dimacs_text(2 * n, edges, inst.weights + inst.weights)


def solution_problem(inst: Instance, node_set, side_a, side_b, weight: int) -> str | None:
    """None when the solution is a valid induced bipartite set of ``inst``."""
    a, b, nodes = set(side_a), set(side_b), set(node_set)
    if any(not (0 <= v < inst.n) for v in nodes | a | b):
        return "member out of range"
    if a & b:
        return "sides intersect"
    if a | b != nodes:
        return "sides do not cover the node set"
    for u, v in inst.edges:
        if (u in a and v in a) or (u in b and v in b):
            return f"edge ({u}, {v}) inside one side"
    if weight != sum(inst.weights[v] for v in nodes):
        return "weight mismatch"
    return None


def structure(inst: Instance) -> tuple[int, int]:
    """Number of connected components and number of nodes in the 2-core."""
    adjacency: list[list[int]] = [[] for _ in range(inst.n)]
    for u, v in inst.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    component = [-1] * inst.n
    components = 0
    for start in range(inst.n):
        if component[start] < 0:
            component[start] = components
            stack = [start]
            while stack:
                for u in adjacency[stack.pop()]:
                    if component[u] < 0:
                        component[u] = components
                        stack.append(u)
            components += 1
    degree = [len(neighbours) for neighbours in adjacency]
    peel = [v for v in range(inst.n) if degree[v] < 2]
    removed = [False] * inst.n
    while peel:
        v = peel.pop()
        if removed[v]:
            continue
        removed[v] = True
        for u in adjacency[v]:
            degree[u] -= 1
            if degree[u] < 2 and not removed[u]:
                peel.append(u)
    return components, inst.n - sum(removed)


def bipartite_witness(inst: Instance) -> tuple[list[int], list[int]]:
    """A valid (not optimal) solution: two maximal independent sets in turn."""
    adjacency: list[list[int]] = [[] for _ in range(inst.n)]
    for u, v in inst.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    sides: list[list[int]] = []
    taken = [False] * inst.n
    for _ in range(2):
        blocked = list(taken)
        side = []
        for v in range(inst.n):
            if not blocked[v]:
                side.append(v)
                taken[v] = blocked[v] = True
                for u in adjacency[v]:
                    blocked[u] = True
        sides.append(side)
    return sides[0], sides[1]


def solution_json(side_a: list[int], side_b: list[int], weight: int) -> str:
    nodes = sorted(side_a + side_b)
    return json.dumps(
        {
            "weight": weight,
            "optimal": False,
            "nodes": [v + 1 for v in nodes],
            "side_a": [v + 1 for v in sorted(side_a)],
            "side_b": [v + 1 for v in sorted(side_b)],
            "stats": {},
        }
    ) + "\n"
