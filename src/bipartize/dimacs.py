"""Instance and solution file formats.

Instances use a weighted DIMACS dialect::

    c optional comments
    p edge <nodes> <edges>
    v <id> <weight>        (optional; missing nodes default to weight 1)
    e <u> <v>

Ids are 1-based in files and 0-based in memory.  :func:`write_instance`
emits the canonical form — header, then all ``v`` lines sorted by id, then
all ``e`` lines sorted with u < v, LF endings — so writing a parsed
canonical file reproduces it byte for byte.

Solutions are JSON objects with the keys ``weight``, ``optimal``,
``nodes``, ``side_a``, ``side_b`` (ids 1-based) and ``stats``.
"""

from __future__ import annotations

import json

from .graph import MAX_WEIGHT, Bipartition, WeightedGraph, _normalized_graph
from .reduction import BipartiteSolution
from .solvers import SearchStats

# Largest node count a header may declare: a parsed graph takes about 240
# bytes per node even without edges, so a bare header could exhaust memory.
MAX_NODES = 10**6


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_instance(text: str) -> WeightedGraph:
    """Parse the weighted DIMACS dialect into a normalized graph."""
    node_count = -1
    declared_edges = -1
    header_line = 0
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()  # empty exactly when the stripped line is
        if not parts:
            continue
        kind = parts[0]
        if kind == "e" or kind == "v":
            if node_count < 0:
                raise ParseError(f"{kind!r} line before header", line_no)
            if len(parts) != 3:
                shape = "<u> <v>" if kind == "e" else "<id> <weight>"
                raise ParseError(
                    f"malformed {kind!r} line, expected '{kind} {shape}'", line_no
                )
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                # name the first token that is not an integer
                a, b = _int(parts[1], line_no), _int(parts[2], line_no)
            if kind == "e" and a == b:
                raise ParseError(f"self-loop at node {a}", line_no)
            if not 0 < a <= node_count:
                raise ParseError(f"node id {a} out of range 1..{node_count}", line_no)
            if kind == "e":
                if not 0 < b <= node_count:
                    raise ParseError(f"node id {b} out of range 1..{node_count}", line_no)
                edges.append((a - 1, b - 1))
            else:
                if a - 1 in weights:
                    raise ParseError(f"duplicate weight for node {a}", line_no)
                if b < 0:
                    raise ParseError(f"negative weight {b}", line_no)
                if b > MAX_WEIGHT:
                    raise ParseError(
                        f"weight of node {a} exceeds {MAX_WEIGHT} ({b})", line_no
                    )
                weights[a - 1] = b
        elif kind.startswith("c"):
            continue
        elif kind == "p":
            if node_count >= 0:
                raise ParseError("duplicate header", line_no)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("malformed header, expected 'p edge <n> <m>'", line_no)
            node_count, declared_edges = _int(parts[2], line_no), _int(parts[3], line_no)
            if node_count < 0 or declared_edges < 0:
                raise ParseError("negative count in header", line_no)
            if node_count > MAX_NODES:
                raise ParseError(
                    f"node count {node_count} exceeds the cap of {MAX_NODES}", line_no
                )
            header_line = line_no
        else:
            raise ParseError(f"unknown line type {kind!r}", line_no)
    if node_count < 0:
        raise ParseError("missing 'p edge' header")
    if len(edges) != declared_edges:
        raise ParseError(
            f"header declares {declared_edges} edges but file has {len(edges)}",
            header_line,
        )
    # every line was checked above, so the graph is built without re-checking
    weight_list = [weights.get(v, 1) for v in range(node_count)]
    return _normalized_graph(node_count, edges, weight_list)


def _int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line_no) from None


def write_instance(g: WeightedGraph) -> str:
    """Canonical instance text for ``g`` (see module docstring)."""
    lines = [f"p edge {g.node_count} {g.edge_count}"]
    lines.extend(f"v {v} {w}" for v, w in enumerate(g.weights, start=1))
    # u counts from 1 and v from 0, so v >= u lists each edge once, as u < v
    lines.extend(
        f"e {u} {v + 1}"
        for u, row in enumerate(g.adjacency, start=1)
        for v in row
        if v >= u
    )
    return "\n".join(lines) + "\n"


def write_solution(
    sol: BipartiteSolution,
    *,
    optimal: bool,
    stats: SearchStats | None = None,
) -> str:
    """Render a solution as schema JSON (ids 1-based, sorted)."""
    payload: dict = {
        "weight": sol.weight,
        "optimal": optimal,
        "nodes": [v + 1 for v in sorted(sol.node_set)],
        "side_a": [v + 1 for v in sorted(sol.bipartition.side_a)],
        "side_b": [v + 1 for v in sorted(sol.bipartition.side_b)],
        "stats": {},
    }
    if stats is not None:
        payload["stats"] = {
            "search_nodes": stats.search_nodes,
            "reductions": {k: stats.reductions[k] for k in sorted(stats.reductions)},
            "elapsed_ms": round(stats.elapsed_s * 1000.0, 3),
        }
    return json.dumps(payload, indent=2) + "\n"


def parse_solution(text: str) -> tuple[BipartiteSolution, bool]:
    """Parse solution JSON into a (solution, claimed-optimal) pair.

    Only shape and id validity are checked here; semantic validity against
    a graph is the verifier's job, so tampered solutions parse fine and
    fail verification.
    """
    try:
        payload = json.loads(text)
    # json's decoder recurses once per nesting level
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("solution must be a JSON object")
    for key in ("weight", "optimal", "nodes", "side_a", "side_b"):
        if key not in payload:
            raise ParseError(f"solution is missing the {key!r} field")
    if not isinstance(payload["weight"], int) or isinstance(payload["weight"], bool):
        raise ParseError("'weight' must be an integer")
    if not isinstance(payload["optimal"], bool):
        raise ParseError("'optimal' must be a boolean")
    nodes = _id_list(payload, "nodes")
    side_a = _id_list(payload, "side_a")
    side_b = _id_list(payload, "side_b")
    sol = BipartiteSolution(
        node_set=nodes,
        bipartition=Bipartition(side_a, side_b),
        weight=payload["weight"],
    )
    return sol, payload["optimal"]


def _id_list(payload: dict, key: str) -> frozenset[int]:
    value = payload[key]
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list of 1-based node ids")
    out = set()
    for item in value:
        if not isinstance(item, int) or isinstance(item, bool) or item < 1:
            raise ParseError(f"{key!r} contains an invalid id: {item!r}")
        out.add(item - 1)
    return frozenset(out)
