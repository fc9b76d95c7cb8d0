"""Components and 2-core size of every workload's graphs, as JSON.

These are the properties a kernel (splitting components, peeling nodes of
degree below 2) would use, measured on the benchmark's own inputs:

    python3 perfbench/structure.py

The io-roundtrip instance depends on the seed; the one of the default seed,
1, is measured.
"""

from __future__ import annotations

import json
import sys

import inputs


def summary(graphs: list[inputs.Instance]) -> dict:
    rows = [(inst.n, *inputs.structure(inst)) for inst in graphs]
    core_share = [core / n for n, _, core in rows]
    return {
        "graphs": len(rows),
        "connected_share": round(sum(c == 1 for _, c, _ in rows) / len(rows), 3),
        "components_min": min(c for _, c, _ in rows),
        "components_max": max(c for _, c, _ in rows),
        "two_core_share_mean": round(sum(core_share) / len(rows), 3),
        "two_core_share_min": round(min(core_share), 3),
        "two_core_share_max": round(max(core_share), 3),
    }


def main() -> int:
    corpus = inputs.exact_gnp_corpus()
    cells = {
        f"n{n}-p{p}": summary([inst for inst in corpus if inst.name.startswith(f"n{n}-p{p}-")])
        for n in inputs.GNP_NODES
        for p in inputs.GNP_PROBS
    }
    result = {
        "exact-gnp": {"all": summary(corpus), "cells": cells},
        "sparse-large": summary(inputs.sparse_corpus()),
        "io-roundtrip": summary([inputs.io_instance(1)]),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
