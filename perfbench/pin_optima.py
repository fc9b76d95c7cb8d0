"""Pin the optimum of every exact-gnp pool graph, with its provenance.

Each pool graph is solved by the package's exact pipeline and, as an
independent cross-check, by a HiGHS MILP model (scipy.optimize.milp): binary
a_v, b_v per node, a_v + b_v <= 1, and for every edge a_u + a_v <= 1 and
b_u + b_v <= 1.  scipy is used here only, never by the package or by a
benchmark run.  A disagreement is a program defect: the script reports it and
exits 1 without writing the file.

HiGHS presolve is switched off.  With it on (scipy 1.17.1), HiGHS reports
1339 as the proven optimum of pool graph n32-p0.1-k13, while the package's
solution of weight 1353 is feasible in the same model and matches the
brute-force oracle; without presolve HiGHS finds 1353.

    python3 perfbench/pin_optima.py --commit <git commit of the solved code>
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import inputs
from run import import_package

MILP_TIME_LIMIT_S = 60.0


def milp_optimum(inst: inputs.Instance) -> tuple[int | None, float]:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n = inst.n
    rows: list[int] = []
    cols: list[int] = []
    row = 0
    for v in range(n):
        rows += [row, row]
        cols += [v, n + v]
        row += 1
    for u, v in inst.edges:
        for shift in (0, n):
            rows += [row, row]
            cols += [shift + u, shift + v]
            row += 1
    matrix = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(row, 2 * n))
    began = time.perf_counter()
    res = milp(
        -np.array(inst.weights + inst.weights, dtype=float),
        constraints=LinearConstraint(matrix, -np.inf, 1),
        integrality=np.ones(2 * n),
        bounds=Bounds(0, 1),
        options={"time_limit": MILP_TIME_LIMIT_S, "presolve": False},
    )
    elapsed = time.perf_counter() - began
    if res.status != 0:  # 0 is "optimal"; anything else did not finish
        return None, elapsed
    return round(-res.fun), elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit whose engine is pinned")
    args = parser.parse_args()
    bip = import_package()
    entries = []
    defects = []
    for inst in inputs.exact_gnp_corpus():
        g = bip.from_edge_list(inst.n, inst.edges, inst.weights)
        sol, result = bip.solve_exact(g)
        problem = inputs.solution_problem(
            inst, sol.node_set, sol.bipartition.side_a, sol.bipartition.side_b, sol.weight
        )
        milp, milp_s = milp_optimum(inst)
        if problem or not result.optimal or (milp is not None and milp != sol.weight):
            defects.append((inst.name, sol.weight, result.optimal, milp, problem))
        entries.append(
            {
                "name": inst.name,
                "digest": inst.digest(),
                "edges": len(inst.edges),
                "optimum": sol.weight,
                "search_nodes": result.stats.search_nodes,
                "milp": "agrees" if milp is not None else "time limit",
                "milp_s": round(milp_s, 2),
            }
        )
        print(inst.name, sol.weight, milp, f"{milp_s:.2f}s", flush=True)
    if defects:
        for defect in defects:
            print("DEFECT name=%s engine=%s optimal=%s milp=%s check=%s" % defect)
        return 1
    payload = {
        "provenance": {
            "optimum": f"bipartize.solve_exact at commit {args.commit}, no budget",
            "cross_check": "scipy.optimize.milp (HiGHS), keep/side binaries, "
            "two constraints per edge, presolve off; 'agrees' means equal optimum",
            "milp_time_limit_s": MILP_TIME_LIMIT_S,
            "generator": "perfbench/inputs.py gnp_instance(n, p, k)",
        },
        "graphs": entries,
    }
    inputs.POOL_FILE.parent.mkdir(exist_ok=True)
    inputs.POOL_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
