"""Recompute ``pinned.json``: the optimum of every default-seed input.

Run from the repository root (takes several minutes)::

    python3 perfbench/pin.py

Each optimum is computed by the two backends of :data:`PIN_BACKENDS`, which
share the least code of the exact solvers that finish on these inputs:
the set-kernel ``dense`` backend runs the whole-graph branch and bound on
adjacency sets, while the bit-kernel ``sparse`` backend runs the S1
heuristics and reductions, the S2 bridging and the bitset S3 kernel.  The
two must agree and both witnesses must be valid, or nothing is written.
(The independent baselines ``extbbclq`` and ``mbe`` do not finish on these
inputs within a minute each.)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.api import MBBEngine  # noqa: E402
from repro.api.engine import PreparedGraphCache  # noqa: E402
from repro.graph.generators import random_power_law_bipartite  # noqa: E402
from repro.workloads.synthetic import DenseCase, dense_case_graph  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402

PIN_BACKENDS = (("dense", "sets"), ("sparse", "bits"))
PIN_SEED = 0
#: Inputs pinned per workload: more than a fast host reaches in one run.
SPARSE_COLD_GRAPHS = 150
BATCH_SWEEP_GRAPHS = 40


def default_seed_graphs():
    """``(key, graph)`` for every input a default-seed run can send."""
    for index in range(SPARSE_COLD_GRAPHS):
        key, side, gen_seed = workloads.sparse_cold_graph(PIN_SEED, index)
        yield key, random_power_law_bipartite(side, side, workloads.AVG_DEGREE, seed=gen_seed)
    for count, repeat in ((BATCH_SWEEP_GRAPHS, False), (workloads.BATCH_GRAPHS, True)):
        for index in range(count):
            key, side, gen_seed = workloads.batch_graph(PIN_SEED, index, repeat=repeat)
            yield key, random_power_law_bipartite(side, side, workloads.AVG_DEGREE, seed=gen_seed)
    for side, density, instance in workloads.DENSE_INSTANCES:
        key = workloads.dense_key(side, density, instance)
        yield key, dense_case_graph(DenseCase(side, density), instance)


def main() -> int:
    optima = {}
    for key, graph in default_seed_graphs():
        sides = []
        for backend, kernel in PIN_BACKENDS:
            engine = MBBEngine(prepared_cache=PreparedGraphCache())
            result = engine.solve_graph(graph, backend=backend, kernel=kernel)
            biclique = result.biclique
            problem = measure.validate_witness(graph, list(biclique.left), list(biclique.right))
            if not result.optimal or problem:
                print(f"{key}: {backend}/{kernel} gave no valid optimum ({problem})", file=sys.stderr)
                return 1
            sides.append(result.side_size)
        if len(set(sides)) != 1:
            print(f"{key}: backends disagree {sides}", file=sys.stderr)
            return 1
        optima[key] = sides[0]
        print(f"{key}: {sides[0]}", flush=True)
    document = {
        "seed": PIN_SEED,
        "backends": [f"{backend}/{kernel}" for backend, kernel in PIN_BACKENDS],
        "optima": optima,
    }
    (BENCH_DIR / "pinned.json").write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
