"""Search-effort golden file: the deterministic outcome of a fixed solve set.

Every KONECT stand-in is solved by ``hbvMBB`` on both kernels and by the
``bd1``-``bd4`` ablations on the bits kernel, plus one 4000x4000
power-law graph by ``hbvMBB``.  For each solve the file pins the side
size, ``optimal``, ``terminated_at``, the witness and every deterministic
:class:`~repro.mbb.result.SearchStats` counter.  Wall-clock fields
(``*_seconds``) and the engine-stamped cache/fault fields are left out:
they vary by host or by caller, not by algorithm.

A pruning or search-order regression changes a counter here on any host,
which wall-clock benchmarks cannot show.  ``bd5`` is not pinned: its
degeneracy order is covered by its own determinism test.

Regenerate after an *intended* effort change (and say why in
CHANGES.md)::

    PYTHONPATH=src python tests/effort_golden.py
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, List, Tuple

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_power_law_bipartite
from repro.graph.prepared import PreparedGraph
from repro.mbb.result import MBBResult
from repro.mbb.sparse import hbv_mbb, variant
from repro.workloads.datasets import DATASETS, load_dataset

GOLDEN_PATH = Path(__file__).with_name("data") / "effort_golden.json"

#: ``(variant, kernel)`` pairs solved on every stand-in.
STANDIN_VARIANTS: Tuple[Tuple[str, str], ...] = (
    ("hbvMBB", "bits"),
    ("hbvMBB", "sets"),
    ("bd1", "bits"),
    ("bd2", "bits"),
    ("bd3", "bits"),
    ("bd4", "bits"),
)

#: Stats fields that depend on the host or the calling engine.
EXCLUDED_STATS = frozenset(
    {
        "prepared_cache_hits",
        "prepared_cache_misses",
        "worker_retries",
        "pool_rebuilds",
        "handoff_fallbacks",
    }
)


def power_law_graph() -> BipartiteGraph:
    """The one larger rung: a 4000x4000 Chung-Lu graph, average degree 6."""
    return random_power_law_bipartite(4000, 4000, 6.0, seed=0)


def outcome_record(result: MBBResult) -> Dict[str, object]:
    """The deterministic part of one solve's result."""
    stats = {
        name: value
        for name, value in sorted(asdict(result.stats).items())
        if not name.endswith("_seconds") and name not in EXCLUDED_STATS
    }
    return {
        "side": result.side_size,
        "optimal": result.optimal,
        "terminated_at": result.terminated_at,
        "witness": [
            sorted(repr(u) for u in result.biclique.left),
            sorted(repr(v) for v in result.biclique.right),
        ],
        "stats": stats,
    }


def solve_record(
    prepared: PreparedGraph, name: str, kernel: str
) -> Dict[str, object]:
    """Solve a prepared graph with one Table 3 variant on one kernel."""
    config = replace(variant(name), kernel=kernel)
    return outcome_record(hbv_mbb(prepared.graph, config=config, prepared=prepared))


def compute_records() -> Dict[str, Dict[str, object]]:
    """Every pinned solve, keyed ``"<graph>/<variant>/<kernel>"``."""
    records: Dict[str, Dict[str, object]] = {}
    for dataset in DATASETS:
        # One bundle per graph, shared by its variants the way the engine
        # cache shares it across requests: memoised artifacts must never
        # leak one variant's state into another's counters.
        prepared = PreparedGraph.prepare(load_dataset(dataset))
        for name, kernel in STANDIN_VARIANTS:
            records[f"{dataset}/{name}/{kernel}"] = solve_record(
                prepared, name, kernel
            )
    records["power-law-4000/hbvMBB/bits"] = solve_record(
        PreparedGraph.prepare(power_law_graph()), "hbvMBB", "bits"
    )
    return records


def render(records: Dict[str, Dict[str, object]]) -> str:
    """The golden file's exact text (sorted keys, one trailing newline)."""
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def mismatches(
    expected: Dict[str, Dict[str, object]], actual: Dict[str, Dict[str, object]]
) -> List[str]:
    """One line per case whose record differs, naming the differing fields."""
    lines = []
    for case in sorted(set(expected) | set(actual)):
        want, got = expected.get(case), actual.get(case)
        if want == got:
            continue
        if want is None or got is None:
            lines.append(f"{case}: {'missing' if got is None else 'unexpected'}")
            continue
        fields = [key for key in want if key != "stats" and want[key] != got.get(key)]
        stats_want, stats_got = want["stats"], got["stats"]
        fields.extend(
            f"stats.{key}={stats_got.get(key)} (pinned {stats_want.get(key)})"
            for key in sorted(set(stats_want) | set(stats_got))
            if stats_want.get(key) != stats_got.get(key)
        )
        lines.append(f"{case}: {', '.join(fields)}")
    return lines


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(render(compute_records()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
