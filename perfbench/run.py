"""End-to-end benchmark of the maximum balanced biclique solver.

Run from the repository root::

    python3 perfbench/run.py --workload sparse-cold --seed 0 --seconds 20 --trace 0

One process runs one workload (see ``workloads.py``), checks every answer
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the layer spans of ``spans.py``
on every other round and reports the per-layer metrics instead.  Each run
also writes its samples (and, traced, its span tree) to
``.perfbench-out/`` at the repository root.  The exit code is 0 only when
every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import measure
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
PINNED = BENCH_DIR / "pinned.json"

#: Per-layer span names and the metric each one's self time feeds.
SPAN_METRICS = {
    "graph.load": "graph.load_s",
    "graph.fingerprint": "graph.fingerprint_s",
    "graph.prepare": "graph.prepare_s",
    "graph.n_le2": "graph.n_le2_s",
    "cores.order": "cores.order_s",
    "s1.h_mbb": "s1.h_mbb_s",
    "s1.degree_heuristic": "s1.degree_heuristic_s",
    "s1.degeneracy": "s1.degeneracy_s",
    "s1.core_reduce": "s1.core_reduce_s",
    "s1.core_heuristic": "s1.core_heuristic_s",
    "s2.bridge": "s2.bridge_s",
    "s3.verify": "s3.verify_s",
    "dense.kernel": "dense.kernel_s",
    "api.export": "api.export_s",
    "api.request": "api.request_self_s",
}

#: A traced request's summed self times may differ from its latency, timed
#: outside the root span, by this much plus this share of the latency: the
#: root span opens and closes a few microseconds inside the timed interval.
SELF_SUM_TOLERANCE_S = 0.001
SELF_SUM_TOLERANCE_SHARE = 0.01


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def tail_series(workload, result, adjust) -> Tuple[str, List[float]]:
    """``(name, values)`` the tail percentile is taken over: one value per
    distinct measurement, so "10 samples beyond" means 10 measurements.

    On batch workloads every request of a batch shares the batch's wall
    time, so the series is the batch walls; otherwise the request latencies.
    """
    if workload.batch:
        return "batch walls", [adjust(root.start, root.wall) for root in result.roots]
    return "request latencies", [adjust(s.start, s.latency) for s in result.samples]


def end_to_end_metrics(workload, result, setup, adjust) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics, with every duration passed through ``adjust``."""
    samples = result.samples
    latencies = [adjust(s.start, s.latency) for s in samples]
    _, tail = measure.tail_percentile(tail_series(workload, result, adjust)[1])
    if workload.batch:
        round_walls = [adjust(root.start, root.wall) for root in result.roots]
        timed = sum(round_walls)
        worker_rss = result.children_rss_mb
    else:
        # On sequential workloads a "batch" is one cycle of the request
        # mix, and the solving process is this one.
        by_round: Dict[int, float] = {}
        for sample, latency in zip(samples, latencies):
            by_round[sample.round] = by_round.get(sample.round, 0.0) + latency
        round_walls = list(by_round.values())
        timed = sum(latencies)
        worker_rss = measure.peak_rss_mb()
    setup_s = sum(measure.median([adjust(t, d) for t, d in part]) for part in setup if part)
    ok = sum(1 for sample in samples if sample.problem is None)
    return {
        "setup_s": _metric(setup_s, "s"),
        "solve_p50_s": _metric(measure.median(latencies), "s"),
        "solve_tail_s": _metric(tail, "s"),
        "batch_p50_s": _metric(measure.median(round_walls), "s"),
        "solves_per_s": _metric(ok / timed, "1/s"),
        "peak_rss_mb": _metric(measure.peak_rss_mb(), "MB"),
        "worker_rss_mb": _metric(worker_rss, "MB"),
        "ok_frac": _metric(ok / len(samples), "ratio"),
    }


def per_layer_metrics(result, clock) -> Dict[str, Dict[str, object]]:
    tracer = result.tracer
    traced_roots = [root for root in result.roots if root.traced]
    breakdown = spans.request_breakdown(tracer.spans)
    # A root's self times are scaled like the root's own wall time.
    scale = {
        root.id: clock.adjust(root.start, root.wall) / root.wall for root in traced_roots
    }
    metrics: Dict[str, Dict[str, object]] = {}
    for span_name, metric in SPAN_METRICS.items():
        total = sum(
            scale[root.id] * breakdown.get(root.id, {}).get(span_name, 0.0)
            for root in traced_roots
        )
        metrics[metric] = _metric(total / len(traced_roots), "s")

    samples = result.samples
    sparse = [s for s in samples if s.backend != "dense"]
    dense = [s for s in samples if s.backend == "dense"]

    def mean_stat(group, key):
        return sum(s.stats.get(key, 0) for s in group) / len(group) if group else 0.0

    generated = sum(s.stats.get("subgraphs_generated", 0) for s in sparse)
    pruned = sum(s.stats.get("subgraphs_pruned", 0) for s in sparse)
    metrics.update(
        {
            "s1.exit_share": _metric(
                sum(1 for s in sparse if s.terminated_at == "S1") / len(sparse) if sparse else 0.0,
                "ratio",
            ),
            "s1.reductions_removed": _metric(mean_stat(sparse, "reductions_removed"), "count"),
            "s2.subgraphs_generated": _metric(mean_stat(sparse, "subgraphs_generated"), "count"),
            "s2.subgraphs_pruned": _metric(mean_stat(sparse, "subgraphs_pruned"), "count"),
            "s2.prune_ratio": _metric(pruned / generated if generated else 0.0, "ratio"),
            "s3.subgraphs_searched": _metric(mean_stat(sparse, "subgraphs_searched"), "count"),
            "s3.nodes": _metric(mean_stat(sparse, "nodes"), "count"),
            "dense.nodes": _metric(mean_stat(dense, "nodes"), "count"),
            "dense.bound_prunes": _metric(mean_stat(dense, "bound_prunes"), "count"),
            "dense.polynomial_cases": _metric(mean_stat(dense, "polynomial_cases"), "count"),
        }
    )

    exports = [tracer.counters.get(root.id, {}) for root in traced_roots]
    hits = sum(root.cache_hits for root in result.roots)
    misses = sum(root.cache_misses for root in result.roots)
    busy = sum(root.elapsed_sum for root in result.roots)
    capacity = sum(root.wall * root.workers for root in result.roots)
    traced_latency = [clock.adjust(s.start, s.latency) for s in samples if s.traced]
    plain_latency = [clock.adjust(s.start, s.latency) for s in samples if not s.traced]
    metrics.update(
        {
            "api.exports": _metric(sum(c.get("api.exports", 0) for c in exports) / len(traced_roots), "count"),
            "api.export_bytes": _metric(
                sum(c.get("api.export_bytes", 0) for c in exports) / len(traced_roots), "B"
            ),
            "api.cache_hits": _metric(hits / len(result.roots), "count"),
            "api.cache_misses": _metric(misses / len(result.roots), "count"),
            "api.cache_hit_ratio": _metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "api.worker_util": _metric(busy / capacity, "ratio"),
            "api.worker_retries": _metric(sum(s.stats.get("worker_retries", 0) for s in samples), "count"),
            "api.pool_rebuilds": _metric(sum(s.stats.get("pool_rebuilds", 0) for s in samples), "count"),
            "api.handoff_fallbacks": _metric(sum(s.stats.get("handoff_fallbacks", 0) for s in samples), "count"),
            "host.ref_loop_s": _metric(measure.median(clock.refs), "s"),
            "trace.overhead_s": _metric(
                measure.median(traced_latency) - measure.median(plain_latency) if plain_latency else 0.0,
                "s",
            ),
        }
    )
    return metrics


def trace_document(workload, result) -> Dict[str, object]:
    """Span tree, per-request self times and the checks on them."""
    tracer = result.tracer
    breakdown = spans.request_breakdown(tracer.spans)
    walls = {root.id: root.wall for root in result.roots if root.traced}
    gaps = spans.self_sum_gaps(tracer.spans, walls)
    seen = {span.name for span in tracer.spans}
    where = (
        " (the solves run in the pool workers, which record no spans)"
        if workload.batch
        else " on this workload"
    )
    return {
        "spans": [span.to_dict() for span in tracer.spans],
        "self_times": {str(r): breakdown.get(r, {}) for r in sorted(walls)},
        "request_walls": {str(r): walls[r] for r in sorted(walls)},
        "self_sum_gaps_s": {str(r): gaps[r] for r in sorted(gaps)},
        "self_sum_failures": [
            f"request {r}: self times sum to {walls[r] + gap:.6f} s, measured wall {walls[r]:.6f} s"
            for r, gap in sorted(gaps.items())
            if abs(gap) > SELF_SUM_TOLERANCE_S + SELF_SUM_TOLERANCE_SHARE * walls[r]
        ],
        "nesting_problems": spans.nesting_problems(tracer.spans),
        "not_applicable": {
            metric: f"no call into {name} in the benchmark process" + where
            for name, metric in SPAN_METRICS.items()
            if name not in seen
        },
        "missing_targets": tracer.missing,
    }


def _exit_on_sigterm(signum, frame) -> None:
    """Turn SIGTERM into ``SystemExit`` so the run still stops its children.

    Forked pool workers inherit this handler; in them SIGTERM keeps its
    default effect.
    """
    if os.getpid() != MAIN_PID:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    raise SystemExit(128 + signum)


MAIN_PID = os.getpid()


def main(argv: List[str]) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOAD_CLASSES:
        print(f"error: unknown workload {args.workload!r}; expected one of {list(workloads.WORKLOAD_CLASSES)}", file=sys.stderr)
        return 2
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))["optima"]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    version = measure.source_version(SRC)
    store = measure.CounterStore.for_run(OUT_DIR / "counters", args.workload, args.seed, version)
    checker = workloads.Checker(pinned, store)
    clock = measure.HostClock()
    workload = workloads.WORKLOAD_CLASSES[args.workload](args.seed, work_dir)
    try:
        setup = (workloads.import_setup_times(SRC, clock), workload.warm_setup(clock))
        tracer = spans.Tracer() if args.trace else None
        result = workloads.Loop(workload, checker, clock, tracer).run(args.seconds)
    finally:
        workload.close()
        measure.stop_child_processes()
        shutil.rmtree(work_dir, ignore_errors=True)
    store.save()

    samples = result.samples
    problems = [f"{s.key}: {s.problem}" for s in samples if s.problem]
    raw = end_to_end_metrics(workload, result, setup, lambda start, seconds: seconds)
    document: Dict[str, object] = {"raw_metrics": raw}
    if args.trace:
        metrics = per_layer_metrics(result, clock)
        trace = document["spans"] = trace_document(workload, result)
        problems.extend(trace["self_sum_failures"] + trace["nesting_problems"])
    else:
        metrics = end_to_end_metrics(workload, result, setup, clock.adjust)
    tail_name, tail_values = tail_series(workload, result, lambda start, seconds: seconds)
    tail_pct, _ = measure.tail_percentile(tail_values)
    failed = sum(1 for s in samples if s.problem)
    ref_median = measure.median(clock.refs)
    document.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "program_version": version,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "ref_loop_median_s": ref_median,
                "ref_nominal_s": measure.REF_NOMINAL_S,
            },
            "setup": {"import": setup[0], "warm": setup[1]},
            "timed_seconds": result.timed_seconds,
            "tail": {
                "percentile": tail_pct,
                "series": tail_name,
                "samples": len(tail_values),
                "beyond": len(tail_values) - measure.nearest_rank(sorted(tail_values), tail_pct)[0],
            },
            "checks": {
                "pinned_checked": checker.pinned_checked,
                "variant_groups_checked": checker.variant_groups_checked,
                "counter_keys_compared": store.compared,
                "problems": problems,
            },
            "samples": [
                {
                    "key": s.key,
                    "round": s.round,
                    "traced": s.traced,
                    "latency_s": s.latency,
                    "adjusted_latency_s": clock.adjust(s.start, s.latency),
                    "ref_loop_s": s.ref_loop,
                    "side": s.side,
                    "terminated_at": s.terminated_at,
                    "problem": s.problem,
                }
                for s in samples
            ],
            "metrics": metrics,
        }
    )
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(document, indent=1), encoding="utf-8")

    print(
        f"{args.workload} seed={args.seed}: {len(samples)} requests in {result.timed_seconds:.2f} timed s, "
        f"tail p{tail_pct:g} of {len(tail_values)} {tail_name}, raw p50 {raw['solve_p50_s']['value']:.4f} s, "
        f"ref loop median {ref_median * 1000:.2f} ms, {failed} failed -> {out_file.name}",
        file=sys.stderr,
    )
    for problem in problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    correct = not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
