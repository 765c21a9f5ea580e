"""The benchmark's workloads and the closed loop that runs them.

Every workload sends its next request (or batch) only after the previous
one returned, from this one process.  Inputs are made from the seed:

* ``sparse-cold`` — one ``MBBEngine.solve`` per Chung-Lu power-law graph,
  each written to its own edge-list file and never repeated; sides cycle
  through :data:`SPARSE_COLD_SIDES`.  The engine has a private
  ``PreparedGraphCache``, so no solve is silently warm.
* ``dense-bnb`` — ``backend="dense"`` requests over the fixed Table-4 style
  instances of :data:`DENSE_INSTANCES`; the seed only shuffles each cycle.
* ``batch-sweep`` — each batch is one ``solve_many`` on a fresh engine over
  :data:`BATCH_GRAPHS` graphs never seen before, four variants per graph.
* ``batch-repeat`` — the same batch over the same fixed graphs every time,
  through one long-lived engine, on any seed.

A *round* is one cycle of the request mix (sequential workloads) or one
batch.  Rounds run until the timed seconds reach the run length, so a run
always holds whole cycles.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import GraphSpec, MBBEngine, SolveRequest
from repro.api.engine import PreparedGraphCache
from repro.graph.generators import random_power_law_bipartite
from repro.workloads.synthetic import DenseCase, dense_case_graph

import measure
import spans

AVG_DEGREE = 6.0

#: Vertices per side of the sparse-cold graphs (about 20K, 25K, 30K edges).
SPARSE_COLD_SIDES: Tuple[int, ...] = (4000, 5000, 6000)

#: ``(side, density, instance)`` of the dense-bnb instances; each solves in
#: well under a second and one cycle takes about 3.5 s.
DENSE_INSTANCES: Tuple[Tuple[int, float, int], ...] = (
    (32, 0.80, 1),
    (32, 0.85, 1),
    (32, 0.90, 0),
    (36, 0.80, 2),
    (36, 0.85, 2),
    (36, 0.90, 1),
    (36, 0.95, 0),
    (40, 0.95, 0),
    (40, 0.95, 2),
)

#: Vertices per side of the batch graphs (about 16K edges) and graphs per batch.
BATCH_SIDE = 3200
BATCH_GRAPHS = 2
BATCH_VARIANTS: Tuple[Tuple[str, str], ...] = (
    ("auto", "bits"),
    ("auto", "sets"),
    ("sparse", "bits"),
    ("sparse", "sets"),
)

#: Fresh interpreters started to time the import set-up.
IMPORT_SETUP_REPEATS = 5
#: Fresh first batches timed for the batch-repeat warm-up set-up.
WARM_SETUP_REPEATS = 3
#: Host probes before each batch (one before each sequential request).
BATCH_PROBES = 3


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def power_law_key(side: int, gen_seed: int) -> str:
    return f"powerlaw:side={side}:deg={AVG_DEGREE:g}:seed={gen_seed}"


def chung_lu_key(side: int, gen_seed: int) -> str:
    return f"chunglu:side={side}:deg={AVG_DEGREE:g}:seed={gen_seed}"


def dense_key(side: int, density: float, instance: int) -> str:
    return f"dense:side={side}:density={density:g}:instance={instance}"


def sparse_cold_graph(seed: int, index: int) -> Tuple[str, int, int]:
    """``(key, side, generator seed)`` of the ``index``-th sparse-cold graph."""
    side = SPARSE_COLD_SIDES[index % len(SPARSE_COLD_SIDES)]
    gen_seed = seed * 1_000_000 + index
    return chung_lu_key(side, gen_seed), side, gen_seed


def batch_graph(seed: int, index: int, *, repeat: bool) -> Tuple[str, int, int]:
    """``(key, side, generator seed)`` of the ``index``-th batch graph.

    The batch-repeat graphs are fixed, like the dense instances: with only
    two graphs in its batch, the solve cost of a seed's own pair would vary
    from seed to seed by about 20%, more than the run-to-run noise.
    """
    if repeat:
        gen_seed = 900_000 + index
    else:
        gen_seed = seed * 1_000_000 + 500_000 + index
    return power_law_key(BATCH_SIDE, gen_seed), BATCH_SIDE, gen_seed


def dense_spec(side: int, density: float, instance: int) -> GraphSpec:
    """Wire spec that materialises exactly ``dense_case_graph``'s instance."""
    gen_seed = hash((side, round(density * 100), 0, instance)) & 0x7FFFFFFF
    return GraphSpec.random(side, side, density, seed=gen_seed)


def write_edge_list(graph, path: Path) -> None:
    """Write ``graph``'s edges, sorted, one ``left right`` pair a line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{u} {v}\n" for u, v in sorted(graph.edges()))


@dataclass
class Item:
    """One request plus what the checks need."""

    key: str  # request key: graph key plus backend and kernel
    graph_key: str
    request: SolveRequest
    graph: object  # the benchmark's own copy (``has_edge``), for witness checks


@dataclass
class Sample:
    key: str
    graph_key: str
    round: int
    traced: bool
    start: float
    latency: float
    ref_loop: float
    backend: str = ""
    side: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    terminated_at: Optional[str] = None
    problem: Optional[str] = None


@dataclass
class Root:
    """One root span: a request (sequential) or a batch."""

    id: int
    round: int
    traced: bool
    start: float
    wall: float
    workers: int
    elapsed_sum: float
    cache_hits: int
    cache_misses: int


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    batch = False
    workers = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def warm_setup(self, clock: measure.HostClock) -> List[Tuple[float, float]]:
        """Timed set-up beyond the import: ``(start, seconds)`` per repetition."""
        return []

    def round_items(self, round_index: int) -> List[Item]:
        raise NotImplementedError

    def engine_for_round(self) -> MBBEngine:
        raise NotImplementedError

    def end_round(self, engine: MBBEngine) -> None:
        """Untimed clean-up after a round."""

    def close(self) -> None:
        MBBEngine().shutdown()


class SparseCold(Workload):
    name = "sparse-cold"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.engine = MBBEngine(prepared_cache=PreparedGraphCache())
        self._next = 0

    def round_items(self, round_index: int) -> List[Item]:
        items = []
        for _ in SPARSE_COLD_SIDES:
            key, side, gen_seed = sparse_cold_graph(self.seed, self._next)
            self._next += 1
            graph = random_power_law_bipartite(side, side, AVG_DEGREE, seed=gen_seed)
            path = self.work_dir / f"graph-{gen_seed}.txt"
            write_edge_list(graph, path)
            request = SolveRequest(graph=GraphSpec.from_path(str(path)), tag=key)
            items.append(Item(f"{key}:auto:bits", key, request, graph))
        return items

    def engine_for_round(self) -> MBBEngine:
        return self.engine

    def end_round(self, engine: MBBEngine) -> None:
        for path in self.work_dir.glob("graph-*.txt"):
            path.unlink()


class DenseBnB(Workload):
    name = "dense-bnb"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.engine = MBBEngine(prepared_cache=PreparedGraphCache())
        self.items = []
        for side, density, instance in DENSE_INSTANCES:
            key = dense_key(side, density, instance)
            spec = dense_spec(side, density, instance)
            graph = dense_case_graph(DenseCase(side, density), instance)
            if spec.materialise() != graph:
                raise RuntimeError(f"{key}: request spec does not rebuild the instance")
            request = SolveRequest(graph=spec, backend="dense", tag=key)
            self.items.append(Item(f"{key}:dense:bits", key, request, graph))
        self.rng = random.Random(seed)

    def round_items(self, round_index: int) -> List[Item]:
        order = list(self.items)
        self.rng.shuffle(order)
        return order

    def engine_for_round(self) -> MBBEngine:
        return self.engine


class BatchWorkload(Workload):
    batch = True
    repeat = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def batch_items(self, first_graph: int) -> List[Item]:
        items = []
        for index in range(first_graph, first_graph + BATCH_GRAPHS):
            key, side, gen_seed = batch_graph(self.seed, index, repeat=self.repeat)
            spec = GraphSpec.power_law(side, side, AVG_DEGREE, seed=gen_seed)
            graph = random_power_law_bipartite(side, side, AVG_DEGREE, seed=gen_seed)
            for backend, kernel in BATCH_VARIANTS:
                request = SolveRequest(
                    graph=spec, backend=backend, kernel=kernel, tag=f"{key}:{backend}:{kernel}"
                )
                items.append(Item(f"{key}:{backend}:{kernel}", key, request, graph))
        return items

    def new_engine(self) -> MBBEngine:
        return MBBEngine(max_workers=self.workers, prepared_cache=PreparedGraphCache())


class BatchSweep(BatchWorkload):
    name = "batch-sweep"

    def round_items(self, round_index: int) -> List[Item]:
        return self.batch_items(round_index * BATCH_GRAPHS)

    def engine_for_round(self) -> MBBEngine:
        return self.new_engine()

    def end_round(self, engine: MBBEngine) -> None:
        # A sweep in a fresh process ends by exiting, which releases its
        # published segments; release them here for the same effect.
        engine.shutdown()


class BatchRepeat(BatchWorkload):
    name = "batch-repeat"
    repeat = True

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.items = self.batch_items(0)
        self.engine: Optional[MBBEngine] = None

    def warm_setup(self, clock: measure.HostClock) -> List[Tuple[float, float]]:
        times = []
        requests = [item.request for item in self.items]
        for _ in range(WARM_SETUP_REPEATS):
            if self.engine is not None:
                self.engine.shutdown()
            self.engine = self.new_engine()
            clock.probe(BATCH_PROBES)
            start = time.perf_counter()
            reports = self.engine.solve_many(requests)
            times.append((start, time.perf_counter() - start))
            bad = [report.request.tag for report in reports if not report.ok]
            if bad:
                raise RuntimeError(f"warm-up batch failed for {bad}")
        return times

    def round_items(self, round_index: int) -> List[Item]:
        return self.items

    def engine_for_round(self) -> MBBEngine:
        assert self.engine is not None
        return self.engine


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (SparseCold, DenseBnB, BatchSweep, BatchRepeat)
}


# ----------------------------------------------------------------------
# set-up timing
# ----------------------------------------------------------------------
_IMPORT_PROBE = "from repro.api import MBBEngine; MBBEngine()"


def import_setup_times(
    src_dir: Path, clock: measure.HostClock, repeats: int = IMPORT_SETUP_REPEATS
) -> List[Tuple[float, float]]:
    """``(start, seconds)`` of fresh interpreters that import the package and
    build an engine: the set-up a new ``repro-mbb`` process pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    times = []
    for _ in range(repeats):
        clock.probe()
        start = time.perf_counter()
        # No timeout: ``wait`` with a timeout polls in steps of up to 50 ms,
        # which would quantise the measurement.
        subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True)
        times.append((start, time.perf_counter() - start))
    return times


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    samples: List[Sample]
    roots: List[Root]
    timed_seconds: float
    tracer: Optional[spans.Tracer]
    #: Peak RSS of the child processes reaped by the end of the loop (pool
    #: workers), read before the run stops its other children.
    children_rss_mb: float


class Checker:
    """Answer checks: witness, optimality, pinned optimum, variant agreement
    and counter determinism."""

    def __init__(self, pinned: Dict[str, int], store: measure.CounterStore) -> None:
        self.pinned = pinned
        self.store = store
        self.pinned_checked = 0
        self.variant_groups_checked = 0

    def check(self, item: Item, report) -> Optional[str]:
        if not report.ok:
            error = report.error
            return f"status {report.status}: {error.kind if error else '?'} {error.message if error else ''}"
        if not report.optimal:
            return "report does not claim optimality"
        problem = measure.validate_witness(item.graph, report.left, report.right)
        if problem:
            return problem
        expected = self.pinned.get(item.graph_key)
        if expected is not None:
            self.pinned_checked += 1
            if report.side_size != expected:
                return f"side {report.side_size} != pinned optimum {expected}"
        return self.store.check(item.key, measure.deterministic_counters(report))

    def check_variants(self, samples: Sequence[Sample]) -> None:
        """Every variant of one graph in a batch must find the same side."""
        sides: Dict[str, set] = {}
        for sample in samples:
            sides.setdefault(sample.graph_key, set()).add(sample.side)
        for sample in samples:
            if len(sides[sample.graph_key]) > 1 and sample.problem is None:
                sample.problem = f"variants disagree on side size {sorted(sides[sample.graph_key])}"
        self.variant_groups_checked += len(sides)


class Loop:
    """Runs whole rounds of a workload and keeps what they measured."""

    def __init__(
        self,
        workload: Workload,
        checker: Checker,
        clock: measure.HostClock,
        tracer: Optional[spans.Tracer],
    ) -> None:
        self.workload = workload
        self.checker = checker
        self.clock = clock
        self.tracer = tracer
        self.samples: List[Sample] = []
        self.roots: List[Root] = []

    def run(self, seconds: float) -> RunResult:
        """Run whole rounds until ``seconds`` of timed requests have elapsed.

        With a tracer, even rounds run with the layer wrappers installed and
        odd rounds without, so the traced run also measures its own overhead.
        """
        timed = 0.0
        round_index = 0
        while timed < seconds or round_index == 0:
            items = self.workload.round_items(round_index)
            engine = self.workload.engine_for_round()
            traced = self.tracer is not None and round_index % 2 == 0
            if traced:
                self.tracer.install()
            try:
                if self.workload.batch:
                    timed += self._batch(engine, items, round_index, traced)
                else:
                    for item in items:
                        timed += self._one(engine, item, round_index, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.workload.end_round(engine)
            round_index += 1
        return RunResult(
            self.samples, self.roots, timed, self.tracer, measure.peak_rss_mb(children=True)
        )

    def _timed(self, traced: bool, call):
        """``(start, seconds, result)`` of ``call()``, under a root span if traced."""
        root_id = len(self.roots)
        start = time.perf_counter()
        if traced:
            with self.tracer.request(root_id):
                result = call()
        else:
            result = call()
        return start, time.perf_counter() - start, result

    def _sample(self, item, round_index, traced, start, latency, ref, report) -> Sample:
        sample = Sample(
            key=item.key,
            graph_key=item.graph_key,
            round=round_index,
            traced=traced,
            start=start,
            latency=latency,
            ref_loop=ref,
            backend=report.backend,
            side=report.side_size,
            stats=dict(report.stats),
            terminated_at=report.terminated_at,
        )
        sample.problem = self.checker.check(item, report)
        return sample

    def _one(self, engine: MBBEngine, item: Item, round_index: int, traced: bool) -> float:
        ref = self.clock.probe()
        cache = engine.prepared_cache
        hits, misses = cache.hits, cache.misses
        start, latency, report = self._timed(traced, lambda: engine.solve(item.request))
        self.samples.append(self._sample(item, round_index, traced, start, latency, ref, report))
        self.roots.append(
            Root(
                len(self.roots), round_index, traced, start, latency, 1,
                report.elapsed_seconds, cache.hits - hits, cache.misses - misses,
            )
        )
        return latency

    def _batch(self, engine: MBBEngine, items: List[Item], round_index: int, traced: bool) -> float:
        ref = self.clock.probe(BATCH_PROBES)
        cache = engine.prepared_cache
        hits, misses = cache.hits, cache.misses
        workers = self.workload.workers
        requests = [item.request for item in items]
        start, wall, reports = self._timed(
            traced, lambda: engine.solve_many(requests, max_workers=workers)
        )
        batch = [
            self._sample(item, round_index, traced, start, wall, ref, report)
            for item, report in zip(items, reports)
        ]
        self.checker.check_variants(batch)
        self.samples.extend(batch)
        self.roots.append(
            Root(
                len(self.roots), round_index, traced, start, wall, workers,
                sum(report.elapsed_seconds for report in reports),
                cache.hits - hits, cache.misses - misses,
            )
        )
        return wall
