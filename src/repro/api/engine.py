"""The :class:`MBBEngine` service facade: one solve, or a parallel batch.

The engine is the single entry point everything else is a wrapper around:

* :meth:`MBBEngine.solve_graph` — solve an in-memory graph with a named
  backend (what :func:`repro.solve_mbb` delegates to);
* :meth:`MBBEngine.solve` — execute one :class:`~repro.api.request.SolveRequest`
  end to end (materialise the graph, run the backend, build the report);
* :meth:`MBBEngine.solve_many` — execute a batch of requests over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, with results returned
  in request order regardless of completion order.  Requests cross the
  process boundary as their JSON wire form, so every batch run also
  exercises the serialisation path a future network server would use.

Budgets flow through one mechanism: the engine builds a single
:class:`~repro.mbb.context.SearchContext` per request carrying the node
budget, the time budget and an absolute deadline, and hands it to the
backend; solvers abort cooperatively through the context instead of each
plumbing its own budget arguments.

The engine also owns the :class:`PreparedGraphCache`: a bounded LRU of
:class:`~repro.graph.prepared.PreparedGraph` snapshots keyed by graph
content fingerprint.  Backends that declare ``supports_prepared`` (the
sparse framework and ``auto``) receive the cached snapshot, so repeated
``solve()`` calls, ``solve_many`` batches over one graph and
``repro-mbb sweep`` parameter sweeps amortise the whole
CSR + ``N_{<=2}`` + peel pipeline across solves.  Every engine shares
one process-wide cache by default — which is exactly what makes the
amortisation reach the process-pool workers, each of which constructs a
fresh engine per request — and each solve reports its hit/miss and
``prepare_seconds`` through :class:`~repro.mbb.result.SearchStats`.

``solve_many`` extends the amortisation *across* the pool boundary: for
each pool-bound request whose backend consumes snapshots, the engine
prepares the graph once, publishes the bundle into a shared-memory
segment (:meth:`~repro.graph.prepared.PreparedGraph.to_shm`) and ships
the **segment name** with the request instead of letting every worker
re-pickle or re-prepare the graph.  The parent does each graph's work
once per batch: a batch-scoped memo keyed by the request's
:class:`~repro.api.request.GraphSpec` materialises (and, through the
cache's identity fast path, fingerprints) every distinct spec once,
not once per request.  The segment carries the CSR arrays and the
graph but not the two-hop ``N_{<=2}`` arrays, unless the bundle
already memoised them: workers peel the residual left after S1's core
reduction, which they prepare themselves.  Workers attach zero-copy,
re-verify the content fingerprint, and seed their process-local cache,
so each worker pays one attach per graph instead of one preparation
per request.  The engine end owns segment lifecycle through the
module-wide :class:`SharedPreparedExports` registry: segments are
destroyed when their snapshot is evicted from the cache LRU, on
:meth:`MBBEngine.shutdown`, and in an ``atexit`` hook — so a crashed
worker (or a crashed batch) can never leak a named segment, and the
registry is pid-guarded so forked workers can never tear down their
parent's segments.

Batches are **fault-tolerant**: every worker entry point is a fault
boundary (:func:`_guarded_solve`) converting exceptions into
``status="error"`` reports with a structured
:class:`~repro.api.request.SolveError`, worker deaths rebuild the pool
under a bounded :class:`RetryPolicy` (re-submitting only the unfinished
requests — crash suspects one at a time, so blame can never land on an
innocent co-flier — and finishing reproducible crashers as
``worker_crash`` reports, or isolating them in-process on explicit
opt-in), and a per-request
deadline watchdog — whose clock starts when a worker picks the request
up — terminates hung workers and marks their requests ``aborted``.  The
deterministic chaos harness in :mod:`repro.devtools.faults` arms the
injection points compiled into these boundaries, and reprolint RPL009
keeps every pool-submitted callable behind one.
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.registry import SolverBackend, get_backend
from repro.api.request import (
    ERROR_KIND_INJECTED_FAULT,
    ERROR_KIND_INTERNAL,
    ERROR_KIND_INVALID_PARAMETER,
    ERROR_KIND_INVALID_REQUEST,
    ERROR_KIND_RESOURCE,
    ERROR_KIND_TIMEOUT,
    ERROR_KIND_WORKER_CRASH,
    STATUS_ABORTED,
    STATUS_ERROR,
    STATUS_OK,
    GraphSpec,
    SolveError,
    SolveReport,
    SolveRequest,
)
from repro.devtools import faults
from repro.devtools.faults import InjectedFault
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.prepared import PreparedGraph, PreparedGraphShm, graph_fingerprint
from repro.mbb import solver as _solver
from repro.mbb.context import SearchContext
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS
from repro.mbb.result import MBBResult

_KERNELS = (KERNEL_BITS, KERNEL_SETS)

#: How often the batch loop re-polls while some submitted request is
#: still waiting for a worker slot: its watchdog deadline can only be
#: stamped once its future reports ``running()``, and ``wait()`` would
#: otherwise block indefinitely on a deadline-less future.
_WATCHDOG_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """How :meth:`MBBEngine.solve_many` reacts to failing requests.

    ``max_attempts`` bounds *submissions* per request (1 = never retry);
    a request whose submissions are exhausted while it keeps crashing
    the pool is finished as a ``worker_crash`` error report.  Requests
    implicated in a crash are re-submitted one at a time with nothing
    else in flight, so only the actual crasher can repeatedly burn
    attempts — a request that merely shared the pool with it is
    implicated at most once.  Setting
    ``in_process_fallback`` instead re-runs such a poison request — and
    a batch whose pool-rebuild budget ran out — in-process behind the
    same fault boundary; it is opt-in because a request that genuinely
    segfaults or OOMs a worker would then take the parent (and every
    collected report) with it.  ``max_pool_rebuilds`` bounds how many
    times a broken pool is rebuilt before the remainder of the batch
    stops being retried (or, with ``in_process_fallback``, degrades to
    serial in-process execution).  Backoff before the n-th rebuild
    grows exponentially from ``backoff_seconds`` and is capped at
    ``backoff_cap_seconds``.  ``retryable_kinds`` names the
    :data:`~repro.api.request.ERROR_KINDS` worth resubmitting when a
    worker returns an error *report*; it is empty by default because
    worker crashes never produce a report to inspect — they surface as
    ``BrokenProcessPool`` and are always re-submitted up to
    ``max_attempts`` through that path.  ``watchdog_grace_seconds`` is
    added to a request's ``time_budget`` to form its completion
    deadline; the deadline clock starts when a worker actually picks
    the request up, not at submission, so queued requests do not burn
    their budget waiting for a slot.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 1.0
    max_pool_rebuilds: int = 3
    retryable_kinds: Tuple[str, ...] = ()
    watchdog_grace_seconds: float = 5.0
    in_process_fallback: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_pool_rebuilds < 0:
            raise InvalidParameterError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise InvalidParameterError("backoff seconds must be non-negative")
        if self.watchdog_grace_seconds < 0:
            raise InvalidParameterError("watchdog grace must be non-negative")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """No retries, no rebuilds: fail fast into error reports."""
        return cls(max_attempts=1, max_pool_rebuilds=0, retryable_kinds=())

    def backoff_for(self, rebuild: int) -> float:
        """Seconds to back off before the ``rebuild``-th rebuild (1-based)."""
        exponent = max(rebuild - 1, 0)
        return min(self.backoff_seconds * (2**exponent), self.backoff_cap_seconds)


class PreparedGraphCache:
    """Bounded LRU of :class:`PreparedGraph` snapshots keyed by content.

    The key is the graph's :func:`~repro.graph.prepared.graph_fingerprint`
    — content, not object identity, so two materialisations of the same
    request spec (e.g. across ``solve()`` calls or sweep cells) share one
    snapshot.  A fingerprint is a cache key, not a proof: every hit
    re-verifies ``cached.graph == graph`` and a mismatch (a ``repr``
    collision between distinct graphs) is handled as a miss that
    overwrites the colliding entry — a collision can cost a
    re-preparation but never leaks one graph's arrays into another
    graph's solve.

    ``on_evict`` (called with ``(fingerprint, prepared)`` whenever an
    entry leaves the cache, including via :meth:`clear`) is the hook the
    engine uses to tie shared-memory segment lifecycle to the LRU: when
    a snapshot falls out of the cache, its published segment is
    destroyed with it.
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        on_evict: Optional[Callable[[str, PreparedGraph], None]] = None,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.on_evict = on_evict
        self.hits = 0
        self.misses = 0
        #: How often the shared-memory handoff around this cache degraded
        #: to the plain JSON submit path (see ``MBBEngine._shm_handle_for``).
        self.handoff_degradations = 0
        self._entries: "OrderedDict[str, PreparedGraph]" = OrderedDict()

    def get(self, graph: BipartiteGraph) -> Tuple[PreparedGraph, bool]:
        """Return ``(prepared, hit)`` for ``graph``, preparing on a miss.

        An entry built from this very graph object, unmutated since
        (same :attr:`~repro.graph.bipartite.BipartiteGraph.version`), is
        a hit without re-fingerprinting — the common case of a pool
        worker solving its attached bundle's own graph, or a batch
        reusing one materialisation.  Any other graph is looked up by
        content fingerprint.
        """
        for fingerprint, cached in self._entries.items():
            if cached.graph is graph and cached.graph_version == graph.version:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
                return cached, True
        fingerprint = graph_fingerprint(graph)
        cached = self._entries.get(fingerprint)
        if cached is not None and cached.graph == graph:
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return cached, True
        self.misses += 1
        prepared = PreparedGraph.prepare(graph, fingerprint=fingerprint)
        self.seed(fingerprint, prepared)
        return prepared, False

    def seed(self, fingerprint: str, prepared: PreparedGraph) -> None:
        """Insert a snapshot under a known fingerprint, no accounting.

        The pool-worker attach path uses this: the fingerprint was
        verified by ``from_shm`` against the attached content, so
        re-deriving it here would just repeat that work.  Normal lookups
        must go through :meth:`get`.
        """
        self._entries[fingerprint] = prepared
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            evicted_fingerprint, evicted = self._entries.popitem(last=False)
            if self.on_evict is not None:
                self.on_evict(evicted_fingerprint, evicted)

    def clear(self) -> None:
        """Drop every cached snapshot (counters are kept)."""
        while self._entries:
            fingerprint, prepared = self._entries.popitem(last=False)
            if self.on_evict is not None:
                self.on_evict(fingerprint, prepared)

    def stats(self) -> Dict[str, int]:
        """Cumulative counters plus the current size, for observability."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "capacity": self.capacity,
            "handoff_degradations": self.handoff_degradations,
        }

    def __len__(self) -> int:
        return len(self._entries)


class SharedPreparedExports:
    """Owner-side registry of published :class:`PreparedGraph` segments.

    One process-wide instance tracks every segment this process created
    (keyed by content fingerprint, so one graph is published exactly
    once no matter how many batches reference it).  Every removal path —
    LRU eviction from the shared cache, :meth:`release`,
    :meth:`release_all` from :meth:`MBBEngine.shutdown` or the
    ``atexit`` hook — destroys the segment, so named segments cannot
    outlive the process even when a worker or a batch crashes.

    The registry is pid-guarded: a forked pool worker inherits the
    parent's handle table, and acting on it would unlink segments the
    *parent* still serves.  Any operation from a different pid first
    resets the table (dropping the inherited handles without touching
    the segments), making every mutation a no-op on borrowed state.
    The table is also self-bounding: publishing beyond ``capacity``
    destroys the oldest segment (workers already attached keep their
    mappings — POSIX keeps attached memory alive past the unlink — and
    later attach failures fall back to local preparation).
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self._owner_pid = os.getpid()
        self._handles: "OrderedDict[str, PreparedGraphShm]" = OrderedDict()

    def _guard_pid(self) -> None:
        if os.getpid() != self._owner_pid:
            self._owner_pid = os.getpid()
            self._handles = OrderedDict()

    def export(self, prepared: PreparedGraph) -> PreparedGraphShm:
        """Publish ``prepared`` (once per fingerprint) and return its handle."""
        self._guard_pid()
        handle = self._handles.get(prepared.fingerprint)
        if handle is None:
            handle = prepared.to_shm()
            self._handles[handle.fingerprint] = handle
            while len(self._handles) > self.capacity:
                _, oldest = self._handles.popitem(last=False)
                oldest.destroy()
        else:
            self._handles.move_to_end(prepared.fingerprint)
        return handle

    def release(self, fingerprint: str) -> None:
        """Destroy the segment published for ``fingerprint`` (idempotent)."""
        self._guard_pid()
        handle = self._handles.pop(fingerprint, None)
        if handle is not None:
            handle.destroy()

    def release_all(self) -> None:
        """Destroy every segment this process still owns."""
        self._guard_pid()
        while self._handles:
            _, handle = self._handles.popitem(last=False)
            handle.destroy()

    def __len__(self) -> int:
        self._guard_pid()
        return len(self._handles)


#: Process-wide segment registry; see :class:`SharedPreparedExports`.
_PREPARED_EXPORTS = SharedPreparedExports()
atexit.register(_PREPARED_EXPORTS.release_all)


def _release_prepared_export(fingerprint: str, prepared: PreparedGraph) -> None:
    """Cache-eviction hook: a snapshot leaving the LRU takes its segment."""
    _PREPARED_EXPORTS.release(fingerprint)


#: Process-wide default cache shared by every engine that is not given a
#: private one.  Sharing at module level is what lets process-pool
#: workers — which build a fresh ``MBBEngine`` per request — amortise
#: preparation across the requests they each execute.
_SHARED_PREPARED_CACHE = PreparedGraphCache(on_evict=_release_prepared_export)


def _classify_error(exc: BaseException) -> str:
    """Map an exception to its wire-format ``SolveError.kind``."""
    if isinstance(exc, InjectedFault):
        return ERROR_KIND_INJECTED_FAULT
    if isinstance(exc, InvalidParameterError):
        return ERROR_KIND_INVALID_PARAMETER
    if isinstance(exc, (MemoryError, OSError)):
        return ERROR_KIND_RESOURCE
    return ERROR_KIND_INTERNAL


def _error_report(
    request: SolveRequest, exc: BaseException, *, attempts: int = 1
) -> SolveReport:
    """Convert an exception into the error report the wire carries."""
    return SolveReport.from_error(
        request,
        SolveError(
            kind=_classify_error(exc),
            message=f"{type(exc).__name__}: {exc}",
            attempts=attempts,
        ),
    )


def _with_stat_increments(report: SolveReport, **increments: int) -> SolveReport:
    """Return ``report`` with stat counters bumped (reports are frozen)."""
    stats = dict(report.stats)
    for key, delta in increments.items():
        stats[key] = stats.get(key, 0) + delta
    return dataclass_replace(report, stats=stats)


def _guarded_solve(
    request: SolveRequest,
    *,
    graph: Optional[BipartiteGraph] = None,
    engine: Optional["MBBEngine"] = None,
) -> SolveReport:
    """The per-request fault boundary every execution path runs through.

    Any exception a solve raises — including an armed ``raise`` fault —
    becomes a ``status="error"`` report instead of propagating, so one
    failing request can never poison a batch.  The ``worker.hang`` and
    ``worker.solve`` injection points live here, keyed by the request
    tag, which is what makes chaos scenarios land on a chosen request
    independent of pool scheduling.
    """
    try:
        tag = request.tag or ""
        faults.hit("worker.hang", key=tag)
        faults.hit("worker.solve", key=tag)
        return (engine if engine is not None else MBBEngine()).solve(
            request, graph=graph
        )
    except Exception as exc:
        return _error_report(request, exc)


def _invalid_request_report(payload: str, exc: Exception) -> SolveReport:
    """Error report for a payload that does not parse into a request.

    The placeholder request keeps the report wire-complete (a report
    requires a request) while making clear nothing was solved.
    """
    placeholder = SolveRequest(graph=GraphSpec.inline(()), tag="<unparseable>")
    return SolveReport.from_error(
        placeholder,
        SolveError(
            kind=ERROR_KIND_INVALID_REQUEST,
            message=f"{type(exc).__name__}: {exc}",
        ),
    )


def _solve_request_json(payload: str) -> str:
    """Worker-process entry point: JSON request in, JSON report out.

    Module-level so it pickles by reference; the worker reconstructs the
    request from its wire form, which keeps the process-pool path on the
    exact same format a network server would receive.  A fault boundary:
    every failure comes back as an error *report*, never an exception.
    """
    try:
        request = SolveRequest.from_json(payload)
    except Exception as exc:
        return _invalid_request_report(payload, exc).to_json()
    return _guarded_solve(request).to_json()


#: Per-process memo of attached segments, keyed by segment name.  Lives
#: at module level (not on an engine) because pool workers construct a
#: fresh engine per request; bounded like the caches it feeds.
_WORKER_ATTACHMENTS: "OrderedDict[str, PreparedGraph]" = OrderedDict()
_MAX_WORKER_ATTACHMENTS = 8


def _attach_prepared_shm(name: str, fingerprint: str) -> Optional[PreparedGraph]:
    """Attach to a published snapshot segment, memoised per process.

    Module-level by design (and by RPL004 machine check): attach
    callables must pickle by reference into pool workers.  The attach
    re-verifies the stored fingerprint against both the engine's
    expectation and the actual graph content, then seeds the process's
    shared :class:`PreparedGraphCache` so the ensuing solve scores a
    cache hit with ``prepare_seconds`` ≈ one fingerprint computation.
    Returns ``None`` when the segment is gone or fails verification —
    callers fall back to preparing locally.
    """
    prepared = _WORKER_ATTACHMENTS.get(name)
    if prepared is not None and prepared.fingerprint == fingerprint:
        _WORKER_ATTACHMENTS.move_to_end(name)
        return prepared
    try:
        faults.hit("shm.attach", key=name)
        prepared = PreparedGraph.from_shm(name, fingerprint)
    except (InvalidParameterError, OSError, ValueError, InjectedFault):
        # Segment gone (evicted/unlinked between submit and execution),
        # failed format/fingerprint verification, or an injected attach
        # fault: all degrade to the JSON re-prepare path.  Anything else
        # is a real bug and propagates into the worker fault boundary.
        return None
    _WORKER_ATTACHMENTS[name] = prepared
    _WORKER_ATTACHMENTS.move_to_end(name)
    while len(_WORKER_ATTACHMENTS) > _MAX_WORKER_ATTACHMENTS:
        _WORKER_ATTACHMENTS.popitem(last=False)
    _SHARED_PREPARED_CACHE.seed(prepared.fingerprint, prepared)
    return prepared


def _solve_request_shm_json(payload: str, shm_name: str, fingerprint: str) -> str:
    """Worker-process entry point for shared-memory handed-off requests.

    Same wire contract as :func:`_solve_request_json`, plus the attach
    token: the worker attaches the published snapshot instead of
    materialising and re-preparing the request's graph.  If the attach
    fails (segment evicted between submit and execution, corrupted
    content, an injected fault), the request falls back to the plain
    JSON path and counts the degradation as ``handoff_fallbacks`` in its
    report — the handoff is an optimisation, never a correctness
    dependency.  A fault boundary like :func:`_solve_request_json`.
    """
    try:
        request = SolveRequest.from_json(payload)
    except Exception as exc:
        return _invalid_request_report(payload, exc).to_json()
    prepared = _attach_prepared_shm(shm_name, fingerprint)
    if prepared is None:
        report = _guarded_solve(request)
        return _with_stat_increments(report, handoff_fallbacks=1).to_json()
    return _guarded_solve(request, graph=prepared.graph).to_json()


class MBBEngine:
    """Facade dispatching solves to registered backends.

    Parameters
    ----------
    max_workers:
        Default process-pool size for :meth:`solve_many` (defaults to the
        CPU count, capped by the batch size).
    prepared_cache:
        The :class:`PreparedGraphCache` this engine threads through
        backends that declare ``supports_prepared``.  Defaults to one
        process-wide shared cache; pass a private instance to isolate a
        workload (or size the LRU differently).
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        prepared_cache: Optional[PreparedGraphCache] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers
        self.prepared_cache = (
            prepared_cache if prepared_cache is not None else _SHARED_PREPARED_CACHE
        )

    # ------------------------------------------------------------------
    # single solves
    # ------------------------------------------------------------------
    def solve_graph(
        self,
        graph: BipartiteGraph,
        *,
        backend: str = "auto",
        kernel: str = KERNEL_BITS,
        node_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        seed: int = 0,
        **backend_options: object,
    ) -> MBBResult:
        """Solve an in-memory graph with a named backend.

        This is the programmatic fast path used by :func:`repro.solve_mbb`;
        it skips the request/report wire format but runs the exact same
        validation and dispatch.
        """
        result, _, _ = self._dispatch(
            graph,
            backend=backend,
            kernel=kernel,
            node_budget=node_budget,
            time_budget=time_budget,
            seed=seed,
            **backend_options,
        )
        return result

    def solve(
        self, request: SolveRequest, *, graph: Optional[BipartiteGraph] = None
    ) -> SolveReport:
        """Execute one request end to end and return its report.

        ``graph`` lets a caller that already materialised the request's
        graph (e.g. to print its shape) skip a second materialisation; it
        must be the graph the request's spec describes.
        """
        if graph is None:
            graph = request.graph.materialise()
        options: Dict[str, object] = {}
        if request.parallel_s3 is not None:
            options["parallel_s3"] = request.parallel_s3
        result, resolved, kernel = self._dispatch(
            graph,
            backend=request.backend,
            kernel=request.kernel,
            node_budget=request.node_budget,
            time_budget=request.time_budget,
            seed=request.seed,
            **options,
        )
        return SolveReport.from_result(
            request, result, backend=resolved, kernel=kernel, graph=graph
        )

    # ------------------------------------------------------------------
    # batch solves
    # ------------------------------------------------------------------
    def solve_many(
        self,
        requests: Iterable[SolveRequest],
        *,
        max_workers: Optional[int] = None,
        parallel: bool = True,
        share_prepared: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        watchdog_seconds: Optional[float] = None,
    ) -> List[SolveReport]:
        """Execute a batch of requests, in a process pool when possible.

        Results are returned in request order regardless of which worker
        finishes first, so a batch is deterministic given deterministic
        backends.  Each request enforces its own budgets inside its
        worker.  With ``parallel=False`` (or a single-request batch, or a
        platform where process pools are unavailable) the batch runs
        serially in-process and produces the same reports apart from
        timings.

        **Fault tolerance.**  Every request is executed behind a fault
        boundary: a failing solve yields a ``status="error"`` report
        carrying a structured :class:`~repro.api.request.SolveError`
        instead of poisoning the batch.  A worker death
        (``BrokenProcessPool`` — SIGKILL, OOM) costs only the in-flight
        requests: the pool is rebuilt under ``retry_policy`` (defaults
        to :class:`RetryPolicy`'s bounded exponential backoff) and the
        unfinished requests are re-submitted, up to
        ``RetryPolicy.max_attempts`` submissions each; a request that
        keeps crashing the pool — and the whole crash cohort once
        ``RetryPolicy.max_pool_rebuilds`` is exhausted — is finished as
        a ``worker_crash`` error report (or re-run in-process when the
        policy opts into ``in_process_fallback``).  A request whose
        worker produces nothing by its deadline — ``time_budget`` plus
        ``RetryPolicy.watchdog_grace_seconds``, further clamped by
        ``watchdog_seconds`` for the whole batch, with the clock
        starting when a worker actually picks the request up — is
        marked ``status="aborted"`` and its hung worker is terminated.
        A wedged solve therefore cannot hang ``solve_many`` *provided
        it has a deadline*: a request with no ``time_budget`` in a
        batch run without ``watchdog_seconds`` is waited on
        indefinitely.  The accounting lands in each report's stats
        (``worker_retries``, ``pool_rebuilds``, ``handoff_fallbacks``).

        With ``share_prepared`` (the default), each pool-bound request
        whose backend consumes prepared snapshots is prepared **once**
        in this process and published to shared memory; its workers
        receive the segment name and attach zero-copy instead of
        re-pickling or re-preparing the graph per request (visible in
        the reports as ``prepared_cache_hits == 1`` with near-zero
        ``prepare_seconds``).  Published segments stay registered with
        the process-wide :class:`SharedPreparedExports` — bounded by the
        cache LRU and destroyed on eviction, :meth:`shutdown` or process
        exit — so repeated batches over the same graphs keep amortising
        and nothing leaks if a worker dies mid-batch.
        """
        batch: Sequence[SolveRequest] = list(requests)
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise InvalidParameterError(
                f"watchdog_seconds must be positive, got {watchdog_seconds}"
            )
        if not batch:
            return []
        if not parallel or len(batch) == 1:
            return [self._solve_isolated(request) for request in batch]
        workers = max_workers or self.max_workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(batch)))
        pool = self._make_pool(workers)
        if pool is None:
            # Process pools need working semaphores/fork support; fall
            # back to a serial batch on platforms that refuse them.
            return [self._solve_isolated(request) for request in batch]
        return self._run_pool_batch(
            batch,
            pool,
            workers,
            policy=policy,
            share_prepared=share_prepared,
            watchdog_seconds=watchdog_seconds,
        )

    def _run_pool_batch(
        self,
        batch: Sequence[SolveRequest],
        pool: ProcessPoolExecutor,
        workers: int,
        *,
        policy: RetryPolicy,
        share_prepared: bool,
        watchdog_seconds: Optional[float],
    ) -> List[SolveReport]:
        """The deadline-aware collection loop behind :meth:`solve_many`."""
        reports: List[Optional[SolveReport]] = [None] * len(batch)
        attempts = [0] * len(batch)  # submissions (pool or in-process)
        rebuilds_seen = [0] * len(batch)  # crash events each request lived through
        limits: List[Optional[float]] = [None] * len(batch)  # relative budgets
        deadlines: List[Optional[float]] = [None] * len(batch)  # stamped at start
        index_of: Dict[Future, int] = {}
        rebuilds = 0

        #: Requests waiting for a worker slot, as ``(idx, count_attempt)``.
        #: At most ``workers`` futures are ever outstanding (see ``pump``),
        #: so a queued request is held *here* — with no future and no
        #: deadline clock — never inside the executor's call queue, where
        #: its future would be marked running while it merely waits.
        pending: "deque[Tuple[int, bool]]" = deque()

        #: Batch-scoped memo of materialised graphs (see _shm_handle_for).
        graphs: "OrderedDict[GraphSpec, BipartiteGraph]" = OrderedDict()

        def submit(idx: int, *, count_attempt: bool = True) -> None:
            request = batch[idx]
            handle = (
                self._shm_handle_for(request, graphs) if share_prepared else None
            )
            if handle is None:
                future = pool.submit(_solve_request_json, request.to_json())
            else:
                future = pool.submit(
                    _solve_request_shm_json,
                    request.to_json(),
                    handle.name,
                    handle.fingerprint,
                )
            if count_attempt:
                attempts[idx] += 1
            index_of[future] = idx
            limit = None
            if request.time_budget is not None:
                limit = request.time_budget + policy.watchdog_grace_seconds
            if watchdog_seconds is not None:
                limit = (
                    watchdog_seconds if limit is None else min(limit, watchdog_seconds)
                )
            limits[idx] = limit
            # The deadline is *not* stamped here: the clock starts when a
            # worker actually picks the request up (see stamp_deadlines),
            # so a queued request cannot be declared overdue — and its
            # batch falsely aborted — just for waiting out earlier waves.
            deadlines[idx] = None

        def pump() -> None:
            """Feed pending requests to the pool, one per free worker slot.

            A crash *suspect* — a request that already lived through a
            pool crash and has not finished — is only ever submitted
            alone, with nothing else in flight: a further crash then
            implicates exactly that request, so poison attribution can
            never burn an innocent co-flier's attempts and declare it a
            crasher.  Quarantine serialises only the post-crash recovery
            wave; a healthy batch pumps at full width.
            """
            if any(rebuilds_seen[idx] for idx in index_of.values()):
                return  # a suspect is in flight alone; let it finish
            while pending and len(index_of) < workers:
                idx, count_attempt = pending[0]
                if rebuilds_seen[idx] and index_of:
                    return  # quarantine: wait for the pool to drain first
                try:
                    submit(idx, count_attempt=count_attempt)
                except (BrokenProcessPool, RuntimeError):
                    # The pool died (BrokenProcessPool) or was already
                    # terminated (submit-after-shutdown RuntimeError); leave
                    # the queue intact — the loop rebuilds before pumping
                    # again, via the crash path or the empty-pool guard.
                    return
                pending.popleft()
                if rebuilds_seen[idx]:
                    return  # the suspect flies solo

        def drain_pending_in_process() -> None:
            # No pool left to run them.  Pending requests were never in
            # flight during a crash, so serial in-process execution is as
            # safe for them as the documented ``parallel=False`` path.
            while pending:
                idx, _ = pending.popleft()
                solve_in_process(idx)

        def stamp_deadlines() -> None:
            now = time.perf_counter()
            for future, idx in index_of.items():
                if (
                    deadlines[idx] is None
                    and limits[idx] is not None
                    and future.running()
                ):
                    deadlines[idx] = now + limits[idx]

        def solve_in_process(idx: int) -> None:
            attempts[idx] += 1
            finish(idx, self._solve_isolated(batch[idx], attempts=attempts[idx]))

        def finish_crashed(idx: int, why: str) -> None:
            finish(
                idx,
                SolveReport.from_error(
                    batch[idx],
                    SolveError(
                        kind=ERROR_KIND_WORKER_CRASH,
                        message=f"worker process died executing this request ({why})",
                        attempts=attempts[idx],
                    ),
                ),
            )

        def finish(idx: int, report: SolveReport) -> None:
            if report.error is not None and report.error.attempts != attempts[idx]:
                report = dataclass_replace(
                    report,
                    error=dataclass_replace(report.error, attempts=attempts[idx]),
                )
            increments = {}
            if attempts[idx] > 1:
                increments["worker_retries"] = attempts[idx] - 1
            if rebuilds_seen[idx]:
                increments["pool_rebuilds"] = rebuilds_seen[idx]
            if increments:
                report = _with_stat_increments(report, **increments)
            reports[idx] = report

        def next_timeout() -> Optional[float]:
            stamped = [
                deadlines[idx]
                for idx in index_of.values()
                if deadlines[idx] is not None
            ]
            timeout = None
            if stamped:
                timeout = max(0.0, min(stamped) - time.perf_counter())
            if any(
                deadlines[idx] is None and limits[idx] is not None
                for idx in index_of.values()
            ):
                # Some budgeted request has not been stamped yet: poll so
                # its deadline starts promptly once a worker picks it up.
                timeout = (
                    _WATCHDOG_POLL_SECONDS
                    if timeout is None
                    else min(timeout, _WATCHDOG_POLL_SECONDS)
                )
            return timeout

        try:
            pending.extend((idx, True) for idx in range(len(batch)))
            while index_of or pending:
                pump()
                if not index_of:
                    # The pool refused every submission (it broke before
                    # accepting work): rebuild it or finish the remainder.
                    self._terminate_pool(pool)
                    rebuilds += 1
                    rebuilt = (
                        self._make_pool(workers)
                        if rebuilds <= policy.max_pool_rebuilds
                        else None
                    )
                    if rebuilt is None:
                        drain_pending_in_process()
                    else:
                        pool = rebuilt
                    continue
                stamp_deadlines()
                done, _ = wait(
                    frozenset(index_of),
                    timeout=next_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                crashed: List[int] = []
                for future in done:
                    idx = index_of.pop(future)
                    failure = future.exception()
                    if failure is None:
                        report = SolveReport.from_json(future.result())
                        if (
                            report.status == STATUS_ERROR
                            and report.error is not None
                            and report.error.kind in policy.retryable_kinds
                            and attempts[idx] < policy.max_attempts
                        ):
                            pending.append((idx, True))
                        else:
                            finish(idx, report)
                    elif isinstance(failure, BrokenProcessPool):
                        crashed.append(idx)
                    else:
                        # The worker boundary should make this unreachable
                        # (cancellation, pickling failures); keep the batch
                        # alive regardless.
                        finish(
                            idx,
                            _error_report(batch[idx], failure, attempts=attempts[idx]),
                        )
                if crashed:
                    # A dead worker breaks the whole executor: every future
                    # not already done is lost with it.
                    for future in list(index_of):
                        crashed.append(index_of.pop(future))
                    crashed.sort()
                    self._terminate_pool(pool)
                    for idx in crashed:
                        rebuilds_seen[idx] += 1
                    retry = [
                        idx for idx in crashed if attempts[idx] < policy.max_attempts
                    ]
                    isolate = [
                        idx for idx in crashed if attempts[idx] >= policy.max_attempts
                    ]
                    if retry:
                        rebuilds += 1
                        if rebuilds > policy.max_pool_rebuilds:
                            # Rebuild budget exhausted: finish the crash
                            # cohort without a pool — in-process only on
                            # explicit opt-in, because one of these requests
                            # is likely the crasher and a genuine
                            # segfault/OOM would take the parent (and every
                            # collected report) with it.  Queued requests
                            # were never implicated; run them serially.
                            for idx in crashed:
                                if policy.in_process_fallback:
                                    solve_in_process(idx)
                                else:
                                    finish_crashed(
                                        idx, "pool rebuild budget exhausted"
                                    )
                            drain_pending_in_process()
                            continue
                        time.sleep(policy.backoff_for(rebuilds))
                        rebuilt = self._make_pool(workers)
                        if rebuilt is None:
                            for idx in crashed:
                                if policy.in_process_fallback:
                                    solve_in_process(idx)
                                else:
                                    finish_crashed(idx, "pool rebuild refused")
                            drain_pending_in_process()
                            continue
                        pool = rebuilt
                        pending.extendleft((idx, True) for idx in reversed(retry))
                    # Poison isolation: a request out of pool submissions is
                    # finished as a worker_crash error report — or, on
                    # explicit opt-in, gets one final in-process run through
                    # the same fault boundary (worker-scoped injected faults
                    # are inert there; real crashers are not).
                    for idx in isolate:
                        if policy.in_process_fallback:
                            solve_in_process(idx)
                        else:
                            finish_crashed(idx, "pool submissions exhausted")
                    continue
                # Watchdog: requests overdue past their *started* deadline
                # (stamped only once their future was running) are aborted
                # and their (presumed hung) workers reclaimed by terminating
                # the pool — a running task cannot be cancelled.
                now = time.perf_counter()
                overdue = [
                    (future, idx)
                    for future, idx in index_of.items()
                    if deadlines[idx] is not None
                    and now > deadlines[idx]
                    and not future.done()
                ]
                if overdue:
                    hung: List[int] = []
                    requeue: List[int] = []
                    for future, idx in overdue:
                        index_of.pop(future)
                        if future.cancel():
                            # The future never actually ran (its deadline
                            # was stamped while it sat prefetched in the
                            # call queue): nothing to abort — requeue it.
                            requeue.append(idx)
                            continue
                        hung.append(idx)
                        finish(
                            idx,
                            SolveReport.from_error(
                                batch[idx],
                                SolveError(
                                    kind=ERROR_KIND_TIMEOUT,
                                    message=(
                                        "watchdog: worker produced no report "
                                        "before the request deadline"
                                    ),
                                    attempts=attempts[idx],
                                ),
                                status=STATUS_ABORTED,
                            ),
                        )
                    if not hung:
                        # Nothing actually hung — the pool is healthy.
                        pending.extendleft(
                            (idx, False) for idx in sorted(requeue, reverse=True)
                        )
                        continue
                    self._terminate_pool(pool)
                    survivors = sorted(set(index_of.values()) | set(requeue))
                    index_of.clear()
                    if survivors:
                        # Innocent bystanders of the termination: their
                        # resubmission neither burns an attempt nor accrues
                        # retry/rebuild stats in their reports — the
                        # batch-level rebuild budget still bounds the loop.
                        rebuilds += 1
                        rebuilt = (
                            self._make_pool(workers)
                            if rebuilds <= policy.max_pool_rebuilds
                            else None
                        )
                        if rebuilt is None:
                            for idx in survivors:
                                solve_in_process(idx)
                            drain_pending_in_process()
                        else:
                            pool = rebuilt
                            pending.extendleft(
                                (idx, False) for idx in reversed(survivors)
                            )
        finally:
            # Abort path: never leave submitted work running behind a
            # raised exception — cancel what has not started and drop the
            # queue without blocking on in-flight solves.
            if index_of:
                for future in list(index_of):
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        for idx, report in enumerate(reports):
            if report is None:  # pragma: no cover - loop invariant backstop
                reports[idx] = SolveReport.from_error(
                    batch[idx],
                    SolveError(
                        kind=ERROR_KIND_INTERNAL,
                        message="batch loop lost this request",
                        attempts=attempts[idx],
                    ),
                )
        return [report for report in reports if report is not None]

    def _solve_isolated(self, request: SolveRequest, *, attempts: int = 1) -> SolveReport:
        """In-process execution behind the same fault boundary as workers."""
        report = _guarded_solve(request, engine=self)
        if report.error is not None and report.error.attempts != attempts:
            report = dataclass_replace(
                report, error=dataclass_replace(report.error, attempts=attempts)
            )
        return report

    @staticmethod
    def _make_pool(workers: int) -> Optional[ProcessPoolExecutor]:
        """Build a process pool, or ``None`` where the platform refuses."""
        try:
            return ProcessPoolExecutor(max_workers=workers)
        except (OSError, PermissionError):
            return None

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool: kill its workers and drop queued work.

        ``Future.cancel`` cannot reclaim a *running* task and a hung or
        poisoned worker never returns, so the only way to get the slot
        back is to terminate the worker processes.  ``_processes`` is
        stdlib-private, hence the guarded access: when it is missing the
        shutdown below still prevents new work, we just cannot reclaim
        the stuck process early.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):
                continue
        pool.shutdown(wait=False, cancel_futures=True)

    def _shm_handle_for(
        self,
        request: SolveRequest,
        graphs: Optional["OrderedDict[GraphSpec, BipartiteGraph]"] = None,
    ) -> Optional[PreparedGraphShm]:
        """Publish the request's prepared graph, or ``None`` to ship JSON.

        Sharing only applies when the backend actually consumes prepared
        snapshots (and ``auto`` would not resolve to the dense solver,
        which ignores them).  ``graphs`` is the batch's memo of
        materialised specs (:meth:`_materialise_for_batch`): with it,
        every distinct spec is materialised once per batch, and the
        cache lookup of a repeated spec is an identity hit instead of a
        re-fingerprint.  The fault point and the export-registry lookup
        still run per request, so a fault lands on exactly the request
        it is keyed to, and a segment evicted mid-batch is re-published
        rather than reused.  Expected failures degrade to the plain
        JSON path — an unknown backend or a spec that does not
        materialise makes the worker produce the canonical error report,
        and shm-filesystem pressure (``OSError``/``MemoryError``) just
        costs a re-preparation — but each degradation is counted in
        :meth:`PreparedGraphCache.stats`, and an *unexpected* exception
        kind additionally emits a ``RuntimeWarning`` instead of being
        swallowed: the handoff never changes what a batch computes, yet
        a systematic failure must not stay silent.
        """
        try:
            solver = get_backend(request.backend)
        except InvalidParameterError:
            # Unknown backend: the worker raises the canonical error.
            return None
        if not solver.info.supports_prepared:
            return None
        try:
            faults.hit("shm.export", key=request.tag or "")
            graph = self._materialise_for_batch(request.graph, graphs)
            resolved = request.backend
            if resolved == "auto":
                from repro.api.backends import resolve_auto

                resolved = resolve_auto(graph)
            if resolved == "dense":
                return None
            prepared, _ = self.prepared_cache.get(graph)
            return _PREPARED_EXPORTS.export(prepared)
        except (InvalidParameterError, InjectedFault):
            # The spec does not materialise (the worker will report the
            # canonical error) or an injected export fault.
            self.prepared_cache.handoff_degradations += 1
            return None
        except (OSError, MemoryError):
            # Shared-memory pressure (full /dev/shm, fd limits): the
            # sanctioned degradation — workers re-prepare from JSON.
            self.prepared_cache.handoff_degradations += 1
            return None
        except Exception as exc:
            self.prepared_cache.handoff_degradations += 1
            warnings.warn(
                f"shared-memory handoff degraded to the JSON path on an "
                f"unexpected {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def _materialise_for_batch(
        self,
        spec: GraphSpec,
        graphs: Optional["OrderedDict[GraphSpec, BipartiteGraph]"],
    ) -> BipartiteGraph:
        """``spec.materialise()``, memoised in a batch's ``graphs`` memo.

        The memo is an LRU capped at the prepared cache's capacity, so a
        long sweep over many graphs holds no more graphs than the cache
        does.  Failures are not memoised: each request naming a spec
        that does not materialise raises (and degrades) on its own.
        """
        if graphs is None:
            return spec.materialise()
        graph = graphs.get(spec)
        if graph is None:
            graph = spec.materialise()
            graphs[spec] = graph
            while len(graphs) > self.prepared_cache.capacity:
                graphs.popitem(last=False)
        else:
            graphs.move_to_end(spec)
        return graph

    def shutdown(self) -> None:
        """Destroy every shared-memory segment this process published.

        Cached :class:`PreparedGraph` bundles stay usable — they own
        their buffers; only the published segments (the cross-process
        transport) are torn down, along with the parallel-S3 worker pool
        (whose workers hold attachments to those segments).  Safe to
        call repeatedly and from any engine instance: the export
        registry is process-wide, exactly like the segments themselves.
        Also runs at interpreter exit via ``atexit``, so an un-shut-down
        engine still cannot leak segments past the process.
        """
        from repro.api import parallel

        parallel.shutdown()
        _PREPARED_EXPORTS.release_all()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        graph: BipartiteGraph,
        *,
        backend: str,
        kernel: str,
        node_budget: Optional[int],
        time_budget: Optional[float],
        seed: int,
        **backend_options: object,
    ) -> Tuple[MBBResult, str, str]:
        """Validate, build the shared context, run the backend."""
        solver = get_backend(backend)
        self._validate(solver, kernel, node_budget, time_budget)
        if (
            backend_options.get("parallel_s3") is not None
            and not solver.info.supports_prepared
        ):
            # Parallel S3 is a property of the sparse framework's
            # verification stage; only snapshot-consuming backends
            # (sparse, auto) have one to parallelise.
            raise InvalidParameterError(
                f"backend {solver.info.name!r} does not support parallel_s3"
            )
        # The time budget is expressed solely as an absolute deadline so
        # enter_node pays one clock read per search node, and so the
        # cutoff survives the context being handed across solver stages.
        context = SearchContext(node_budget=node_budget)
        if time_budget is not None:
            context.deadline = time.perf_counter() + time_budget
        resolved = backend
        if backend == "auto":
            from repro.api.backends import resolve_auto

            resolved = resolve_auto(graph)
        if (
            solver.info.supports_prepared
            and "prepared" not in backend_options
            # ``auto`` resolving to the dense solver would drop the
            # snapshot unused — don't pollute the cache for it.
            and resolved != "dense"
        ):
            prepare_start = time.perf_counter()
            prepared, hit = self.prepared_cache.get(graph)
            context.stats.prepare_seconds += time.perf_counter() - prepare_start
            if hit:
                context.stats.prepared_cache_hits += 1
            else:
                context.stats.prepared_cache_misses += 1
            backend_options["prepared"] = prepared
        result = solver.run(graph, context, kernel=kernel, seed=seed, **backend_options)
        return result, resolved, kernel

    @staticmethod
    def _validate(
        solver: SolverBackend,
        kernel: str,
        node_budget: Optional[int],
        time_budget: Optional[float],
    ) -> None:
        if kernel not in _KERNELS:
            raise InvalidParameterError(
                f"unknown kernel {kernel!r}; expected one of {_KERNELS}"
            )
        info = solver.info
        if info.kernels and kernel not in info.kernels:
            raise InvalidParameterError(
                f"backend {info.name!r} supports kernels {info.kernels}, got {kernel!r}"
            )
        if not info.supports_budgets and (
            node_budget is not None or time_budget is not None
        ):
            raise InvalidParameterError(
                f"backend {info.name!r} does not support node/time budgets"
            )
        if node_budget is not None and node_budget < 0:
            raise InvalidParameterError(
                f"node_budget must be non-negative, got {node_budget}"
            )
        if time_budget is not None and time_budget < 0:
            raise InvalidParameterError(
                f"time_budget must be non-negative, got {time_budget}"
            )


def _solve_graph_with_default_engine(
    graph: BipartiteGraph, **options: object
) -> MBBResult:
    """Module-level engine entry point for :func:`repro.mbb.solver.solve_mbb`.

    A fresh :class:`MBBEngine` per call is cheap — the expensive state
    (the prepared-graph cache) is process-wide and shared by default.
    Module-level (not a lambda/closure) so the reference stays picklable
    if it ever crosses a pool boundary (RPL004 discipline).
    """
    return MBBEngine().solve_graph(graph, **options)


# Dependency inversion for the layering contract (RPL007): the kernel
# layer's solve_mbb must not import this service module, so the engine
# installs itself into the solver's registration hook at import time.
_solver.register_engine(_solve_graph_with_default_engine)
