"""Span tracing from outside the program.

The benchmark records one span around every call into a layer's public
entry point.  It does not edit the program: :meth:`Tracer.install`
replaces each entry point *where its caller looks it up* (for example
``repro.mbb.sparse.h_mbb``, the name ``hbv_mbb`` calls) with a wrapper
that opens a span, and :meth:`Tracer.uninstall` puts the originals back.

Every span records its name, start, end, parent span and the request it
belongs to.  A span's *self time* is its duration minus the durations of
its direct children.  :func:`nesting_problems` checks that the spans nest
strictly, and :func:`self_sum_gaps` compares one request's summed self
times with the request's latency measured outside its root span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


def _export_counts(handle: object) -> Dict[str, float]:
    return {"api.exports": 1, "api.export_bytes": getattr(handle, "nbytes", 0)}


#: Layer entry points: ``(owner, attribute, span name, result counter)``.
#: ``owner`` is a module path, or ``module:Class`` for a method.  The
#: optional counter maps the call's result to counts added to the request.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api.request:GraphSpec", "materialise", "graph.load", None),
    ("repro.api.engine", "graph_fingerprint", "graph.fingerprint", None),
    ("repro.graph.prepared", "graph_fingerprint", "graph.fingerprint", None),
    ("repro.graph.prepared:PreparedGraph", "prepare", "graph.prepare", None),
    ("repro.graph.prepared:PreparedGraph", "for_subgraph", "graph.prepare", None),
    ("repro.cores.two_hop", "n_le2_flat", "graph.n_le2", None),
    ("repro.cores.bicore", "n_le2_flat", "graph.n_le2", None),
    ("repro.graph.prepared:PreparedGraph", "search_order", "cores.order", None),
    ("repro.mbb.sparse", "h_mbb", "s1.h_mbb", None),
    ("repro.mbb.heuristics", "degree_heuristic", "s1.degree_heuristic", None),
    ("repro.mbb.heuristics", "degeneracy", "s1.degeneracy", None),
    ("repro.mbb.heuristics", "core_reduce", "s1.core_reduce", None),
    ("repro.mbb.sparse", "core_reduce", "s1.core_reduce", None),
    ("repro.mbb.heuristics", "core_heuristic", "s1.core_heuristic", None),
    ("repro.mbb.sparse", "bridge_mbb", "s2.bridge", None),
    ("repro.mbb.sparse", "verify_mbb", "s3.verify", None),
    # The dense backend calls ``dense_mbb``, which runs the bitset kernel
    # directly; ``dense_mbb_on_bitgraph`` is only reached from S3.
    ("repro.api.backends", "dense_mbb", "dense.kernel", None),
    ("repro.graph.prepared:PreparedGraph", "to_shm", "api.export", _export_counts),
)

#: Name of the span the benchmark opens around each request or batch.
ROOT_SPAN = "api.request"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span recorder for one benchmark process.

    Spans are recorded only inside a root span opened with
    :meth:`request`, and only in the process that created the tracer:
    forked pool workers inherit the wrappers but record nothing.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[int, Dict[str, float]] = {}
        self.missing: List[str] = []
        self._stack: List[Span] = []
        self._pid = os.getpid()
        self._originals: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str, request: int) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Open the root span of one request (or one batch)."""
        span = self._open(ROOT_SPAN, request_id)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack or os.getpid() != self._pid:
                return fn(*args, **kwargs)
            span = self._open(name, self._stack[0].request)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                bucket = self.counters.setdefault(span.request, {})
                for key, value in count(result).items():
                    bucket[key] = bucket.get(key, 0) + value
            return result

        return traced

    # -- patching -------------------------------------------------------
    def install(self, targets: Sequence[Tuple[str, str, str, Optional[Callable]]] = LAYER_TARGETS) -> None:
        """Wrap every target; a target the program no longer has is listed
        in :attr:`missing` instead of failing the run."""
        for owner_name, attribute, span_name, count in targets:
            try:
                owner = _resolve_owner(owner_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_name}.{attribute}")
                continue
            raw = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
            if raw is None:
                self.missing.append(f"{owner_name}.{attribute}")
                continue
            if isinstance(raw, classmethod):
                wrapped: object = classmethod(self._wrap(span_name, raw.__func__, count))
            else:
                wrapped = self._wrap(span_name, raw, count)
            self._originals.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its direct children's
    (a child whose parent is not among ``spans`` is left out)."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def request_breakdown(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Per request, the summed self time of each span name."""
    own = self_times(spans)
    breakdown: Dict[int, Dict[str, float]] = {}
    for span in spans:
        names = breakdown.setdefault(span.request, {})
        names[span.name] = names.get(span.name, 0.0) + own[span.id]
    return breakdown


def nesting_problems(spans: Sequence[Span], tolerance: float = 1e-9) -> List[str]:
    """Why the spans do not form well-nested trees, one line per fault.

    Every span must end after it starts; a child must belong to its
    parent's request and lie inside its parent's interval; and no span may
    have negative self time, which is how overlapping siblings show.
    """
    by_id = {span.id: span for span in spans}
    problems = []
    for span in spans:
        if span.end < span.start:
            problems.append(f"span {span.id} ({span.name}) ends before it starts")
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.id} ({span.name}) has no parent span {span.parent}")
        elif parent.request != span.request:
            problems.append(f"span {span.id} ({span.name}) is in another request than its parent")
        elif span.start < parent.start - tolerance or span.end > parent.end + tolerance:
            problems.append(f"span {span.id} ({span.name}) lies outside its parent {parent.id} ({parent.name})")
    for span_id, own in self_times(spans).items():
        if own < -tolerance:
            problems.append(f"span {span_id} ({by_id[span_id].name}) has negative self time {own:.3g} s")
    return problems


def self_sum_gaps(spans: Sequence[Span], walls: Dict[int, float]) -> Dict[int, float]:
    """Per request, summed self times minus the request's wall time.

    ``walls`` are the requests' latencies measured independently of the
    spans, around the root span; a request without spans has gap ``-wall``.
    """
    breakdown = request_breakdown(spans)
    return {request: sum(breakdown.get(request, {}).values()) - wall for request, wall in walls.items()}
