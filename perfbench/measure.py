"""Measurement and checking helpers shared by the workloads."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail metric may report, lowest first.
TAIL_PERCENTILES: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Iterations of the host reference loop (about 10 ms of pure Python).
REF_LOOP_ITERATIONS = 100_000


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> Tuple[int, float]:
    """``(rank, value)`` of ``percentile`` by the nearest-rank rule (1-based)."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return rank, sorted_values[rank - 1]


def tail_percentile(
    values: Iterable[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest listed percentile with at least
    ``min_beyond`` samples beyond it.

    With fewer samples than any percentile above the median allows, the
    median is returned.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail_percentile needs at least one sample")
    chosen = TAIL_PERCENTILES[0]
    for percentile in TAIL_PERCENTILES:
        rank, _ = nearest_rank(ordered, percentile)
        if len(ordered) - rank >= min_beyond:
            chosen = percentile
    return chosen, nearest_rank(ordered, chosen)[1]


#: Reference-loop time of the nominal host that adjusted times refer to.
REF_NOMINAL_S = 0.010

#: Reference samples taken up to this long before a timed interval starts or
#: after it ends estimate the host's speed during the interval.
HOST_WINDOW_S = 2.0


def ref_loop(iterations: int = REF_LOOP_ITERATIONS) -> float:
    """Seconds a fixed pure-Python loop takes now: a host-speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter() - start


class HostClock:
    """Host-speed probes over a run, and durations adjusted to a nominal host.

    A shared host runs the same pure-Python code up to 1.8x slower for
    minutes at a time, on both CPUs at once, so a wall time says as much
    about the neighbours as about the program.  The clock interleaves the
    reference loop with the timed work and scales each timed interval by
    ``REF_NOMINAL_S`` over the median reference time measured around it:
    the interval's duration on a host whose reference loop takes
    ``REF_NOMINAL_S``.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.refs: List[float] = []

    def probe(self, repeats: int = 1) -> float:
        """Run the reference loop ``repeats`` times; return the last reading."""
        for _ in range(repeats):
            self.times.append(time.perf_counter())
            self.refs.append(ref_loop())
        return self.refs[-1]

    def speed(self, start: float, end: float) -> float:
        """Median reference time in the window around ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - HOST_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + HOST_WINDOW_S)
        if lo == hi:  # no probe near the interval: take the closest one
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            return self.refs[nearest]
        return statistics.median(self.refs[lo:hi])

    def adjust(self, start: float, duration: float) -> float:
        """``duration`` (begun at ``start``) on the nominal host."""
        return duration * REF_NOMINAL_S / self.speed(start, start + duration)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB of this process, or of its largest
    waited-for child process."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


#: Seconds a child process gets to end by itself, then to end after SIGTERM.
CHILD_STOP_TIMEOUT_S = 5.0


def child_pids() -> List[int]:
    """Pids of this process's children, live or not yet reaped (Linux)."""
    pids: List[int] = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in path.read_text().split())
        except (OSError, ValueError):
            continue
    return pids


def _stop_pid(pid: int, timeout: float) -> None:
    """SIGTERM child ``pid``, SIGKILL it after ``timeout`` s, and reap it."""
    try:
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except (ChildProcessError, ProcessLookupError):
        return


def stop_child_processes(timeout: float = CHILD_STOP_TIMEOUT_S) -> None:
    """Stop and reap every process this one started.

    Pool workers are joined (terminated if they do not end), any other
    child is stopped, and last the ``multiprocessing`` resource tracker,
    started by the first shared-memory segment, is stopped and waited for.
    Left alone the tracker outlives this process until it notices its pipe
    closed, so a run would end with a process of its own still running.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    for pid in child_pids():
        if pid != getattr(tracker, "_pid", None):
            _stop_pid(pid, timeout)
    # Closing the tracker's pipe ends it; ``_stop`` does that and waits.
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def validate_witness(graph, left: Sequence, right: Sequence) -> Optional[str]:
    """Why ``(left, right)`` is not a balanced biclique of ``graph``, or None."""
    if len(left) != len(right):
        return f"unbalanced witness: {len(left)} left vs {len(right)} right"
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        return "witness repeats a vertex"
    for u in left:
        for v in right:
            if not graph.has_edge(u, v):
                return f"witness pair ({u!r}, {v!r}) is not an edge"
    return None


#: Report counters that must repeat exactly for the same request.
DETERMINISTIC_STATS: Tuple[str, ...] = (
    "nodes",
    "reductions_removed",
    "reductions_forced",
    "polynomial_cases",
    "bound_prunes",
    "subgraphs_generated",
    "subgraphs_pruned",
    "subgraphs_searched",
    "heuristic_side",
)


def deterministic_counters(report) -> Dict[str, object]:
    counters: Dict[str, object] = {
        key: int(report.stats.get(key, 0)) for key in DETERMINISTIC_STATS
    }
    counters["terminated_at"] = report.terminated_at
    counters["side_size"] = report.side_size
    return counters


def source_version(src_dir: Path) -> str:
    """Content hash of the program under ``src_dir``: every file's path and
    bytes, byte-code caches excluded."""
    digest = hashlib.sha256()
    for path in sorted(src_dir.rglob("*")):
        if path.is_dir() or "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        digest.update(path.relative_to(src_dir).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()[:16]


class CounterStore:
    """Deterministic counters per request key, kept across runs of one
    program version and seed.

    The first time a key is seen its counters are stored; every later
    sighting, in this run or a later run of the same program version and
    seed, must match them exactly.  Counters of another version are never
    compared: a change to the program may change them legitimately.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.entries: Dict[str, Dict[str, object]] = {}
        if path.exists():
            self.entries = json.loads(path.read_text(encoding="utf-8"))
        self.compared = 0

    @classmethod
    def for_run(cls, directory: Path, workload: str, seed: int, version: str) -> "CounterStore":
        """The store of one workload, seed and program version."""
        return cls(directory / f"{workload}-seed{seed}-{version}.json")

    def check(self, key: str, counters: Dict[str, object]) -> Optional[str]:
        stored = self.entries.get(key)
        if stored is None:
            self.entries[key] = counters
            return None
        self.compared += 1
        if stored == counters:
            return None
        diff = {
            name: (stored.get(name), counters.get(name))
            for name in sorted(set(stored) | set(counters))
            if stored.get(name) != counters.get(name)
        }
        return f"{key}: counters differ from an earlier run {diff}"

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(self.entries, sort_keys=True), encoding="utf-8")
        scratch.replace(self.path)
