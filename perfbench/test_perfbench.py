"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import time
import types

import pytest

import measure
import run
import spans


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(1, 50.0), (19, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    percentile, _ = measure.tail_percentile(range(count))
    assert percentile == expected


def test_tail_percentile_value_is_nearest_rank():
    values = list(range(1, 41))  # 40 samples: p75 is rank 30
    assert measure.tail_percentile(reversed(values)) == (75.0, 30)
    beyond = [v for v in values if v > 30]
    assert len(beyond) == 10


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        measure.tail_percentile([])


def test_batch_tail_is_taken_over_distinct_batch_walls():
    roots = [types.SimpleNamespace(start=float(i), wall=1.0 + i) for i in range(30)]
    samples = [types.SimpleNamespace(start=r.start, latency=r.wall) for r in roots for _ in range(8)]
    result = types.SimpleNamespace(roots=roots, samples=samples)
    unadjusted = lambda start, seconds: seconds  # noqa: E731
    name, values = run.tail_series(types.SimpleNamespace(batch=True), result, unadjusted)
    assert name == "batch walls" and values == [r.wall for r in roots]
    # 30 batch walls allow p50 (15 beyond) but not p75 (8 beyond); the
    # 240 per-request copies would have claimed p95.
    assert measure.tail_percentile(values) == (50.0, 15.0)
    assert measure.tail_percentile(s.latency for s in samples)[0] == 95.0
    name, values = run.tail_series(types.SimpleNamespace(batch=False), result, unadjusted)
    assert name == "request latencies" and len(values) == 240


# ----------------------------------------------------------------------
# span self times
# ----------------------------------------------------------------------
def _span(id, name, start, end, parent, request=0):
    return spans.Span(id, name, start, end, parent, request)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, "api.request", 0.0, 10.0, None),
        _span(1, "s1.h_mbb", 1.0, 4.0, 0),
        _span(2, "s2.bridge", 5.0, 9.0, 0),
        _span(3, "graph.prepare", 6.0, 7.0, 2),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert spans.nesting_problems(tree) == []
    # Timed outside the root span, the request took 10.5 s: half a second
    # of it lies in no span.
    assert spans.self_sum_gaps(tree, {0: 10.5}) == pytest.approx({0: -0.5})


def test_self_times_group_by_request():
    tree = [
        _span(0, "api.request", 0.0, 2.0, None, request=0),
        _span(1, "graph.load", 0.5, 1.0, 0, request=0),
        _span(2, "api.request", 3.0, 4.0, None, request=1),
        _span(3, "graph.load", 3.0, 3.25, 2, request=1),
        _span(4, "graph.load", 3.5, 3.75, 2, request=1),
    ]
    breakdown = spans.request_breakdown(tree)
    assert breakdown[0] == pytest.approx({"api.request": 1.5, "graph.load": 0.5})
    assert breakdown[1] == pytest.approx({"api.request": 0.5, "graph.load": 0.5})


def test_tracer_wraps_and_restores_targets(monkeypatch):
    module = types.ModuleType("perfbench_toy_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner = inner
    module.outer = outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = (
        (module.__name__, "outer", "toy.outer", None),
        (module.__name__, "inner", "toy.inner", lambda result: {"toy.calls": 1}),
        (module.__name__, "absent", "toy.absent", None),
    )
    tracer = spans.Tracer()
    tracer.install(targets)
    assert module.outer(1) == 4  # outside a request: nothing recorded
    assert tracer.spans == []
    with tracer.request(7):
        assert module.outer(1) == 4
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    assert tracer.missing == [f"{module.__name__}.absent"]
    names = [(span.name, span.parent, span.request) for span in tracer.spans]
    assert names == [("api.request", None, 7), ("toy.outer", 0, 7), ("toy.inner", 1, 7)]
    assert tracer.counters == {7: {"toy.calls": 1}}
    assert spans.nesting_problems(tracer.spans) == []
    root = tracer.spans[0]
    assert spans.self_sum_gaps(tracer.spans, {7: root.end - root.start}) == pytest.approx({7: 0.0})


def test_self_sum_gap_of_a_request_without_spans_is_its_wall():
    tree = [_span(0, "api.request", 0.0, 1.0, None, request=0)]
    assert spans.self_sum_gaps(tree, {0: 1.0, 1: 2.0}) == pytest.approx({0: 0.0, 1: -2.0})


def test_nesting_rejects_a_child_outside_its_parent():
    tree = [
        _span(0, "api.request", 0.0, 5.0, None),
        _span(1, "s1.h_mbb", 4.0, 6.0, 0),
    ]
    problems = spans.nesting_problems(tree)
    assert any("outside its parent" in problem for problem in problems)


def test_nesting_rejects_overlapping_siblings_as_negative_self_time():
    tree = [
        _span(0, "api.request", 0.0, 5.0, None),
        _span(1, "s1.h_mbb", 0.0, 4.0, 0),
        _span(2, "s2.bridge", 1.0, 5.0, 0),
    ]
    problems = spans.nesting_problems(tree)
    assert problems == ["span 0 (api.request) has negative self time -3 s"]


def test_nesting_rejects_a_child_of_another_request_or_a_missing_parent():
    tree = [
        _span(0, "api.request", 0.0, 5.0, None, request=0),
        _span(1, "graph.load", 1.0, 2.0, 0, request=1),
        _span(2, "graph.load", 1.0, 2.0, 9, request=0),
    ]
    problems = spans.nesting_problems(tree)
    assert len(problems) == 2
    assert "another request" in problems[0] and "no parent" in problems[1]


# ----------------------------------------------------------------------
# witness validation
# ----------------------------------------------------------------------
class _Graph:
    def __init__(self, edges):
        self.edges = set(edges)

    def has_edge(self, u, v):
        return (u, v) in self.edges


def test_witness_validation_accepts_a_biclique():
    graph = _Graph([(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a")])
    assert measure.validate_witness(graph, [0, 1], ["a", "b"]) is None


def test_witness_validation_rejects_a_non_biclique():
    graph = _Graph([(0, "a"), (0, "b"), (1, "a")])
    problem = measure.validate_witness(graph, [0, 1], ["a", "b"])
    assert problem is not None and "(1, 'b')" in problem


def test_witness_validation_rejects_unbalanced_and_repeated():
    graph = _Graph([(0, "a"), (0, "b"), (1, "a"), (1, "b")])
    assert "unbalanced" in measure.validate_witness(graph, [0, 1], ["a"])
    assert "repeats" in measure.validate_witness(graph, [0, 0], ["a", "b"])


# ----------------------------------------------------------------------
# counter determinism
# ----------------------------------------------------------------------
def test_counter_store_flags_a_changed_counter_across_runs(tmp_path):
    path = tmp_path / "counters.json"
    first = measure.CounterStore(path)
    assert first.check("g:auto:bits", {"nodes": 5, "terminated_at": "S3"}) is None
    first.save()
    second = measure.CounterStore(path)
    assert second.check("g:auto:bits", {"nodes": 5, "terminated_at": "S3"}) is None
    problem = second.check("g:auto:bits", {"nodes": 6, "terminated_at": "S3"})
    assert problem is not None and "nodes" in problem
    assert second.compared == 2


def test_counter_store_never_compares_another_program_version(tmp_path):
    old = measure.CounterStore.for_run(tmp_path, "sparse-cold", 3, "aaaa")
    assert old.check("g:auto:bits", {"nodes": 5}) is None
    old.save()
    new = measure.CounterStore.for_run(tmp_path, "sparse-cold", 3, "bbbb")
    assert new.check("g:auto:bits", {"nodes": 6}) is None
    assert new.compared == 0
    same = measure.CounterStore.for_run(tmp_path, "sparse-cold", 3, "aaaa")
    assert "nodes" in same.check("g:auto:bits", {"nodes": 6})


def test_source_version_follows_the_program_sources(tmp_path):
    (tmp_path / "pkg").mkdir()
    module = tmp_path / "pkg" / "mod.py"
    module.write_text("X = 1\n")
    first = measure.source_version(tmp_path)
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"cache")
    assert measure.source_version(tmp_path) == first
    module.write_text("X = 2\n")
    assert measure.source_version(tmp_path) != first


# ----------------------------------------------------------------------
# host-adjusted durations
# ----------------------------------------------------------------------
def test_host_clock_scales_by_the_reference_around_the_interval():
    clock = measure.HostClock()
    clock.times = [0.0, 1.0, 2.0, 10.0]
    clock.refs = [0.02, 0.02, 0.04, 0.005]
    # Probes within HOST_WINDOW_S of [1.0, 1.5]: 0.02, 0.02, 0.04 -> median 0.02.
    assert clock.adjust(1.0, 0.5) == pytest.approx(0.5 * measure.REF_NOMINAL_S / 0.02)
    # No probe in the window around [5.0, 5.1]: the closest one (at 2.0) is used.
    assert clock.speed(5.0, 5.1) == 0.04


def test_host_clock_probe_records_readings():
    clock = measure.HostClock()
    last = clock.probe(2)
    assert len(clock.refs) == len(clock.times) == 2 and last == clock.refs[-1] > 0


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def test_stop_child_processes_leaves_no_child_running():
    import multiprocessing
    import subprocess
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    segment.close()
    segment.unlink()
    worker = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    worker.start()
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert {worker.pid, sleeper.pid, resource_tracker._resource_tracker._pid} <= set(
        measure.child_pids()
    )
    measure.stop_child_processes(timeout=0.5)
    assert measure.child_pids() == []
    assert not worker.is_alive()
