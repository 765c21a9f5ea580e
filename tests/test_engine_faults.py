"""Chaos suite: deterministic fault injection against the pool layer.

Every test here arms a :mod:`repro.devtools.faults` plan — in-process or
through :envvar:`REPRO_FAULTS` for pool workers — and asserts the
engine's fault-tolerance contract: batches complete in request order,
failures are isolated to their request as structured error reports,
crash recovery is bounded and accounted for, and no shared-memory
segment outlives the engine.  Nothing in this file depends on timing
races: faults are keyed on request tags, so the same request fails the
same way every run.
"""

from __future__ import annotations

import os
import time
import warnings

import pytest

from repro.api import (
    STATUS_ABORTED,
    STATUS_ERROR,
    STATUS_OK,
    GraphSpec,
    MBBEngine,
    PreparedGraphCache,
    RetryPolicy,
    SolveRequest,
)
from repro.api.request import (
    ERROR_KIND_INJECTED_FAULT,
    ERROR_KIND_TIMEOUT,
    ERROR_KIND_WORKER_CRASH,
)
from repro.devtools import faults
from repro.devtools.faults import (
    ACTION_CORRUPT,
    ACTION_EXIT,
    ACTION_HANG,
    ACTION_RAISE,
    MAX_HANG_SECONDS,
    SCOPE_WORKER,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.exceptions import InvalidParameterError


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    faults.disarm()


def _shm_entries():
    if not os.path.isdir("/dev/shm"):
        return None
    return set(os.listdir("/dev/shm"))


def _assert_no_new_shm_segments(before, deadline_seconds=5.0):
    """Assert no /dev/shm entry survives beyond ``before`` (with a short
    grace period for the resource tracker's asynchronous unlink)."""
    if before is None:  # pragma: no cover - non-Linux fallback
        return
    deadline = time.monotonic() + deadline_seconds
    while True:
        leaked = _shm_entries() - before
        if not leaked:
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"leaked shared-memory segments: {sorted(leaked)}")
        time.sleep(0.05)


def _requests(count, *, backend="dense", size=7, **kwargs):
    return [
        SolveRequest(
            graph=GraphSpec.random(size, size, 0.5, seed=seed),
            backend=backend,
            tag=f"g{seed}",
            **kwargs,
        )
        for seed in range(count)
    ]


class TestFaultSpecs:
    def test_entry_round_trip(self):
        spec = FaultSpec(
            point="worker.solve",
            action=ACTION_EXIT,
            nth=2,
            times=3,
            match="cell:sparse:g2",  # sweep tags contain ':'
            scope=SCOPE_WORKER,
        )
        assert FaultSpec.from_entry(spec.to_entry()) == spec

    def test_entry_omits_defaults(self):
        assert FaultSpec(point="shm.attach").to_entry() == "point=shm.attach"

    def test_plan_env_round_trip(self):
        plan = FaultPlan.of(
            FaultSpec(point="worker.hang", action=ACTION_HANG, arg=2.5),
            FaultSpec(point="worker.solve", match="g1", scope=SCOPE_WORKER),
        )
        assert FaultPlan.from_env(plan.to_env()) == plan

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"point": ""},
            {"point": "p", "action": "explode"},
            {"point": "p", "scope": "sometimes"},
            {"point": "p", "nth": 0},
            {"point": "p", "times": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            FaultSpec(**kwargs)

    def test_unknown_entry_field_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultSpec.from_entry("point=p,when=now")


class TestHitCounters:
    def test_nth_and_times_select_a_window_of_hits(self):
        faults.arm(FaultSpec(point="p", nth=2, times=2))
        faults.hit("p")  # 1st: below the window
        with pytest.raises(InjectedFault):
            faults.hit("p")  # 2nd
        with pytest.raises(InjectedFault):
            faults.hit("p")  # 3rd
        faults.hit("p")  # 4th: window exhausted

    def test_match_filters_on_hit_key(self):
        faults.arm(FaultSpec(point="p", match="g2"))
        faults.hit("p", key="g0")
        faults.hit("p", key="g1")
        with pytest.raises(InjectedFault):
            faults.hit("p", key="g2")

    def test_counters_are_per_spec(self):
        faults.arm(
            FaultSpec(point="p", match="a", nth=2),
            FaultSpec(point="p", match="b", nth=1),
        )
        faults.hit("p", key="a")  # spec 'a' count 1: no fire
        with pytest.raises(InjectedFault):
            faults.hit("p", key="b")  # spec 'b' fires on its own 1st hit
        with pytest.raises(InjectedFault):
            faults.hit("p", key="a")  # spec 'a' count 2

    def test_worker_scope_is_inert_in_the_parent_process(self):
        faults.arm(FaultSpec(point="p", scope=SCOPE_WORKER))
        faults.hit("p")  # would raise if scope were honoured here

    def test_plan_context_manager_arms_and_disarms(self):
        plan = FaultPlan.of(FaultSpec(point="p"))
        with plan:
            assert faults.armed() == plan.specs
            with pytest.raises(InjectedFault):
                faults.hit("p")
        assert faults.armed() == ()
        faults.hit("p")

    def test_env_armed_specs_fire(self, monkeypatch):
        plan = FaultPlan.of(FaultSpec(point="p", match="k"))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        with pytest.raises(InjectedFault):
            faults.hit("p", key="k")

    def test_hang_sleep_is_capped(self, monkeypatch):
        slept = []
        monkeypatch.setattr(faults.time, "sleep", slept.append)
        faults.arm(FaultSpec(point="p", action=ACTION_HANG, arg=1e9))
        faults.hit("p")
        assert slept == [MAX_HANG_SECONDS]


class TestWorkerFaults:
    def test_injected_raise_isolates_one_request(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_RAISE,
                match="g1",
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(_requests(4))
        finally:
            engine.shutdown()
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        assert [r.status for r in reports] == [
            STATUS_OK,
            STATUS_ERROR,
            STATUS_OK,
            STATUS_OK,
        ]
        failed = reports[1]
        assert failed.error is not None
        assert failed.error.kind == ERROR_KIND_INJECTED_FAULT
        assert failed.error.attempts == 1  # injected faults are not retryable
        _assert_no_new_shm_segments(before)

    def test_worker_death_mid_batch_recovers_deterministically(self, monkeypatch):
        # Acceptance criterion: a worker that dies hard (os._exit, as a
        # SIGKILL/OOM stand-in) on the request tagged g2 costs neither the
        # batch nor the other requests.  The pool is rebuilt up to
        # max_attempts submissions for g2; with in_process_fallback the
        # poison request then gets one in-process run (worker-scoped
        # faults are inert there) and still completes; the accounting is
        # exact because the fault follows the tag, not pool scheduling.
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g2",
                times=3,  # every pool submission of g2 dies
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(
                _requests(4), retry_policy=RetryPolicy(in_process_fallback=True)
            )
        finally:
            engine.shutdown()
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        assert all(r.status == STATUS_OK for r in reports)
        poisoned = reports[2]
        # 3 crashed pool submissions + 1 in-process isolation run.
        assert poisoned.stats["worker_retries"] == 3
        assert poisoned.stats["pool_rebuilds"] == 3
        # The batch agrees with a fault-free serial run.
        serial = MBBEngine().solve_many(_requests(4), parallel=False)
        assert [r.side_size for r in reports] == [r.side_size for r in serial]
        _assert_no_new_shm_segments(before)

    def test_poison_request_errors_without_in_process_fallback(self, monkeypatch):
        # Default policy: a request that crashes every pool submission is
        # finished as a structured worker_crash report — it is NOT re-run
        # in the parent, where a genuine segfault/OOM would take the whole
        # batch (and every collected report) down with it.  With two
        # workers, g3 may be in flight when g2 first kills the pool; the
        # quarantine (crash suspects resubmit alone) guarantees that only
        # g2 can ever exhaust its attempts, so every other status is
        # deterministically ok.
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g2",
                times=3,
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(_requests(4))
        finally:
            engine.shutdown()
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        poisoned = reports[2]
        assert poisoned.status == STATUS_ERROR
        assert poisoned.error is not None
        assert poisoned.error.kind == ERROR_KIND_WORKER_CRASH
        assert poisoned.error.attempts == 3  # max_attempts, all crashed
        assert poisoned.stats["worker_retries"] == 2
        assert poisoned.stats["pool_rebuilds"] == 3
        others = [r for i, r in enumerate(reports) if i != 2]
        assert all(r.status == STATUS_OK for r in others)
        _assert_no_new_shm_segments(before)

    def test_no_retry_policy_fails_fast_with_worker_crash_report(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g1",
                times=3,
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        # One worker: requests run one at a time, so the crash costs
        # exactly the crashing request and the rest of the batch drains
        # deterministically.
        engine = MBBEngine(max_workers=1)
        try:
            reports = engine.solve_many(
                _requests(3), retry_policy=RetryPolicy.none()
            )
        finally:
            engine.shutdown()
        # max_attempts=1, max_pool_rebuilds=0, no in-process fallback: the
        # first crash is final and surfaces as a structured report.
        assert [r.status for r in reports] == [STATUS_OK, STATUS_ERROR, STATUS_OK]
        failed = reports[1]
        assert failed.error is not None
        assert failed.error.kind == ERROR_KIND_WORKER_CRASH
        assert failed.error.attempts == 1

    def test_poison_isolation_opt_in_recovers_on_first_crash(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.solve",
                action=ACTION_EXIT,
                match="g1",
                times=3,
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(
                _requests(3),
                retry_policy=RetryPolicy(
                    max_attempts=1,
                    max_pool_rebuilds=0,
                    in_process_fallback=True,
                ),
            )
        finally:
            engine.shutdown()
        # max_attempts=1 with the opt-in: no pool retry, straight to
        # in-process isolation, where the worker-scoped fault cannot fire
        # — the request recovers.
        assert all(r.status == STATUS_OK for r in reports)
        assert reports[1].stats["worker_retries"] == 1
        assert reports[1].stats["pool_rebuilds"] == 1

    def test_queued_requests_do_not_burn_watchdog_budget(self, monkeypatch):
        # Regression: deadlines used to be stamped at submission time for
        # the whole batch, so with more requests than workers a slow first
        # wave falsely aborted every queued request once its
        # time_budget + grace elapsed — with the clock running while the
        # request was still waiting for a slot.  The deadline clock must
        # start only when a worker actually picks the request up.
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=1.5,
                match="g0",
                scope=SCOPE_WORKER,
            ),
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=1.5,
                match="g1",
                scope=SCOPE_WORKER,
            ),
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        slow = _requests(2)  # g0, g1: no budget, stalled 1.5s by the fault
        fast = [
            SolveRequest(
                graph=GraphSpec.random(7, 7, 0.5, seed=seed),
                backend="dense",
                tag=f"g{seed}",
                time_budget=0.25,
            )
            for seed in (2, 3)
        ]
        engine = MBBEngine(max_workers=2)
        try:
            reports = engine.solve_many(
                slow + fast,
                retry_policy=RetryPolicy(watchdog_grace_seconds=0.25),
            )
        finally:
            engine.shutdown()
        # g2/g3 wait ~1.5s for a worker slot — three times their 0.5s
        # deadline — and must still complete, never be falsely aborted.
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        assert [r.status for r in reports] == [STATUS_OK] * 4

    def test_hung_worker_is_aborted_by_the_watchdog(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(
                point="worker.hang",
                action=ACTION_HANG,
                arg=20.0,
                match="g1",
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(max_workers=2)
        start = time.monotonic()
        try:
            reports = engine.solve_many(_requests(4), watchdog_seconds=2.0)
        finally:
            engine.shutdown()
        elapsed = time.monotonic() - start
        # Acceptance criterion: the batch returns within the watchdog bound
        # (plus pool teardown/rebuild slack), not after the 20s hang.
        assert elapsed < 15.0
        assert [r.request.tag for r in reports] == ["g0", "g1", "g2", "g3"]
        hung = reports[1]
        assert hung.status == STATUS_ABORTED
        assert hung.error is not None and hung.error.kind == ERROR_KIND_TIMEOUT
        others = [r for i, r in enumerate(reports) if i != 1]
        assert all(r.status == STATUS_OK for r in others)
        _assert_no_new_shm_segments(before)


class TestHandoffFaults:
    def _prepared_requests(self, count=3):
        # One power-law graph shared by the batch: the sparse backend
        # consumes PreparedGraph, so the shm handoff is in play.
        spec = GraphSpec.power_law(24, 24, 3.0, seed=5)
        return [
            SolveRequest(graph=spec, backend="sparse", tag=f"g{i}", seed=i)
            for i in range(count)
        ]

    def test_attach_failure_degrades_to_json_reprepare(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(point="shm.attach", action=ACTION_RAISE, scope=SCOPE_WORKER)
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(prepared_cache=PreparedGraphCache(), max_workers=2)
        try:
            reports = engine.solve_many(self._prepared_requests())
        finally:
            engine.shutdown()
        assert all(r.status == STATUS_OK for r in reports)
        assert len({r.side_size for r in reports}) == 1
        assert sum(r.stats.get("handoff_fallbacks", 0) for r in reports) >= 1
        _assert_no_new_shm_segments(before)

    def test_corrupted_segment_is_rejected_not_solved(self, monkeypatch):
        # Corrupt the first header byte (the magic) before the first
        # attach: format verification must reject the segment and every
        # request must fall back to re-preparing from JSON — same
        # answers, no solve over garbage.
        plan = FaultPlan.of(
            FaultSpec(
                point="shm.attach",
                action=ACTION_CORRUPT,
                arg=0.0,
                scope=SCOPE_WORKER,
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_env())
        before = _shm_entries()
        engine = MBBEngine(prepared_cache=PreparedGraphCache(), max_workers=2)
        try:
            reports = engine.solve_many(self._prepared_requests())
        finally:
            engine.shutdown()
        assert all(r.status == STATUS_OK for r in reports)
        assert sum(r.stats.get("handoff_fallbacks", 0) for r in reports) >= 1
        baseline = MBBEngine().solve_many(self._prepared_requests(), parallel=False)
        assert [r.side_size for r in reports] == [r.side_size for r in baseline]
        _assert_no_new_shm_segments(before)

    def test_export_failure_degrades_to_plain_json_submit(self):
        # Parent-side fault: arm in-process (no env, no worker scope).
        engine = MBBEngine(prepared_cache=PreparedGraphCache(), max_workers=2)
        try:
            with FaultPlan.of(
                FaultSpec(point="shm.export", action=ACTION_RAISE, times=99)
            ):
                reports = engine.solve_many(self._prepared_requests())
            stats = engine.prepared_cache.stats()
        finally:
            engine.shutdown()
        assert all(r.status == STATUS_OK for r in reports)
        assert stats["handoff_degradations"] >= 1

    def _shipped_by_segment(self, monkeypatch):
        """Record, per request tag, whether it was submitted by segment name."""
        shipped = {}
        real = MBBEngine._shm_handle_for

        def spy(engine, request, *args, **kwargs):
            handle = real(engine, request, *args, **kwargs)
            shipped[request.tag] = handle is not None
            return handle

        monkeypatch.setattr(MBBEngine, "_shm_handle_for", spy)
        return shipped

    def test_export_fault_degrades_exactly_its_request(self, monkeypatch):
        # Four requests on one spec share one memoised materialisation,
        # but the export fault point still runs per request: the fault
        # keyed to g1 degrades g1 alone.
        shipped = self._shipped_by_segment(monkeypatch)
        engine = MBBEngine(prepared_cache=PreparedGraphCache(), max_workers=2)
        try:
            with FaultPlan.of(
                FaultSpec(point="shm.export", action=ACTION_RAISE, match="g1", times=99)
            ):
                reports = engine.solve_many(self._prepared_requests(4))
            stats = engine.prepared_cache.stats()
        finally:
            engine.shutdown()
        assert all(r.status == STATUS_OK for r in reports)
        assert len({r.side_size for r in reports}) == 1
        assert stats["handoff_degradations"] == 1
        assert shipped == {"g0": True, "g1": False, "g2": True, "g3": True}

    def test_unmaterialisable_spec_degrades_every_request_naming_it(
        self, monkeypatch
    ):
        shipped = self._shipped_by_segment(monkeypatch)
        broken = GraphSpec(kind="power_law", n_left=10)  # no avg_degree
        requests = self._prepared_requests(2) + [
            SolveRequest(graph=broken, backend="sparse", tag=f"bad{i}")
            for i in range(2)
        ]
        engine = MBBEngine(prepared_cache=PreparedGraphCache(), max_workers=2)
        try:
            reports = engine.solve_many(requests)
            stats = engine.prepared_cache.stats()
        finally:
            engine.shutdown()
        assert [r.status for r in reports] == [STATUS_OK, STATUS_OK] + [STATUS_ERROR] * 2
        assert all(r.error.kind == "invalid_parameter" for r in reports[2:])
        assert stats["handoff_degradations"] == 2
        assert shipped == {"g0": True, "g1": True, "bad0": False, "bad1": False}

    def test_unexpected_export_failure_warns_and_degrades(self):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        request = self._prepared_requests(1)[0]

        def explode(graph):
            raise RuntimeError("disk on fire")

        engine.prepared_cache.get = explode
        with pytest.warns(RuntimeWarning, match="RuntimeError"):
            handle = engine._shm_handle_for(request)
        assert handle is None
        assert engine.prepared_cache.stats()["handoff_degradations"] == 1
        engine.shutdown()

    def test_expected_export_failure_is_silent(self):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        request = self._prepared_requests(1)[0]
        with FaultPlan.of(FaultSpec(point="shm.export", action=ACTION_RAISE)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                handle = engine._shm_handle_for(request)
        assert handle is None
        assert engine.prepared_cache.stats()["handoff_degradations"] == 1
        engine.shutdown()
