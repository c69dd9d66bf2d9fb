"""Tests for the continuous service front-end (lanes, shedding, deadlines)."""

import math
import time

import pytest

from repro.errors import (
    ConfigError,
    ServiceOverloadError,
    TenantQuarantinedError,
)
from repro.faults import FaultPlan
from repro.faults.sites import SERVICE_JOB_CRASH, SERVICE_LANE_STALL
from repro.service.frontend import JobHandle, ServiceFrontend
from repro.service.registry import TenantSpec
from repro.service.tenant import SharedArtifacts
from repro.system.runner import RetryPolicy
from repro.workloads.synthetic import StridedCopyWorkload

#: Shared artifacts reused across tests (immutable by construction).
SHARED = SharedArtifacts.create(backend="fast")


def tiny_workload(accesses: int = 256) -> StridedCopyWorkload:
    return StridedCopyWorkload(stride_lines=4, accesses_per_thread=accesses)


def frontend(**kwargs) -> ServiceFrontend:
    kwargs.setdefault("shared", SHARED)
    kwargs.setdefault("supervise_interval_s", 0.002)
    return ServiceFrontend(**kwargs)


class TestJobHandle:
    def test_settles_exactly_once(self):
        handle = JobHandle(tenant="a", workload="w")
        assert handle.settle("completed", result=1)
        assert not handle.settle("failed", error="late")
        assert handle.status == "completed" and handle.result == 1
        assert handle.done and handle.wait(0)

    def test_rejects_non_terminal_states(self):
        with pytest.raises(ConfigError):
            JobHandle(tenant="a", workload="w").settle("running")


class TestSubmitAndDrain:
    def test_jobs_complete_and_report(self):
        with frontend() as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            handles = [
                fe.submit("a", tiny_workload(), eval_seed=seed)
                for seed in range(3)
            ]
            report = fe.drain(timeout=60)
            assert [h.status for h in handles] == ["completed"] * 3
            assert len(report.tenants["a"].results) == 3
            assert report.health is fe.health
            assert fe.health.completed == 3
            assert fe.health.violations() == []

    def test_submit_unknown_tenant_rejected(self):
        with frontend() as fe:
            with pytest.raises(ConfigError, match="not admitted"):
                fe.submit("ghost", tiny_workload())

    def test_closed_frontend_rejects_work(self):
        fe = frontend()
        fe.admit(TenantSpec("a", system="bs_dm", quota=2))
        fe.close()
        with pytest.raises(ConfigError, match="closed"):
            fe.submit("a", tiny_workload())
        with pytest.raises(ConfigError, match="closed"):
            fe.admit(TenantSpec("b", system="bs_dm", quota=2))

    def test_drain_is_a_checkpoint_not_a_shutdown(self):
        with frontend() as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            fe.submit("a", tiny_workload())
            fe.drain(timeout=60)
            handle = fe.submit("a", tiny_workload(), eval_seed=2)
            fe.drain(timeout=60)
            assert handle.status == "completed"
            assert fe.health.completed == 2


class TestEviction:
    def test_evict_returns_and_journals_dropped_jobs(self):
        # A stalled lane keeps jobs queued so eviction must drop them.
        plan = FaultPlan.single(
            SERVICE_LANE_STALL, kind="stall", seconds=0.5, match="a"
        )
        with frontend(faults=plan) as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            handles = [
                fe.submit("a", tiny_workload(), eval_seed=seed)
                for seed in range(3)
            ]
            dropped = fe.evict("a")
            assert dropped >= 2  # queued jobs (+ the stalled one)
            drops = [
                e for e in fe.health.events if e["event"] == "job-dropped"
            ]
            assert len(drops) == dropped
            assert all(e["tenant"] == "a" for e in drops)
            terminal = [h for h in handles if h.status == "dropped"]
            assert len(terminal) == dropped
            assert fe.health.violations() == []
            assert "a" not in fe.registry

    def test_close_accounts_queued_jobs(self):
        plan = FaultPlan.single(
            SERVICE_LANE_STALL, kind="stall", seconds=0.5, match="a"
        )
        fe = frontend(faults=plan)
        fe.admit(TenantSpec("a", system="bs_dm", quota=2))
        for seed in range(3):
            fe.submit("a", tiny_workload(), eval_seed=seed)
        dropped = fe.close()
        assert dropped >= 2
        assert fe.health.violations() == []


class TestOverload:
    def test_full_queue_sheds_with_retry_after(self):
        plan = FaultPlan.single(
            SERVICE_LANE_STALL, kind="stall", seconds=0.4, match="a"
        )
        with frontend(faults=plan, queue_depth=1) as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            caught = 0
            for seed in range(6):
                try:
                    fe.submit("a", tiny_workload(), eval_seed=seed)
                except ServiceOverloadError as error:
                    caught += 1
                    assert error.tenant == "a"
                    assert error.retry_after_s > 0
            assert caught >= 1
            assert fe.health.shed == caught
            shed_events = [
                e for e in fe.health.events if e["event"] == "job-shed"
            ]
            assert len(shed_events) == caught


class TestDeadlines:
    def test_impossible_deadlines_rejected(self):
        """A deadline that is not positive would time the job out
        unrun; a NaN one would never expire, so the supervisor could
        never abandon the job.  Both are refused up front."""
        with pytest.raises(ConfigError, match="deadline_s"):
            frontend(deadline_s=math.nan)
        with frontend() as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            for deadline_s in (0, -5, math.nan):
                with pytest.raises(ConfigError, match="deadline_s"):
                    fe.submit("a", tiny_workload(), deadline_s=deadline_s)
            assert fe.health.submitted == 0
            assert fe.health.events == []

    def test_queued_job_past_deadline_times_out(self):
        plan = FaultPlan.single(
            SERVICE_LANE_STALL, kind="stall", seconds=0.3, match="a"
        )
        with frontend(faults=plan, deadline_s=0.1) as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            first = fe.submit("a", tiny_workload())
            second = fe.submit("a", tiny_workload(), eval_seed=2)
            assert first.wait(10) and second.wait(10)
            statuses = {first.status, second.status}
            assert statuses == {"timeout"}
            assert fe.health.timeouts == 2
            fe.drain(timeout=30)
            assert fe.health.violations() == []

    def test_retry_policy_reruns_transient_crashes(self):
        plan = FaultPlan.single(SERVICE_JOB_CRASH, times=1, match="a")
        with frontend(
            faults=plan,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.001),
        ) as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            handle = fe.submit("a", tiny_workload())
            fe.drain(timeout=60)
            assert handle.status == "completed"
            assert handle.attempts == 2
            assert fe.health.retried == 1

    def test_exhausted_retries_fail_the_job(self):
        plan = FaultPlan.single(SERVICE_JOB_CRASH, times=1, match="a")
        with frontend(faults=plan, retry=RetryPolicy.none()) as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            handle = fe.submit("a", tiny_workload())
            fe.drain(timeout=60)
            assert handle.status == "failed"
            assert "WorkerCrashError" in handle.error
            assert fe.health.failed == 1
            assert fe.health.violations() == []


class TestPreemption:
    def test_preempted_tenants_jobs_are_accounted(self):
        # A tiny table: admitting the VIP preempts the best-effort
        # tenant whose lane still has queued jobs.
        plan = FaultPlan.single(
            SERVICE_LANE_STALL, kind="stall", seconds=0.5, match="cheap"
        )
        with frontend(faults=plan, max_mappings=8) as fe:
            fe.admit(
                TenantSpec(
                    "cheap", system="bs_dm", quota=4, priority="best-effort"
                )
            )
            handles = [
                fe.submit("cheap", tiny_workload(), eval_seed=seed)
                for seed in range(2)
            ]
            fe.admit(
                TenantSpec(
                    "vip", system="bs_dm", quota=6, priority="standard"
                )
            )
            assert "cheap" not in fe.registry
            assert fe.health.preemptions == 1
            assert all(h.wait(10) for h in handles)
            fe.drain(timeout=30)
            assert fe.health.violations() == []

    def test_quarantine_rejection_carries_probation_end(self):
        from repro.faults.sites import SERVICE_LANE_CRASH

        plan = FaultPlan.single(SERVICE_LANE_CRASH, times=2, match="a")
        with frontend(
            faults=plan, max_strikes=2, quarantine_s=30.0
        ) as fe:
            fe.admit(TenantSpec("a", system="bs_dm", quota=2))
            fe.submit("a", tiny_workload())
            deadline = time.monotonic() + 10
            while fe.health.quarantines < 1:
                assert time.monotonic() < deadline, "never quarantined"
                time.sleep(0.005)
            with pytest.raises(TenantQuarantinedError) as info:
                fe.submit("a", tiny_workload())
            assert info.value.tenant == "a"
            assert info.value.until_s is not None
            assert fe.health.rejected == 1
