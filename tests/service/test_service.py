"""Tests for the service drain report and the isolation campaign."""

import json

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.sites import SERVICE_LANE_STALL
from repro.service.campaign import run_service_campaign
from repro.service.frontend import ServiceFrontend
from repro.service.registry import TenantSpec
from repro.service.service import ServiceReport
from repro.service.tenant import SharedArtifacts
from repro.workloads.synthetic import MixedStrideWorkload, StridedCopyWorkload


def fast_frontend(**kwargs) -> ServiceFrontend:
    kwargs.setdefault("shared", SharedArtifacts.create(backend="fast"))
    return ServiceFrontend(**kwargs)


def stalled_frontend(tenant: str) -> ServiceFrontend:
    """A front-end whose ``tenant`` lane stalls before its first job
    runs, so that tenant's submissions stay queued or in flight."""
    plan = FaultPlan.single(
        SERVICE_LANE_STALL, kind="stall", seconds=0.5, match=tenant
    )
    return fast_frontend(faults=plan)


def drained(specs, jobs) -> ServiceReport:
    """Admit ``specs``, submit ``(tenant, workload, eval_seed)`` jobs in
    order, and return the drain report of a closed fast-tier front-end."""
    with fast_frontend() as service:
        for spec in specs:
            service.admit(spec)
        for tenant, workload, eval_seed in jobs:
            service.submit(tenant, workload, eval_seed=eval_seed)
        return service.drain(timeout=60)


def workload_a():
    return StridedCopyWorkload(stride_lines=8, accesses_per_thread=1200)


def workload_b():
    return MixedStrideWorkload(strides=(1, 4), accesses_per_stride=600)


class TestFrontEnd:
    def test_submit_requires_admission(self):
        with fast_frontend() as service:
            with pytest.raises(ConfigError, match="not admitted"):
                service.submit("ghost", workload_a())
            # Eviction revokes admission again.
            service.admit(TenantSpec("a"))
            service.evict("a")
            with pytest.raises(ConfigError, match="not admitted"):
                service.submit("a", workload_a())
            assert service.health.submitted == 0

    def test_drain_runs_lanes_and_reports(self):
        with fast_frontend() as service:
            service.admit(TenantSpec("a", system="sdm_bsm_ml4", seed=1))
            service.admit(TenantSpec("b", system="bs_dm", seed=2))
            service.submit("a", workload_a())
            service.submit("b", workload_b())
            report = service.drain(timeout=60)
            assert service.pending == 0
        assert set(report.tenants) == {"a", "b"}
        for result in report.tenants.values():
            assert result.stats.requests > 0
        assert report.budget["tenants"].keys() == {"a", "b"}
        assert report.plan_cache["misses"] >= 1
        # The whole report serialises.
        json.dumps(report.to_dict())

    def test_idle_tenant_appears_with_empty_lane(self):
        report = drained(
            [TenantSpec("busy"), TenantSpec("idle")],
            [("busy", workload_a(), 1)],
        )
        assert report.tenants["idle"].results == []
        assert report.tenants["idle"].stats is None
        assert report.tenants["idle"].health is None
        assert report.fingerprints()["idle"]["runs"] == []

    def test_lane_preserves_submission_order(self):
        report = drained(
            [TenantSpec("a")],
            [("a", workload_a(), 1), ("a", workload_b(), 2)],
        )
        names = [r.workload for r in report.tenants["a"].results]
        assert names == [workload_a().name, workload_b().name]

    def test_evict_drops_queued_jobs(self):
        with stalled_frontend("a") as service:
            service.admit(TenantSpec("a"))
            service.submit("a", workload_a())
            service.evict("a")
            assert service.pending == 0
            assert "a" not in service.registry

    def test_evict_reports_and_journals_dropped_jobs(self):
        """Regression: eviction must *account* queued jobs, not drop
        them silently — the count comes back and every job lands in
        the health journal as a structured rejection."""
        with stalled_frontend("a") as service:
            service.admit(TenantSpec("a"))
            service.admit(TenantSpec("b"))
            service.submit("a", workload_a())
            service.submit("a", workload_b())
            service.submit("b", workload_b())
            dropped = service.evict("a")
            assert dropped == 2
            drops = [
                e for e in service.health.events if e["event"] == "job-dropped"
            ]
            assert len(drops) == 2
            assert {e["tenant"] for e in drops} == {"a"}
            assert {e["workload"] for e in drops} == {
                workload_a().name,
                workload_b().name,
            }
            # Tenant b's job is untouched; conservation holds post-drain.
            report = service.drain(timeout=60)
            assert len(report.tenants["b"].results) == 1
            assert service.health.violations() == []
            assert service.evict("b") == 0

    def test_report_carries_service_health(self):
        with fast_frontend() as service:
            service.admit(TenantSpec("a"))
            service.submit("a", workload_a())
            report = service.drain(timeout=60)
            assert report.health is service.health
        assert report.health.submitted == 1
        assert report.health.completed == 1
        assert report.to_dict()["service_health"]["conserved"] is True

    def test_aggregate_stats_merge_per_tenant_stats(self):
        report = drained(
            [TenantSpec("a", seed=1), TenantSpec("b", seed=2)],
            [("a", workload_a(), 1), ("b", workload_b(), 1)],
        )
        merged = report.tenants["a"].stats.merge(report.tenants["b"].stats)
        assert report.aggregate_stats.to_dict() == merged.to_dict()

    def test_plan_cache_shared_across_tenants(self):
        """Same system, same mappings: the second tenant's plans hit."""
        report = drained(
            [
                TenantSpec("a", system="bs_dm", seed=7),
                TenantSpec("b", system="bs_dm", seed=7),
            ],
            [("a", workload_a(), 1), ("b", workload_a(), 1)],
        )
        assert report.plan_cache["hits"] >= 1


class TestConcurrencyIsolation:
    def test_concurrent_fingerprints_match_solo(self):
        """The core isolation property, in miniature: each tenant's
        concurrent result is bit-identical to its solo run."""
        specs = [
            TenantSpec("a", system="sdm_bsm_ml4", seed=1),
            TenantSpec("b", system="sdm_bsm", seed=2),
        ]
        workloads = {"a": workload_a, "b": workload_b}

        def run(submit_for):
            jobs = [(name, workloads[name](), 1) for name in submit_for]
            return drained(specs, jobs)

        solo_a = run(["a"]).fingerprints()["a"]
        solo_b = run(["b"]).fingerprints()["b"]
        both = run(["a", "b"]).fingerprints()
        assert both["a"] == solo_a
        assert both["b"] == solo_b


class TestServiceCampaign:
    def test_quick_campaign_isolated(self):
        result = run_service_campaign(
            seed=0, tenants=2, quick=True, controllers=False
        )
        assert result.isolated
        assert result.mismatches == []
        assert result.tenants == ["tenant0", "tenant1"]
        assert result.faulty_tenant == "tenant0"
        # The shared cache really was shared across tenants and legs.
        assert result.plan_cache["hits"] > 0
        # The faulted leg hurt only the aggressor's health journal.
        victim = result.tenants[1]
        assert result.fault_health[victim] == result.concurrent_health[victim]
        aggressor = result.fault_health[result.faulty_tenant]
        assert aggressor["demoted_to"] == "event"
        assert "tier-demoted" in [
            d["event"] for d in aggressor["degradations"]
        ]
        # The continuous-front-end legs ran and held their laws.
        recovery = result.recovery_health
        assert recovery["quarantines"] >= 1
        assert recovery["restores"] >= 1
        assert recovery["lane_crashes"] >= 1
        assert recovery["violations"] == []
        assert result.recovery_fingerprints == result.solo_fingerprints
        assert result.overload["shed"] >= 1
        assert (
            result.overload["shed"] + result.overload["accepted"]
            == result.overload["burst"]
        )
        assert result.scale["admitted"] >= 200
        assert result.scale["probe_isolated"] is True
        assert result.scale["health"]["violations"] == []
        json.dumps(result.to_dict())
        assert "ISOLATED" in result.summary()

    def test_controller_leg_isolated(self):
        result = run_service_campaign(
            seed=0, tenants=2, quick=True, controllers=True,
            frontend_legs=False,
        )
        assert result.isolated
        controllers = result.controller_fingerprints
        assert set(controllers["solo"]) == {"tenant0", "tenant1"}
        for name, kinds in controllers["solo"].items():
            assert controllers["concurrent"][name] == kinds
