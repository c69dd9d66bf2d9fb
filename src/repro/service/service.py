"""What a service drain returns: per-tenant results and the report.

:class:`~repro.service.frontend.ServiceFrontend` runs each tenant's
jobs in submission order on the tenant's own lane, so every tenant's
result is bit-identical to a solo run no matter how lanes interleave.
A drain folds each lane into a :class:`TenantResult` and the whole
service into a :class:`ServiceReport`.

Per-tenant :class:`~repro.hbm.stats.RunStats` and
:class:`~repro.hbm.stats.BackendHealth` are folded with their merge
laws into service-level aggregates, and the report carries deterministic
per-tenant fingerprints plus the shared plan-cache counters — the
evidence that tenants shared compiled plans without sharing anything
mutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from repro.core.cmt import MappingNamespace
from repro.hbm.stats import BackendHealth, RunStats
from repro.service.health import ServiceHealth

__all__ = ["ServiceReport", "TenantResult"]


@dataclass
class TenantResult:
    """Everything one tenant's drained lane produced."""

    tenant: str
    namespace: MappingNamespace | None
    results: list = field(default_factory=list)

    @property
    def stats(self) -> RunStats | None:
        """This tenant's run statistics, merged across its jobs."""
        parts = [r.stats for r in self.results]
        if not parts:
            return None
        return reduce(lambda a, b: a.merge(b), parts)

    @property
    def health(self) -> BackendHealth | None:
        """This tenant's backend health, merged across its jobs."""
        parts = [
            r.backend_health for r in self.results
            if r.backend_health is not None
        ]
        if not parts:
            return None
        return reduce(lambda a, b: a.merge(b), parts)

    def fingerprint(self) -> dict:
        """Deterministic content of this tenant's lane.

        Per-run :meth:`~repro.system.machine.MachineResult.fingerprint`
        plus the namespace the tenant was admitted with — so two
        service runs agree only if the budget partition agreed too.
        """
        return {
            "tenant": self.tenant,
            "namespace": None
            if self.namespace is None
            else self.namespace.to_dict(),
            "runs": [r.fingerprint() for r in self.results],
        }

    def to_dict(self) -> dict:
        """A JSON-serialisable form (results via their own to_dict)."""
        health = self.health
        return {
            "tenant": self.tenant,
            "namespace": None
            if self.namespace is None
            else self.namespace.to_dict(),
            "runs": [r.to_dict() for r in self.results],
            "health": None if health is None else health.to_dict(),
        }


@dataclass
class ServiceReport:
    """Outcome of one :meth:`~repro.service.frontend.ServiceFrontend.drain`."""

    tenants: dict[str, TenantResult]
    plan_cache: dict
    budget: dict
    health: ServiceHealth | None = None

    @property
    def aggregate_stats(self) -> RunStats | None:
        """Service-wide statistics: per-tenant stats under the merge laws."""
        parts = [
            t.stats for t in self.tenants.values() if t.stats is not None
        ]
        if not parts:
            return None
        return reduce(lambda a, b: a.merge(b), parts)

    @property
    def aggregate_health(self) -> BackendHealth | None:
        """Service-wide backend health under the merge laws."""
        parts = [
            t.health for t in self.tenants.values() if t.health is not None
        ]
        if not parts:
            return None
        return reduce(lambda a, b: a.merge(b), parts)

    def fingerprints(self) -> dict[str, dict]:
        """Per-tenant deterministic fingerprints."""
        return {
            name: result.fingerprint()
            for name, result in self.tenants.items()
        }

    def to_dict(self) -> dict:
        """A JSON-serialisable form of the whole report."""
        aggregate = self.aggregate_stats
        health = self.aggregate_health
        return {
            "tenants": {
                name: result.to_dict()
                for name, result in self.tenants.items()
            },
            "aggregate_stats": None
            if aggregate is None
            else aggregate.to_dict(),
            "aggregate_health": None if health is None else health.to_dict(),
            "plan_cache": self.plan_cache,
            "budget": self.budget,
            "service_health": None
            if self.health is None
            else self.health.to_dict(),
        }
