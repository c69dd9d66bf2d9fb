"""Multi-tenant service core: shared immutable artifacts, tenant
contexts, the tenant registry (admission control with priorities,
borrowing and preemption), the continuous supervised front-end and
its drain report, and the isolation selftest campaign."""

from repro.service.campaign import ServiceCampaignResult, run_service_campaign
from repro.service.frontend import (
    DEFAULT_DEADLINE_S,
    DEFAULT_QUEUE_DEPTH,
    JobHandle,
    ServiceFrontend,
)
from repro.service.health import ServiceHealth
from repro.service.registry import PRIORITIES, TenantRegistry, TenantSpec
from repro.service.service import ServiceReport, TenantResult
from repro.service.supervisor import LaneSupervisor
from repro.service.tenant import SharedArtifacts, TenantContext

__all__ = [
    "DEFAULT_DEADLINE_S",
    "DEFAULT_QUEUE_DEPTH",
    "JobHandle",
    "LaneSupervisor",
    "PRIORITIES",
    "ServiceCampaignResult",
    "ServiceFrontend",
    "ServiceHealth",
    "ServiceReport",
    "SharedArtifacts",
    "TenantContext",
    "TenantRegistry",
    "TenantResult",
    "TenantSpec",
    "run_service_campaign",
]
