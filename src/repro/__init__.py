"""SDAM: Software-Defined Address Mapping for 3D memory.

A full-stack reproduction of Zhang, Swift and Li, "Software-Defined
Address Mapping: A Case on 3D Memory" (ASPLOS 2022): the AMU/CMT
hardware models, the chunk-aware OS memory allocators, the access-
pattern profiler, the K-Means / DL-assisted mapping selection, and a
trace-driven HBM simulator to evaluate it all on.

The curated convenience surface is re-exported here (and lives in
:mod:`repro.api`); subsystem packages (``repro.core``, ``repro.hbm``,
``repro.mem``, ``repro.cpu``, ``repro.profiling``, ``repro.ml``,
``repro.workloads``, ``repro.system``) expose the full interfaces.
"""

from repro.api import (
    AdaptiveCampaignResult,
    AdaptiveController,
    MappingSelection,
    Session,
    default_cache_dir,
    evaluation_workloads,
    mixed_stride_workload,
    run_adaptive_campaign,
    select_application_mapping,
    strided_workload,
)
from repro.errors import ServiceOverloadError, TenantQuarantinedError
from repro.faults import FaultPlan, FaultSpec
from repro.hbm import PlanCache, default_plan_cache
from repro.service import (
    JobHandle,
    LaneSupervisor,
    ServiceCampaignResult,
    ServiceFrontend,
    ServiceHealth,
    SharedArtifacts,
    TenantContext,
    TenantRegistry,
    TenantSpec,
    run_service_campaign,
)
from repro.ras import (
    CampaignResult,
    DeviceFaultPlan,
    DeviceFaultSpec,
    RASReport,
)
from repro.ras import run_campaign as run_ras_campaign
from repro.system import (
    ExperimentRunner,
    Machine,
    MachineResult,
    RetryPolicy,
    SpeedupTable,
    SuiteResult,
    SystemConfig,
    run_suite,
    standard_systems,
    system_by_key,
)

__version__ = "1.4.0"

__all__ = [
    "AdaptiveCampaignResult",
    "AdaptiveController",
    "CampaignResult",
    "DeviceFaultPlan",
    "DeviceFaultSpec",
    "ExperimentRunner",
    "FaultPlan",
    "FaultSpec",
    "JobHandle",
    "LaneSupervisor",
    "Machine",
    "MappingSelection",
    "PlanCache",
    "RASReport",
    "run_adaptive_campaign",
    "run_ras_campaign",
    "run_service_campaign",
    "MachineResult",
    "RetryPolicy",
    "ServiceCampaignResult",
    "ServiceFrontend",
    "ServiceHealth",
    "ServiceOverloadError",
    "Session",
    "SharedArtifacts",
    "TenantQuarantinedError",
    "SpeedupTable",
    "SuiteResult",
    "SystemConfig",
    "TenantContext",
    "TenantRegistry",
    "TenantSpec",
    "__version__",
    "default_cache_dir",
    "default_plan_cache",
    "evaluation_workloads",
    "mixed_stride_workload",
    "run_suite",
    "select_application_mapping",
    "standard_systems",
    "strided_workload",
    "system_by_key",
]
