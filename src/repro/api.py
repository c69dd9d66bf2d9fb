"""Convenience surface: one import for the common SDAM workflows.

The primary entry point is :class:`Session` — it owns a stage cache
and a worker pool, so every run/compare/sweep gets memoisation and
parallelism by default::

    from repro import Session

    session = Session(workers=4)
    result = session.run(mixed_stride_workload(), "sdm_bsm_ml4")
    sweep = session.sweep(workloads)          # cached + parallel
    sweep.table.geomean("SDM+BSM+ML(4)")

For anything beyond these helpers, use the subsystem packages directly
(``repro.core``, ``repro.hbm``, ``repro.mem``, ``repro.cpu``,
``repro.profiling``, ``repro.ml``, ``repro.workloads``,
``repro.system``).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core import MappingSelection, select_application_mapping
from repro.faults import FaultPlan
from repro.ml import AutoencoderConfig
from repro.online import (
    AdaptiveCampaignResult,
    AdaptiveController,
    run_adaptive_campaign,
)
from repro.ras import (
    CampaignResult,
    DeviceFaultPlan,
    DeviceFaultSpec,
    RASReport,
)
from repro.ras import run_campaign as run_ras_campaign
from repro.errors import ServiceOverloadError, TenantQuarantinedError
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
from repro.system import (
    ExperimentRunner,
    Machine,
    MachineResult,
    RetryPolicy,
    SuiteResult,
    SystemConfig,
    standard_systems,
    system_by_key,
)
from repro.workloads import (
    MixedStrideWorkload,
    StridedCopyWorkload,
    Workload,
    data_intensive_suite,
    parsec_suite,
    spec2006_suite,
)

__all__ = [
    "AdaptiveCampaignResult",
    "AdaptiveController",
    "CampaignResult",
    "DeviceFaultPlan",
    "DeviceFaultSpec",
    "FaultPlan",
    "JobHandle",
    "LaneSupervisor",
    "MappingSelection",
    "RASReport",
    "RetryPolicy",
    "ServiceCampaignResult",
    "ServiceFrontend",
    "ServiceHealth",
    "ServiceOverloadError",
    "Session",
    "SharedArtifacts",
    "TenantQuarantinedError",
    "TenantContext",
    "TenantRegistry",
    "TenantSpec",
    "run_adaptive_campaign",
    "run_ras_campaign",
    "run_service_campaign",
    "select_application_mapping",
    "default_cache_dir",
    "evaluation_workloads",
    "strided_workload",
    "mixed_stride_workload",
]

QUICK_DL_CONFIG = AutoencoderConfig(pretrain_steps=40, joint_steps=20)

_UNSET = object()  # "use the default cache dir" sentinel


def default_cache_dir() -> str:
    """The default on-disk stage cache location.

    ``$REPRO_CACHE_DIR`` wins; otherwise a ``repro-sdam`` directory
    under ``$XDG_CACHE_HOME`` (or ``~/.cache``).
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return str(Path(xdg) / "repro-sdam")


def _resolve_system(system: str | SystemConfig) -> SystemConfig:
    return system if isinstance(system, SystemConfig) else system_by_key(system)


class Session:
    """An experiment session: one stage cache, one worker budget.

    Every ``run``/``compare``/``sweep`` goes through a shared
    :class:`~repro.system.runner.ExperimentRunner`, so profiling
    passes, mapping selections and whole results are computed once and
    reused — across systems, across calls, and (through the on-disk
    cache) across processes.

    Parameters
    ----------
    cache_dir:
        Stage-cache directory.  Defaults to :func:`default_cache_dir`;
        pass ``None`` to keep the cache in memory only.
    workers:
        Worker processes for independent cells.  ``0``/``1`` is
        serial in-process; ``None`` picks a small machine-appropriate
        default.
    cell_timeout:
        Per-cell time budget (seconds) for parallel sweeps; an
        overrunning cell is recorded as an error instead of stalling
        the sweep.
    retry:
        A :class:`~repro.system.RetryPolicy` for transiently failing
        cells (crashed workers, I/O flakes).  Defaults to three
        attempts with exponential backoff; ``RetryPolicy.none()``
        records every failure immediately.
    faults:
        A :class:`~repro.faults.FaultPlan` injecting failures at
        named engine sites, for resilience testing.  Defaults to the
        ``$REPRO_FAULT_PLAN`` environment hook (unset = no faults).
    machine_kwargs:
        Platform configuration forwarded to every
        :class:`~repro.system.machine.Machine` (``hbm``, ``geometry``,
        ``engine``, ``cores``, ``dl_config``, ...).
    """

    def __init__(
        self,
        cache_dir: str | None | object = _UNSET,
        workers: int | None = None,
        cell_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        **machine_kwargs,
    ):
        if cache_dir is _UNSET:
            cache_dir = default_cache_dir()
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        self.machine_kwargs = machine_kwargs
        self.runner = ExperimentRunner(
            cache_dir=cache_dir,
            max_workers=workers,
            cell_timeout=cell_timeout,
            retry_policy=retry,
            faults=faults,
        )

    # -- introspection -------------------------------------------------------
    @property
    def cache_dir(self) -> str | None:
        """Where stage outputs are persisted (None = memory only)."""
        return self.runner.cache_dir

    @property
    def workers(self) -> int:
        """The configured worker-process budget."""
        return self.runner.max_workers

    def __repr__(self) -> str:
        return (
            f"Session(cache_dir={self.cache_dir!r}, workers={self.workers})"
        )

    # -- the API -------------------------------------------------------------
    def _machine_kwargs(
        self,
        backend: str | None,
        guard: bool | None = None,
        guard_sample: float | None = None,
    ) -> dict:
        """Session-wide machine kwargs, with per-call overrides.

        ``backend`` picks the memory fidelity tier for one call;
        ``guard``/``guard_sample`` switch the cross-tier divergence
        guard on (or off) for one call without rebuilding the session.
        """
        kwargs = dict(self.machine_kwargs)
        if backend is not None:
            kwargs["backend"] = backend
        if guard is not None:
            kwargs["guard"] = guard
        if guard_sample is not None:
            kwargs["guard_sample"] = guard_sample
        return kwargs

    def run(
        self,
        workload: Workload,
        system: str | SystemConfig = "sdm_bsm",
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
        backend: str | None = None,
        guard: bool | None = None,
        guard_sample: float | None = None,
    ) -> MachineResult:
        """One workload under one system, cached.

        ``backend`` selects the memory fidelity tier (``"fast"``,
        ``"vector"``, ``"event"``) for this call, overriding the
        session-wide machine configuration.  ``guard=True`` wraps the
        chosen tier in a :class:`~repro.hbm.guard.GuardedBackend` that
        replays a deterministic sample of chunks through the
        event-driven reference and demotes (or raises) on divergence;
        the verdict rides on ``result.backend_health``.
        """
        return self.runner.run_one(
            workload,
            _resolve_system(system),
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            **self._machine_kwargs(backend, guard, guard_sample),
        )

    def compare(
        self,
        workload: Workload,
        systems: tuple[str | SystemConfig, ...] = (
            "bs_dm",
            "bs_hm",
            "sdm_bsm",
            "sdm_bsm_ml4",
        ),
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
        backend: str | None = None,
        guard: bool | None = None,
        guard_sample: float | None = None,
    ) -> dict[str, MachineResult]:
        """One workload under several systems, keyed by the *caller's*
        system key (so duplicate labels cannot collide)."""
        results: dict[str, MachineResult] = {}
        for system in systems:
            config = _resolve_system(system)
            key = system if isinstance(system, str) else config.key
            results[key] = self.run(
                workload,
                config,
                profile_seed=profile_seed,
                eval_seed=eval_seed,
                backend=backend,
                guard=guard,
                guard_sample=guard_sample,
            )
        return results

    def sweep(
        self,
        workloads: list[Workload],
        systems: list[SystemConfig | str] | None = None,
        *,
        profile_seed: int = 0,
        eval_seed: int = 1,
        resume: bool = False,
        backend: str | None = None,
        guard: bool | None = None,
        guard_sample: float | None = None,
    ) -> SuiteResult:
        """Every workload under every system: cached, parallel, and
        failure-isolated.

        Returns a :class:`~repro.system.runner.SuiteResult` carrying
        the speedup table, per-stage metrics (wall time, cache
        hits/misses, bytes simulated) and any per-cell errors.

        ``resume=True`` finishes an interrupted or partially failed
        sweep: cells the sweep manifest records as healthy are served
        from the stage cache with zero recomputation, and only failed
        or missing cells re-run.
        """
        resolved = (
            [_resolve_system(s) for s in systems] if systems else None
        )
        return self.runner.run_suite(
            workloads,
            systems=resolved,
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            resume=resume,
            **self._machine_kwargs(backend, guard, guard_sample),
        )

    def full_evaluation(self, *, quick: bool = True) -> SuiteResult:
        """The Fig. 12 sweep: all workloads x all systems.

        ``quick=True`` trims the suites and uses a small DL
        configuration; ``quick=False`` reproduces the full benchmark
        run (minutes, cold).
        """
        workloads = evaluation_workloads(quick=quick)
        if quick:
            self.machine_kwargs.setdefault("dl_config", QUICK_DL_CONFIG)
        return self.sweep(workloads, systems=standard_systems())

    def ras_campaign(
        self,
        seed: int = 0,
        kinds=None,
        *,
        quick: bool = True,
        backend: str | None = None,
        guard: bool | None = None,
        guard_sample: float | None = None,
        checkpoint_path: str | None = None,
        resume: bool = False,
    ):
        """Seeded device-fault campaign: inject, detect, repair, verify.

        Builds a faulty machine and a clean twin (honouring any ``hbm``
        / ``geometry`` overrides this session was created with), drives
        both with identical traffic while injecting one fault per
        requested kind, and checks that every fault is repaired by
        software-defined remapping — or explicitly reported as graceful
        degradation — with zero silent corruption.  Returns a
        :class:`~repro.ras.campaign.CampaignResult`.
        """
        from repro.ras.campaign import ALL_KINDS, run_campaign

        overrides = {}
        if "hbm" in self.machine_kwargs:
            overrides["config"] = self.machine_kwargs["hbm"]
        if "geometry" in self.machine_kwargs:
            overrides["geometry"] = self.machine_kwargs["geometry"]
        chosen = backend or self.machine_kwargs.get("backend")
        if chosen is not None:
            overrides["backend"] = chosen
        wants_guard = (
            guard if guard is not None
            else bool(self.machine_kwargs.get("guard"))
        )
        if wants_guard:
            overrides["guard"] = True
            chosen_sample = (
                guard_sample
                if guard_sample is not None
                else self.machine_kwargs.get("guard_sample")
            )
            if chosen_sample is not None:
                overrides["guard_sample"] = chosen_sample
        if checkpoint_path is not None:
            overrides["checkpoint_path"] = checkpoint_path
            overrides["resume"] = resume
        return run_campaign(
            seed=seed, kinds=kinds or ALL_KINDS, quick=quick, **overrides
        )

    def adaptive_campaign(
        self,
        seed: int = 0,
        *,
        quick: bool = True,
        backend: str | None = None,
        guard: bool | None = None,
        guard_sample: float | None = None,
        checkpoint_path: str | None = None,
        resume: bool = False,
        **campaign_kwargs,
    ) -> AdaptiveCampaignResult:
        """Seeded online-adaptation campaign: adaptive vs best static.

        Runs the phase-shifting workload on an adaptive machine (the
        :class:`~repro.online.controller.AdaptiveController` migrating
        mappings live) and under every relevant static mapping,
        honouring any ``hbm`` / ``geometry`` overrides this session was
        created with.  Returns an
        :class:`~repro.online.campaign.AdaptiveCampaignResult`.
        """
        overrides = dict(campaign_kwargs)
        if "hbm" in self.machine_kwargs:
            overrides.setdefault("config", self.machine_kwargs["hbm"])
        if "geometry" in self.machine_kwargs:
            overrides.setdefault("geometry", self.machine_kwargs["geometry"])
        chosen = backend or self.machine_kwargs.get("backend")
        if chosen is not None:
            overrides.setdefault("backend", chosen)
        wants_guard = (
            guard if guard is not None
            else bool(self.machine_kwargs.get("guard"))
        )
        if wants_guard:
            overrides.setdefault("guard", True)
            chosen_sample = (
                guard_sample
                if guard_sample is not None
                else self.machine_kwargs.get("guard_sample")
            )
            if chosen_sample is not None:
                overrides.setdefault("guard_sample", chosen_sample)
        if checkpoint_path is not None:
            overrides.setdefault("checkpoint_path", checkpoint_path)
            overrides.setdefault("resume", resume)
        return run_adaptive_campaign(seed=seed, quick=quick, **overrides)

    def service_campaign(
        self,
        seed: int = 0,
        tenants: int = 3,
        *,
        quick: bool = True,
        controllers: bool = True,
    ) -> ServiceCampaignResult:
        """Multi-tenant isolation selftest for the service layer.

        Admits ``tenants`` tenant contexts over shared immutable
        artifacts, runs each solo and then all concurrently (plus a
        fault-injection leg and, with ``controllers=True``, concurrent
        per-tenant adaptive/RAS campaigns), and checks every tenant's
        fingerprint is bit-identical across legs.  Returns a
        :class:`~repro.service.campaign.ServiceCampaignResult`; its
        ``isolated`` property is the verdict.
        """
        return run_service_campaign(
            seed=seed,
            tenants=tenants,
            quick=quick,
            controllers=controllers,
        )


def evaluation_workloads(*, quick: bool = True) -> list[Workload]:
    """The Fig. 12 workload population (trimmed when ``quick``)."""
    workloads = spec2006_suite() + parsec_suite() + data_intensive_suite()
    return workloads[:4] if quick else workloads


def strided_workload(stride_lines: int = 16, **kwargs) -> Workload:
    """The paper's synthetic data copy at one stride."""
    return StridedCopyWorkload(stride_lines=stride_lines, **kwargs)


def mixed_stride_workload(
    strides: tuple[int, ...] = (1, 4, 8, 16), **kwargs
) -> Workload:
    """The four-pattern mix of Fig. 4 / Fig. 11."""
    return MixedStrideWorkload(strides=strides, **kwargs)
