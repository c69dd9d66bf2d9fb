"""The service selftest: prove tenant isolation, don't assume it.

``repro serve --selftest`` runs this campaign.  It admits N tenants
(mixed SDAM and baseline systems, distinct workloads and seeds) and
checks the acceptance property from six directions:

1. **Concurrency isolation** — every tenant's fingerprint from the
   concurrent N-tenant run is bit-identical to the same tenant's solo
   run (same admissions, only that tenant's traffic submitted).
2. **Fault isolation** — re-run the concurrent leg with one tenant's
   guarded backend deliberately faulted (an injected
   ``backend.divergence`` that demotes it to the event tier): every
   *other* tenant's fingerprint AND health journal must be
   bit-identical to the clean concurrent leg.
3. **Controller isolation** — per-tenant adaptive and RAS campaigns run
   solo and then concurrently on threads; their campaign fingerprints
   must match.
4. **Lane-crash recovery** — the continuous front-end with an injected
   ``service.lane.crash`` storm against one tenant: the supervisor
   strikes it out, quarantines it (dropping its queued jobs — all
   journaled), restores it after probation, and the re-submitted
   tenant's fingerprint plus every *other* tenant's fingerprint must
   be bit-identical to the solo runs.
5. **Overload accounting** — a one-deep lane hammered with a burst:
   every :class:`~repro.errors.ServiceOverloadError` the caller caught
   must match a ``job-shed`` journal entry one-for-one, and the
   conservation law must hold after the drain.
6. **Scale churn** — 200+ tenants with mixed priorities and borrowed
   quotas admitted, evicted and re-admitted in waves while jobs run,
   a lane crash fires and a queue overflows: the CMT budget invariants
   (bounds, disjointness, accounting) must hold after every wave and a
   probe tenant's fingerprint must match its solo run.

The result carries per-leg fingerprints, every mismatch found, the
shared plan-cache counters (evidence the tenants shared compiled plans)
and the budget partition.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import (
    CMTError,
    ServiceOverloadError,
    TenantQuarantinedError,
)
from repro.faults import FaultPlan
from repro.faults.sites import BACKEND_DIVERGENCE, SERVICE_LANE_CRASH
from repro.service.frontend import ServiceFrontend
from repro.service.registry import TenantRegistry, TenantSpec
from repro.service.service import ServiceReport
from repro.service.tenant import SharedArtifacts
from repro.workloads.synthetic import MixedStrideWorkload, StridedCopyWorkload

__all__ = ["ServiceCampaignResult", "run_service_campaign"]


@dataclass
class ServiceCampaignResult:
    """Everything the isolation selftest measured."""

    seed: int
    quick: bool
    tenants: list[str]
    faulty_tenant: str
    solo_fingerprints: dict = field(default_factory=dict)
    concurrent_fingerprints: dict = field(default_factory=dict)
    fault_fingerprints: dict = field(default_factory=dict)
    concurrent_health: dict = field(default_factory=dict)
    fault_health: dict = field(default_factory=dict)
    controller_fingerprints: dict = field(default_factory=dict)
    recovery_fingerprints: dict = field(default_factory=dict)
    recovery_health: dict = field(default_factory=dict)
    overload: dict = field(default_factory=dict)
    scale: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    plan_cache: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def isolated(self) -> bool:
        """True when every isolation check held."""
        return not self.mismatches

    def to_dict(self) -> dict:
        """A JSON-serialisable report (the CI artifact)."""
        return {
            "seed": self.seed,
            "quick": self.quick,
            "tenants": self.tenants,
            "faulty_tenant": self.faulty_tenant,
            "isolated": self.isolated,
            "mismatches": list(self.mismatches),
            "solo_fingerprints": self.solo_fingerprints,
            "concurrent_fingerprints": self.concurrent_fingerprints,
            "fault_fingerprints": self.fault_fingerprints,
            "controller_fingerprints": self.controller_fingerprints,
            "recovery_fingerprints": self.recovery_fingerprints,
            "recovery_health": self.recovery_health,
            "overload": self.overload,
            "scale": self.scale,
            "plan_cache": self.plan_cache,
            "budget": self.budget,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def fingerprint(self) -> dict:
        """Deterministic content: the per-tenant fingerprints + verdict."""
        return {
            "seed": self.seed,
            "tenants": self.tenants,
            "isolated": self.isolated,
            "concurrent_fingerprints": self.concurrent_fingerprints,
        }

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "ISOLATED" if self.isolated else (
            f"{len(self.mismatches)} ISOLATION VIOLATION(S)"
        )
        return (
            f"service selftest: {len(self.tenants)} tenants, "
            f"{verdict}, plan cache "
            f"{self.plan_cache.get('hits', 0)} hits / "
            f"{self.plan_cache.get('misses', 0)} misses, "
            f"{self.elapsed_seconds:.1f}s"
        )


def _tenant_specs(
    seed: int,
    count: int,
    faulty: str | None = None,
    backend: str = "vector",
) -> list[TenantSpec]:
    """Deterministic tenant population: mixed systems, distinct seeds.

    ``faulty`` names the tenant whose backend runs under the divergence
    guard with an injected ``backend.divergence`` — the fault-isolation
    leg's aggressor, demoted to the event tier.  It stays on the vector
    tier regardless of ``backend``: the guard does not wrap ``event``.
    """
    systems = ["sdm_bsm_ml4", "sdm_bsm", "bs_dm", "sdm_bsm_ml4"]
    specs = []
    for index in range(count):
        name = f"tenant{index}"
        aggressor = name == faulty
        specs.append(
            TenantSpec(
                name=name,
                system=systems[index % len(systems)],
                quota=5,
                seed=seed + index,
                backend="vector" if aggressor else backend,
                guard=aggressor,
                backend_faults=(
                    FaultPlan.single(BACKEND_DIVERGENCE, times=1)
                    if aggressor
                    else None
                ),
            )
        )
    return specs


def _tenant_workload(seed: int, index: int, quick: bool):
    """Each tenant's (distinct) workload, sized for the mode."""
    accesses = 1500 if quick else 6000
    shapes = [
        lambda: StridedCopyWorkload(
            stride_lines=16, accesses_per_thread=accesses
        ),
        lambda: MixedStrideWorkload(
            strides=(1, 8), accesses_per_stride=accesses // 2
        ),
        lambda: StridedCopyWorkload(
            stride_lines=4, accesses_per_thread=accesses
        ),
        lambda: MixedStrideWorkload(
            strides=(2, 16), accesses_per_stride=accesses // 2
        ),
    ]
    return shapes[index % len(shapes)]()


def _run_leg(
    seed: int,
    specs: list[TenantSpec],
    submit_for: list[str],
    quick: bool,
    backend: str = "vector",
) -> ServiceReport:
    """One service run: admit every spec, submit jobs for a subset.

    Every leg admits the *same* population so the budget partition —
    part of each fingerprint — is identical across legs; only the
    submitted traffic differs.
    """
    with ServiceFrontend(
        shared=SharedArtifacts.create(backend=backend)
    ) as frontend:
        for spec in specs:
            frontend.admit(spec)
        for index, spec in enumerate(specs):
            if spec.name in submit_for:
                frontend.submit(
                    spec.name,
                    _tenant_workload(seed, index, quick),
                    profile_seed=0,
                    eval_seed=1,
                )
        return frontend.drain(timeout=120.0)


def _controller_leg(
    seed: int, specs: list[TenantSpec], mismatches: list
) -> dict:
    """Per-tenant adaptive + RAS campaigns, solo vs concurrent.

    Controllers are parameterized by tenant context alone, so running
    two tenants' campaigns on threads must reproduce the solo
    fingerprints bit for bit.  The fast backend keeps the leg cheap;
    the property being checked is context isolation, not tier choice.
    """
    registry = TenantRegistry(SharedArtifacts.create(backend="fast"))
    contexts = [registry.admit(spec) for spec in specs[:2]]

    def adaptive(context):
        return context.adaptive_campaign(quick=True).fingerprint()

    def ras(context):
        return context.ras_campaign(quick=True, kinds=("row",)).fingerprint()

    solo = {}
    for context in contexts:
        solo[context.name] = {
            "adaptive": adaptive(context),
            "ras": ras(context),
        }
    tasks = [
        (context.name, kind, fn)
        for context in contexts
        for kind, fn in (("adaptive", adaptive), ("ras", ras))
    ]
    concurrent: dict = {context.name: {} for context in contexts}
    with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
        futures = [
            (name, kind, pool.submit(fn, registry.get(name)))
            for name, kind, fn in tasks
        ]
        for name, kind, future in futures:
            concurrent[name][kind] = future.result()
    for name, kinds in concurrent.items():
        for kind, fingerprint in kinds.items():
            if fingerprint != solo[name][kind]:
                mismatches.append(
                    {
                        "check": "controller",
                        "tenant": name,
                        "controller": kind,
                    }
                )
    return {"solo": solo, "concurrent": concurrent}


def _submit_with_patience(
    frontend: ServiceFrontend,
    tenant: str,
    workload,
    eval_seed: int = 1,
    deadline_s: float = 30.0,
):
    """Submit, backing off through overload and probation windows."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return frontend.submit(tenant, workload, eval_seed=eval_seed)
        except (ServiceOverloadError, TenantQuarantinedError) as error:
            if time.monotonic() > deadline:
                raise
            time.sleep(
                max(0.005, getattr(error, "retry_after_s", 0.0) or 0.005)
            )


#: Strikes (= injected lane crashes) that quarantine the recovery leg's
#: victim tenant.
_RECOVERY_STRIKES = 3


def _recovery_leg(
    seed: int,
    specs: list[TenantSpec],
    names: list[str],
    quick: bool,
    solo: dict,
    mismatches: list,
) -> tuple[dict, dict]:
    """Leg 5: lane-crash storm, quarantine, restore, bit-identical rerun.

    The victim's lane crashes ``_RECOVERY_STRIKES`` times (the injected
    fault requeues the dequeued job before dying, so nothing is lost
    silently), which strikes it into quarantine: its queued job is
    dropped and journaled.  After probation the supervisor restores the
    tenant from a rebuilt context; the campaign resubmits its traffic
    and every tenant — victim included — must reproduce its solo
    fingerprint bit for bit.
    """
    victim = names[0]
    plan = FaultPlan.single(
        SERVICE_LANE_CRASH, times=_RECOVERY_STRIKES, match=victim
    )
    frontend = ServiceFrontend(
        shared=SharedArtifacts.create(backend="vector"),
        faults=plan,
        max_strikes=_RECOVERY_STRIKES,
        quarantine_s=0.05,
        supervise_interval_s=0.002,
    )
    try:
        for spec in specs:
            frontend.admit(spec)
        for index, spec in enumerate(specs):
            _submit_with_patience(
                frontend, spec.name, _tenant_workload(seed, index, quick)
            )
        deadline = time.monotonic() + 30.0
        while frontend.health.restores < 1:
            if time.monotonic() > deadline:
                mismatches.append(
                    {"check": "recovery-restore-timeout", "tenant": victim}
                )
                break
            time.sleep(0.005)
        if frontend.health.restores >= 1:
            # The victim's job was dropped at quarantine; resubmit it.
            _submit_with_patience(
                frontend,
                victim,
                _tenant_workload(seed, names.index(victim), quick),
            )
        report = frontend.drain(timeout=120.0)
        fingerprints = report.fingerprints()
        for name in names:
            if fingerprints.get(name) != solo.get(name):
                mismatches.append(
                    {"check": "recovery-vs-solo", "tenant": name}
                )
        if frontend.health.quarantines < 1:
            mismatches.append(
                {"check": "recovery-quarantine-missing", "tenant": victim}
            )
        for violation in frontend.health.violations():
            mismatches.append(
                {"check": "recovery-accounting", "detail": violation}
            )
        return fingerprints, frontend.health.to_dict()
    finally:
        frontend.close()


def _overload_leg(seed: int, quick: bool, mismatches: list) -> dict:
    """Leg 6: a one-deep lane under a burst; every shed accounted.

    The caller counts the :class:`~repro.errors.ServiceOverloadError`s
    it caught; the journal must contain exactly that many ``job-shed``
    events (with retry-after hints), and once drained the conservation
    law must hold for the accepted remainder.
    """
    frontend = ServiceFrontend(
        shared=SharedArtifacts.create(backend="fast"),
        queue_depth=1,
        supervise_interval_s=0.002,
    )
    burst = 12
    caught = 0
    handles = []
    try:
        frontend.admit(TenantSpec(name="burst", system="bs_dm", quota=2))
        workload = StridedCopyWorkload(
            stride_lines=8, accesses_per_thread=512 if quick else 2048
        )
        for index in range(burst):
            try:
                handles.append(
                    frontend.submit("burst", workload, eval_seed=index)
                )
            except ServiceOverloadError as error:
                caught += 1
                if error.retry_after_s <= 0:
                    mismatches.append(
                        {"check": "overload-retry-after", "tenant": "burst"}
                    )
        frontend.drain(timeout=60.0)
        health = frontend.health
        shed_events = [
            e for e in health.events if e["event"] == "job-shed"
        ]
        if health.shed != caught or len(shed_events) != caught:
            mismatches.append(
                {
                    "check": "overload-shed-accounting",
                    "caught": caught,
                    "counter": health.shed,
                    "events": len(shed_events),
                }
            )
        unfinished = [h.status for h in handles if h.status != "completed"]
        if unfinished:
            mismatches.append(
                {"check": "overload-accepted-lost", "statuses": unfinished}
            )
        for violation in health.violations():
            mismatches.append(
                {"check": "overload-conservation", "detail": violation}
            )
        return {
            "burst": burst,
            "accepted": len(handles),
            "shed": caught,
            "health": health.to_dict(),
        }
    finally:
        frontend.close()


def _scale_leg(
    seed: int, quick: bool, mismatches: list, tenants: int = 208
) -> dict:
    """Leg 7: 200+ tenant churn under overload and an injected crash.

    Tenants with quotas 1–2 (floor 1) and mixed priorities are admitted
    until the valves (reclaim, trim, preempt) are all exercised, then
    evicted and re-admitted in waves.  After every wave the registry's
    budget invariants — namespaces inside ``[1, max_mappings)``,
    pairwise disjoint, carved + free accounting exact — must hold.  A
    probe tenant admitted first (deterministic namespace) runs real
    jobs throughout, its lane crashes once mid-churn (restart, no
    quarantine), and its fingerprint must match a solo run.
    """
    probe = "probe"
    plan = FaultPlan.single(SERVICE_LANE_CRASH, times=1, match=probe)
    probe_spec = TenantSpec(
        name=probe, system="sdm_bsm_ml4", quota=5, seed=seed, backend="fast"
    )
    accesses = 384 if quick else 1536
    workload = StridedCopyWorkload(
        stride_lines=4, accesses_per_thread=accesses
    )
    frontend = ServiceFrontend(
        shared=SharedArtifacts.create(backend="fast"),
        faults=plan,
        max_strikes=2,
        quarantine_s=0.02,
        queue_depth=2,
        supervise_interval_s=0.002,
    )
    summary: dict = {"requested": tenants}
    try:
        frontend.admit(probe_spec)
        handles = [_submit_with_patience(frontend, probe, workload)]

        def check(wave: str) -> None:
            problems = frontend.registry.check_invariants()
            for problem in problems:
                mismatches.append(
                    {"check": "scale-invariants", "wave": wave,
                     "detail": problem}
                )

        def spec_for(index: int) -> TenantSpec:
            return TenantSpec(
                name=f"scale{index:04d}",
                system="bs_dm",
                quota=1 + (index % 2),
                min_quota=1,
                priority=("standard", "best-effort", "guaranteed")[index % 3],
                seed=seed + index,
                backend="fast",
            )

        admitted: list[str] = []
        exhausted = 0
        for index in range(tenants):
            try:
                frontend.admit(spec_for(index))
                admitted.append(f"scale{index:04d}")
            except CMTError:
                exhausted += 1
        check("admit")
        summary["admitted"] = len(admitted)
        summary["exhausted"] = exhausted

        # Churn: evict every third tenant, re-admit fresh ones into the
        # coalesced holes, twice over.
        next_index = tenants
        for wave in range(2):
            victims = admitted[wave::3]
            for name in victims:
                frontend.evict(name)
            admitted = [n for n in admitted if n not in set(victims)]
            check(f"evict-{wave}")
            handles.append(
                _submit_with_patience(
                    frontend, probe, workload, eval_seed=2 + wave
                )
            )
            for _ in range(len(victims)):
                try:
                    frontend.admit(spec_for(next_index))
                    admitted.append(f"scale{next_index:04d}")
                except CMTError:
                    exhausted += 1
                next_index += 1
            check(f"readmit-{wave}")

        # Overload a one-job corner of the fleet: a best-effort tenant's
        # two-deep queue hammered past capacity.
        busy = admitted[-1]
        shed = 0
        for index in range(6):
            try:
                handles.append(
                    frontend.submit(busy, workload, eval_seed=10 + index)
                )
            except ServiceOverloadError:
                shed += 1
        summary["shed"] = shed

        report = frontend.drain(timeout=120.0)
        check("drained")
        if frontend.health.lane_crashes < 1:
            mismatches.append(
                {"check": "scale-crash-missing", "tenant": probe}
            )
        for violation in frontend.health.violations():
            mismatches.append(
                {"check": "scale-conservation", "detail": violation}
            )
        probe_fingerprint = report.fingerprints()[probe]
        summary["tenant_count"] = len(frontend.registry)
        summary["health"] = frontend.health.to_dict()
    finally:
        frontend.close()

    # The probe's solo control: same spec admitted first in a fresh
    # deployment (same namespace base), same traffic, no churn around it.
    solo_frontend = ServiceFrontend(
        shared=SharedArtifacts.create(backend="fast"),
        supervise_interval_s=0.002,
    )
    try:
        solo_frontend.admit(probe_spec)
        solo_frontend.submit(probe, workload)
        for wave in range(2):
            solo_frontend.submit(probe, workload, eval_seed=2 + wave)
        solo_report = solo_frontend.drain(timeout=120.0)
        solo_fingerprint = solo_report.fingerprints()[probe]
    finally:
        solo_frontend.close()
    if probe_fingerprint != solo_fingerprint:
        mismatches.append({"check": "scale-probe-vs-solo", "tenant": probe})
    summary["probe_isolated"] = probe_fingerprint == solo_fingerprint
    return summary


def run_service_campaign(
    seed: int = 0,
    tenants: int = 3,
    quick: bool = True,
    controllers: bool = True,
    frontend_legs: bool = True,
    scale_tenants: int = 208,
    backend: str = "vector",
) -> ServiceCampaignResult:
    """Run the full isolation selftest; see the module docstring."""
    started = time.perf_counter()
    count = max(2, tenants)
    clean_specs = _tenant_specs(seed, count, backend=backend)
    names = [spec.name for spec in clean_specs]
    faulty = names[0]
    result = ServiceCampaignResult(
        seed=seed,
        quick=quick,
        tenants=names,
        faulty_tenant=faulty,
    )

    # Leg 1: solo runs — same admissions, one tenant's traffic each.
    for name in names:
        report = _run_leg(seed, clean_specs, [name], quick, backend=backend)
        result.solo_fingerprints[name] = report.fingerprints()[name]

    # Leg 2: all tenants concurrently.
    report = _run_leg(seed, clean_specs, names, quick, backend=backend)
    result.concurrent_fingerprints = report.fingerprints()
    result.concurrent_health = {
        name: None
        if tenant.health is None
        else tenant.health.to_dict()
        for name, tenant in report.tenants.items()
    }
    result.plan_cache = report.plan_cache
    result.budget = report.budget
    for name in names:
        if result.concurrent_fingerprints[name] != result.solo_fingerprints[name]:
            result.mismatches.append(
                {"check": "concurrent-vs-solo", "tenant": name}
            )

    # Leg 3: concurrent again, with one tenant's backend faulted.  The
    # victim tenants must see neither their fingerprints nor their
    # health journals move.
    fault_specs = _tenant_specs(seed, count, faulty=faulty, backend=backend)
    report = _run_leg(seed, fault_specs, names, quick, backend=backend)
    result.fault_fingerprints = report.fingerprints()
    result.fault_health = {
        name: None
        if tenant.health is None
        else tenant.health.to_dict()
        for name, tenant in report.tenants.items()
    }
    for name in names:
        if name == faulty:
            continue
        if result.fault_fingerprints[name] != result.solo_fingerprints[name]:
            result.mismatches.append(
                {"check": "fault-vs-solo", "tenant": name}
            )
        if result.fault_health.get(name) != result.concurrent_health.get(name):
            result.mismatches.append(
                {"check": "fault-health", "tenant": name}
            )

    # Leg 4: per-tenant controllers, solo vs concurrent.
    if controllers:
        result.controller_fingerprints = _controller_leg(
            seed, clean_specs, result.mismatches
        )

    if frontend_legs:
        # Leg 5: continuous front-end lane-crash recovery.
        result.recovery_fingerprints, result.recovery_health = _recovery_leg(
            seed,
            clean_specs,
            names,
            quick,
            result.solo_fingerprints,
            result.mismatches,
        )
        # Leg 6: overload shedding is exact, never silent.
        result.overload = _overload_leg(seed, quick, result.mismatches)
        # Leg 7: 200+ tenant churn against the budget invariants.
        result.scale = _scale_leg(
            seed, quick, result.mismatches, tenants=scale_tenants
        )

    result.elapsed_seconds = time.perf_counter() - started
    return result
