"""Named fault-injection sites.

A *fault site* is a stable string naming one place where fault machinery
may act.  Sites come in two *families* with different injectors:

**Engine sites** — checked by the experiment engine, injected through a
:class:`~repro.faults.plan.FaultPlan`:

``store.load.<kind>``
    Checked by :class:`~repro.system.tracefile.StageStore` just before
    reading a cached entry; the token is the entry's cache key.  The
    only useful fault kind here is ``corrupt`` (garble the blob on
    disk so the checksum/decode path must heal it).

``worker.<stage>``
    Checked at the start of each compute stage, whether it runs in a
    worker process or inline.  The token is ``"<workload>:<system>"``
    for cell stages and the bare workload name for the shared
    profiling phase.  Useful kinds: ``raise`` (simulated crash),
    ``stall`` (sleep past the cell timeout) and ``break-pool``
    (``os._exit`` the worker so the whole pool breaks).

**Device sites** — modeled-hardware failures, injected through a
:class:`~repro.ras.faults.DeviceFaultPlan` at access-count trigger
points:

``device.hbm.row`` / ``device.hbm.bank`` / ``device.hbm.channel``
    A stuck DRAM row, a dead bank, a lost channel.  Accesses landing on
    the failed region return ECC errors; writes are dropped.

``device.cmt.flip``
    An SRAM bit upset in the CMT: either a first-level chunk entry
    (chunk silently rebinds to another — or an unknown — mapping) or a
    second-level configuration lane (the stored permutation corrupts).

``device.amu.misprogram``
    The AMU crossbar applies a *valid but wrong* permutation for one
    mapping index while the CMT SRAM stays correct — the failure a
    shadow compare cannot see and only translation spot checks catch.

**Backend sites** — guarded-execution failures inside the memory
backends, injected through the same :class:`~repro.faults.plan.
FaultPlan` as engine sites (they share its deterministic firing
machinery).  Unlike engine sites, where the spec's *kind* chooses the
effect, a backend site *names* its effect and the kind is advisory.
Only the divergence guard consults a backend plan, so a tenant that
carries one must run guarded on a non-``event`` tier
(:class:`~repro.service.tenant.TenantContext` rejects it otherwise):

``backend.divergence``
    The divergence guard's sampled primary-tier result is perturbed,
    forcing a cross-tier mismatch; the token is ``chunk<index>``.
    Recovery: the run demotes primary → reference with a structured
    report.

**Service sites** — failures inside the continuous multi-tenant
front-end's tenant lanes, injected through the same
:class:`~repro.faults.plan.FaultPlan` as engine and backend sites.
Like the ``backend.*`` family, a service site *names* its effect;
tokens are the tenant name (lane-level sites) or
``<tenant>:<job id>`` (job-level sites):

``service.lane.crash``
    The tenant's lane thread dies after dequeuing a job (the job is
    requeued first, so no work is lost silently).  Recovery: the lane
    supervisor records a strike and restarts the lane; ``K``
    consecutive strikes quarantine the tenant.

``service.lane.stall``
    The lane sleeps ``seconds`` mid-job, driving the job past its
    deadline.  Recovery: the supervisor abandons the wedged lane
    thread (its late result is discarded by generation check), marks
    the job timed out, and starts a replacement lane.

``service.job.crash``
    One job's execution raises before the pipeline runs.  Recovery:
    the lane's retry-with-backoff (reusing the experiment engine's
    :class:`~repro.system.runner.RetryPolicy`) re-runs the job;
    injected faults never fire on retries, so the job converges.

Site patterns in a :class:`FaultSpec` are ``fnmatch`` globs, so
``store.load.*`` or ``device.hbm.*`` cover a family.  Each injector
validates patterns against *its* family, so a spec that could never
fire (e.g. a ``device.*`` pattern handed to the engine's ``FaultPlan``)
fails fast at construction instead of silently never firing.
"""

from __future__ import annotations

from fnmatch import fnmatch

__all__ = [
    "BACKEND_DIVERGENCE",
    "BACKEND_SITES",
    "DEVICE_AMU_MISPROGRAM",
    "DEVICE_CMT_FLIP",
    "DEVICE_HBM_BANK",
    "DEVICE_HBM_CHANNEL",
    "DEVICE_HBM_ROW",
    "DEVICE_SITES",
    "ENGINE_SITES",
    "KNOWN_SITES",
    "SERVICE_JOB_CRASH",
    "SERVICE_LANE_CRASH",
    "SERVICE_LANE_STALL",
    "SERVICE_SITES",
    "STORE_LOAD_PROFILE",
    "STORE_LOAD_RESULT",
    "STORE_LOAD_SELECTION",
    "STORE_LOAD_SWEEP",
    "STORE_LOAD_TRACE",
    "WORKER_EVALUATE",
    "WORKER_PROFILE",
    "WORKER_SELECTION",
    "matches_known_site",
]

STORE_LOAD_TRACE = "store.load.trace"
STORE_LOAD_PROFILE = "store.load.profile"
STORE_LOAD_SELECTION = "store.load.selection"
STORE_LOAD_RESULT = "store.load.result"
STORE_LOAD_SWEEP = "store.load.sweep"
WORKER_PROFILE = "worker.profile"
WORKER_SELECTION = "worker.selection"
WORKER_EVALUATE = "worker.evaluate"

DEVICE_HBM_ROW = "device.hbm.row"
DEVICE_HBM_BANK = "device.hbm.bank"
DEVICE_HBM_CHANNEL = "device.hbm.channel"
DEVICE_CMT_FLIP = "device.cmt.flip"
DEVICE_AMU_MISPROGRAM = "device.amu.misprogram"

BACKEND_DIVERGENCE = "backend.divergence"

SERVICE_LANE_CRASH = "service.lane.crash"
SERVICE_LANE_STALL = "service.lane.stall"
SERVICE_JOB_CRASH = "service.job.crash"

#: Sites the experiment engine's FaultPlan can act on.
ENGINE_SITES = (
    STORE_LOAD_TRACE,
    STORE_LOAD_PROFILE,
    STORE_LOAD_SELECTION,
    STORE_LOAD_RESULT,
    STORE_LOAD_SWEEP,
    WORKER_PROFILE,
    WORKER_SELECTION,
    WORKER_EVALUATE,
)

#: Modeled-hardware sites the RAS DeviceFaultPlan can act on.
DEVICE_SITES = (
    DEVICE_HBM_ROW,
    DEVICE_HBM_BANK,
    DEVICE_HBM_CHANNEL,
    DEVICE_CMT_FLIP,
    DEVICE_AMU_MISPROGRAM,
)

#: Guarded-execution sites inside the memory backends, checked by the
#: cross-tier divergence guard.  They fire through the engine
#: :class:`~repro.faults.plan.FaultPlan`.
BACKEND_SITES = (BACKEND_DIVERGENCE,)

#: Tenant-lane sites inside the continuous service front-end, checked
#: by the lane loop and the lane supervisor.  They fire through the
#: engine :class:`~repro.faults.plan.FaultPlan`.
SERVICE_SITES = (
    SERVICE_LANE_CRASH,
    SERVICE_LANE_STALL,
    SERVICE_JOB_CRASH,
)

KNOWN_SITES = ENGINE_SITES + DEVICE_SITES + BACKEND_SITES + SERVICE_SITES

_FAMILIES = {
    None: KNOWN_SITES,
    "engine": ENGINE_SITES,
    "device": DEVICE_SITES,
    "backend": BACKEND_SITES,
    "service": SERVICE_SITES,
}


def matches_known_site(pattern: str, family: str | None = None) -> bool:
    """Whether a site pattern can ever match a real injection point.

    ``family`` restricts the check to one injector's sites
    (``"engine"`` or ``"device"``); the default spans both families.
    """
    return any(fnmatch(site, pattern) for site in _FAMILIES[family])
