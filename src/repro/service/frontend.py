"""The continuous service front-end: always-on, supervised tenant lanes.

:class:`ServiceFrontend` is the service's one driver: tenants are
admitted through a :class:`~repro.service.registry.TenantRegistry`
(quota-carved mapping namespaces over shared immutable artifacts),
submit workload jobs, and :meth:`ServiceFrontend.drain` waits for every
accepted job and folds the lanes into a
:class:`~repro.service.service.ServiceReport`.  It provides:

* **Always-running lanes** — each admitted tenant gets a dedicated lane
  thread pulling jobs from a bounded queue the moment they are
  submitted.  Per-tenant order is submission order, which is what keeps
  every tenant's results bit-identical to a solo run no matter how
  lanes interleave.
* **Backpressure, never silent loss** — a full lane queue *sheds* the
  submission with a structured
  :class:`~repro.errors.ServiceOverloadError` carrying a retry-after
  hint; every shed is journaled in the shared
  :class:`~repro.service.health.ServiceHealth`.  Accepted jobs obey the
  conservation law: each ends completed, failed, timed out, or dropped
  (eviction/quarantine/preemption) — with a journal entry for every
  non-completed terminal state.
* **Deadlines and retries** — jobs carry absolute deadlines (expired
  queue entries time out without running; a wedged in-flight job is
  abandoned by the supervisor) and transient failures retry with the
  sweep engine's :class:`~repro.system.runner.RetryPolicy` backoff.
* **Supervision** — a :class:`~repro.service.supervisor.LaneSupervisor`
  monitor thread detects dead lane threads (including injected
  ``service.*`` faults), strikes, restarts lanes from the last good
  :class:`~repro.service.tenant.TenantContext`, quarantines tenants
  after ``max_strikes``, and restores them after probation.

Lane threads discard work across restarts with *generation tokens*:
every restart bumps ``lane.generation``; a stale thread notices and
exits without touching lane state (Python cannot kill threads, so
abandonment is cooperative discard plus a fresh thread).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import (
    ConfigError,
    ServiceOverloadError,
    TenantQuarantinedError,
)
from repro.faults.sites import (
    SERVICE_JOB_CRASH,
    SERVICE_LANE_CRASH,
    SERVICE_LANE_STALL,
)
from repro.service.health import ServiceHealth
from repro.service.registry import TenantRegistry, TenantSpec
from repro.service.service import ServiceReport, TenantResult
from repro.service.supervisor import LaneSupervisor
from repro.service.tenant import SharedArtifacts, TenantContext
from repro.system.runner import RetryPolicy
from repro.workloads.base import Workload

__all__ = ["DEFAULT_DEADLINE_S", "DEFAULT_QUEUE_DEPTH", "JobHandle", "ServiceFrontend"]

#: Bounded per-tenant queue depth beyond which submissions shed.
DEFAULT_QUEUE_DEPTH = 64
#: Default per-job deadline (submission to completion), seconds.
DEFAULT_DEADLINE_S = 60.0

#: Terminal job states (the conservation law's right-hand side).
_TERMINAL = ("completed", "failed", "timeout", "dropped")


@dataclass
class JobHandle:
    """A submitted job's observable state; settles exactly once.

    ``wait()`` blocks until the job reaches a terminal state; ``status``
    is one of ``queued``/``running``/``completed``/``failed``/
    ``timeout``/``dropped``.  ``settle`` is once-only and thread-safe —
    the lane thread and the supervisor may race to settle (completion
    vs. abandonment) and exactly one wins, which is what keeps the
    health journal's conservation law exact.
    """

    tenant: str
    workload: str
    status: str = "queued"
    result: object = None
    error: str | None = None
    attempts: int = 0
    _settled: bool = field(default=False, init=False, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    _event: threading.Event = field(
        default_factory=threading.Event, init=False, repr=False, compare=False
    )

    def settle(
        self, status: str, result: object = None, error: str | None = None
    ) -> bool:
        """Move to a terminal state; False if already settled."""
        if status not in _TERMINAL:
            raise ConfigError(f"{status!r} is not a terminal job state")
        with self._lock:
            if self._settled:
                return False
            self._settled = True
            self.status = status
            self.result = result
            self.error = error
        self._event.set()
        return True

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal (or timeout); returns :attr:`done`."""
        return self._event.wait(timeout)


@dataclass
class _QueuedJob:
    """One accepted job riding a lane queue."""

    workload: Workload
    profile_seed: int
    eval_seed: int
    handle: JobHandle
    deadline: float  # absolute monotonic deadline


class _TenantLane:
    """One tenant's always-on serving lane (queue + worker thread).

    All mutable fields are guarded by ``lock``; ``ready`` wakes the
    worker on submission, close, or restart.  ``generation`` is the
    restart token: threads capture it at spawn and discard everything
    once it moves on without them.
    """

    def __init__(self, name: str):
        self.name = name
        self.lock = threading.Lock()
        self.ready = threading.Condition(self.lock)
        self.queue: deque[_QueuedJob] = deque()
        self.generation = 0
        self.thread: threading.Thread | None = None
        self.current: _QueuedJob | None = None
        self.busy_since: float | None = None
        self.strikes = 0
        self.quarantined_until: float | None = None
        self.results: list = []
        self.closing = False

    def idle(self) -> bool:
        with self.lock:
            return not self.queue and self.current is None


class ServiceFrontend:
    """Admit tenants, serve jobs continuously, survive lane failures.

    The registry, the health journal and the supervisor share one
    instance each: admissions journal reclaims/preemptions into the
    same :class:`ServiceHealth` the lanes and the supervisor write, so
    one record tells the whole degradation story.
    """

    def __init__(
        self,
        shared: SharedArtifacts | None = None,
        max_mappings: int = 256,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        deadline_s: float = DEFAULT_DEADLINE_S,
        retry: RetryPolicy | None = None,
        faults=None,
        max_strikes: int = 3,
        quarantine_s: float = 0.05,
        supervise_interval_s: float = 0.005,
        retry_after_s: float = 0.05,
    ):
        if queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if not deadline_s > 0:  # also rejects NaN
            raise ConfigError("deadline_s must be > 0")
        self.health = ServiceHealth()
        self.registry = TenantRegistry(
            shared, max_mappings=max_mappings, health=self.health
        )
        self.registry.preempt_hook = self._on_preempt
        self.shared = self.registry.shared
        self.queue_depth = queue_depth
        self.deadline_s = deadline_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.retry_after_s = retry_after_s
        self._clock = time.monotonic
        self._lanes: dict[str, _TenantLane] = {}
        self._lanes_lock = threading.RLock()
        #: Serialises registry mutation (admit/evict/rebuild) —
        #: the supervisor restores quarantined tenants from its monitor
        #: thread while the caller may be admitting on another.
        self._registry_lock = threading.RLock()
        self._closed = False
        self.supervisor = LaneSupervisor(
            self,
            interval_s=supervise_interval_s,
            max_strikes=max_strikes,
            quarantine_s=quarantine_s,
        )

    # -- lifecycle ------------------------------------------------------------
    def __enter__(self) -> "ServiceFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> int:
        """Stop every lane and the supervisor; drop (and journal) any
        jobs still queued.  Returns the number of jobs dropped."""
        if self._closed:
            return 0
        self._closed = True
        self.supervisor.stop()
        with self._lanes_lock:
            names = list(self._lanes)
        dropped = 0
        for name in names:
            dropped += self._teardown_lane(name, reason="service closed")
        return dropped

    # -- admission ------------------------------------------------------------
    def admit(self, spec: TenantSpec) -> TenantContext:
        """Admit a tenant and start its serving lane."""
        if self._closed:
            raise ConfigError("service front-end is closed")
        with self._registry_lock:
            context = self.registry.admit(spec)
            lane = _TenantLane(spec.name)
            with self._lanes_lock:
                self._lanes[spec.name] = lane
            self._start_lane_thread(lane)
        self.supervisor.ensure_running()
        return context

    def evict(self, name: str) -> int:
        """Evict a tenant; every queued/in-flight job is settled as
        ``dropped`` with a journal entry.  Returns the dropped count."""
        with self._registry_lock:
            dropped = self._teardown_lane(name, reason="tenant evicted")
            self.registry.evict(name)
        return dropped

    def _on_preempt(self, name: str) -> None:
        """Registry preemption hook: tear the victim's lane down first.

        Runs under :attr:`_registry_lock` (preemption only happens
        inside :meth:`admit`); the registry evicts the tenant right
        after this returns.
        """
        self._teardown_lane(name, reason="preempted")

    def _teardown_lane(self, name: str, reason: str) -> int:
        """Stop a lane and account all its jobs as dropped."""
        with self._lanes_lock:
            lane = self._lanes.pop(name, None)
        if lane is None:
            return 0
        dropped = 0
        with lane.lock:
            lane.closing = True
            lane.generation += 1
            victims = list(lane.queue)
            lane.queue.clear()
            if lane.current is not None:
                victims.insert(0, lane.current)
                lane.current = None
                lane.busy_since = None
            thread = lane.thread
            lane.thread = None
            lane.ready.notify_all()
        for job in victims:
            if job.handle.settle("dropped", error=reason):
                dropped += 1
                self.health.record(
                    "job-dropped", name, reason, workload=job.handle.workload
                )
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=1.0)
        return dropped

    # -- submission -----------------------------------------------------------
    def submit(
        self,
        tenant: str,
        workload: Workload,
        profile_seed: int = 0,
        eval_seed: int = 1,
        deadline_s: float | None = None,
    ) -> JobHandle:
        """Queue one job; returns a :class:`JobHandle` to wait on.

        Raises :class:`~repro.errors.TenantQuarantinedError` while the
        tenant is in probation and
        :class:`~repro.errors.ServiceOverloadError` (with a
        ``retry_after_s`` hint) when the lane queue is full — both
        journaled, so no rejection is silent.
        """
        if self._closed:
            raise ConfigError("service front-end is closed")
        with self._lanes_lock:
            lane = self._lanes.get(tenant)
        if lane is None:
            raise ConfigError(f"tenant {tenant!r} is not admitted")
        if deadline_s is None:
            deadline_s = self.deadline_s
        elif not deadline_s > 0:  # also rejects NaN
            raise ConfigError("deadline_s must be > 0")
        handle = JobHandle(tenant=tenant, workload=workload.name)
        job = _QueuedJob(
            workload=workload,
            profile_seed=profile_seed,
            eval_seed=eval_seed,
            handle=handle,
            deadline=self._clock() + deadline_s,
        )
        with lane.lock:
            until = lane.quarantined_until
            if until is not None:
                self.health.record(
                    "job-rejected",
                    tenant,
                    "tenant quarantined",
                    workload=workload.name,
                )
                raise TenantQuarantinedError(
                    f"tenant {tenant!r} is quarantined after repeated lane "
                    "failures; retry after probation",
                    tenant=tenant,
                    until_s=until,
                )
            if len(lane.queue) < self.queue_depth:
                self.health.note_submitted()
                lane.queue.append(job)
                lane.ready.notify_all()
                return handle
            self.health.record(
                "job-shed",
                tenant,
                f"lane queue full ({self.queue_depth} deep)",
                workload=workload.name,
            )
        raise ServiceOverloadError(
            f"tenant {tenant!r} lane queue is full "
            f"({self.queue_depth} jobs deep); retry later",
            tenant=tenant,
            retry_after_s=self.retry_after_s,
        )

    # -- the lane worker ------------------------------------------------------
    def _start_lane_thread(self, lane: _TenantLane) -> None:
        """Spawn a fresh worker for the lane's current generation."""
        lane.generation += 1
        generation = lane.generation
        thread = threading.Thread(
            target=self._lane_loop,
            args=(lane, generation),
            name=f"repro-lane-{lane.name}-g{generation}",
            daemon=True,
        )
        lane.thread = thread
        thread.start()

    def _lane_loop(self, lane: _TenantLane, generation: int) -> None:
        while True:
            with lane.lock:
                while (
                    not lane.queue
                    and not lane.closing
                    and lane.generation == generation
                ):
                    lane.ready.wait(timeout=0.1)
                if lane.closing or lane.generation != generation:
                    return
                job = lane.queue.popleft()
                if self._clock() > job.deadline:
                    # Expired while queued: terminal without running.
                    expired = job
                    job = None
                else:
                    lane.current = job
                    lane.busy_since = self._clock()
            if job is None:
                if expired.handle.settle("timeout", error="deadline expired in queue"):
                    self.health.record(
                        "job-timeout",
                        lane.name,
                        "deadline expired before the job started",
                        workload=expired.handle.workload,
                    )
                continue
            # Injected lane crash: requeue the job (never silently
            # lost), then die.  The supervisor detects the dead thread,
            # strikes, and restarts the lane.
            if self.faults is not None and self.faults.should_fire(
                SERVICE_LANE_CRASH, lane.name
            ):
                with lane.lock:
                    if lane.generation == generation:
                        lane.queue.appendleft(job)
                        lane.current = None
                        lane.busy_since = None
                return
            self._run_job(lane, generation, job)

    def _run_job(
        self, lane: _TenantLane, generation: int, job: _QueuedJob
    ) -> None:
        handle = job.handle
        handle.status = "running"
        attempt = 0
        while True:
            attempt += 1
            handle.attempts = attempt
            try:
                if self.faults is not None:
                    # stall specs sleep here (driving the job past its
                    # deadline so the supervisor abandons the lane);
                    # raise specs throw into the retry path below.
                    self.faults.inject(
                        SERVICE_LANE_STALL, lane.name, attempt=attempt
                    )
                    self.faults.inject(
                        SERVICE_JOB_CRASH, lane.name, attempt=attempt
                    )
                with lane.lock:
                    if lane.generation != generation:
                        return  # abandoned mid-stall: handle already settled
                context = self.registry.get(lane.name)
                result = context.run(
                    job.workload,
                    profile_seed=job.profile_seed,
                    eval_seed=job.eval_seed,
                )
            except Exception as error:  # noqa: BLE001 — classified below
                label = f"{type(error).__name__}: {error}"
                if self.retry.should_retry_exception(error, attempt):
                    self.health.record(
                        "job-retried",
                        lane.name,
                        label,
                        attempt=attempt,
                        workload=handle.workload,
                    )
                    time.sleep(self.retry.delay(attempt))
                    continue
                settled = handle.settle("failed", error=label)
                with lane.lock:
                    if lane.generation == generation:
                        lane.current = None
                        lane.busy_since = None
                if settled:
                    self.health.record(
                        "job-failed",
                        lane.name,
                        label,
                        attempts=attempt,
                        workload=handle.workload,
                    )
                return
            settled = handle.settle("completed", result=result)
            with lane.lock:
                if lane.generation == generation and settled:
                    lane.results.append(result)
                    lane.current = None
                    lane.busy_since = None
            if settled:
                self.health.note_completed()
            return

    # -- draining and reporting ----------------------------------------------
    @property
    def pending(self) -> int:
        """Accepted jobs not yet terminal."""
        return self.health.pending

    def drain(self, timeout: float = 60.0) -> ServiceReport:
        """Wait until every accepted job is terminal, then report.

        Lanes keep running after the drain — this is a checkpoint, not
        a shutdown; :meth:`close` is the shutdown.  Raises
        :class:`~repro.errors.ConfigError` if jobs remain unaccounted
        past ``timeout`` (which would mean supervision is wedged).
        """
        deadline = self._clock() + timeout
        while self.health.pending > 0:
            if self._clock() > deadline:
                raise ConfigError(
                    f"drain timed out with {self.health.pending} job(s) "
                    "unaccounted"
                )
            time.sleep(0.002)
        return self.report()

    def report(self) -> ServiceReport:
        """The current service snapshot (health journal included)."""
        results: dict[str, TenantResult] = {}
        with self._lanes_lock:
            lanes = dict(self._lanes)
        with self._registry_lock:
            for name in self.registry.names:
                lane = lanes.get(name)
                namespace = self.registry.get(name).namespace
                runs = []
                if lane is not None:
                    with lane.lock:
                        runs = list(lane.results)
                results[name] = TenantResult(
                    tenant=name, namespace=namespace, results=runs
                )
            budget = self.registry.report()
        return ServiceReport(
            tenants=results,
            plan_cache=self.shared.plan_cache.stats(),
            budget=budget,
            health=self.health,
        )
