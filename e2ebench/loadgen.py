"""Open-loop load generator: seeded Poisson arrivals, timed from when due.

One generator thread sends every job at its due time whether or not
earlier jobs have finished, so a stalled service builds a queue instead
of slowing the arrivals.  Latency runs from the *due* time, so a
generator that falls behind (because ``submit`` blocked, or the host
was busy) charges that delay to the jobs it made late; how late each
send was is recorded too.  One collector thread per tenant stamps
completions in submission order, which is the order a tenant's lane
finishes them.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Job", "OpenLoop", "poisson_dues"]


@dataclass
class Job:
    """One arrival and what became of it (times in ``time.perf_counter`` s)."""

    tenant: str
    workload: object
    due: float
    phase: str = ""
    sent: float | None = None
    done: float | None = None
    status: str = "pending"
    handle: object = field(default=None, repr=False)

    @property
    def late(self) -> float:
        """Seconds the send lagged the due time."""
        return (self.sent - self.due) if self.sent is not None else 0.0

    @property
    def latency(self) -> float:
        """Seconds from due to completion."""
        return self.done - self.due


def poisson_dues(rng, rate: float, count: int) -> list[float]:
    """The first ``count`` arrival times of a Poisson process of ``rate``/s."""
    return [float(t) for t in np.cumsum(rng.exponential(1.0 / rate, count))]


_SUBMIT_REFUSALS = {
    "ServiceOverloadError": "shed",
    "TenantQuarantinedError": "rejected",
}


class OpenLoop:
    """Drive ``service.submit(tenant, workload, **submit_kwargs)`` open-loop.

    ``jobs`` carry due times relative to the start of :meth:`run`; the
    loop rewrites them (and every other stamp) to absolute
    ``time.perf_counter`` values.
    """

    #: Longest wait for one job, or for the generator to finish.
    WAIT_S = 120.0

    def __init__(self, service, **submit_kwargs):
        self.service = service
        self.submit_kwargs = submit_kwargs

    def run(self, jobs: list[Job]) -> list[Job]:
        tenants = sorted({job.tenant for job in jobs})
        inboxes = {tenant: queue.Queue() for tenant in tenants}
        collectors = [
            threading.Thread(
                target=self._collect, args=(inboxes[tenant],),
                name=f"e2ebench-collect-{tenant}", daemon=True,
            )
            for tenant in tenants
        ]
        for thread in collectors:
            thread.start()
        start = time.perf_counter()
        for job in jobs:
            job.due += start
        generator = threading.Thread(
            target=self._generate, args=(jobs, inboxes),
            name="e2ebench-loadgen", daemon=True,
        )
        generator.start()
        generator.join(timeout=self.WAIT_S + (jobs[-1].due - start if jobs else 0))
        for inbox in inboxes.values():
            inbox.put(None)
        for thread in collectors:
            thread.join(timeout=self.WAIT_S)
        if generator.is_alive() or any(t.is_alive() for t in collectors):
            raise RuntimeError("open loop did not finish in time")
        return jobs

    def _generate(self, jobs, inboxes) -> None:
        for job in jobs:
            delay = job.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            job.sent = time.perf_counter()
            try:
                job.handle = self.service.submit(
                    job.tenant, job.workload, **self.submit_kwargs
                )
            except Exception as error:  # noqa: BLE001 — refusals are data
                job.status = _SUBMIT_REFUSALS.get(type(error).__name__, "error")
                job.done = time.perf_counter()
                continue
            inboxes[job.tenant].put(job)

    def _collect(self, inbox) -> None:
        while True:
            job = inbox.get()
            if job is None:
                return
            if job.handle.wait(self.WAIT_S):
                job.done = time.perf_counter()
                job.status = job.handle.status
            else:
                job.status = "lost"
