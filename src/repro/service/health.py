"""The service-degradation journal: every shed, drop and restart, on record.

:class:`ServiceHealth` is the serving layer's counterpart to
:class:`~repro.hbm.stats.BackendHealth`: a mutable, journaled record of
*how* the front-end behaved — jobs shed under overload, jobs dropped by
eviction or quarantine, lane crashes and restarts, quota reclaims and
preemptions — deliberately separate from the deterministic result
fingerprints (two services that degrade differently must still produce
bit-identical per-tenant results, and the selftest checks exactly that).

Design rules, shared with the other health types:

* **Never silent** — every load-shedding or recovery action calls
  :meth:`record`, which both appends a structured journal entry and
  bumps the matching counter.  A shed job is *accounted*, not lost.
* **Conservation** — every job the front-end *accepted* ends in exactly
  one terminal state, so once a service is drained,
  ``completed + failed + timeouts + dropped == submitted``.
  :meth:`violations` checks this (and lane liveness flags) so CLI soak
  runs can gate on it.
* **Merge laws** — a ledger (:mod:`repro.ledger`, DESIGN.md §19):
  counters add, journals concatenate in order, ``empty()`` is the
  identity and merging is associative, so per-tenant or per-lane
  health reduces to one service-wide record in any grouping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.ledger import Ledger, ledger_field

__all__ = ["ServiceHealth"]

#: Journal events and the counter each one bumps.  Events outside this
#: table are journaled but counted only through the journal itself.
_EVENT_COUNTERS = {
    "job-shed": "shed",
    "job-dropped": "dropped",
    "job-rejected": "rejected",
    "job-timeout": "timeouts",
    "job-failed": "failed",
    "job-retried": "retried",
    "lane-crash": "lane_crashes",
    "lane-restarted": "lane_restarts",
    "lane-abandoned": "lane_abandonments",
    "tenant-quarantined": "quarantines",
    "tenant-restored": "restores",
    "tenant-preempted": "preemptions",
    "quota-reclaimed": "reclaims",
    "admission-trimmed": "trims",
}


@dataclass
class ServiceHealth(Ledger, derived=("ok", "conserved", "violations")):
    """Structured record of everything the serving layer did under stress.

    ``submitted``/``completed`` are bumped directly (they are
    high-volume and carry no story); every degradation goes through
    :meth:`record` so it lands in the ordered ``events`` journal too.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    timeouts: int = 0
    shed: int = 0
    dropped: int = 0
    rejected: int = 0
    lane_crashes: int = 0
    lane_restarts: int = 0
    lane_abandonments: int = 0
    quarantines: int = 0
    restores: int = 0
    preemptions: int = 0
    reclaims: int = 0
    trims: int = 0
    events: list = ledger_field("concat", default_factory=list)
    # Lanes record concurrently; every mutation is serialised here.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False, compare=False
    )

    # -- recording -----------------------------------------------------------
    def note_submitted(self, count: int = 1) -> None:
        """Count accepted submissions (no journal entry: high volume)."""
        with self._lock:
            self.submitted += count

    def note_completed(self, count: int = 1) -> None:
        """Count successfully finished jobs (no journal entry)."""
        with self._lock:
            self.completed += count

    def record(self, event: str, tenant: str, reason: str, **detail) -> None:
        """Append one structured degradation event and bump its counter."""
        entry = {"event": event, "tenant": tenant, "reason": reason}
        entry.update(detail)
        with self._lock:
            self.events.append(entry)
            counter = _EVENT_COUNTERS.get(event)
            if counter is not None:
                setattr(self, counter, getattr(self, counter) + 1)

    # -- verdicts ------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when the service never degraded at all."""
        return not self.events and not self.violations()

    @property
    def accounted(self) -> int:
        """Accepted jobs that reached a terminal state."""
        return self.completed + self.failed + self.timeouts + self.dropped

    @property
    def pending(self) -> int:
        """Accepted jobs not yet terminal (0 once drained)."""
        return self.submitted - self.accounted

    def conserved(self) -> bool:
        """Whether every accepted job is accounted for (post-drain law)."""
        return self.pending == 0

    def violations(self) -> list[str]:
        """Hard health violations a soak/CI run should fail on.

        Degradations (sheds, retries, restarts) are *expected* under
        injected faults and overload; violations are the things the
        failure model promises never happen: lost jobs (conservation
        broken) or negative accounting.
        """
        problems = []
        if self.pending < 0:
            problems.append(
                f"accounting over-counts terminal jobs: {self.accounted} "
                f"terminal vs {self.submitted} submitted"
            )
        elif self.pending > 0:
            problems.append(
                f"{self.pending} accepted job(s) unaccounted for "
                f"({self.submitted} submitted, {self.accounted} terminal)"
            )
        return problems

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.ok:
            return (
                f"service healthy: {self.completed}/{self.submitted} "
                "jobs completed, no degradations"
            )
        return (
            f"service: {self.completed}/{self.submitted} completed, "
            f"{self.shed} shed, {self.dropped} dropped, "
            f"{self.timeouts} timeouts, {self.retried} retries, "
            f"{self.lane_crashes} lane crashes / "
            f"{self.lane_restarts} restarts, "
            f"{self.quarantines} quarantines"
            + ("" if self.conserved() else " [ACCOUNTING BROKEN]")
        )
