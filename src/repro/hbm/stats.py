"""Simulation statistics: bandwidth, CLP utilisation, row-hit rates.

Also home of :class:`DeviceHealth`, the RAS-side error bookkeeping.  It
is deliberately a separate class from :class:`RunStats` — RunStats is
frozen, cached and fingerprinted by the experiment engine, so growing
it would invalidate every on-disk cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BackendHealth", "DeviceHealth", "RemapTraffic", "RunStats"]


@dataclass(frozen=True)
class RunStats:
    """Outcome of running one HA trace through a memory model.

    ``clp_utilization`` is the share of total channel-time that was
    actually busy: 1.0 means every channel worked for the whole run
    (perfect channel-level parallelism), 1/num_channels means one
    channel did all the work while the rest idled — the stride-32 worst
    case of Fig. 3.
    """

    requests: int
    bytes_moved: int
    makespan_ns: float
    row_hits: int
    row_misses: int
    num_channels: int
    per_channel_requests: np.ndarray = field(repr=False)
    per_channel_busy_ns: np.ndarray = field(repr=False)

    @classmethod
    def empty(cls, num_channels: int) -> "RunStats":
        """The merge identity: an all-zero stats for ``num_channels``."""
        return cls(
            requests=0,
            bytes_moved=0,
            makespan_ns=0.0,
            row_hits=0,
            row_misses=0,
            num_channels=num_channels,
            per_channel_requests=np.zeros(num_channels, dtype=np.int64),
            per_channel_busy_ns=np.zeros(num_channels, dtype=np.float64),
        )

    def merge(self, other: "RunStats") -> "RunStats":
        """Combine stats from disjoint parts of one run.

        Counters add, per-channel arrays add elementwise, and the
        makespan takes the max (parts of one run share the time
        origin).  Lawful: associative, commutative, with
        :meth:`empty` as identity — so partial reports (per job, per
        tenant) reduce to the same result in any order.
        """
        if self.num_channels != other.num_channels:
            raise ValueError(
                "cannot merge RunStats with different channel counts: "
                f"{self.num_channels} != {other.num_channels}"
            )
        return RunStats(
            requests=self.requests + other.requests,
            bytes_moved=self.bytes_moved + other.bytes_moved,
            makespan_ns=max(self.makespan_ns, other.makespan_ns),
            row_hits=self.row_hits + other.row_hits,
            row_misses=self.row_misses + other.row_misses,
            num_channels=self.num_channels,
            per_channel_requests=self.per_channel_requests
            + other.per_channel_requests,
            per_channel_busy_ns=self.per_channel_busy_ns
            + other.per_channel_busy_ns,
        )

    def __add__(self, other: "RunStats") -> "RunStats":
        if not isinstance(other, RunStats):
            return NotImplemented
        return self.merge(other)

    @property
    def throughput_gbps(self) -> float:
        """GB/s (bytes per nanosecond)."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.bytes_moved / self.makespan_ns

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hits divided by total accesses."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def channels_touched(self) -> int:
        """Channels that served at least one request."""
        return int(np.count_nonzero(self.per_channel_requests))

    @property
    def clp_utilization(self) -> float:
        """Busy channel-time over total channel-time."""
        if self.makespan_ns <= 0:
            return 0.0
        busy = float(self.per_channel_busy_ns.sum())
        return busy / (self.makespan_ns * self.num_channels)

    @property
    def request_balance(self) -> float:
        """1.0 when requests split evenly across channels (entropy-based)."""
        counts = self.per_channel_requests.astype(np.float64)
        total = counts.sum()
        if total == 0:
            return 0.0
        p = counts[counts > 0] / total
        entropy = float(-(p * np.log2(p)).sum())
        return entropy / np.log2(self.num_channels) if self.num_channels > 1 else 1.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.requests} reqs, {self.throughput_gbps:.1f} GB/s, "
            f"hit-rate {self.row_hit_rate:.2f}, "
            f"CLP {self.clp_utilization:.2f} "
            f"({self.channels_touched}/{self.num_channels} channels)"
        )

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable form; :meth:`from_dict` round-trips it."""
        return {
            "requests": self.requests,
            "bytes_moved": self.bytes_moved,
            "makespan_ns": self.makespan_ns,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "num_channels": self.num_channels,
            "per_channel_requests": [
                int(v) for v in self.per_channel_requests
            ],
            "per_channel_busy_ns": [
                float(v) for v in self.per_channel_busy_ns
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunStats":
        """Rebuild stats written by :meth:`to_dict`."""
        return cls(
            requests=int(data["requests"]),
            bytes_moved=int(data["bytes_moved"]),
            makespan_ns=float(data["makespan_ns"]),
            row_hits=int(data["row_hits"]),
            row_misses=int(data["row_misses"]),
            num_channels=int(data["num_channels"]),
            per_channel_requests=np.asarray(
                data["per_channel_requests"], dtype=np.int64
            ),
            per_channel_busy_ns=np.asarray(
                data["per_channel_busy_ns"], dtype=np.float64
            ),
        )


@dataclass
class BackendHealth:
    """Structured record of every degradation a guarded run suffered.

    Like :class:`DeviceHealth` and :class:`RemapTraffic`, deliberately
    separate from the frozen, cache-fingerprinted :class:`RunStats`:
    health describes *how* a result was obtained (guard verdicts,
    demotions), never *what* the result is — two runs that degrade
    differently still produce bit-identical stats.

    The divergence guard appends one entry to ``degradations`` per
    recovery action, each a dict with at least ``event`` (e.g.
    ``"tier-demoted"``) and ``reason``; ``demoted_to`` names the tier a
    demotion switched to, and ``guard`` holds the guard's comparison
    report when a guard ran.
    """

    backend: str = "vector"
    demoted_to: str | None = None
    degradations: list = field(default_factory=list)
    guard: dict | None = None

    def record(self, event: str, reason: str, **detail) -> None:
        """Append one structured degradation event."""
        entry = {"event": event, "reason": reason}
        entry.update(detail)
        self.degradations.append(entry)
        if event == "tier-demoted":
            self.demoted_to = str(detail.get("to", "event"))

    @property
    def ok(self) -> bool:
        """True when the run completed with no degradation at all."""
        if self.degradations:
            return False
        return self.guard is None or not self.guard.get("diverged", False)

    def merge(self, other: "BackendHealth") -> "BackendHealth":
        """Combine health from sequential runs of the same backend."""
        merged = BackendHealth(
            backend=self.backend,
            demoted_to=other.demoted_to or self.demoted_to,
            degradations=list(self.degradations) + list(other.degradations),
            guard=other.guard if other.guard is not None else self.guard,
        )
        return merged

    def to_dict(self) -> dict:
        """A JSON-serialisable form."""
        return {
            "backend": self.backend,
            "demoted_to": self.demoted_to,
            "degradations": [dict(d) for d in self.degradations],
            "guard": dict(self.guard) if self.guard is not None else None,
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BackendHealth":
        """Rebuild health written by :meth:`to_dict`.

        Unknown keys (fields older versions wrote) are ignored, so
        cache entries written before a field was dropped still load.
        """
        return cls(
            backend=str(data.get("backend", "vector")),
            demoted_to=data.get("demoted_to"),
            degradations=[dict(d) for d in data.get("degradations", [])],
            guard=(
                dict(data["guard"]) if data.get("guard") is not None else None
            ),
        )


@dataclass
class RemapTraffic:
    """Accounting for live-remap traffic (the online control plane).

    Like :class:`DeviceHealth`, deliberately separate from the frozen,
    cache-fingerprinted :class:`RunStats`: these counters grow with the
    adaptive controller's actions, not with a single simulated trace.
    ``migration_ns`` is the simulated device time the copies occupied;
    ``reprogram_ns`` the modeled CMT-write + AMU-crossbar reprogram
    cost.  Both are the overhead an adaptive campaign charges against
    its service-time wins.
    """

    remaps: int = 0
    failed_remaps: int = 0
    rollback_migrations: int = 0
    chunks_migrated: int = 0
    lines_copied: int = 0
    bytes_moved: int = 0
    migration_ns: float = 0.0
    cmt_writes: int = 0
    amu_reprograms: int = 0
    reprogram_ns: float = 0.0

    def record_migration(self, report, line_bytes: int = 64) -> None:
        """Fold one :class:`~repro.mem.migration.MigrationReport` in."""
        self.chunks_migrated += 1
        self.lines_copied += int(report.lines_copied)
        # Every line is read through the old mapping and written through
        # the new one: two line transfers per copied line.
        self.bytes_moved += 2 * int(report.lines_copied) * int(line_bytes)
        self.migration_ns += float(report.cost_ns)

    def merge(self, other: "RemapTraffic") -> "RemapTraffic":
        """Combine counters from independent campaign runs (all add)."""
        return RemapTraffic(
            remaps=self.remaps + other.remaps,
            failed_remaps=self.failed_remaps + other.failed_remaps,
            rollback_migrations=self.rollback_migrations
            + other.rollback_migrations,
            chunks_migrated=self.chunks_migrated + other.chunks_migrated,
            lines_copied=self.lines_copied + other.lines_copied,
            bytes_moved=self.bytes_moved + other.bytes_moved,
            migration_ns=self.migration_ns + other.migration_ns,
            cmt_writes=self.cmt_writes + other.cmt_writes,
            amu_reprograms=self.amu_reprograms + other.amu_reprograms,
            reprogram_ns=self.reprogram_ns + other.reprogram_ns,
        )

    def __add__(self, other: "RemapTraffic") -> "RemapTraffic":
        if not isinstance(other, RemapTraffic):
            return NotImplemented
        return self.merge(other)

    @property
    def overhead_ns(self) -> float:
        """Total simulated time the remaps cost."""
        return self.migration_ns + self.reprogram_ns

    def to_dict(self) -> dict:
        """A JSON-serialisable form."""
        return {
            "remaps": self.remaps,
            "failed_remaps": self.failed_remaps,
            "rollback_migrations": self.rollback_migrations,
            "chunks_migrated": self.chunks_migrated,
            "lines_copied": self.lines_copied,
            "bytes_moved": self.bytes_moved,
            "migration_ns": self.migration_ns,
            "cmt_writes": self.cmt_writes,
            "amu_reprograms": self.amu_reprograms,
            "reprogram_ns": self.reprogram_ns,
            "overhead_ns": self.overhead_ns,
        }


class DeviceHealth:
    """Per-channel/bank error topology, classified into fault suspects.

    ECC flags arrive per access as a boolean mask aligned with a decoded
    trace; :meth:`record` folds them into per-``(channel, bank)`` error
    counts and error-row sets.  :meth:`suspects` then reads the topology
    back out: errors confined to one row of one bank look like a stuck
    row, errors across many rows of one bank look like a dead bank, and
    errors across most banks of a channel look like a lost channel.
    """

    def __init__(
        self,
        num_channels: int,
        banks_per_channel: int,
        row_threshold: int = 2,
        bank_row_threshold: int = 4,
        channel_bank_fraction: float = 0.5,
    ):
        self.num_channels = num_channels
        self.banks_per_channel = banks_per_channel
        self.row_threshold = row_threshold
        self.bank_row_threshold = bank_row_threshold
        self.channel_bank_fraction = channel_bank_fraction
        self.error_counts = np.zeros(
            (num_channels, banks_per_channel), dtype=np.int64
        )
        self.error_rows: dict[tuple[int, int], set[int]] = {}
        self.accesses = 0

    def record(self, decoded, error_mask) -> int:
        """Fold one access batch's ECC flags into the topology.

        ``decoded`` is a :class:`~repro.hbm.decode.DecodedTrace` (or any
        object with ``channel``/``bank``/``row`` arrays); ``error_mask``
        is a boolean array of the same length.  Returns the number of
        flagged accesses.
        """
        error_mask = np.asarray(error_mask, dtype=bool)
        self.accesses += int(error_mask.size)
        if not error_mask.any():
            return 0
        channels = np.asarray(decoded.channel)[error_mask]
        banks = np.asarray(decoded.bank)[error_mask]
        rows = np.asarray(decoded.row)[error_mask]
        np.add.at(self.error_counts, (channels, banks), 1)
        for c, b, r in zip(channels.tolist(), banks.tolist(), rows.tolist()):
            self.error_rows.setdefault((int(c), int(b)), set()).add(int(r))
        return int(error_mask.sum())

    @property
    def total_errors(self) -> int:
        """All ECC-flagged accesses recorded so far."""
        return int(self.error_counts.sum())

    def suspects(self) -> list[dict]:
        """Classify the recorded topology into fault suspects.

        Returns a list of ``{"kind": ..., "channel": ...}`` dicts,
        most-severe first (channel, then bank, then row).  A channel
        suspect subsumes its banks' evidence; a bank suspect subsumes
        its rows'.
        """
        found: list[dict] = []
        channel_bad = set()
        for c in range(self.num_channels):
            bad_banks = int(np.count_nonzero(self.error_counts[c]))
            if bad_banks >= max(
                2, int(self.banks_per_channel * self.channel_bank_fraction)
            ):
                found.append({"kind": "channel", "channel": c})
                channel_bad.add(c)
        bank_bad = set()
        for (c, b), rows in sorted(self.error_rows.items()):
            if c in channel_bad:
                continue
            if len(rows) >= self.bank_row_threshold:
                found.append({"kind": "bank", "channel": c, "bank": b})
                bank_bad.add((c, b))
        for (c, b), rows in sorted(self.error_rows.items()):
            if c in channel_bad or (c, b) in bank_bad:
                continue
            for row in sorted(rows):
                if self.error_counts[c, b] >= self.row_threshold:
                    found.append(
                        {"kind": "row", "channel": c, "bank": b, "row": row}
                    )
        return found

    def reset(self) -> None:
        """Clear all recorded evidence (after a repair round)."""
        self.error_counts[:] = 0
        self.error_rows.clear()
        self.accesses = 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.total_errors} ECC errors over {self.accesses} accesses, "
            f"{len(self.error_rows)} (channel,bank) sites affected"
        )
