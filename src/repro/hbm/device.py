"""Event-driven HBM device model — the reference fidelity tier.

Requests from the trace are admitted under a global in-flight window
(the MLP the core can sustain), queue per channel, and are issued
FR-FCFS against per-bank row-buffer state, with the channel data bus
serialising transfers.  Slower than :class:`~repro.hbm.fastmodel.
WindowModel` but models queueing and scheduler reordering explicitly;
``tests/hbm/test_model_agreement.py`` checks the two tiers agree.

Accesses to different channels proceed fully in parallel (CLP); within a
channel the data bus serialises transfers, while row activations overlap
across banks (BLP) — which is why CLP buys so much more than BLP/RLP
(Section 2.1).  The scheduler is first-ready FCFS: among queued requests
in the lookahead window it prefers one whose bank has the right row
open, falling back to the oldest request.

The loop runs over flat per-channel state: per-channel deques of
``(arrival, bank, row, forced)`` tuples, per-bank open rows and ready
times in lists indexed ``channel * banks + bank``, and a heap of the
busy channels' earliest starts, each of which changes only when its
channel is served or its queue turns non-empty.  The object model it
replaced (``Bank``, ``Channel``, ``ChannelRequest``) is kept verbatim
in :mod:`repro.system.bench` as the oracle:
``tests/hbm/test_event_differential.py`` checks the two bit for bit,
and ``repro bench --evaluate`` asserts it again on every cell.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import repeat

import numpy as np

from repro.errors import SimulationError
from repro.hbm.config import HBMConfig
from repro.hbm.decode import DecodedTrace, decode_trace, forced_miss_mask
from repro.hbm.stats import RunStats

__all__ = ["HBMDevice"]


class HBMDevice:
    """Event-driven multi-channel memory device."""

    def __init__(
        self,
        config: HBMConfig,
        max_inflight: int = 64,
        frfcfs_window: int = 8,
    ):
        if max_inflight < 1:
            raise SimulationError("max_inflight must be >= 1")
        if frfcfs_window < 1:
            raise SimulationError("frfcfs_window must be >= 1")
        self.config = config
        self.max_inflight = max_inflight
        self.frfcfs_window = frfcfs_window

    def simulate(self, ha: np.ndarray) -> RunStats:
        """Run a hardware-address trace through the device."""
        ha = np.asarray(ha, dtype=np.uint64)
        return self.simulate_decoded(decode_trace(ha, self.config))

    def simulate_decoded(
        self,
        decoded: DecodedTrace,
        forced_miss: np.ndarray | None = None,
    ) -> RunStats:
        """Run an already-decoded request stream (the fused datapath).

        ``decoded`` may be a single :class:`DecodedTrace` or an
        iterable of chunks — the event loop consumes requests one at a
        time, so chunked input is bit-identical to the whole trace and
        needs no re-decoding (only one chunk is live at a time).
        ``forced_miss`` (optional boolean mask, one flag per access,
        whole-trace form only) marks ECC-retry requests that must pay
        the full miss cost.
        """
        if isinstance(decoded, DecodedTrace):
            if forced_miss is not None:
                forced_miss = forced_miss_mask(forced_miss, len(decoded))
            chunks = iter([(decoded, forced_miss)])
        else:
            if forced_miss is not None:
                raise SimulationError(
                    "forced_miss requires a whole DecodedTrace, not chunks"
                )
            chunks = ((chunk, None) for chunk in decoded)

        config = self.config
        num_channels = config.num_channels
        banks = config.banks_per_channel
        t_burst = config.effective_t_burst_ns
        t_row_miss = config.effective_t_row_miss_ns
        window = self.frfcfs_window
        max_inflight = self.max_inflight
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        queues: list[deque] = [deque() for _ in range(num_channels)]
        # ``(earliest start, channel)`` for every channel with queued
        # work, the start being ``max(bus_free, arrival of the queue
        # head)``.  It changes only when the channel is served (its entry
        # is the top) or its queue turns non-empty (no entry yet), so the
        # heap never holds a stale entry, and its order — earliest start,
        # then lowest channel — is the issue order of a scan over all
        # channels with a strict ``<``.
        starts: list[tuple[float, int]] = []
        # The bus horizon is also the channel's last completion (every
        # issue ends on the bus), so it bounds the busy-time union too,
        # and the run's makespan is the latest of them.
        bus_free = [0.0] * num_channels
        busy = [0.0] * num_channels
        served = [0] * num_channels
        open_row: list[int | None] = [None] * (num_channels * banks)
        ready = [0.0] * (num_channels * banks)

        hits = 0
        # ``b if b > a else a`` below is ``max(a, b)`` to the bit (the
        # builtin keeps its first argument unless the second is greater),
        # spelled out because the call is a fifth of the loop's cost.

        def serve_one() -> float:
            """Issue the request with the earliest start; return its end."""
            nonlocal hits
            now, c = starts[0]
            queue = queues[c]
            base = c * banks
            # FR-FCFS: earliest-arrived row hit in the lookahead window,
            # else the oldest request.  Arrivals are non-decreasing, so
            # the scan stops at the first not-yet-arrived request.
            request = None
            limit = len(queue)
            for position in range(window if window < limit else limit):
                candidate = queue[position]
                if candidate[0] > now:
                    break
                if (
                    not candidate[3]
                    and open_row[base + candidate[1]] == candidate[2]
                ):
                    del queue[position]
                    request = candidate
                    break
            if request is None:
                request = queue.popleft()
            arrival, bank, row, forced = request
            g = base + bank
            # Activation can begin as soon as the request is visible and
            # the bank is free — it overlaps with other banks' bursts on
            # the bus; the bus only carries the final burst.
            ready_at = ready[g]
            bank_start = ready_at if ready_at > arrival else arrival
            if not forced and open_row[g] == row:
                cost = t_burst
                hits += 1
            else:
                cost = t_row_miss
            last_done = bus_free[c]
            done = bank_start + cost
            bus_done = last_done + t_burst
            done = bus_done if bus_done > done else done
            open_row[g] = row
            ready[g] = done
            bus_free[c] = done
            # Channel active time = union of [bank_start, done] intervals.
            busy[c] += done - (
                last_done if last_done > bank_start else bank_start
            )
            served[c] += 1
            if queue:
                head = queue[0][0]
                heapreplace(starts, (head if head > done else done, c))
            else:
                heappop(starts)
            return done

        admit_time = 0.0
        completed = 0
        issued = 0
        n = 0
        for chunk, chunk_forced in chunks:
            flags = repeat(False)
            if chunk_forced is not None:
                flags = chunk_forced.tolist()
            for c, bank, row, forced in zip(
                chunk.channel.tolist(),
                chunk.bank.tolist(),
                chunk.row.tolist(),
                flags,
            ):
                # Admission control: wait for a window slot.
                while issued - completed >= max_inflight:
                    freed = serve_one()
                    if freed > admit_time:
                        admit_time = freed
                    completed += 1
                queue = queues[c]
                if not queue:
                    free = bus_free[c]
                    start = admit_time if admit_time > free else free
                    heappush(starts, (start, c))
                queue.append((admit_time, bank, row, forced))
                issued += 1
            n += len(chunk)

        if n == 0:
            zeros = np.zeros(num_channels)
            return RunStats(0, 0, 0.0, 0, 0, num_channels, zeros, zeros)

        for _ in range(n - sum(served)):
            serve_one()

        return RunStats(
            requests=n,
            bytes_moved=n * config.line_bytes,
            makespan_ns=max(bus_free),
            row_hits=hits,
            row_misses=n - hits,
            num_channels=num_channels,
            per_channel_requests=np.array(served, dtype=np.int64),
            per_channel_busy_ns=np.array(busy, dtype=np.float64),
        )
