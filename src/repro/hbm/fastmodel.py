"""Vectorised analytic HBM service model (the fast fidelity tier).

The model bounds a trace's makespan by three mechanisms, mirroring the
contention structure of 3D memory (Section 2.1):

* **channel data bus** — transfers serialise per channel: one
  ``t_burst`` per request, so the busiest channel's bus occupancy
  bounds the run (this is the CLP term: a stride that collapses onto
  one channel pays the whole trace serially — Fig. 3's ~20x drop);
* **bank service** — each request occupies its bank for the full
  hit/miss cost, banks operate in parallel (BLP hides activations as
  long as traffic spreads across banks), so the busiest *bank* also
  bounds its channel;
* **request concurrency** — the core/accelerator sustains at most
  ``max_inflight`` outstanding requests, so by Little's law the run
  takes at least ``sum(service costs) / max_inflight``.

Row hits are classified with an FR-FCFS batching rule (see
:func:`row_hit_mask`), matching the event-driven tier's scheduler.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.hbm.config import HBMConfig
from repro.hbm.decode import (
    DecodedTrace,
    concat_decoded,
    decode_trace,
    forced_miss_mask,
)
from repro.hbm.stats import RunStats

__all__ = ["WindowModel", "row_hit_mask"]


def row_hit_mask(decoded: DecodedTrace, reorder_window: int = 8) -> np.ndarray:
    """Per-access row-buffer hit flags with FR-FCFS batching.

    A real controller reorders its queue to serve same-row requests
    back to back, so two interleaved streams alternating rows in one
    bank do not thrash: within each window of ``reorder_window``
    consecutive accesses *to a bank*, all requests to the same row
    after the first are hits.  ``reorder_window=1`` degenerates to the
    strict in-order rule (previous access to the bank must match).
    """
    if reorder_window < 1:
        raise SimulationError("reorder_window must be >= 1")
    n = len(decoded)
    if n == 0:
        return np.zeros(0, dtype=bool)
    # Rank of each access within its bank's sub-stream.
    bank_order = np.argsort(decoded.global_bank, kind="stable")
    bank_sorted = decoded.global_bank[bank_order]
    new_bank = np.ones(n, dtype=bool)
    new_bank[1:] = bank_sorted[1:] != bank_sorted[:-1]
    group_start = np.maximum.accumulate(np.where(new_bank, np.arange(n), 0))
    pos_in_bank = np.arange(n) - group_start
    batch = pos_in_bank // reorder_window
    # Within (bank, batch, row), everything after the first access hits.
    keys = np.empty(n, dtype=np.int64)
    keys[bank_order] = batch  # batch id, aligned back to trace order
    order = np.lexsort((np.arange(n), decoded.row, keys, decoded.global_bank))
    bank_g = decoded.global_bank[order]
    batch_g = keys[order]
    row_g = decoded.row[order]
    same = np.zeros(n, dtype=bool)
    same[1:] = (
        (bank_g[1:] == bank_g[:-1])
        & (batch_g[1:] == batch_g[:-1])
        & (row_g[1:] == row_g[:-1])
    )
    hits = np.empty(n, dtype=bool)
    hits[order] = same
    return hits


class WindowModel:
    """Fast trace-driven service model for one memory device."""

    def __init__(
        self,
        config: HBMConfig,
        max_inflight: int = 64,
        reorder_window: int = 8,
    ):
        if max_inflight < 1:
            raise SimulationError("max_inflight must be >= 1")
        if reorder_window < 1:
            raise SimulationError("reorder_window must be >= 1")
        self.config = config
        self.max_inflight = max_inflight
        self.reorder_window = reorder_window

    def simulate(self, ha: np.ndarray) -> RunStats:
        """Run a hardware-address trace; return aggregate statistics."""
        ha = np.asarray(ha, dtype=np.uint64)
        return self.simulate_decoded(decode_trace(ha, self.config))

    def simulate_decoded(
        self, decoded: DecodedTrace, forced_miss: np.ndarray | None = None
    ) -> RunStats:
        """Run an already-decoded request stream (the fused datapath).

        ``decoded`` may be a single :class:`DecodedTrace` or an
        iterable of chunks; the analytic batch rule needs the whole
        per-bank sequence, so chunks are concatenated (bit-identical,
        the streaming interface is shared with the other tiers).
        ``forced_miss`` (optional boolean mask, one flag per access)
        marks requests whose row buffer cannot be trusted — ECC retries
        on degraded hardware — and charges them the full miss cost
        regardless of locality.
        """
        if not isinstance(decoded, DecodedTrace):
            if forced_miss is not None:
                raise SimulationError(
                    "forced_miss requires a whole DecodedTrace, not chunks"
                )
            decoded = concat_decoded(decoded)
        n = len(decoded)
        if forced_miss is not None:
            forced_miss = forced_miss_mask(forced_miss, n)
        channels = self.config.num_channels
        if n == 0:
            zeros = np.zeros(channels)
            return RunStats(0, 0, 0.0, 0, 0, channels, zeros, zeros)
        hits = row_hit_mask(decoded, self.reorder_window)
        if forced_miss is not None:
            hits = hits & ~forced_miss
        t_burst = self.config.effective_t_burst_ns
        cost = np.where(hits, t_burst, self.config.effective_t_row_miss_ns)
        banks_per_channel = self.config.banks_per_channel
        # Bus occupancy: one burst per request, serial per channel.
        bus = (
            np.bincount(decoded.channel, minlength=channels).astype(np.float64)
            * t_burst
        )
        # Bank service time: full hit/miss cost, serial per bank.
        bank_total = np.bincount(
            decoded.global_bank,
            weights=cost,
            minlength=channels * banks_per_channel,
        )
        bank_bound = bank_total.reshape(channels, banks_per_channel).max(axis=1)
        per_channel_busy = np.maximum(bus, bank_bound)
        bandwidth_bound = float(per_channel_busy.max())
        concurrency_bound = float(cost.sum()) / self.max_inflight
        makespan = max(bandwidth_bound, concurrency_bound)
        per_channel_requests = np.bincount(decoded.channel, minlength=channels)
        return RunStats(
            requests=n,
            bytes_moved=n * self.config.line_bytes,
            makespan_ns=makespan,
            row_hits=int(hits.sum()),
            row_misses=int(n - hits.sum()),
            num_channels=channels,
            per_channel_requests=per_channel_requests,
            per_channel_busy_ns=per_channel_busy,
        )
