"""Scalar reference implementations of the CPU layer.

These are the straightforward per-access models the vectorized runtime
paths must reproduce bit for bit: a dict-per-set LRU write-back cache
and a cursor-based round-robin interleave.  They live in the tests only.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.cache import CacheStats
from repro.cpu.trace import AccessTrace


class OracleCache:
    """LRU set-associative write-back, write-allocate cache, one access at a time."""

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.line_bits = line_bytes.bit_length() - 1
        # sets[set_index] = {tag: [lru_stamp, dirty]}
        self._sets: list[dict[int, list]] = [{} for _ in range(self.num_sets)]
        self._clock = 0
        self.stats = CacheStats()

    def access(self, address: int, is_write: bool = False) -> tuple[bool, int | None]:
        """One access; returns ``(hit, writeback_address_or_None)``."""
        line = int(address) >> self.line_bits
        set_index = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets[set_index]
        self._clock += 1
        self.stats.accesses += 1
        entry = ways.get(tag)
        if entry is not None:
            entry[0] = self._clock
            entry[1] = entry[1] or is_write
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim_tag = min(ways, key=lambda t: ways[t][0])
            victim = ways.pop(victim_tag)
            if victim[1]:
                victim_line = victim_tag * self.num_sets + set_index
                writeback = victim_line << self.line_bits
                self.stats.writebacks += 1
        ways[tag] = [self._clock, bool(is_write)]
        return False, writeback

    def filter_trace(self, trace: AccessTrace) -> AccessTrace:
        """External stream; a write-back carries the evicting access's variable."""
        out_va: list[int] = []
        out_write: list[bool] = []
        out_variable: list[int] = []
        for address, write, var in zip(
            trace.va.tolist(), trace.is_write.tolist(), trace.variable.tolist()
        ):
            hit, writeback = self.access(address, write)
            if writeback is not None:
                out_va.append(writeback)
                out_write.append(True)
                out_variable.append(var)
            if not hit:
                out_va.append(address)
                out_write.append(write)
                out_variable.append(var)
        return AccessTrace(
            va=np.array(out_va, dtype=np.uint64),
            is_write=np.array(out_write, dtype=bool),
            variable=np.array(out_variable, dtype=np.int64),
        )


def oracle_interleave(traces: list[AccessTrace], chunk: int = 1) -> AccessTrace:
    """Take ``chunk`` accesses from each thread in turn until all run out."""
    if not traces:
        return AccessTrace(va=np.zeros(0, dtype=np.uint64))
    va: list[int] = []
    is_write: list[bool] = []
    variable: list[int] = []
    cursors = [0] * len(traces)
    while any(cursor < len(t) for cursor, t in zip(cursors, traces)):
        for index, trace in enumerate(traces):
            start = cursors[index]
            stop = min(start + chunk, len(trace))
            va.extend(trace.va[start:stop].tolist())
            is_write.extend(trace.is_write[start:stop].tolist())
            variable.extend(trace.variable[start:stop].tolist())
            cursors[index] = stop
    return AccessTrace(
        va=np.array(va, dtype=np.uint64),
        is_write=np.array(is_write, dtype=bool),
        variable=np.array(variable, dtype=np.int64),
    )


def oracle_external_trace(
    thread_traces: list[AccessTrace],
    cores: int,
    l1_bytes: int,
    llc_bytes: int,
    line_bytes: int = 64,
) -> tuple[AccessTrace, list[CacheStats], CacheStats]:
    """``CPUModel.external_trace`` built from the oracles.

    Returns the external stream, the per-core L1 stats and the LLC stats.
    """
    l1s = [OracleCache(l1_bytes, line_bytes) for _ in range(cores)]
    streams = [
        l1s[index % cores].filter_trace(trace.aligned(line_bytes))
        for index, trace in enumerate(thread_traces)
    ]
    merged = oracle_interleave(streams, chunk=4)
    llc = OracleCache(llc_bytes, line_bytes, ways=16)
    return llc.filter_trace(merged), [c.stats for c in l1s], llc.stats
