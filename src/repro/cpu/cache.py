"""Set-associative write-back cache with LRU replacement.

Filters a program's access stream into the *external* (miss +
write-back) stream that actually reaches the memory controller — the
stream the paper profiles and optimises.  The BOOM prototype has 64 KB
L1 caches; accelerators have small or no caches, which is why they are
more sensitive to CLP (Section 7.4).

The cache state is three ``[sets, ways]`` arrays: the tag, the LRU
stamp (the clock of the line's last access; 0 marks an empty way, which
is always the first victim) and the dirty bit.  :meth:`filter_trace`
replays a whole trace against them exactly as a per-access LRU would,
but in set lockstep (DESIGN.md §16).
"""

from __future__ import annotations

import numpy as np

from repro.cpu.trace import AccessTrace
from repro.errors import ConfigError

__all__ = ["SetAssociativeCache", "CacheStats"]

#: Tag of an empty way (real tags are non-negative).
EMPTY_TAG = -1
#: Victim tag of a step that wrote nothing back.
NO_WRITEBACK = -1

# Host-cost model that splits a filter call between the set-lockstep
# loop and the scalar replay, in units of one scalar replay step.  A
# lockstep step costs a fixed numpy overhead plus a little per set it
# advances; the scalar replay costs one unit per step plus a per-set
# start-up.  Measured on a 2-core Xeon with CPython 3.11 and numpy 2.4,
# where one unit is about 0.45 us.
_LOCKSTEP_STEP_COST = 22.0
_LOCKSTEP_SET_STEP_COST = 0.35
_SCALAR_SET_COST = 25.0


def _ranks(count: np.ndarray) -> np.ndarray:
    """0, 1, .., count[i] - 1 for each i in turn, concatenated."""
    return np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)


class CacheStats:
    """Hit/miss/write-back counters."""

    __slots__ = ("accesses", "hits", "misses", "writebacks")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def hit_rate(self) -> float:
        """Hits divided by accesses."""
        return self.hits / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(accesses={self.accesses}, hit_rate={self.hit_rate:.3f},"
            f" writebacks={self.writebacks})"
        )


class SetAssociativeCache:
    """LRU set-associative write-back, write-allocate cache."""

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        if size_bytes <= 0 or size_bytes % (line_bytes * ways):
            raise ConfigError(
                "cache size must be a positive multiple of line_bytes*ways"
            )
        if line_bytes & (line_bytes - 1):
            raise ConfigError("line size must be a power of two")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.line_bits = line_bytes.bit_length() - 1
        self.reset()

    def reset(self) -> None:
        """Clear all cached lines and counters."""
        shape = (self.num_sets, self.ways)
        self._tags = np.full(shape, EMPTY_TAG, dtype=np.int64)
        self._stamps = np.zeros(shape, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=bool)
        self._clock = 0
        self.stats = CacheStats()

    def access(self, address: int, is_write: bool = False) -> tuple[bool, int | None]:
        """One access; returns ``(hit, writeback_address_or_None)``."""
        line = int(address) >> self.line_bits
        set_index = line % self.num_sets
        self._clock += 1
        self.stats.accesses += 1
        hits, victims = self._replay(
            set_index, [line // self.num_sets], [self._clock], [bool(is_write)]
        )
        if hits[0]:
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        if victims[0] == NO_WRITEBACK:
            return False, None
        self.stats.writebacks += 1
        return False, (victims[0] * self.num_sets + set_index) << self.line_bits

    def filter_trace(self, trace: AccessTrace) -> AccessTrace:
        """Run a trace through the cache; return the external stream.

        The result is exactly what :meth:`access` would give one access
        at a time, and the cache state and :attr:`stats` carry over to
        the next call.  Each miss is emitted with its own address, write
        flag and variable.  A dirty eviction first emits a write-back: a
        write of the evicted line, tagged with the variable of the access
        that caused the eviction (not of the line's last writer).
        """
        n = len(trace)
        self.stats.accesses += n
        if n == 0:
            return AccessTrace(va=np.zeros(0, dtype=np.uint64))
        num_sets = self.num_sets
        lines = (trace.va >> np.uint64(self.line_bits)).astype(np.int64)
        clock0 = self._clock
        self._clock += n

        # Group the accesses by set (stable, so each set keeps its own
        # order) and fold every run of consecutive same-line accesses of
        # a set into its first access, the *leader*: the rest of the run
        # hits, so a run is one LRU step with the run's last clock and
        # the OR of its write flags.
        set_of = lines % num_sets
        if num_sets <= 1 << 16:
            set_of = set_of.astype(np.uint16)  # radix sort
        order = np.argsort(set_of, kind="stable")
        sorted_lines = lines[order]
        leader = np.empty(n, dtype=bool)
        leader[0] = True
        np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=leader[1:])
        first = np.flatnonzero(leader)
        last = np.empty_like(first)
        last[:-1] = first[1:] - 1
        last[-1] = n - 1
        step_line = sorted_lines[first]
        step_set = step_line % num_sets
        step_tag = step_line // num_sets
        step_clock = order[last] + (clock0 + 1)
        step_dirty = np.logical_or.reduceat(trace.is_write[order], first)

        counts = np.bincount(step_set, minlength=num_sets)
        start = np.zeros(num_sets, dtype=np.int64)
        np.cumsum(counts[:-1], out=start[1:])
        steps = (step_tag, step_clock, step_dirty, start, counts)
        hit = np.zeros(first.size, dtype=bool)
        victim = np.full(first.size, NO_WRITEBACK, dtype=np.int64)

        reused = self._reused_sets(step_line, step_set, step_tag)
        fifo = np.flatnonzero((counts > 0) & ~reused)
        if fifo.size:
            self._fifo_sets(fifo, steps, victim)
        lockstep, scalar = self._split(np.flatnonzero(reused), counts)
        if lockstep.size:
            self._lockstep_sets(lockstep, steps, hit, victim)
        for set_index in scalar.tolist():
            lo = int(start[set_index])
            hi = lo + int(counts[set_index])
            hits, victims = self._replay(
                set_index,
                step_tag[lo:hi].tolist(),
                step_clock[lo:hi].tolist(),
                step_dirty[lo:hi].tolist(),
            )
            hit[lo:hi] = hits
            victim[lo:hi] = victims

        # Emit, in trace order, each missing leader, preceded by the
        # write-back its eviction caused.
        miss_at = np.zeros(n, dtype=bool)
        writeback_at = np.zeros(n, dtype=bool)
        victim_line_at = np.empty(n, dtype=np.int64)
        position = order[first]
        miss = ~hit
        writeback = miss & (victim != NO_WRITEBACK)
        miss_at[position[miss]] = True
        writeback_at[position[writeback]] = True
        victim_line_at[position[writeback]] = (
            victim[writeback] * num_sets + step_set[writeback]
        )
        misses = np.flatnonzero(miss_at)
        evicting = writeback_at[misses]
        self.stats.misses += misses.size
        self.stats.hits += n - misses.size
        self.stats.writebacks += int(evicting.sum())

        slot = np.cumsum(evicting.astype(np.int64) + 1) - 1
        size = int(slot[-1]) + 1 if misses.size else 0
        va = np.empty(size, dtype=np.uint64)
        is_write = np.empty(size, dtype=bool)
        variable = np.empty(size, dtype=np.int64)
        va[slot] = trace.va[misses]
        is_write[slot] = trace.is_write[misses]
        variable[slot] = trace.variable[misses]
        wb_slot = slot[evicting] - 1
        wb_access = misses[evicting]
        va[wb_slot] = victim_line_at[wb_access].astype(np.uint64) << np.uint64(
            self.line_bits
        )
        is_write[wb_slot] = True
        variable[wb_slot] = trace.variable[wb_access]
        return AccessTrace(va=va, is_write=is_write, variable=variable)

    # -- the three paths of filter_trace -------------------------------------
    def _reused_sets(self, step_line, step_set, step_tag) -> np.ndarray:
        """Sets in which some step can hit: a line recurs, or is resident."""
        reused = np.zeros(self.num_sets, dtype=bool)
        ordered = np.sort(step_line)
        repeat = ordered[1:][ordered[1:] == ordered[:-1]]
        reused[repeat % self.num_sets] = True
        probe = (self._stamps.max(axis=1) > 0)[step_set]
        if probe.any():
            probed = step_set[probe]
            resident = (self._tags[probed] == step_tag[probe, None]).any(axis=1)
            reused[probed[resident]] = True
        return reused

    def _split(self, sets: np.ndarray, counts: np.ndarray):
        """Split sets between the lockstep loop and the scalar replay.

        The lockstep loop costs a fixed overhead per step of its busiest
        set, so the busiest sets go to the scalar replay while that is
        cheaper.  Returns ``(lockstep, scalar)``; lockstep sets come
        busiest first.
        """
        if not sets.size:
            return sets, sets
        busiest_first = sets[np.argsort(-counts[sets], kind="stable")]
        load = counts[busiest_first]
        # Replaying the k busiest sets leaves load[k] lockstep steps.
        replayed = np.concatenate(([0], np.cumsum(load)))
        remaining = np.append(load, 0)
        cost = (
            _LOCKSTEP_STEP_COST * remaining
            + _LOCKSTEP_SET_STEP_COST * (replayed[-1] - replayed)
            + replayed
            + _SCALAR_SET_COST * np.arange(load.size + 1)
        )
        k = int(np.argmin(cost))
        return busiest_first[k:], busiest_first[:k]

    def _fifo_sets(self, sets: np.ndarray, steps, victim: np.ndarray) -> None:
        """Closed form for sets where every step misses.

        With no hit, LRU order is insertion order: the set's resident
        lines leave in stamp order (empty ways first), then step *k*
        evicts step *k - ways*.
        """
        step_tag, step_clock, step_dirty, start, counts = steps
        ways = self.ways
        old_tag = self._tags[sets]
        old_stamp = self._stamps[sets]
        old_dirty = self._dirty[sets]
        if old_stamp.any():
            lru = np.argsort(old_stamp, axis=1, kind="stable")
            old_tag = np.take_along_axis(old_tag, lru, axis=1)
            old_stamp = np.take_along_axis(old_stamp, lru, axis=1)
            old_dirty = np.take_along_axis(old_dirty, lru, axis=1)
        # Set i's queue is its LRU-ordered row, then its steps; step k
        # evicts entry k and the final row is entries count .. count+ways-1.
        # ``pool`` holds every queue: the rows first, then all steps.
        pool_tag = np.concatenate((old_tag.ravel(), step_tag))
        pool_stamp = np.concatenate((old_stamp.ravel(), step_clock))
        pool_dirty = np.concatenate((old_dirty.ravel(), step_dirty))
        count = counts[sets]
        row = np.repeat(np.arange(sets.size), count)
        begin = start[sets]

        def pool_index(row, entry):
            return np.where(
                entry < ways,
                row * ways + entry,
                old_tag.size + begin[row] + entry - ways,
            )

        index = _ranks(count)
        evicted = pool_index(row, index)
        victim[begin[row] + index] = np.where(
            pool_dirty[evicted], pool_tag[evicted], NO_WRITEBACK
        )
        rows = np.arange(sets.size)[:, None]
        kept = pool_index(rows, count[:, None] + np.arange(ways))
        self._tags[sets] = pool_tag[kept]
        self._stamps[sets] = pool_stamp[kept]
        self._dirty[sets] = pool_dirty[kept]

    def _lockstep_sets(self, sets, steps, hit, victim) -> None:
        """Advance all ``sets`` (busiest first) one step at a time."""
        step_tag, step_clock, step_dirty, start, counts = steps
        ways = self.ways
        count = counts[sets]
        # Order the steps rank-major: round r holds the r-th step of
        # every set that has one, and those sets are a prefix of ``sets``.
        rank = _ranks(count)
        width = np.bincount(rank, minlength=int(count[0]))
        bounds = np.concatenate(([0], np.cumsum(width)))
        picked = np.empty(rank.size, dtype=np.int64)
        picked[bounds[rank] + np.repeat(np.arange(sets.size), count)] = (
            np.repeat(start[sets], count) + rank
        )
        tag = step_tag[picked]
        clock = step_clock[picked]
        dirty = step_dirty[picked]
        bounds = bounds.tolist()

        tags = self._tags[sets]
        stamps = self._stamps[sets]
        dirt = self._dirty[sets]
        flat_tags = tags.reshape(-1)
        flat_stamps = stamps.reshape(-1)
        flat_dirt = dirt.reshape(-1)
        row_base = np.arange(sets.size, dtype=np.int64) * ways
        old_tag = np.empty(picked.size, dtype=np.int64)
        old_dirty = np.empty(picked.size, dtype=bool)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            m = hi - lo
            t = tag[lo:hi]
            # The matching way if any (key -1), else the LRU way (empty
            # ways have stamp 0, so they go first).
            key = np.where(tags[:m] == t[:, None], -1, stamps[:m])
            way = key.argmin(axis=1)
            way += row_base[:m]
            was_tag = flat_tags[way]
            was_dirty = flat_dirt[way]
            old_tag[lo:hi] = was_tag
            old_dirty[lo:hi] = was_dirty
            flat_dirt[way] = dirty[lo:hi] | (was_dirty & (was_tag == t))
            flat_tags[way] = t
            flat_stamps[way] = clock[lo:hi]
        self._tags[sets] = tags
        self._stamps[sets] = stamps
        self._dirty[sets] = dirt
        step_hit = old_tag == tag
        hit[picked] = step_hit
        victim[picked] = np.where(
            old_dirty & ~step_hit, old_tag, NO_WRITEBACK
        )

    def _replay(self, set_index: int, tags, clocks, dirty):
        """Scalar LRU replay of one set's steps.

        Returns ``(hits, victims)``: per step, whether it hit and the
        tag of the dirty line it evicted (``NO_WRITEBACK`` if none).
        """
        row_tags = self._tags[set_index]
        row_stamps = self._stamps[set_index]
        row_dirty = self._dirty[set_index]
        # Dict order is LRU order: a hit moves its line to the end.
        lines: dict[int, tuple[int, bool]] = {}
        for way in np.argsort(row_stamps, kind="stable").tolist():
            if row_stamps[way]:
                lines[int(row_tags[way])] = (
                    int(row_stamps[way]), bool(row_dirty[way])
                )
        ways = self.ways
        hits: list[bool] = []
        victims: list[int] = []
        for tag, clock, write in zip(tags, clocks, dirty):
            entry = lines.pop(tag, None)
            if entry is not None:
                lines[tag] = (clock, entry[1] or write)
                hits.append(True)
                victims.append(NO_WRITEBACK)
                continue
            evicted = NO_WRITEBACK
            if len(lines) >= ways:
                oldest = next(iter(lines))
                if lines.pop(oldest)[1]:
                    evicted = oldest
            lines[tag] = (clock, write)
            hits.append(False)
            victims.append(evicted)
        used = len(lines)
        row_tags[:used] = list(lines)
        row_tags[used:] = EMPTY_TAG
        row_stamps[:used] = [entry[0] for entry in lines.values()]
        row_stamps[used:] = 0
        row_dirty[:used] = [entry[1] for entry in lines.values()]
        row_dirty[used:] = False
        return hits, victims

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.size_bytes // 1024}KiB, "
            f"{self.ways}-way, {self.num_sets} sets)"
        )
