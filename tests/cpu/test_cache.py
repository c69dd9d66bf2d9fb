"""Tests for the set-associative write-back cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import SetAssociativeCache
from repro.cpu.trace import AccessTrace
from repro.errors import ConfigError

KiB = 1024


def make_cache(size=4 * KiB, ways=4) -> SetAssociativeCache:
    return SetAssociativeCache(size, line_bytes=64, ways=ways)


class TestAccess:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        hit, _wb = cache.access(0x1000)
        assert not hit
        hit, _wb = cache.access(0x1000)
        assert hit

    def test_same_line_different_bytes_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        hit, _wb = cache.access(0x103F)
        assert hit

    def test_lru_eviction(self):
        cache = make_cache(size=64 * 4, ways=4)  # one set, 4 ways
        for index in range(4):
            cache.access(index * 64)
        cache.access(0)  # refresh line 0
        cache.access(4 * 64)  # evicts LRU = line 1
        assert cache.access(0)[0]
        assert not cache.access(64)[0]

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(size=64 * 2, ways=2)
        cache.access(0)
        cache.access(64)
        _hit, writeback = cache.access(128)
        assert writeback is None

    def test_dirty_eviction_writes_back(self):
        cache = make_cache(size=64 * 2, ways=2)
        cache.access(0, is_write=True)
        cache.access(64)
        _hit, writeback = cache.access(128)
        assert writeback == 0
        assert cache.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=64 * 2, ways=2)
        cache.access(0)
        cache.access(0, is_write=True)
        cache.access(64)
        _hit, writeback = cache.access(128)
        assert writeback == 0

    def test_stats(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        assert cache.stats.accesses == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_reset(self):
        cache = make_cache()
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert not cache.access(0)[0]


class TestValidation:
    def test_bad_size(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(1000, line_bytes=64, ways=4)

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(4 * KiB, line_bytes=48, ways=4)


class TestFilterTrace:
    def test_working_set_smaller_than_cache_filters_repeats(self):
        cache = make_cache(size=8 * KiB)
        va = np.tile(np.arange(0, 1024, 64, dtype=np.uint64), 10)
        out = cache.filter_trace(AccessTrace(va=va))
        assert len(out) == 16  # only the cold misses escape

    def test_streaming_passes_through(self):
        cache = make_cache(size=4 * KiB)
        va = np.arange(0, 64 * KiB, 64, dtype=np.uint64)
        out = cache.filter_trace(AccessTrace(va=va))
        assert len(out) == va.size

    def test_variable_tags_preserved(self):
        cache = make_cache()
        trace = AccessTrace(
            va=np.array([0, 4096], dtype=np.uint64),
            variable=np.array([7, 9]),
        )
        out = cache.filter_trace(trace)
        assert out.variable.tolist() == [7, 9]

    def test_writebacks_are_writes(self):
        cache = make_cache(size=64 * 2, ways=2)
        trace = AccessTrace(
            va=np.array([0, 64, 128], dtype=np.uint64),
            is_write=np.array([True, False, False]),
        )
        out = cache.filter_trace(trace)
        # miss(0), miss(64), writeback(0)+miss(128)
        assert len(out) == 4
        writeback_mask = out.va == 0
        assert out.is_write[writeback_mask].sum() >= 1

    def test_writeback_carries_the_evicting_access_variable(self):
        """Variable 7 dirties line 0; variable 9's miss evicts it, so the
        write-back is tagged 9 (the evicting access), not 7 (the writer)."""
        cache = make_cache(size=64, ways=1)
        trace = AccessTrace(
            va=np.array([0, 64], dtype=np.uint64),
            is_write=np.array([True, False]),
            variable=np.array([7, 9]),
        )
        out = cache.filter_trace(trace)
        assert out.va.tolist() == [0, 0, 64]
        assert out.is_write.tolist() == [True, True, False]
        assert out.variable.tolist() == [7, 9, 9]


@given(
    addresses=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300),
)
@settings(max_examples=40, deadline=None)
def test_miss_count_bounded_by_unique_lines_plus_capacity_effects(addresses):
    """Misses >= compulsory (unique lines); hits never exceed revisits."""
    cache = make_cache(size=2 * KiB)
    unique_lines = len({a >> 6 for a in addresses})
    for address in addresses:
        cache.access(address)
    assert cache.stats.misses >= unique_lines
    assert cache.stats.hits <= len(addresses) - unique_lines
