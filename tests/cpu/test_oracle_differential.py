"""Differential tests: the vectorized CPU layer against the scalar oracles.

``SetAssociativeCache.filter_trace`` splits each call between a closed
form (sets with no reuse), a set-lockstep loop and a scalar replay of
the busiest sets.  Every test here runs under the automatic split and
with the reused sets forced onto each of the two loops, so each path is
checked on its own against :mod:`tests.cpu.oracles`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import SetAssociativeCache
from repro.cpu.cpu import CPUModel
from repro.cpu.trace import AccessTrace, interleave_traces
from tests.cpu.oracles import (
    OracleCache,
    oracle_external_trace,
    oracle_interleave,
)

LINE = 64
PATHS = ("auto", "lockstep", "scalar")


def make_cache(path: str, size: int, ways: int) -> SetAssociativeCache:
    """A cache whose reused sets all take ``path`` (``auto``: cost model)."""
    cache = SetAssociativeCache(size, line_bytes=LINE, ways=ways)
    if path == "lockstep":
        cache._split = lambda sets, counts: (
            sets[np.argsort(-counts[sets], kind="stable")],
            sets[:0],
        )
    elif path == "scalar":
        cache._split = lambda sets, counts: (sets[:0], sets)
    return cache


def make_trace(lines, writes, variables, offsets=None) -> AccessTrace:
    va = np.array(lines, dtype=np.uint64) * np.uint64(LINE)
    if offsets is not None:
        va += np.array(offsets, dtype=np.uint64)
    return AccessTrace(
        va=va,
        is_write=np.array(writes, dtype=bool),
        variable=np.array(variables, dtype=np.int64),
    )


def assert_same_trace(got: AccessTrace, want: AccessTrace) -> None:
    for name in ("va", "is_write", "variable"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)


def stats_of(cache) -> tuple[int, int, int, int]:
    s = cache.stats
    return s.accesses, s.hits, s.misses, s.writebacks


def check_filter(path, size, ways, traces) -> None:
    """Filter ``traces`` in turn through one cache and one oracle."""
    cache = make_cache(path, size, ways)
    oracle = OracleCache(size, LINE, ways)
    for trace in traces:
        assert_same_trace(cache.filter_trace(trace), oracle.filter_trace(trace))
        assert stats_of(cache) == stats_of(oracle)
        s = cache.stats
        assert s.hits + s.misses == s.accesses


# -- strategies ----------------------------------------------------------------

geometries = st.tuples(st.integers(1, 4), st.integers(1, 4))  # (sets, ways)


@st.composite
def traces(draw, max_line=40, max_size=120):
    size = draw(st.integers(0, max_size))
    lines = draw(st.lists(st.integers(0, max_line), min_size=size, max_size=size))
    writes = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    variables = draw(st.lists(st.integers(-1, 5), min_size=size, max_size=size))
    offsets = draw(st.lists(st.integers(0, LINE - 1), min_size=size, max_size=size))
    return make_trace(lines, writes, variables, offsets)


@st.composite
def run_traces(draw):
    """Long runs of one line (a run folds into one LRU step)."""
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 60), st.booleans()),
            max_size=12,
        )
    )
    lines, writes, variables = [], [], []
    for index, (line, length, write) in enumerate(runs):
        lines += [line] * length
        writes += [write and k % 3 == 1 for k in range(length)]
        variables += [index] * length
    return make_trace(lines, writes, variables)


# -- the cache filter ------------------------------------------------------------

@pytest.mark.parametrize("path", PATHS)
@given(geometry=geometries, trace=traces())
@settings(max_examples=60, deadline=None)
def test_tiny_geometries_match_oracle(path, geometry, trace):
    sets, ways = geometry
    check_filter(path, sets * ways * LINE, ways, [trace])


@pytest.mark.parametrize("path", PATHS)
@given(
    ways=st.integers(1, 8),
    tags=st.lists(st.integers(0, 24), max_size=400),
    writes=st.lists(st.booleans(), max_size=400),
)
@settings(max_examples=40, deadline=None)
def test_single_set_traces_match_oracle(path, ways, tags, writes):
    """Every access maps to set 5 of a 128-set cache (the stride-128 case)."""
    n = min(len(tags), len(writes))
    lines = [tag * 128 + 5 for tag in tags[:n]]
    trace = make_trace(lines, writes[:n], list(range(n)))
    check_filter(path, 128 * ways * LINE, ways, [trace])


@pytest.mark.parametrize("path", PATHS)
@given(geometry=geometries, trace=run_traces())
@settings(max_examples=40, deadline=None)
def test_same_line_runs_match_oracle(path, geometry, trace):
    sets, ways = geometry
    check_filter(path, sets * ways * LINE, ways, [trace])


@pytest.mark.parametrize("path", PATHS)
@given(geometry=geometries, trace=traces())
@settings(max_examples=30, deadline=None)
def test_all_write_traces_match_oracle(path, geometry, trace):
    sets, ways = geometry
    written = AccessTrace(
        va=trace.va, is_write=np.ones(len(trace), dtype=bool),
        variable=trace.variable,
    )
    check_filter(path, sets * ways * LINE, ways, [written])


@pytest.mark.parametrize("path", PATHS)
def test_empty_trace(path):
    empty = AccessTrace(va=np.zeros(0, dtype=np.uint64))
    check_filter(path, 4 * 2 * LINE, 2, [empty, empty])


@pytest.mark.parametrize("path", PATHS)
@given(
    geometry=geometries,
    calls=st.lists(traces(max_line=20, max_size=50), min_size=2, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_warm_state_carries_across_calls(path, geometry, calls):
    sets, ways = geometry
    check_filter(path, sets * ways * LINE, ways, calls)


@pytest.mark.parametrize("path", PATHS)
@given(
    trace=traces(max_line=2000, max_size=1500),
    hot=st.lists(st.integers(0, 40), max_size=600),
)
@settings(max_examples=15, deadline=None)
def test_wide_cache_with_a_hot_set_matches_oracle(path, trace, hot):
    """64 sets: the busy sets run in lockstep, a hot set may be replayed."""
    hot_trace = make_trace(
        [tag * 64 + 3 for tag in hot], [t % 2 == 0 for t in hot], hot
    )
    merged = interleave_traces([trace, hot_trace], chunk=3)
    check_filter(path, 64 * 2 * LINE, 2, [merged, trace])


@pytest.mark.parametrize("path", PATHS)
@given(
    geometry=geometries,
    ops=st.lists(
        st.one_of(
            st.tuples(st.integers(0, 20), st.booleans()),
            traces(max_line=20, max_size=30),
        ),
        max_size=25,
    ),
)
@settings(max_examples=40, deadline=None)
def test_access_and_filter_trace_mixed(path, geometry, ops):
    sets, ways = geometry
    size = sets * ways * LINE
    cache = make_cache(path, size, ways)
    oracle = OracleCache(size, LINE, ways)
    for op in ops:
        if isinstance(op, AccessTrace):
            assert_same_trace(cache.filter_trace(op), oracle.filter_trace(op))
        else:
            line, write = op
            assert cache.access(line * LINE, write) == oracle.access(
                line * LINE, write
            )
        assert stats_of(cache) == stats_of(oracle)
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses


def test_stride_128_copy_matches_oracle():
    """The 64 KiB L1 fed one thread of a stride-128 copy: one set only."""
    lines = (np.arange(4096) * 128) % (1 << 17)
    trace = make_trace(
        np.concatenate([lines, lines + (1 << 17)]),
        np.repeat([False, True], lines.size),
        np.repeat([0, 1], lines.size),
    )
    for path in PATHS:
        check_filter(path, 64 * 1024, 8, [trace, trace])


# -- interleave --------------------------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 4, 8])
@given(threads=st.lists(traces(max_line=100, max_size=40), max_size=7))
@settings(max_examples=40, deadline=None)
def test_interleave_matches_oracle(chunk, threads):
    got = interleave_traces(threads, chunk=chunk)
    assert_same_trace(got, oracle_interleave(threads, chunk=chunk))


# -- the whole CPU model -------------------------------------------------------------

@given(
    threads=st.lists(
        traces(max_line=400, max_size=150), min_size=5, max_size=8
    ),
)
@settings(max_examples=25, deadline=None)
def test_external_trace_with_shared_l1s_matches_oracle(threads):
    """5-8 threads on 4 cores: threads beyond ``cores`` share an L1."""
    model = CPUModel(cores=4, l1_bytes=1024, llc_bytes=4096)
    result = model.external_trace(threads)
    want, l1_stats, llc_stats = oracle_external_trace(
        threads, cores=4, l1_bytes=1024, llc_bytes=4096
    )
    assert_same_trace(result.trace, want)
    l1_accesses = sum(s.accesses for s in l1_stats)
    l1_hits = sum(s.hits for s in l1_stats)
    assert result.l1_hit_rate == (l1_hits / l1_accesses if l1_accesses else 0.0)
    assert result.llc_hit_rate == llc_stats.hit_rate
    assert result.program_accesses == sum(len(t) for t in threads)
