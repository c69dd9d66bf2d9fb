"""Differential tests: the flat-state event tier against its oracle.

:class:`~repro.hbm.device.HBMDevice` must reproduce the object-model
event loop kept in :mod:`repro.system.bench` (``ReferenceHBMDevice``)
bit for bit: every ``RunStats`` field with exact equality, the
per-channel arrays element for element and dtype for dtype.  Covered:
HBM2 and DDR4, FR-FCFS windows 1/2/8/64, in-flight limits 1/2/64/4096,
random forced-miss masks, whole vs chunked input, the empty trace, and
the degenerate streams that stress one queue (a single hot bank, a
single hot row, the stride-128 one-set stream).
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hbm.config import ddr4_config, hbm2_config
from repro.hbm.decode import DecodedTrace, decode_trace
from repro.hbm.device import HBMDevice
from repro.hbm.stats import RunStats
from repro.system.bench import ReferenceHBMDevice

CONFIGS = {"hbm2": hbm2_config(), "ddr4": ddr4_config()}
WINDOWS = (1, 2, 8, 64)
INFLIGHT = (1, 2, 64, 4096)
KINDS = ("random", "hot_bank", "hot_row", "stride128", "few_rows")


def assert_identical(got: RunStats, want: RunStats) -> None:
    for field in fields(RunStats):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype, field.name
            np.testing.assert_array_equal(g, w, err_msg=field.name)
        else:
            assert type(g) is type(w), field.name
            assert g == w, field.name


def from_fields(config, channel, bank, row) -> DecodedTrace:
    channel = np.asarray(channel, dtype=np.int64)
    bank = np.asarray(bank, dtype=np.int64)
    return DecodedTrace(
        channel=channel,
        bank=bank,
        row=np.asarray(row, dtype=np.int64),
        column=np.zeros(channel.size, dtype=np.int64),
        global_bank=channel * config.banks_per_channel + bank,
    )


def make_stream(config, kind: str, n: int, seed: int) -> DecodedTrace:
    rng = np.random.default_rng(seed)
    line = config.line_bytes
    if kind == "random":
        lines = config.total_bytes // line
        ha = rng.integers(0, lines, n, dtype=np.uint64) * np.uint64(line)
        return decode_trace(ha, config)
    if kind == "stride128":
        # Every access lands in one L1 set; under the identity mapping
        # the stream also collapses onto few channels and banks.
        start = int(rng.integers(0, 1024))
        index = np.arange(start, start + n, dtype=np.uint64)
        ha = index * np.uint64(128 * line) % np.uint64(config.total_bytes)
        return decode_trace(ha, config)
    channel = int(rng.integers(config.num_channels))
    bank = int(rng.integers(config.banks_per_channel))
    if kind == "hot_bank":  # one bank, rows drawn from a handful
        rows = rng.integers(0, 4, n)
        return from_fields(config, [channel] * n, [bank] * n, rows)
    if kind == "hot_row":  # one row of one bank
        return from_fields(config, [channel] * n, [bank] * n, [7] * n)
    # few_rows: every channel and bank, but rows from a tiny pool, so
    # FR-FCFS finds hits deep in the window
    return from_fields(
        config,
        rng.integers(0, config.num_channels, n),
        rng.integers(0, config.banks_per_channel, n),
        rng.integers(0, 3, n),
    )


def chunks_of(decoded: DecodedTrace, sizes):
    start = 0
    for size in list(sizes) + [len(decoded)]:
        stop = min(start + size, len(decoded))
        yield DecodedTrace(
            channel=decoded.channel[start:stop],
            bank=decoded.bank[start:stop],
            row=decoded.row[start:stop],
            column=decoded.column[start:stop],
            global_bank=decoded.global_bank[start:stop],
        )
        start = stop


def both(config, window: int, inflight: int, decoded, forced=None):
    got = HBMDevice(
        config, max_inflight=inflight, frfcfs_window=window
    ).simulate_decoded(decoded, forced)
    want = ReferenceHBMDevice(
        config, max_inflight=inflight, frfcfs_window=window
    ).simulate_decoded(decoded, forced)
    return got, want


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("inflight", INFLIGHT)
def test_every_window_and_inflight(config_name, window, inflight):
    config = CONFIGS[config_name]
    decoded = make_stream(config, "random", 600, seed=window * 7 + inflight)
    forced = np.random.default_rng(inflight).random(600) < 0.2
    assert_identical(*both(config, window, inflight, decoded))
    assert_identical(*both(config, window, inflight, decoded, forced))


@settings(max_examples=60, deadline=None)
@given(
    config_name=st.sampled_from(sorted(CONFIGS)),
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 400),
    window=st.sampled_from(WINDOWS),
    inflight=st.sampled_from(INFLIGHT),
    forced_share=st.sampled_from((None, 0.0, 0.1, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_streams(
    config_name, kind, n, window, inflight, forced_share, seed
):
    config = CONFIGS[config_name]
    decoded = make_stream(config, kind, n, seed)
    forced = None
    if forced_share is not None:
        forced = np.random.default_rng(seed + 1).random(n) < forced_share
    assert_identical(*both(config, window, inflight, decoded, forced))


@settings(max_examples=40, deadline=None)
@given(
    config_name=st.sampled_from(sorted(CONFIGS)),
    kind=st.sampled_from(KINDS),
    n=st.integers(0, 300),
    window=st.sampled_from(WINDOWS),
    inflight=st.sampled_from(INFLIGHT),
    sizes=st.lists(st.integers(0, 80), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_matches_whole_reference(
    config_name, kind, n, window, inflight, sizes, seed
):
    config = CONFIGS[config_name]
    decoded = make_stream(config, kind, n, seed)
    got = HBMDevice(
        config, max_inflight=inflight, frfcfs_window=window
    ).simulate_decoded(chunks_of(decoded, sizes))
    whole, chunked = (
        ReferenceHBMDevice(
            config, max_inflight=inflight, frfcfs_window=window
        ).simulate_decoded(stream)
        for stream in (decoded, chunks_of(decoded, sizes))
    )
    assert_identical(got, whole)
    assert_identical(got, chunked)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize(
    "stream",
    [
        lambda d: d,
        lambda d: iter([]),
        lambda d: iter([d, d]),
    ],
    ids=["whole", "no-chunks", "empty-chunks"],
)
def test_empty_trace(config_name, stream):
    config = CONFIGS[config_name]
    empty = decode_trace(np.zeros(0, dtype=np.uint64), config)
    got = HBMDevice(config).simulate_decoded(stream(empty))
    want = ReferenceHBMDevice(config).simulate_decoded(stream(empty))
    assert_identical(got, want)
    assert got.requests == 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("window", WINDOWS)
def test_degenerate_streams_at_depth(kind, window):
    # Long single-queue streams: the whole in-flight window piles onto
    # one channel, so the FR-FCFS scan runs at full depth every issue.
    config = CONFIGS["hbm2"]
    decoded = make_stream(config, kind, 3000, seed=window)
    forced = np.random.default_rng(window).random(3000) < 0.05
    assert_identical(*both(config, window, 64, decoded))
    assert_identical(*both(config, window, 4096, decoded, forced))
