"""The ledger laws bound to the hbm ledgers, over hypothesis draws.

:class:`~repro.hbm.stats.RunStats`, :class:`~repro.hbm.stats.BackendHealth`
and :class:`~repro.hbm.stats.RemapTraffic` fold across per-job,
per-tenant and per-campaign reports, so each gets the shared laws of
``tests/ledger_laws.py``: identity, associativity, commutativity of
every commuting field, conservation, untouched operands, foreign
``__add__``, the dict round trip and a golden ``to_dict``.

``BackendHealth`` is deliberately *not* commutative as a whole (it
models *sequential* runs: ``demoted_to``/``guard`` take the latest
value and ``degradations`` keep arrival order).

Nanosecond fields are drawn as integer-valued floats: the laws under
test are about the merge structure, not about float addition being
associative (it is not).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hbm.stats import BackendHealth, RemapTraffic, RunStats
from tests.ledger_laws import LedgerLaws

counters = st.integers(min_value=0, max_value=10_000)
whole_ns = st.integers(min_value=0, max_value=10**9).map(float)

degradation_entries = st.lists(
    st.fixed_dictionaries(
        {
            "event": st.just("tier-demoted"),
            "reason": st.sampled_from(["injected", "diverged"]),
        }
    ),
    max_size=4,
)

backend_healths = st.builds(
    BackendHealth,
    backend=st.sampled_from(["vector", "event"]),
    demoted_to=st.none() | st.sampled_from(["event", "tiered:event"]),
    degradations=degradation_entries,
    guard=st.none()
    | st.fixed_dictionaries({"diverged": st.booleans()}),
)

remap_traffics = st.builds(
    RemapTraffic,
    remaps=counters,
    failed_remaps=counters,
    rollback_migrations=counters,
    chunks_migrated=counters,
    lines_copied=counters,
    bytes_moved=counters,
    migration_ns=whole_ns,
    cmt_writes=counters,
    amu_reprograms=counters,
    reprogram_ns=whole_ns,
)

CHANNELS = 4

run_stats = st.builds(
    RunStats,
    requests=counters,
    bytes_moved=counters,
    makespan_ns=whole_ns,
    row_hits=counters,
    row_misses=counters,
    num_channels=st.just(CHANNELS),
    per_channel_requests=st.lists(
        counters, min_size=CHANNELS, max_size=CHANNELS
    ).map(lambda v: np.array(v, dtype=np.int64)),
    per_channel_busy_ns=st.lists(
        whole_ns, min_size=CHANNELS, max_size=CHANNELS
    ).map(lambda v: np.array(v, dtype=np.float64)),
)


class TestBackendHealthMergeLaws(LedgerLaws):
    instances = backend_healths
    golden = (
        BackendHealth(
            backend="vector",
            demoted_to="event",
            degradations=[
                {"event": "tier-demoted", "reason": "diverged",
                 "to": "event", "wave": 3},
            ],
            guard={"diverged": True, "delta": 0.5},
        ),
        {
            "backend": "vector",
            "demoted_to": "event",
            "degradations": [
                {"event": "tier-demoted", "reason": "diverged",
                 "to": "event", "wave": 3},
            ],
            "guard": {"diverged": True, "delta": 0.5},
            "ok": False,
        },
    )

    @settings(max_examples=60, deadline=None)
    @given(a=backend_healths, b=backend_healths)
    def test_latest_run_wins_sequential_fields(self, a, b):
        merged = a.merge(b)
        assert merged.demoted_to == (b.demoted_to or a.demoted_to)
        assert merged.guard == (b.guard if b.guard is not None else a.guard)


class TestRemapTrafficMergeLaws(LedgerLaws):
    instances = remap_traffics
    golden = (
        RemapTraffic(
            remaps=2, failed_remaps=1, lines_copied=100, migration_ns=50.0,
            reprogram_ns=2.5,
        ),
        {
            "remaps": 2, "failed_remaps": 1, "rollback_migrations": 0,
            "chunks_migrated": 0, "lines_copied": 100, "bytes_moved": 0,
            "migration_ns": 50.0, "cmt_writes": 0, "amu_reprograms": 0,
            "reprogram_ns": 2.5, "overhead_ns": 52.5,
        },
    )


class TestRunStatsMergeLaws(LedgerLaws):
    instances = run_stats
    golden = (
        RunStats(
            5, 320, 12.5, 3, 2, 4,
            np.array([2, 1, 0, 2], dtype=np.int64),
            np.array([1.5, 2.0, 0.0, 3.25]),
        ),
        {
            "requests": 5, "bytes_moved": 320, "makespan_ns": 12.5,
            "row_hits": 3, "row_misses": 2, "num_channels": 4,
            "per_channel_requests": [2, 1, 0, 2],
            "per_channel_busy_ns": [1.5, 2.0, 0.0, 3.25],
        },
    )

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="num_channels: 8 != 16"):
            RunStats.empty(8).merge(RunStats.empty(16))

    def test_empty_sizes_per_channel_arrays(self):
        empty = RunStats.empty(CHANNELS)
        assert empty.per_channel_requests.dtype == np.int64
        assert empty.per_channel_busy_ns.dtype == np.float64
        assert empty.to_dict()["per_channel_requests"] == [0] * CHANNELS
