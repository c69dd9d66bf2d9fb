"""Tests for :class:`~repro.tier.stats.TierTraffic`: laws and derived values.

The merge and serialisation laws are the shared ledger laws of
``tests/ledger_laws.py``, bound here to hypothesis-drawn traffic.
"""

import dataclasses

from hypothesis import strategies as st

from repro.tier.stats import TierTraffic
from tests.ledger_laws import LedgerLaws

counters = st.integers(min_value=0, max_value=10_000)
whole_ns = st.integers(min_value=0, max_value=10**9).map(float)

traffics = st.builds(
    TierTraffic,
    **{
        f.name: whole_ns if f.type == "float" else counters
        for f in dataclasses.fields(TierTraffic)
    },
)


class TestMergeLaws(LedgerLaws):
    instances = traffics
    golden = (
        TierTraffic(
            fast_accesses=3, slow_accesses=1, swap_ns=5.0, trans_ns=7.0,
            trans_lookups=4, trans_hits=1, sdam_remaps=2,
        ),
        {
            "fast_accesses": 3, "slow_accesses": 1, "promotions": 0,
            "demotions": 0, "retired_pins": 0, "swap_waves": 0,
            "swap_bytes": 0, "swap_ns": 5.0, "trans_lookups": 4,
            "trans_hits": 1, "trans_misses": 0, "trans_ns": 7.0,
            "slow_busy_ns": 0.0, "sdam_remaps": 2, "sdam_rollbacks": 0,
            "fast_fraction": 0.75, "overhead_ns": 12.0,
        },
    )


class TestDerived:
    def test_fractions_empty(self):
        t = TierTraffic()
        assert t.fast_fraction == 0.0
        assert t.trans_hit_rate == 0.0
        assert t.accesses == 0

    def test_derived_values(self):
        t = TierTraffic(
            fast_accesses=3,
            slow_accesses=1,
            promotions=2,
            demotions=1,
            swap_ns=5.0,
            trans_ns=7.0,
            trans_lookups=4,
            trans_hits=1,
        )
        assert t.accesses == 4
        assert t.fast_fraction == 0.75
        assert t.swaps == 3
        assert t.overhead_ns == 12.0
        assert t.trans_hit_rate == 0.25
        assert "75% fast" in t.summary()
