"""Tier traffic accounting: what the fast/slow split cost and saved.

:class:`TierTraffic` is a ledger (:mod:`repro.ledger`, DESIGN.md §19)
of ``"sum"`` counters only: ``empty()`` is the identity of an
associative, commutative ``merge``, so traffic from independent campaign
legs or sequential runs folds together in any order, and missing dict
keys load as zero.  Like :class:`~repro.hbm.stats.BackendHealth` it is
deliberately *not* part of the frozen, cache-fingerprinted
:class:`~repro.hbm.stats.RunStats`: tier traffic describes how the
tiered backend obtained a result, never what the result is, so a
tiered run whose fast tier covers the whole footprint fingerprints
bit-identically to its delegate backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ledger import Ledger

__all__ = ["TierTraffic"]


@dataclass
class TierTraffic(Ledger, derived=("fast_fraction", "overhead_ns")):
    """Counters for one tiered run (or a merge of several)."""

    fast_accesses: int = 0
    slow_accesses: int = 0
    promotions: int = 0
    demotions: int = 0
    retired_pins: int = 0
    swap_waves: int = 0
    swap_bytes: int = 0
    swap_ns: float = 0.0
    trans_lookups: int = 0
    trans_hits: int = 0
    trans_misses: int = 0
    trans_ns: float = 0.0
    slow_busy_ns: float = 0.0
    sdam_remaps: int = 0
    sdam_rollbacks: int = 0

    @property
    def accesses(self) -> int:
        """All accesses the tiered datapath served."""
        return self.fast_accesses + self.slow_accesses

    @property
    def fast_fraction(self) -> float:
        """Share of accesses the fast tier absorbed."""
        total = self.accesses
        return self.fast_accesses / total if total else 0.0

    @property
    def swaps(self) -> int:
        """Pages moved between tiers (either direction)."""
        return self.promotions + self.demotions

    @property
    def trans_hit_rate(self) -> float:
        """Translation-cache hits over lookups."""
        if self.trans_lookups == 0:
            return 0.0
        return self.trans_hits / self.trans_lookups

    @property
    def overhead_ns(self) -> float:
        """Simulated time the tier machinery itself cost."""
        return self.swap_ns + self.trans_ns

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.accesses} accesses "
            f"({self.fast_fraction:.0%} fast), "
            f"{self.promotions}+{self.demotions} swaps "
            f"({self.swap_ns / 1e3:.1f} us), "
            f"trans hit-rate {self.trans_hit_rate:.2f}"
        )
