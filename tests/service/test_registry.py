"""Tests for tenant admission and mapping-budget carving."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CMTError, ConfigError
from repro.service.registry import PRIORITIES, TenantRegistry, TenantSpec
from repro.service.tenant import SharedArtifacts
from repro.system.config import SystemConfig, system_by_key

#: One shared-artifacts instance for the whole module: admission tests
#: exercise the budget partition, not artifact construction.
SHARED = SharedArtifacts.create()


def registry(**kwargs) -> TenantRegistry:
    kwargs.setdefault("shared", SHARED)
    return TenantRegistry(**kwargs)


class TestTenantSpec:
    def test_system_resolved_from_key(self):
        spec = TenantSpec("t", system="bs_dm")
        assert spec.resolved_system().key == "bs_dm"

    def test_system_config_passes_through(self):
        system = system_by_key("sdm_bsm")
        assert TenantSpec("t", system=system).resolved_system() is system

    def test_defaults(self):
        spec = TenantSpec("t")
        assert spec.quota == 4
        assert isinstance(spec.resolved_system(), SystemConfig)


class TestAdmission:
    def test_namespaces_carved_contiguously(self):
        reg = registry()
        a = reg.admit(TenantSpec("a", quota=4))
        b = reg.admit(TenantSpec("b", quota=2))
        assert a.namespace.base == 1 and a.namespace.end == 5
        assert b.namespace.base == 5 and b.namespace.end == 7
        assert not a.namespace.overlaps(b.namespace)
        assert reg.remaining_slots == 256 - 1 - 6

    def test_duplicate_name_rejected(self):
        reg = registry()
        reg.admit(TenantSpec("a"))
        with pytest.raises(ConfigError, match="already admitted"):
            reg.admit(TenantSpec("a"))

    def test_zero_quota_rejected(self):
        with pytest.raises(ConfigError, match="quota"):
            registry().admit(TenantSpec("a", quota=0))

    def test_budget_exhaustion(self):
        reg = registry(max_mappings=8)  # 7 carvable after identity
        reg.admit(TenantSpec("a", quota=4))
        with pytest.raises(CMTError, match="budget exhausted"):
            reg.admit(TenantSpec("b", quota=4))
        # The failed admission reserved nothing.
        assert "b" not in reg
        reg.admit(TenantSpec("b", quota=3))

    def test_tiny_table_rejected(self):
        with pytest.raises(ConfigError):
            registry(max_mappings=1)

    def test_contexts_share_artifacts(self):
        shared = SharedArtifacts.create()
        reg = registry(shared=shared)
        a = reg.admit(TenantSpec("a"))
        b = reg.admit(TenantSpec("b"))
        assert a.shared is shared and b.shared is shared
        assert a.namespace != b.namespace


class TestEviction:
    def test_evicted_slice_is_reused_first_fit(self):
        reg = registry()
        reg.admit(TenantSpec("a", quota=4))
        reg.admit(TenantSpec("b", quota=2))
        before = reg.remaining_slots
        reg.evict("a")
        assert "a" not in reg
        assert reg.remaining_slots == before + 4
        # A smaller tenant lands inside the freed slice.
        c = reg.admit(TenantSpec("c", quota=3))
        assert c.namespace.base == 1
        # The remainder of the slice is still carvable.
        d = reg.admit(TenantSpec("d", quota=1))
        assert d.namespace.base == 4

    def test_evict_unknown_rejected(self):
        with pytest.raises(ConfigError, match="not admitted"):
            registry().evict("ghost")

    def test_lookups(self):
        reg = registry()
        context = reg.admit(TenantSpec("a"))
        assert reg.get("a") is context
        assert "a" in reg and len(reg) == 1
        assert reg.names == ["a"]
        assert reg.contexts() == [context]
        with pytest.raises(ConfigError):
            reg.get("ghost")

    def test_report_shows_partition(self):
        reg = registry()
        reg.admit(TenantSpec("a", quota=4))
        report = reg.report()
        assert report["max_mappings"] == 256
        assert report["tenants"]["a"] == {
            "tenant": "a",
            "base": 1,
            "capacity": 4,
        }
        assert report["priorities"] == {"a": "standard"}

    def test_free_list_coalesces_adjacent_slices(self):
        reg = registry()
        for name, quota in (("a", 2), ("b", 2), ("c", 2), ("d", 2)):
            reg.admit(TenantSpec(name, quota=quota))
        # Release two adjacent holes out of order: they must merge so a
        # larger tenant can land in the combined range.
        reg.evict("c")
        reg.evict("b")
        e = reg.admit(TenantSpec("e", quota=4))
        assert e.namespace.base == 3
        assert reg.check_invariants() == []

    def test_tail_release_folds_into_bump_frontier(self):
        reg = registry(max_mappings=8)
        reg.admit(TenantSpec("a", quota=3))
        reg.admit(TenantSpec("b", quota=4))
        reg.evict("b")  # tail slice: folds back into the bump allocator
        reg.evict("a")
        c = reg.admit(TenantSpec("c", quota=7))
        assert c.namespace.base == 1
        assert reg.check_invariants() == []


class TestAdmissionController:
    def test_unknown_priority_rejected(self):
        with pytest.raises(ConfigError, match="priority"):
            registry().admit(TenantSpec("a", priority="platinum"))

    def test_min_quota_validated(self):
        with pytest.raises(ConfigError, match="min_quota"):
            registry().admit(TenantSpec("a", quota=4, min_quota=5))
        with pytest.raises(ConfigError, match="min_quota"):
            registry().admit(TenantSpec("a", quota=4, min_quota=0))

    def test_borrowed_slots_reclaimed_under_pressure(self):
        reg = registry(max_mappings=12)  # 11 carvable
        a = reg.admit(
            TenantSpec(
                "a", quota=8, min_quota=2, priority="best-effort"
            )
        )
        assert a.namespace.capacity == 8
        b = reg.admit(TenantSpec("b", quota=5))
        # The borrower shrank to its floor; the new tenant landed in
        # the reclaimed range.
        assert reg.get("a").namespace.capacity == 2
        assert reg.get("a").namespace.base == 1
        assert b.namespace.capacity == 5
        assert b.namespace.base == 3
        events = [e["event"] for e in reg.health.events]
        assert "quota-reclaimed" in events
        assert reg.check_invariants() == []

    def test_reclaim_visits_weakest_borrower_first(self):
        reg = registry(max_mappings=16)  # 15 carvable
        reg.admit(TenantSpec("strong", quota=6, min_quota=2,
                             priority="standard"))
        reg.admit(TenantSpec("weak", quota=6, min_quota=2,
                             priority="best-effort"))
        reg.admit(TenantSpec("new", quota=6, priority="standard"))
        # Only the best-effort borrower should have been shrunk.
        assert reg.get("weak").namespace.capacity == 2
        assert reg.get("strong").namespace.capacity == 6
        reclaimed = [
            e for e in reg.health.events if e["event"] == "quota-reclaimed"
        ]
        assert [e["tenant"] for e in reclaimed] == ["weak"]

    def test_request_trimmed_toward_its_floor(self):
        reg = registry(max_mappings=8)  # 7 carvable
        reg.admit(TenantSpec("a", quota=4))
        b = reg.admit(TenantSpec("b", quota=5, min_quota=2))
        assert b.namespace.capacity == 3
        trims = [
            e for e in reg.health.events if e["event"] == "admission-trimmed"
        ]
        assert trims and trims[0]["tenant"] == "b"
        assert trims[0]["granted"] == 3 and trims[0]["requested"] == 5

    def test_best_effort_preempted_for_higher_class(self):
        reg = registry(max_mappings=8)
        victims = []
        reg.preempt_hook = victims.append
        reg.admit(TenantSpec("cheap", quota=4, priority="best-effort"))
        b = reg.admit(TenantSpec("vip", quota=6, priority="standard"))
        assert "cheap" not in reg
        assert victims == ["cheap"]
        assert b.namespace.capacity == 6
        events = [e["event"] for e in reg.health.events]
        assert "tenant-preempted" in events

    def test_best_effort_cannot_preempt(self):
        reg = registry(max_mappings=8)
        reg.admit(TenantSpec("a", quota=4, priority="best-effort"))
        with pytest.raises(CMTError, match="budget exhausted"):
            reg.admit(TenantSpec("b", quota=6, priority="best-effort"))
        assert "a" in reg  # the incumbent survived

    def test_guaranteed_tenants_never_lend(self):
        reg = registry(max_mappings=8)
        reg.admit(
            TenantSpec("vip", quota=6, min_quota=2, priority="guaranteed")
        )
        with pytest.raises(CMTError, match="budget exhausted"):
            reg.admit(TenantSpec("b", quota=4, priority="standard"))
        assert reg.get("vip").namespace.capacity == 6

    def test_rebuild_keeps_namespace_fresh_context(self):
        reg = registry()
        old = reg.admit(TenantSpec("a", quota=4))
        new = reg.rebuild("a")
        assert new is not old
        assert new.namespace == old.namespace
        assert reg.get("a") is new

    def test_backend_option_the_tier_rejects_fails_admission(self):
        reg = registry()
        before = reg.remaining_slots
        with pytest.raises(ConfigError, match="workers"):
            reg.admit(
                TenantSpec(
                    "a",
                    system="bs_dm",
                    backend="vector",
                    backend_options={"workers": 2},
                )
            )
        assert "a" not in reg
        assert reg.remaining_slots == before


#: A churn program: (action, tenant index, quota, min-quota, priority).
_churn_ops = st.lists(
    st.tuples(
        st.sampled_from(["admit", "evict"]),
        st.integers(min_value=0, max_value=399),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(PRIORITIES),
    ),
    min_size=1,
    max_size=250,
)


class TestChurnProperties:
    """Hundreds of tenants through admit/evict: the laws never break."""

    @given(_churn_ops)
    @settings(max_examples=40, deadline=None)
    def test_budget_laws_hold_under_churn(self, ops):
        reg = registry()
        occupied: set[str] = set()
        for action, index, quota, min_quota, priority in ops:
            name = f"t{index}"
            if action == "admit" and name not in occupied:
                try:
                    reg.admit(
                        TenantSpec(
                            name,
                            quota=quota,
                            min_quota=min(min_quota, quota),
                            priority=priority,
                        )
                    )
                except CMTError:
                    assert name not in reg  # failure reserved nothing
                    continue
                occupied.add(name)
            elif action == "evict" and name in occupied:
                reg.evict(name)
                occupied.discard(name)
            else:
                continue
            # Preemption may evict best-effort tenants behind our back;
            # resync the mirror before checking the laws.
            occupied = {n for n in occupied if n in reg}
            assert reg.check_invariants() == []
            carved = sum(
                context.namespace.capacity for context in reg.contexts()
            )
            assert carved <= reg.max_mappings - 1  # slot 0 reserved
            assert set(reg.names) == occupied
            assert 0 <= reg.remaining_slots <= reg.max_mappings - 1

    @given(_churn_ops)
    @settings(max_examples=15, deadline=None)
    def test_first_fit_reuses_lowest_feasible_hole(self, ops):
        """After any churn, a 1-slot admission lands on the lowest
        base no live namespace covers (first-fit over the coalesced
        free list, then the bump frontier)."""
        reg = registry()
        for action, index, quota, min_quota, priority in ops:
            name = f"t{index}"
            try:
                if action == "admit" and name not in reg:
                    reg.admit(TenantSpec(name, quota=quota))
                elif action == "evict" and name in reg:
                    reg.evict(name)
            except CMTError:
                continue
        taken = set()
        for context in reg.contexts():
            ns = context.namespace
            taken.update(range(ns.base, ns.end))
        expected = next(
            base for base in range(1, reg.max_mappings) if base not in taken
        )
        probe = reg.admit(TenantSpec("probe", quota=1))
        assert probe.namespace.base == expected
