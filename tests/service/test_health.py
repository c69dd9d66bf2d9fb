"""Tests for the service-degradation journal and its merge laws."""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.health import ServiceHealth

_counters = st.integers(min_value=0, max_value=1000)

_events = st.lists(
    st.fixed_dictionaries(
        {
            "event": st.sampled_from(
                ["job-shed", "lane-crash", "tenant-quarantined"]
            ),
            "tenant": st.sampled_from(["a", "b"]),
            "reason": st.just("test"),
        }
    ),
    max_size=4,
)

_healths = st.builds(
    ServiceHealth,
    submitted=_counters,
    completed=_counters,
    failed=_counters,
    retried=_counters,
    timeouts=_counters,
    shed=_counters,
    dropped=_counters,
    rejected=_counters,
    lane_crashes=_counters,
    lane_restarts=_counters,
    quarantines=_counters,
    restores=_counters,
    events=_events,
)

_COUNTER_FIELDS = (
    "submitted", "completed", "failed", "retried", "timeouts", "shed",
    "dropped", "rejected", "lane_crashes", "lane_restarts",
    "lane_abandonments", "quarantines", "restores", "preemptions",
    "reclaims", "trims",
)


def _as_tuple(health: ServiceHealth) -> tuple:
    return tuple(getattr(health, name) for name in _COUNTER_FIELDS) + (
        list(health.events),
    )


class TestMergeLaws:
    @given(_healths)
    @settings(max_examples=50, deadline=None)
    def test_empty_is_identity(self, health):
        assert _as_tuple(health.merge(ServiceHealth.empty())) == _as_tuple(
            health
        )
        assert _as_tuple(ServiceHealth.empty().merge(health)) == _as_tuple(
            health
        )

    @given(_healths, _healths, _healths)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        assert _as_tuple(a.merge(b).merge(c)) == _as_tuple(
            a.merge(b.merge(c))
        )

    @given(_healths, _healths)
    @settings(max_examples=50, deadline=None)
    def test_counters_add_journals_concatenate(self, a, b):
        merged = a.merge(b)
        for name in _COUNTER_FIELDS:
            assert getattr(merged, name) == getattr(a, name) + getattr(
                b, name
            )
        assert merged.events == list(a.events) + list(b.events)

    @given(_healths, _healths)
    @settings(max_examples=50, deadline=None)
    def test_add_operator_matches_merge(self, a, b):
        assert _as_tuple(a + b) == _as_tuple(a.merge(b))

    @given(_healths)
    @settings(max_examples=50, deadline=None)
    def test_dict_roundtrip(self, health):
        assert _as_tuple(ServiceHealth.from_dict(health.to_dict())) == (
            _as_tuple(health)
        )


class TestRecording:
    def test_record_journals_and_counts(self):
        health = ServiceHealth()
        health.record("job-shed", "a", "queue full", workload="w")
        assert health.shed == 1
        assert health.events == [
            {
                "event": "job-shed",
                "tenant": "a",
                "reason": "queue full",
                "workload": "w",
            }
        ]

    def test_unknown_event_journals_without_counter(self):
        health = ServiceHealth()
        health.record("novel-event", "a", "reason")
        assert len(health.events) == 1
        assert health.ok is False

    def test_ok_requires_no_events_and_conservation(self):
        health = ServiceHealth()
        assert health.ok
        health.note_submitted()
        assert not health.ok  # one job pending
        health.note_completed()
        assert health.ok


class TestConservation:
    def test_all_terminal_states_count(self):
        health = ServiceHealth()
        health.note_submitted(4)
        health.note_completed()
        health.record("job-failed", "a", "boom")
        health.record("job-timeout", "a", "deadline")
        health.record("job-dropped", "a", "evicted")
        assert health.accounted == 4
        assert health.pending == 0
        assert health.conserved()
        assert health.violations() == []

    def test_lost_job_is_a_violation(self):
        health = ServiceHealth()
        health.note_submitted(2)
        health.note_completed()
        assert not health.conserved()
        assert "unaccounted" in health.violations()[0]

    def test_overcounting_is_a_violation(self):
        health = ServiceHealth()
        health.note_completed(2)
        assert "over-counts" in health.violations()[0]

    def test_shed_and_rejected_outside_conservation(self):
        """Never-accepted submissions don't enter the accepted ledger."""
        health = ServiceHealth()
        health.record("job-shed", "a", "queue full")
        health.record("job-rejected", "a", "quarantined")
        assert health.shed == 1 and health.rejected == 1
        assert health.conserved()

    def test_concurrent_recording_is_exact(self):
        health = ServiceHealth()
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(200):
                health.note_submitted()
                health.record("job-shed", "t", "pressure")
                health.note_completed()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert health.submitted == health.completed == 1600
        assert health.shed == 1600 and len(health.events) == 1600
        assert health.conserved()

    def test_summary_flags_broken_accounting(self):
        health = ServiceHealth()
        health.note_submitted(3)
        health.record("job-shed", "a", "x")
        assert "ACCOUNTING BROKEN" in health.summary()
