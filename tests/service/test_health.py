"""Tests for the service-degradation journal.

Its merge and serialisation laws are the shared ledger laws of
``tests/ledger_laws.py``, bound here to hypothesis-drawn journals.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.health import ServiceHealth
from tests.ledger_laws import LedgerLaws

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
    lane_abandonments=_counters,
    quarantines=_counters,
    restores=_counters,
    preemptions=_counters,
    reclaims=_counters,
    trims=_counters,
    events=_events,
)


class TestMergeLaws(LedgerLaws):
    instances = _healths
    golden = (
        ServiceHealth(
            submitted=4,
            completed=3,
            timeouts=1,
            shed=1,
            events=[
                {"event": "job-shed", "tenant": "a", "reason": "queue full",
                 "workload": "w"},
                {"event": "job-timeout", "tenant": "b", "reason": "late"},
            ],
        ),
        {
            "submitted": 4, "completed": 3, "failed": 0, "retried": 0,
            "timeouts": 1, "shed": 1, "dropped": 0, "rejected": 0,
            "lane_crashes": 0, "lane_restarts": 0, "lane_abandonments": 0,
            "quarantines": 0, "restores": 0, "preemptions": 0,
            "reclaims": 0, "trims": 0,
            "events": [
                {"event": "job-shed", "tenant": "a", "reason": "queue full",
                 "workload": "w"},
                {"event": "job-timeout", "tenant": "b", "reason": "late"},
            ],
            "ok": False, "conserved": True, "violations": [],
        },
    )

    @given(_healths, _healths)
    @settings(max_examples=50, deadline=None)
    def test_add_operator_matches_merge(self, a, b):
        assert (a + b).to_dict() == a.merge(b).to_dict()


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
