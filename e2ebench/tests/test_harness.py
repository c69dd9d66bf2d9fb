"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root: ``python3 -m pytest e2ebench/tests``.
"""

import json
import math
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from e2ebench.catalog import END_TO_END, PER_LAYER
from e2ebench.layers import analyse, install, link_jobs
from e2ebench.loadgen import Job, OpenLoop
from e2ebench.spans import Span, Tracer
from e2ebench.stats import (
    percentile,
    rank_flips,
    speedup_err_pct,
    supported_percentile,
    union_length,
)

ROOT = Path(__file__).resolve().parents[2]


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_percentile_matches_numpy_interpolation():
    values = np.random.default_rng(3).exponential(size=101)
    for p in (50, 90, 99):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p))
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_union_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 4), (1, 2)]) == 4
    assert union_length([]) == 0


# -- fidelity against the reference -------------------------------------------

def _table(**rows):
    return {name: dict(row) for name, row in rows.items()}


def test_rank_flips_counts_each_misordered_pair():
    # The mixed-stride ranking documented in the ROADMAP: the reference
    # puts HM > ML4 > SDM, the default tier puts SDM first.
    reference = _table(mixed={"dm": 1.0, "hm": 2.35, "sdm": 1.65, "ml4": 1.95})
    default = _table(mixed={"dm": 1.0, "hm": 2.33, "sdm": 2.55, "ml4": 2.27})
    assert rank_flips(default, reference) == 2
    assert rank_flips(reference, reference) == 0


def test_rank_flips_treats_a_tie_against_an_order_as_a_flip():
    tied = _table(a={"x": 2.0, "y": 2.0, "z": 1.0})
    ordered = _table(a={"x": 2.0, "y": 1.5, "z": 1.0})
    assert rank_flips(tied, ordered) == 1
    assert rank_flips(tied, tied) == 0
    # Ties are judged with a relative tolerance, not bit equality.
    almost = _table(a={"x": 2.0, "y": 2.0 * (1 + 1e-12), "z": 1.0})
    assert rank_flips(almost, tied) == 0


def test_rank_flips_sums_over_inputs_and_ignores_unshared_cells():
    reference = _table(a={"x": 1.0, "y": 2.0}, b={"x": 1.0, "y": 2.0})
    default = _table(
        a={"x": 1.0, "y": 0.5, "extra": 9.0}, b={"x": 1.0, "y": 0.5},
        c={"x": 1.0, "y": 3.0},
    )
    assert rank_flips(default, reference) == 2


def test_speedup_error_is_mean_abs_log_ratio_without_the_baseline():
    reference = _table(a={"base": 1.0, "x": 1.0, "y": 4.0})
    default = _table(a={"base": 1.0, "x": 2.0, "y": 2.0})
    expected = 100 * (math.log(2) + math.log(2)) / 2
    assert speedup_err_pct(default, reference, "base") == pytest.approx(expected)
    assert speedup_err_pct(reference, reference, "base") == 0.0
    with pytest.raises(ValueError):
        speedup_err_pct(_table(a={"base": 1.0}), reference, "base")


# -- open-loop timing ---------------------------------------------------------

class _Handle:
    def __init__(self):
        self.status = "queued"
        self._event = threading.Event()

    def finish(self):
        self.status = "completed"
        self._event.set()

    def wait(self, timeout=None):
        return self._event.wait(timeout)


class _SerialService:
    """A one-lane service: jobs run one after another, ``cost`` s each;
    a submit of the workload ``"stall"`` blocks the caller first."""

    def __init__(self, cost, stall=0.0):
        self.cost = cost
        self.stall = stall
        self.queue = []
        self.lock = threading.Lock()
        self.ready = threading.Condition(self.lock)
        self.closed = False
        self.worker = threading.Thread(target=self._serve, daemon=True)
        self.worker.start()

    def submit(self, tenant, workload, **_kwargs):
        if workload == "stall":
            time.sleep(self.stall)
        if workload == "full":
            raise type("ServiceOverloadError", (Exception,), {})("full")
        handle = _Handle()
        with self.lock:
            self.queue.append(handle)
            self.ready.notify()
        return handle

    def _serve(self):
        while True:
            with self.lock:
                while not self.queue and not self.closed:
                    self.ready.wait()
                if self.closed:
                    return
                handle = self.queue.pop(0)
            time.sleep(self.cost)
            handle.finish()

    def close(self):
        with self.lock:
            self.closed = True
            self.ready.notify()
        self.worker.join(timeout=5)
        assert not self.worker.is_alive()


def test_latency_runs_from_due_time_through_a_queue():
    service = _SerialService(cost=0.1)
    try:
        jobs = [Job("t", "w", due) for due in (0.0, 0.01, 0.02)]
        OpenLoop(service).run(jobs)
    finally:
        service.close()
    assert all(j.status == "completed" for j in jobs)
    # Sent on time, but each waits for the ones ahead of it.
    assert max(j.late for j in jobs) < 0.05
    assert jobs[2].latency >= 0.28
    assert jobs[0].latency < jobs[1].latency < jobs[2].latency


def test_a_stalled_submit_makes_later_jobs_late_and_counts_it():
    service = _SerialService(cost=0.0, stall=0.3)
    try:
        jobs = [Job("t", "stall", 0.0), Job("t", "w", 0.05),
                Job("t", "w", 0.1), Job("t", "full", 0.4)]
        OpenLoop(service).run(jobs)
    finally:
        service.close()
    stalled, late, later, refused = jobs
    assert stalled.latency >= 0.29
    # Due while the generator was blocked: sent late, and the latency
    # from the due time includes that lateness.
    assert late.late >= 0.2 and late.latency >= late.late
    assert later.late >= 0.15
    assert refused.status == "shed"


# -- wrappers -----------------------------------------------------------------

def _fixture_targets():
    module = types.ModuleType("fixture")

    def leaf(x):
        return [x] * x

    def outer(x):
        return module.leaf(x)

    module.leaf, module.outer = leaf, outer

    class Base:
        def work(self, n):
            return module.outer(n)

    class Sub(Base):
        pass

    def chunks(n):
        yield from range(n)

    module.chunks = chunks
    return module, Base, Sub


def test_wrappers_record_nested_spans_and_teardown_restores_originals():
    module, base, sub = _fixture_targets()
    originals = (module.leaf, module.outer, module.chunks, base.work)
    tracer = Tracer()
    tracer.wrap(module, "leaf", "a.leaf",
                after=lambda span, _s, args, _k, out: setattr(
                    span, "items_out", len(out)))
    tracer.wrap(module, "outer", "a.outer")
    tracer.wrap(sub, "work", "b.work", boundary=True)
    tracer.wrap(module, "chunks", "c.chunk", generator=True)
    with pytest.raises(RuntimeError):
        tracer.wrap(module, "leaf", "again")

    assert sub().work(3) == [3, 3, 3]
    assert base().work(2) == [2, 2]  # the base class is not wrapped
    assert list(module.chunks(3)) == [0, 1, 2]

    names = [s.name for s in tracer.spans]
    assert names.count("c.chunk") == 4  # three items, then exhaustion
    work = next(s for s in tracer.spans if s.name == "b.work")
    outer = tracer.spans[work.children[0]]
    leaves = [s for s in tracer.spans if s.name == "a.leaf"]
    assert outer.name == "a.outer" and outer.unit == work.unit != 0
    assert leaves[0].parent == outer.index and leaves[0].items_out == 3
    assert leaves[1].unit == 0 and leaves[1].parent is not None
    assert work.start <= outer.start <= outer.end <= work.end

    assert tracer.remove() == []
    assert (module.leaf, module.outer, module.chunks, base.work) == originals
    assert module.leaf is originals[0] and base.work is originals[3]
    assert "work" not in sub.__dict__ and sub.work is base.work
    assert tracer.installed == 0


def test_each_thread_keeps_its_own_span_stack():
    module, _base, _sub = _fixture_targets()
    tracer = Tracer()
    tracer.wrap(module, "outer", "a.outer", boundary=True)
    tracer.wrap(module, "leaf", "a.leaf")

    def hammer():
        for _ in range(200):
            module.outer(2)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    tracer.remove()
    assert [s.index for s in tracer.spans] == list(range(len(tracer.spans)))
    outers = [s for s in tracer.spans if s.name == "a.outer"]
    assert len(outers) == 8 * 200
    assert len({s.unit for s in outers}) == 8 * 200
    for span in tracer.spans:
        if span.name == "a.leaf":
            parent = tracer.spans[span.parent]
            assert parent.name == "a.outer" and parent.thread == span.thread
            assert parent.unit == span.unit


def test_layer_wrappers_install_and_restore_on_the_program():
    from repro.cpu.cache import SetAssociativeCache
    from repro.service.tenant import TenantContext
    from repro.workloads import StridedCopyWorkload

    import repro.service.tenant as tenant_mod

    before = (SetAssociativeCache.filter_trace, TenantContext.run,
              tenant_mod.select_mappings_dl, StridedCopyWorkload.trace)
    tracer = Tracer()
    install(tracer, {StridedCopyWorkload})
    assert tracer.installed > 20
    assert SetAssociativeCache.filter_trace is not before[0]
    assert tracer.remove() == []
    after = (SetAssociativeCache.filter_trace, TenantContext.run,
             tenant_mod.select_mappings_dl, StridedCopyWorkload.trace)
    assert all(a is b for a, b in zip(after, before))


def test_traced_run_conserves_items_and_flags_a_broken_law():
    from repro import Session
    from repro.workloads import StridedCopyWorkload

    workload = StridedCopyWorkload(4, accesses_per_thread=512)
    tracer = Tracer()
    install(tracer, {StridedCopyWorkload})
    try:
        start = time.perf_counter()
        result = Session(cache_dir=None, workers=0).run(workload, "sdm_bsm")
        end = time.perf_counter()
    finally:
        assert tracer.remove() == []
    metrics, by_name, problems = analyse(tracer.spans, (start, end), "fast")
    assert problems == []
    assert metrics["cpu.llc_out"] == metrics["hbm.accesses"] == result.stats.requests
    assert metrics["cpu.l1_in"] == 4 * 512
    assert by_name["cpu.filter"]["calls"] >= 5

    broken = next(s for s in tracer.spans if s.name == "cpu.filter")
    broken.items_out += 1
    _metrics, _by_name, problems = analyse(tracer.spans, (start, end), "fast")
    assert any("misses" in p for p in problems)


def test_a_jobs_submit_and_lane_spans_share_one_unit():
    submit = Span(0, "service.submit", 1, None, 5, 0.0)
    submit.meta["handle"] = 42
    pipeline = Span(1, "system.pipeline", 2, None, 7, 0.1)
    pipeline.children.append(2)
    inner = Span(2, "cpu.filter", 2, 1, 7, 0.2)
    settle = Span(3, "service.settle", 2, None, 0, 0.3)
    settle.meta.update(handle=42, pipeline=1)
    other = Span(4, "system.pipeline", 3, None, 9, 0.4)
    spans = [submit, pipeline, inner, settle, other]
    assert link_jobs(spans) == {42: pipeline}
    assert pipeline.unit == inner.unit == submit.unit == 5
    assert other.unit == 9


# -- the metric catalog -------------------------------------------------------

def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(PER_LAYER)
