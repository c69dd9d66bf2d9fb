"""Every metric the benchmark reports: name, unit, direction (and bound).

``BENCHMARK.json`` at the repository root lists the same metrics; a
test keeps the two in step.  Every metric is reported on every
workload; a per-layer metric whose layer does not run on a workload
reads 0 there.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER"]

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("kacc_per_s", "kacc/s", "higher", 0.25),
)

#: (name, unit, better).  Host times are self times from the traced run,
#: per unit of work (one sweep, one fidelity round, one open-loop
#: schedule); counts are exact and per unit too.
PER_LAYER = (
    ("workloads.trace_s", "s", "lower"),
    ("workloads.program_accesses", "count", "lower"),
    ("cpu.filter_s", "s", "lower"),
    ("cpu.interleave_s", "s", "lower"),
    ("cpu.l1_in", "count", "lower"),
    ("cpu.l1_out", "count", "lower"),
    ("cpu.writebacks", "count", "lower"),
    ("cpu.llc_out", "count", "lower"),
    ("cpu.busiest_set_share", "ratio", "lower"),
    ("mem.translate_s", "s", "lower"),
    ("mem.page_faults", "count", "lower"),
    ("mem.malloc_s", "s", "lower"),
    ("profiling.profile_s", "s", "lower"),
    ("ml.dl_select_s", "s", "lower"),
    ("ml.kmeans_select_s", "s", "lower"),
    ("core.bsm_select_s", "s", "lower"),
    ("hbm.decode_s", "s", "lower"),
    ("hbm.timing_default_s", "s", "lower"),
    ("hbm.timing_event_s", "s", "lower"),
    ("hbm.accesses", "count", "lower"),
    ("hbm.guard_s", "s", "lower"),
    ("hbm.sim_makespan_ns", "ns", "lower"),
    ("hbm.row_hit_rate", "ratio", "higher"),
    ("hbm.clp_utilization", "ratio", "higher"),
    ("tier.simulate_s", "s", "lower"),
    ("tier.promotions", "count", "lower"),
    ("tier.demotions", "count", "lower"),
    ("system.sweep_overhead_s", "s", "lower"),
    ("system.cells", "count", "higher"),
    ("system.cache_hits", "count", "higher"),
    ("system.cache_misses", "count", "lower"),
    ("service.run_ms_p50", "ms", "lower"),
    ("service.wait_ms_p50", "ms", "lower"),
    ("service.wait_ms_p90", "ms", "lower"),
    ("service.shed", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.timeouts", "count", "lower"),
    ("loadgen.late_ms_p90", "ms", "lower"),
    ("loadgen.low_samples", "count", "higher"),
    ("loadgen.high_samples", "count", "higher"),
    ("trace.hooks_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    # Workload-level results that exist on one workload only.  They are
    # taken from the untraced pass of the traced run.
    ("failed_frac", "ratio", "lower"),
    ("rank_flips", "count", "lower"),
    ("speedup_err_pct", "%", "lower"),
    ("low_p50_ms", "ms", "lower"),
    ("low_p90_ms", "ms", "lower"),
    ("high_p50_ms", "ms", "lower"),
    ("high_p90_ms", "ms", "lower"),
    ("goodput_jobs_s", "jobs/s", "higher"),
)
