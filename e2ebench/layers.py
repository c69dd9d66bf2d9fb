"""Which public functions of each layer the traced run wraps, and what
the recorded spans say about each layer.

Every target is a public function or method, wrapped where its caller
looks it up (a module-level name is patched in the module that imported
it).  :func:`analyse` turns the spans into self times, item counts and
the conservation checks between layers.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from e2ebench.stats import union_length

__all__ = ["LAYERS", "analyse", "install", "layer_table", "link_jobs"]

#: Layers in table order: the repo's modules, then the tracer's own hooks.
LAYERS = (
    "workloads", "cpu", "mem", "profiling", "ml", "core", "hbm", "tier",
    "system", "service", "trace",
)

#: The span whose items stand for a layer's items in and out.
LAYER_ITEMS = {
    "workloads": "workloads.trace",
    "cpu": "cpu.external",
    "mem": "mem.translate",
    "profiling": "profiling.profile",
    "hbm": "hbm.decode",
    "tier": "tier.simulate",
    "system": "system.pipeline",
    "service": "service.submit",
}


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# -- measurement hooks (run outside the measured span) -----------------------

def _trace_after(span, _state, _args, _kwargs, result):
    span.items_out = sum(len(t) for t in result)


def _external_after(span, _state, args, kwargs, result):
    span.items_in = sum(len(t) for t in _arg(args, kwargs, 1, "thread_traces"))
    span.items_out = len(result.trace)


def _filter_before(args, _kwargs):
    stats = args[0].stats
    return stats.misses, stats.writebacks


def _filter_after(span, state, args, kwargs, result):
    cache = args[0]
    trace = _arg(args, kwargs, 1, "trace")
    span.items_in = len(trace)
    span.items_out = len(result)
    span.meta["misses"] = cache.stats.misses - state[0]
    span.meta["writebacks"] = cache.stats.writebacks - state[1]
    if len(trace):
        sets = (trace.va >> np.uint64(cache.line_bits)) % np.uint64(
            cache.num_sets
        )
        span.meta["busiest"] = int(np.bincount(sets.astype(np.int64)).max())
    else:
        span.meta["busiest"] = 0


def _interleave_after(span, _state, args, kwargs, result):
    span.items_in = sum(len(t) for t in _arg(args, kwargs, 0, "traces"))
    span.items_out = len(result)


def _translate_before(args, _kwargs):
    return args[0].total_faults


def _translate_after(span, state, args, kwargs, result):
    span.items_in = len(_arg(args, kwargs, 1, "va"))
    span.items_out = len(result)
    span.meta["faults"] = args[0].total_faults - state


def _profile_after(span, _state, args, kwargs, _result):
    span.items_in = len(_arg(args, kwargs, 0, "trace"))


def _decode_after(span, _state, args, kwargs, result):
    span.items_in = len(_arg(args, kwargs, 0, "pa"))
    span.items_out = len(result)


def _chunk_after(span, _state, _args, _kwargs, chunk):
    span.items_out = len(chunk)


def _simulate_after(span, _state, _args, _kwargs, stats):
    span.items_in = span.items_out = int(stats.requests)


def _pipeline_after(span, _state, args, kwargs, result):
    span.items_in = int(result.external.program_accesses)
    span.items_out = int(result.stats.requests)


def _submit_after(span, _state, _args, _kwargs, handle):
    span.items_in = span.items_out = 1
    span.meta["handle"] = id(handle)


def install(tracer, workload_classes) -> None:
    """Wrap the public entry points of every layer.

    ``workload_classes`` are the concrete :class:`Workload` types the
    run uses; each one's own ``trace`` is wrapped.
    """
    import repro.cpu.cpu as cpu_mod
    import repro.service.tenant as tenant_mod
    import repro.system.runner as runner_mod
    from repro.cpu.cache import SetAssociativeCache
    from repro.hbm.backend import available_backends, create_backend
    from repro.hbm.config import hbm2_config
    from repro.hbm.guard import GuardedBackend
    from repro.mem.kernel import Kernel
    from repro.mem.malloc import MappingAwareAllocator
    from repro.mem.virtual import AddressSpace
    from repro.service.frontend import JobHandle, ServiceFrontend
    from repro.service.tenant import TenantContext
    from repro.system.runner import ExperimentRunner

    wrap = tracer.wrap
    for cls in sorted(set(workload_classes), key=lambda c: c.__qualname__):
        owner = next(k for k in cls.__mro__ if "trace" in k.__dict__)
        if getattr(owner.__dict__["trace"], "__e2ebench_wrapped__", False):
            continue
        wrap(owner, "trace", "workloads.trace", after=_trace_after)

    wrap(cpu_mod.CPUModel, "external_trace", "cpu.external",
         after=_external_after)
    wrap(SetAssociativeCache, "filter_trace", "cpu.filter",
         before=_filter_before, after=_filter_after)
    wrap(cpu_mod, "interleave_traces", "cpu.interleave",
         after=_interleave_after)

    wrap(AddressSpace, "translate_trace", "mem.translate",
         before=_translate_before, after=_translate_after)
    wrap(MappingAwareAllocator, "malloc", "mem.malloc")
    wrap(Kernel, "add_addr_map", "mem.malloc")

    wrap(tenant_mod, "profile_trace", "profiling.profile", after=_profile_after)
    wrap(tenant_mod, "select_mappings_dl", "ml.dl_select")
    wrap(tenant_mod, "select_mappings_kmeans", "ml.kmeans_select")
    for name in (
        "select_application_mapping",
        "select_global_mapping",
        "bit_flip_rate_vector",
    ):
        wrap(tenant_mod, name, "core.bsm_select")

    wrap(tenant_mod, "decode_translated", "hbm.decode", after=_decode_after)
    wrap(tenant_mod, "iter_decoded_chunks", "hbm.decode",
         after=_chunk_after, generator=True)
    # Every registered timing tier, found through the public registry so
    # a tier added or removed later needs no change here.
    seen = set()
    for name in available_backends():
        cls = type(create_backend(name, hbm2_config(), max_inflight=64))
        if cls in seen or "simulate_decoded" not in cls.__dict__:
            continue
        seen.add(cls)
        label = "tier.simulate" if name == "tiered" else f"hbm.timing_{name}"
        wrap(cls, "simulate_decoded", label, after=_simulate_after)
    wrap(GuardedBackend, "simulate_decoded", "hbm.guard", after=_simulate_after)

    wrap(ExperimentRunner, "run_suite", "system.sweep")
    for name in ("profile_stage", "selection_stage", "evaluate_stage"):
        wrap(runner_mod, name, f"system.{name}", boundary=True)
    wrap(runner_mod, "build_mix_profile", "system.mix", boundary=True)
    wrap(TenantContext, "run", "system.pipeline", boundary=True,
         after=_pipeline_after)
    wrap(TenantContext, "profile", "system.profile_pass")
    wrap(TenantContext, "select", "system.select")

    wrap(ServiceFrontend, "submit", "service.submit", boundary=True,
         after=_submit_after)

    def settle_after(span, _state, args, kwargs, settled):
        # A lane settles a job it ran right after the pipeline call: that
        # pipeline span is the last root span closed on this thread.
        if settled and _arg(args, kwargs, 1, "status") in ("completed", "failed"):
            handle = args[0]
            root = tracer.last_root("system.pipeline")
            span.meta["handle"] = id(handle)
            if root is not None:
                span.meta["pipeline"] = root.index

    wrap(JobHandle, "settle", "service.settle", after=settle_after)


# -- analysis -----------------------------------------------------------------

def _descendants(spans, root, stop_at=()):
    """Spans under ``root``, not descending into spans named in ``stop_at``."""
    stack = list(root.children)
    while stack:
        span = spans[stack.pop()]
        if span.name in stop_at:
            continue
        yield span
        stack.extend(span.children)


def analyse(spans, window: tuple[float, float], default_tier: str):
    """Per-layer numbers and conservation problems from a span list.

    ``window`` is the timed phase (start, end) in ``time.perf_counter`` seconds.
    Returns ``(metrics, by_name, problems)`` where ``metrics`` holds
    totals keyed by per-layer metric name and ``by_name`` the self time
    (duration minus the time its child spans cover), calls and items of
    every span name.
    """
    wall = window[1] - window[0]
    by_name: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "items_in": 0, "items_out": 0}
    )
    for span in spans:
        child_time = sum(spans[c].duration for c in span.children)
        row = by_name[span.name]
        row["self_s"] += span.duration - child_time
        row["calls"] += 1
        row["items_in"] += span.items_in
        row["items_out"] += span.items_out

    problems: list[str] = []
    l1_in = l1_out = writebacks = llc_out = busiest = 0
    # Every cache filter call must emit exactly its misses + write-backs.
    for span in spans:
        if span.name == "cpu.filter" and span.items_out != (
            span.meta["misses"] + span.meta["writebacks"]
        ):
            problems.append(
                f"cache filter span {span.index}: out {span.items_out} != "
                f"misses {span.meta['misses']} + write-backs "
                f"{span.meta['writebacks']}"
            )
    # Per pipeline: the evaluation pass's caches feed the memory system.
    accesses = 0
    for span in spans:
        if span.name != "system.pipeline":
            continue
        accesses += span.items_out
        pipeline_llc = 0
        decoded = None
        for child in _descendants(spans, span, stop_at=("system.profile_pass",)):
            if child.name == "hbm.decode":
                decoded = (decoded or 0) + child.items_out
            if child.name != "cpu.external":
                continue
            filters = [spans[c] for c in child.children
                       if spans[c].name == "cpu.filter"]
            if len(filters) < 2:
                problems.append(
                    f"cpu span {child.index} ran {len(filters)} cache "
                    "filter(s); expected per-core L1s and an LLC"
                )
                continue
            # The LLC filters the interleaved L1 miss streams last.
            l1s, llc = filters[:-1], filters[-1]
            l1_out_here = sum(f.items_out for f in l1s)
            if llc.items_in != l1_out_here:
                problems.append(
                    f"cpu span {child.index}: LLC in {llc.items_in} != "
                    f"sum of L1 out {l1_out_here}"
                )
            if child.items_out != llc.items_out:
                problems.append(
                    f"cpu span {child.index}: external {child.items_out} != "
                    f"LLC out {llc.items_out}"
                )
            l1_in += sum(f.items_in for f in l1s)
            l1_out += sum(f.items_out for f in l1s)
            writebacks += sum(f.meta["writebacks"] for f in l1s)
            busiest += sum(f.meta["busiest"] for f in l1s)
            pipeline_llc += child.items_out
        llc_out += pipeline_llc
        if pipeline_llc != span.items_out:
            problems.append(
                f"pipeline span {span.index}: LLC out {pipeline_llc} != "
                f"memory accesses {span.items_out}"
            )
        if decoded is not None and decoded != span.items_out:
            problems.append(
                f"pipeline span {span.index}: decoded {decoded} != "
                f"memory accesses {span.items_out}"
            )

    def self_s(name):
        return by_name[name]["self_s"] if name in by_name else 0.0

    guard_replay = 0.0
    for span in spans:
        if span.name == "hbm.guard":
            # The first timing child is the primary run; the rest replays.
            primary = next(
                (spans[c] for c in span.children
                 if spans[c].name.startswith(("hbm.timing_", "tier."))),
                None,
            )
            guard_replay += span.duration - (primary.duration if primary else 0.0)
    covered = union_length(
        (max(s.start, window[0]), min(s.end, window[1]))
        for s in spans
        if s.end > window[0] and s.start < window[1]
    )
    metrics = {
        "workloads.trace_s": self_s("workloads.trace"),
        "workloads.program_accesses": by_name["workloads.trace"]["items_out"]
        if "workloads.trace" in by_name else 0,
        "cpu.filter_s": self_s("cpu.filter"),
        "cpu.interleave_s": self_s("cpu.interleave"),
        "cpu.l1_in": l1_in,
        "cpu.l1_out": l1_out,
        "cpu.writebacks": writebacks,
        "cpu.llc_out": llc_out,
        "cpu.busiest_set_share": busiest / l1_in if l1_in else 0.0,
        "mem.translate_s": self_s("mem.translate"),
        "mem.page_faults": sum(
            s.meta["faults"] for s in spans if s.name == "mem.translate"
        ),
        "mem.malloc_s": self_s("mem.malloc"),
        "profiling.profile_s": self_s("profiling.profile"),
        "ml.dl_select_s": self_s("ml.dl_select"),
        "ml.kmeans_select_s": self_s("ml.kmeans_select"),
        "core.bsm_select_s": self_s("core.bsm_select"),
        "hbm.decode_s": self_s("hbm.decode"),
        "hbm.timing_default_s": self_s(f"hbm.timing_{default_tier}"),
        "hbm.timing_event_s": self_s("hbm.timing_event"),
        "hbm.accesses": accesses,
        "hbm.guard_s": guard_replay,
        "tier.simulate_s": self_s("tier.simulate"),
        "system.sweep_overhead_s": self_s("system.sweep"),
        "trace.hooks_s": self_s("trace.hooks"),
        "trace.untraced_s": max(0.0, wall - covered),
        "trace.coverage_pct": 100.0 * covered / wall if wall > 0 else 0.0,
    }
    if llc_out != accesses:
        problems.append(f"cpu.llc_out {llc_out} != hbm.accesses {accesses}")
    return metrics, dict(by_name), problems


def layer_table(by_name: dict, wall: float) -> list[tuple]:
    """Rows ``(layer, self_s, share, items_in, items_out)`` in layer order."""
    rows = []
    for layer in LAYERS:
        names = [n for n in by_name if n.split(".", 1)[0] == layer]
        if not names:
            continue
        self_total = sum(by_name[n]["self_s"] for n in names)
        entry = by_name.get(LAYER_ITEMS.get(layer, ""), {})
        rows.append((
            layer,
            self_total,
            self_total / wall if wall > 0 else 0.0,
            entry.get("items_in", 0),
            entry.get("items_out", 0),
        ))
    return rows


def link_jobs(spans) -> dict[int, object]:
    """Give each service job's spans one unit id; map handle id -> the
    pipeline span that ran the job.

    The submit span (generator thread) and the pipeline span (lane
    thread) start separate units; the lane's settle call names both the
    handle and the pipeline it just ran, which joins them.
    """
    submit_unit = {
        s.meta["handle"]: s.unit for s in spans if s.name == "service.submit"
    }
    alias, ran = {}, {}
    for span in spans:
        if span.name == "service.settle" and "pipeline" in span.meta:
            pipeline = spans[span.meta["pipeline"]]
            ran[span.meta["handle"]] = pipeline
            unit = submit_unit.get(span.meta["handle"])
            if unit is not None:
                alias[pipeline.unit] = unit
    for span in spans:
        span.unit = alias.get(span.unit, span.unit)
    return ran
