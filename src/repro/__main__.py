"""Command-line front end: ``python -m repro <command>``.

Small demos and sanity checks that exercise the library end to end
without writing any code:

* ``demo``    — the quickstart comparison on the mixed-stride copy;
* ``stride``  — the Fig. 3 stride sweep under the default mapping;
* ``hw``      — the AMU/CMT hardware-overhead report (Table 3);
* ``audit``   — build an SDAM controller, register mappings, verify
  the Section 4 correctness properties;
* ``suite``   — a quick Fig. 12-style sweep (pass ``--full`` for the
  complete suites, ``--workers N`` to parallelise, ``--cache-dir`` to
  memoise stages on disk, ``--resume`` to finish an interrupted
  sweep, ``--json`` for machine-readable output);
* ``bench``   — translation-datapath microbenchmark: fused
  translate+decode vs the pre-refactor baseline, written to
  ``BENCH_translation.json`` (``--min-speedup`` gates CI); with
  ``--online``, the streaming-BFRV estimator vs windowed batch
  recompute instead, written to ``BENCH_online.json``; with
  ``--evaluate``, the memory stage (decode + timing) under the chunked
  vector backend vs the object-model event loop kept as the event
  tier's oracle (the event tier itself is timed alongside), written to
  ``BENCH_evaluate.json``;
* ``verify-cache`` — checksum + decode every stage-cache entry,
  quarantining corrupt ones (``--gc`` sweeps tmp debris, and
  ``--purge-quarantine`` empties the quarantine);
* ``ras``     — seeded device-fault campaign: inject modeled hardware
  faults (stuck rows, dead banks/channels, CMT/AMU upsets), detect
  them, repair by software-defined remapping, and verify zero silent
  corruption against a never-faulted twin machine (``--out`` writes
  the RASReport JSON for CI artifacts; ``--guard`` cross-checks the
  backend against the event reference, ``--checkpoint``/``--resume``
  make the campaign crash-safe);
* ``adapt``   — seeded online-adaptation campaign: a phase-shifting
  workload served live while the adaptive controller detects phase
  changes and migrates mappings, scored against every relevant static
  mapping (``--min-speedup`` gates CI, ``--out`` writes the campaign
  JSON; ``--guard`` and ``--checkpoint``/``--resume`` as for ``ras``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def cmd_demo(_args) -> int:
    """Quickstart comparison on the mixed-stride copy."""
    from repro import api
    from repro.system.reporting import format_table

    workload = api.mixed_stride_workload()
    session = api.Session(cache_dir=None, workers=0)
    rows = []
    baseline = None
    for result in session.compare(
        workload,
        systems=("bs_dm", "bs_bsm", "bs_hm", "sdm_bsm", "sdm_bsm_ml4"),
    ).values():
        if baseline is None:
            baseline = result.time_ns
        rows.append(
            {
                "system": result.system,
                "throughput_gbps": result.stats.throughput_gbps,
                "speedup": baseline / result.time_ns,
            }
        )
    print(format_table(rows, title=f"{workload.name} across systems"))
    return 0


def cmd_stride(args) -> int:
    """Fig. 3 stride sweep under the default mapping."""
    from repro.hbm import WindowModel, hbm2_config
    from repro.system.reporting import format_table

    config = hbm2_config()
    model = WindowModel(config, max_inflight=256)
    rows = []
    for stride in (1, 2, 4, 8, 16, 32, 64):
        pa = (
            np.arange(args.accesses, dtype=np.uint64)
            * np.uint64(stride * 64)
        ) % np.uint64(config.total_bytes)
        stats = model.simulate(pa)
        rows.append(
            {
                "stride": stride,
                "throughput_gbps": stats.throughput_gbps,
                "channels": stats.channels_touched,
                "row_hit_rate": stats.row_hit_rate,
            }
        )
    print(
        format_table(rows, title="stride sweep, boot-time default mapping")
    )
    return 0


def cmd_hw(_args) -> int:
    """Print the AMU/CMT overhead models (Table 3)."""
    from repro.core import amu_area_report, cmt_storage_report

    amu = amu_area_report()
    cmt = cmt_storage_report()
    print(
        f"AMU: {amu['switches_per_amu']} crossbar switches, "
        f"{amu['config_bits']}-bit config, x{amu['duplicates']} -> "
        f"{100 * amu['logic_fraction']:.2f}% of a VU37P"
    )
    print(
        f"CMT (128GB socket): two-level {cmt['two_level_kb']:.2f} KB vs "
        f"flat {cmt['flat_kb']:.1f} KB ({cmt['saving_factor']:.1f}x), "
        f"{cmt['lookup_latency_ns']:.0f} ns lookup"
    )
    return 0


def cmd_audit(args) -> int:
    """Build a controller, register random mappings, audit it."""
    from repro.core import ChunkGeometry, SDAMController, audit_controller

    geometry = ChunkGeometry()
    controller = SDAMController(geometry)
    rng = np.random.default_rng(args.seed)
    for index in range(args.mappings):
        mapping_id = controller.register_mapping(
            rng.permutation(geometry.window_bits)
        )
        for _ in range(4):
            controller.assign_chunk(
                int(rng.integers(geometry.num_chunks)), mapping_id
            )
    report = audit_controller(controller, sample_chunks=args.chunks)
    print(report)
    return 0 if report.ok else 1


def cmd_suite(args) -> int:
    """Run a (quick) Fig. 12-style speedup sweep."""
    from repro import api
    from repro.system.reporting import format_table

    session_kwargs: dict = {}
    if args.backend:
        session_kwargs["backend"] = args.backend
    session = api.Session(
        cache_dir=args.cache_dir, workers=args.workers, **session_kwargs
    )
    if args.resume:
        workloads = api.evaluation_workloads(quick=not args.full)
        if not args.full:
            session.machine_kwargs.setdefault(
                "dl_config", api.QUICK_DL_CONFIG
            )
        suite = session.sweep(workloads, resume=True)
    else:
        suite = session.full_evaluation(quick=not args.full)
    if args.json:
        print(suite.to_json(indent=2))
    else:
        table = suite.table
        rows = table.to_rows()
        geo: dict[str, object] = {"workload": "GEOMEAN"}
        for system in table.systems():
            geo[system] = table.geomean(system)
        rows.append(geo)
        print(format_table(rows, title="speedup over BS+DM"))
        print(
            f"wall {suite.wall_seconds:.1f}s, workers {suite.workers}, "
            f"cache {suite.cache_hits} hits / {suite.cache_misses} misses, "
            f"{suite.bytes_simulated / 1e6:.1f} MB simulated"
        )
        if suite.degraded:
            print(
                "note: worker pool broke mid-sweep; remaining cells ran "
                "serially",
                file=sys.stderr,
            )
    if suite.errors:
        for error in suite.errors:
            print(
                f"error: {error.workload} x {error.system} "
                f"[{error.stage}]: {error.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_bench(args) -> int:
    """Benchmark the translation datapath (or, with ``--online``, the
    streaming estimator; with ``--evaluate``, the memory stage); write
    the JSON report."""
    import json

    if args.tier:
        from repro.system.bench import (
            TIER_REPORT_PATH,
            run_tier_benchmark,
            write_report,
        )

        accesses = args.accesses or 65_536
        report = run_tier_benchmark(
            accesses=accesses,
            seed=args.seed,
            repeats=args.repeats,
        )
        path = write_report(report, args.out or TIER_REPORT_PATH)
        summary = report["summary_speedup_geomean"]
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(f"tier bench: {accesses} accesses -> {path}")
            for scenario, cell in report["cells"].items():
                print(
                    f"  {scenario:8s} smart-tiered "
                    f"{cell['smart_ns'] / 1e6:8.2f} ms model time "
                    f"({cell['speedup']:.2f}x vs all-slow)"
                )
            print(f"  geomean speedup: smart {summary['smart']:.2f}x")
        gate = summary["smart"]
        if gate < args.min_speedup:
            print(
                f"error: geomean speedup {gate:.2f}x below the "
                f"--min-speedup {args.min_speedup:.2f}x gate",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.evaluate:
        from repro.system.bench import (
            EVALUATE_REPORT_PATH,
            run_evaluate_benchmark,
            write_report,
        )

        accesses = args.accesses or 200_000
        report = run_evaluate_benchmark(
            accesses=accesses,
            seed=args.seed,
            repeats=args.repeats,
            backend=args.backend or "vector",
        )
        path = write_report(report, args.out or EVALUATE_REPORT_PATH)
        summary = report["summary_speedup_geomean"]
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(
                f"evaluate bench: {accesses} accesses, "
                f"backend {report['backend']} -> {path}"
            )
            for scenario, cell in report["cells"].items():
                ev = cell["evaluate"]
                cal = cell["calibration"]
                print(
                    f"  {scenario:8s} evaluate "
                    f"{ev['fused_maccesses_per_s']:8.1f} Macc/s "
                    f"({ev['speedup']:.2f}x vs reference loop, "
                    f"{ev['speedup_vs_event']:.2f}x vs event tier, "
                    f"makespan ratio {cal['makespan_ratio']:.2f})"
                )
            print(
                f"  geomean speedup: evaluate {summary['evaluate']:.2f}x "
                f"(vs event tier {summary['evaluate_vs_event']:.2f}x)"
            )
        gate = summary["evaluate"]
        if gate < args.min_speedup:
            print(
                f"error: geomean speedup {gate:.2f}x below the "
                f"--min-speedup {args.min_speedup:.2f}x gate",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.online:
        from repro.online.bench import (
            DEFAULT_REPORT_PATH,
            run_benchmark,
            write_report,
        )
    else:
        from repro.system.bench import run_benchmark, write_report

        DEFAULT_REPORT_PATH = "BENCH_translation.json"

    accesses = args.accesses
    if accesses is None:
        accesses = 262_144 if args.online else 1_000_000
    report = run_benchmark(
        accesses=accesses,
        seed=args.seed,
        repeats=args.repeats,
    )
    path = write_report(report, args.out or DEFAULT_REPORT_PATH)
    summary = report["summary_speedup_geomean"]
    if args.json:
        print(json.dumps(report, indent=2))
    elif args.online:
        print(f"online bench: {accesses} accesses -> {path}")
        for scenario, cell in report["cells"].items():
            print(
                f"  {scenario:10s} streaming "
                f"{cell['streaming_maccesses_per_s']:8.1f} Macc/s "
                f"({cell['speedup']:.2f}x vs windowed batch recompute)"
            )
        print(f"  geomean speedup: streaming {summary['streaming']:.2f}x")
    else:
        print(f"translation bench: {accesses} accesses -> {path}")
        for scenario, cell in report["cells"].items():
            fused = cell["translate_decode"]
            print(
                f"  {scenario:8s} translate+decode "
                f"{fused['fused_maccesses_per_s']:8.1f} Macc/s "
                f"({fused['speedup']:.2f}x vs pre-refactor baseline)"
            )
        print(
            "  geomean speedups: "
            + ", ".join(f"{k} {v:.2f}x" for k, v in summary.items())
        )
    gate = summary["streaming" if args.online else "translate_decode"]
    if gate < args.min_speedup:
        print(
            f"error: geomean speedup {gate:.2f}x below the "
            f"--min-speedup {args.min_speedup:.2f}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_adapt(args) -> int:
    """Run the seeded online-adaptation campaign; optionally write JSON."""
    import json

    from repro.errors import CampaignInterrupted
    from repro.online.campaign import run_adaptive_campaign

    try:
        result = run_adaptive_campaign(
            seed=args.seed,
            quick=not args.full,
            window_accesses=args.window,
            backend=args.backend or "fast",
            guard=args.guard,
            guard_sample=args.guard_sample,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            stop_after_window=args.stop_after,
        )
    except CampaignInterrupted as stop:
        print(
            f"campaign interrupted: {stop} "
            f"(resume with --checkpoint {stop.checkpoint_path} --resume)",
            file=sys.stderr,
        )
        return 3
    payload = result.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        for label, ns in sorted(
            result.static_ns.items(), key=lambda item: item[1]
        ):
            marker = " <- best" if label == result.best_static else ""
            print(f"  static {label}: {ns / 1e3:.1f} us{marker}")
        print(
            f"  {result.remaps} remaps, {result.declines} declines, "
            f"{result.failed_remaps} failed; stationary control: "
            f"{result.stationary_remaps} remaps"
        )
        if args.out:
            print(f"report written to {args.out}")
    problems = []
    if result.stationary_remaps:
        problems.append(
            f"stationary trace triggered {result.stationary_remaps} remaps "
            "(thrash guard violated)"
        )
    if result.speedup < args.min_speedup:
        problems.append(
            f"speedup {result.speedup:.2f}x below the "
            f"--min-speedup {args.min_speedup:.2f}x gate"
        )
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_tier(args) -> int:
    """Run the tiered-memory campaign; optionally write JSON."""
    import json

    from repro.tier.campaign import run_tier_campaign

    try:
        result = run_tier_campaign(
            seed=args.seed,
            quick=not args.full,
            policy=args.policy,
        )
    except KeyboardInterrupt:
        print("tier campaign interrupted", file=sys.stderr)
        return 3
    payload = result.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        if args.out:
            print(f"report written to {args.out}")
    if not result.ok:
        for problem in result.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_verify_cache(args) -> int:
    """Verify (and optionally sweep) the on-disk stage cache."""
    import json

    from repro import api
    from repro.system.tracefile import StageStore

    cache_dir = args.cache_dir or api.default_cache_dir()
    store = StageStore(cache_dir)
    report = store.verify()
    gc_report = None
    if args.gc or args.purge_quarantine:
        gc_report = store.gc(purge_quarantine=args.purge_quarantine)
    bad = sorted(
        name
        for entry in report.values()
        for name in entry["quarantined"]
    )
    if args.json:
        print(
            json.dumps(
                {"cache_dir": str(cache_dir), "verify": report, "gc": gc_report},
                indent=2,
            )
        )
    else:
        print(f"cache: {cache_dir}")
        for kind, entry in report.items():
            if entry["checked"] == 0:
                continue
            print(
                f"  {kind:9s} {entry['ok']}/{entry['checked']} healthy"
                + (
                    f", quarantined: {', '.join(entry['quarantined'])}"
                    if entry["quarantined"]
                    else ""
                )
            )
        if gc_report is not None:
            print(
                f"  gc: {gc_report['tmp']} tmp files, "
                f"{gc_report['orphan_sidecars']} orphan sidecars, "
                f"{gc_report['quarantined']} quarantined files removed"
            )
        if bad:
            print(
                f"{len(bad)} corrupt entr{'y' if len(bad) == 1 else 'ies'} "
                "quarantined; the next sweep recomputes them",
                file=sys.stderr,
            )
    return 1 if bad else 0


def cmd_ras(args) -> int:
    """Run a seeded device-fault RAS campaign; optionally write JSON."""
    import json

    from repro.errors import CampaignInterrupted
    from repro.ras.campaign import ALL_KINDS, run_campaign

    kinds = tuple(args.kinds.split(",")) if args.kinds else ALL_KINDS
    try:
        result = run_campaign(
            seed=args.seed,
            kinds=kinds,
            quick=not args.full,
            backend=args.backend or "fast",
            guard=args.guard,
            guard_sample=args.guard_sample,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            stop_after_batch=args.stop_after,
        )
    except CampaignInterrupted as stop:
        print(
            f"campaign interrupted: {stop} "
            f"(resume with --checkpoint {stop.checkpoint_path} --resume)",
            file=sys.stderr,
        )
        return 3
    payload = result.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        if args.out:
            print(f"report written to {args.out}")
    if not result.ok:
        for problem in result.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve_soak(args) -> int:
    """Continuous soak: N tenant lanes under sustained load.

    Submits round-robin traffic at every lane for ``--duration``
    seconds (sheds and probation rejections are expected and
    journaled), optionally with an injected ``service.*`` fault, then
    drains and gates on the health journal: exit 0 when the
    conservation law held, 1 on violations, 3 on interrupt — the same
    contract as ``ras``/``adapt``.
    """
    import json
    import time as clock

    from repro.errors import ServiceOverloadError, TenantQuarantinedError
    from repro.faults import FaultPlan
    from repro.service import ServiceFrontend, TenantSpec
    from repro.workloads.synthetic import StridedCopyWorkload

    faults = None
    if args.fault:
        faults = FaultPlan.single(
            args.fault, times=max(3, args.load), match="*"
        )
    frontend = ServiceFrontend(
        queue_depth=args.queue_depth,
        faults=faults,
        max_strikes=3,
        quarantine_s=0.1,
        supervise_interval_s=0.005,
    )
    interrupted = False
    drain_problem = None
    try:
        try:
            for index in range(args.load):
                frontend.admit(
                    TenantSpec(
                        name=f"soak{index:03d}",
                        system="bs_dm",
                        quota=2,
                        seed=args.seed + index,
                        backend=args.backend or "fast",
                    )
                )
            workload = StridedCopyWorkload(
                stride_lines=4, accesses_per_thread=512
            )
            deadline = clock.monotonic() + args.duration
            index = 0
            while clock.monotonic() < deadline:
                name = f"soak{index % args.load:03d}"
                try:
                    frontend.submit(name, workload, eval_seed=index)
                except (ServiceOverloadError, TenantQuarantinedError):
                    pass  # journaled by the front-end; keep the pressure on
                index += 1
                clock.sleep(0.001)
            try:
                frontend.drain(timeout=max(60.0, args.duration * 4))
            except Exception as error:  # noqa: BLE001 — gate below
                drain_problem = str(error)
        except KeyboardInterrupt:
            interrupted = True
        health = frontend.health
        payload = health.to_dict()
        if drain_problem:
            payload["violations"] = payload["violations"] + [drain_problem]
    finally:
        frontend.close()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(health.summary())
        if args.out:
            print(f"health journal written to {args.out}")
    if interrupted:
        print("soak interrupted", file=sys.stderr)
        return 3
    if payload["violations"]:
        for problem in payload["violations"]:
            print(f"error: service health violated: {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    """Serve: soak mode (``--load``) or the isolation selftest."""
    import json

    from repro.service import run_service_campaign

    if args.load is not None:
        return _cmd_serve_soak(args)
    try:
        result = run_service_campaign(
            seed=args.seed,
            tenants=args.tenants,
            quick=not args.full,
            controllers=not args.no_controllers,
            backend=args.backend or "vector",
        )
    except KeyboardInterrupt:
        print("selftest interrupted", file=sys.stderr)
        return 3
    payload = result.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        for name, fingerprint in result.concurrent_fingerprints.items():
            namespace = fingerprint.get("namespace") or {}
            print(
                f"  {name}: slots [{namespace.get('base')}, "
                f"{namespace.get('base', 0) + namespace.get('capacity', 0)}) "
                f"runs {len(fingerprint.get('runs', []))}"
            )
        if args.out:
            print(f"report written to {args.out}")
    if not result.isolated:
        for mismatch in result.mismatches:
            print(f"error: isolation violated: {mismatch}", file=sys.stderr)
        return 1
    return 0


def _add_campaign_flags(parser, unit: str) -> None:
    """The guarded-execution / checkpoint flags shared by ras and adapt."""
    parser.add_argument(
        "--guard",
        action="store_true",
        help="wrap the backend in the cross-tier divergence guard "
        "(sampled chunks replayed through the event reference; "
        "divergence demotes to the reference tier)",
    )
    parser.add_argument(
        "--guard-sample",
        type=float,
        default=None,
        help="fraction of chunks the guard replays (default 0.05)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="persist campaign progress to this file so a killed run "
        "can be resumed bit-identically",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the campaign from --checkpoint instead of starting "
        "fresh",
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        default=None,
        help=f"deterministically stop after N {unit} (testing/CI hook; "
        "requires --checkpoint; exits 3 with a resumable checkpoint)",
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SDAM reproduction demos"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="quickstart system comparison")
    stride = sub.add_parser("stride", help="Fig. 3 stride sweep")
    stride.add_argument("--accesses", type=int, default=16384)
    sub.add_parser("hw", help="AMU/CMT hardware overhead (Table 3)")
    audit = sub.add_parser("audit", help="verify Section 4 correctness")
    audit.add_argument("--mappings", type=int, default=16)
    audit.add_argument("--chunks", type=int, default=32)
    audit.add_argument("--seed", type=int, default=0)
    suite = sub.add_parser("suite", help="Fig. 12-style speedup sweep")
    scope = suite.add_mutually_exclusive_group()
    scope.add_argument(
        "--quick", action="store_true", help="trimmed sweep (default)"
    )
    scope.add_argument(
        "--full", action="store_true", help="complete workload suites"
    )
    suite.add_argument(
        "--workers", type=int, default=0, help="worker processes (0 = serial)"
    )
    suite.add_argument(
        "--cache-dir", default=None, help="persist stage outputs here"
    )
    suite.add_argument(
        "--json", action="store_true", help="emit the full suite result as JSON"
    )
    suite.add_argument(
        "--resume",
        action="store_true",
        help="finish an interrupted sweep (healthy cells served from cache)",
    )
    suite.add_argument(
        "--backend",
        default=None,
        help="memory fidelity tier for every cell "
        "(fast | vector | event; default fast)",
    )
    bench = sub.add_parser(
        "bench", help="translation-datapath microbenchmark (fused vs legacy)"
    )
    bench_mode = bench.add_mutually_exclusive_group()
    bench_mode.add_argument(
        "--online",
        action="store_true",
        help="benchmark the streaming-BFRV estimator instead "
        "(report goes to BENCH_online.json)",
    )
    bench_mode.add_argument(
        "--evaluate",
        action="store_true",
        help="benchmark the memory stage (decode + timing): chunk-streamed "
        "--backend tier vs the reference event loop "
        "(report goes to BENCH_evaluate.json)",
    )
    bench_mode.add_argument(
        "--tier",
        action="store_true",
        help="benchmark the tiered-memory backend: SmartSwap placement "
        "vs the all-slow baseline (report goes to BENCH_tier.json)",
    )
    bench.add_argument(
        "--backend",
        default=None,
        help="candidate memory backend for --evaluate (default vector)",
    )
    bench.add_argument(
        "--accesses",
        type=int,
        default=None,
        help="trace length (default 1M; 256Ki with --online)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (min taken)"
    )
    bench.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default "
        "BENCH_translation.json, or BENCH_online.json with --online)",
    )
    bench.add_argument(
        "--json", action="store_true", help="also print the report as JSON"
    )
    bench.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless the fused translate+decode geomean speedup "
        "reaches this factor (CI gate)",
    )
    verify = sub.add_parser(
        "verify-cache", help="checksum the stage cache, quarantine bad entries"
    )
    verify.add_argument(
        "--cache-dir", default=None, help="cache to verify (default: the Session default)"
    )
    verify.add_argument(
        "--gc", action="store_true", help="also remove tmp debris and orphan sidecars"
    )
    verify.add_argument(
        "--purge-quarantine", action="store_true", help="empty the quarantine directory"
    )
    verify.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    ras = sub.add_parser(
        "ras", help="seeded device-fault inject/detect/repair campaign"
    )
    ras_scope = ras.add_mutually_exclusive_group()
    ras_scope.add_argument(
        "--quick", action="store_true", help="small device, short run (default)"
    )
    ras_scope.add_argument(
        "--full", action="store_true", help="longer campaign, more traffic"
    )
    ras.add_argument("--seed", type=int, default=0)
    ras.add_argument(
        "--kinds",
        default=None,
        help="comma-separated fault kinds (default: row,bank,channel,cmt,amu)",
    )
    ras.add_argument(
        "--out", default=None, help="write the RASReport as JSON here"
    )
    ras.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    ras.add_argument(
        "--backend",
        default=None,
        help="memory fidelity tier both twins run on "
        "(fast | vector | event; default fast)",
    )
    _add_campaign_flags(ras, "fault batches")
    adapt = sub.add_parser(
        "adapt", help="seeded online-adaptation campaign (adaptive vs static)"
    )
    adapt_scope = adapt.add_mutually_exclusive_group()
    adapt_scope.add_argument(
        "--quick", action="store_true", help="short trace, one chunk (default)"
    )
    adapt_scope.add_argument(
        "--full", action="store_true", help="longer trace, multi-chunk buffer"
    )
    adapt.add_argument("--seed", type=int, default=0)
    adapt.add_argument(
        "--window", type=int, default=2048, help="accesses per trace window"
    )
    adapt.add_argument(
        "--out", default=None, help="write the campaign result as JSON here"
    )
    adapt.add_argument(
        "--json", action="store_true", help="print the result as JSON"
    )
    adapt.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless adaptive beats the best static mapping by "
        "this factor (CI gate)",
    )
    adapt.add_argument(
        "--backend",
        default=None,
        help="memory fidelity tier windows are scored through "
        "(fast | vector | event; default fast)",
    )
    _add_campaign_flags(adapt, "trace windows")
    tier = sub.add_parser(
        "tier",
        help="tiered-memory campaign: swap policies vs the all-slow "
        "baseline under capacity pressure and hot/cold skew",
    )
    tier_scope = tier.add_mutually_exclusive_group()
    tier_scope.add_argument(
        "--quick", action="store_true", help="small arena, short trace (default)"
    )
    tier_scope.add_argument(
        "--full", action="store_true", help="larger arena, longer trace"
    )
    tier.add_argument("--seed", type=int, default=0)
    tier.add_argument(
        "--policy",
        default=None,
        help="evaluate one swap policy only (fast | slow | smart; "
        "default: all three; the all-slow baseline always runs)",
    )
    tier.add_argument(
        "--out", default=None, help="write the campaign result as JSON here"
    )
    tier.add_argument(
        "--json", action="store_true", help="print the result as JSON"
    )
    serve = sub.add_parser(
        "serve",
        help="multi-tenant service isolation selftest "
        "(solo vs concurrent fingerprints, fault + controller legs)",
    )
    serve.add_argument(
        "--selftest",
        action="store_true",
        help="run the isolation selftest campaign (the only mode; "
        "accepted for forward compatibility)",
    )
    serve_scope = serve.add_mutually_exclusive_group()
    serve_scope.add_argument(
        "--quick", action="store_true", help="small traces (default)"
    )
    serve_scope.add_argument(
        "--full", action="store_true", help="longer traces per tenant"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--tenants", type=int, default=3, help="tenant count (min 2)"
    )
    serve.add_argument(
        "--no-controllers",
        action="store_true",
        help="skip the per-tenant adaptive/RAS controller leg",
    )
    serve.add_argument(
        "--backend",
        default=None,
        help="memory fidelity tier every tenant runs on "
        "(fast | vector | event | tiered; default vector for the "
        "selftest, fast for --load soak)",
    )
    serve.add_argument(
        "--load",
        type=int,
        default=None,
        metavar="N",
        help="soak mode: admit N tenant lanes and submit round-robin "
        "traffic for --duration seconds (health journal gates the "
        "exit code)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=2.0,
        metavar="S",
        help="soak duration in seconds (with --load; default 2)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="per-lane bounded queue depth in soak mode (default 8)",
    )
    serve.add_argument(
        "--fault",
        default=None,
        metavar="SITE",
        help="inject a service.* fault during the soak "
        "(e.g. service.lane.crash)",
    )
    serve.add_argument(
        "--out", default=None, help="write the isolation report as JSON here"
    )
    serve.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    args = parser.parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "stride": cmd_stride,
        "hw": cmd_hw,
        "audit": cmd_audit,
        "suite": cmd_suite,
        "bench": cmd_bench,
        "verify-cache": cmd_verify_cache,
        "ras": cmd_ras,
        "adapt": cmd_adapt,
        "serve": cmd_serve,
        "tier": cmd_tier,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
