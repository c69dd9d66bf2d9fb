"""End-to-end benchmark of the SDAM reproduction.

Run from the repository root::

    python3 -m e2ebench --workload fig12-quick --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs it untraced and then again with span
wrappers around every layer's public functions, checks that tracing
changed no result, prints the per-layer table and reports the
per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Set-up repetitions in fresh interpreters, besides the run's own.
SETUP_PROBES = 4


def _parse(argv):
    parser = argparse.ArgumentParser(prog="e2ebench", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only time the set-up and print it (used by the benchmark "
        "itself to repeat the set-up in a fresh interpreter)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program() -> None:
    """Import the package from this checkout's ``src``, never another copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _make(args):
    from e2ebench.workloads import WORKLOADS

    try:
        return WORKLOADS[args.workload](args.seed)
    except KeyError:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        ) from None


def _close(workload) -> None:
    close = getattr(workload, "close", None)
    if close is not None:
        close()


def _timed_setup(args):
    """Import the program and build the workload; returns (workload, s)."""
    start = time.perf_counter()
    _import_program()
    workload = _make(args)
    workload.setup()
    return workload, time.perf_counter() - start


def _probe_setup(args) -> float:
    command = [
        sys.executable, "-m", "e2ebench", "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _digest(fingerprints) -> str:
    text = json.dumps(fingerprints, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _units(workload, seconds: float) -> int:
    nominal = getattr(workload, "nominal_unit_s", None)
    return 1 if nominal is None else max(1, round(seconds / nominal))


def _simulated(run, units: int) -> dict:
    """Simulated totals from the results (exact, tracing-independent)."""
    results = run.results
    requests = sum(r.stats.requests for r in results)
    traffic = [r.tier_traffic for r in results if r.tier_traffic is not None]
    return {
        "hbm.sim_makespan_ns": sum(r.stats.makespan_ns for r in results) / units,
        "hbm.row_hit_rate": (
            sum(r.stats.row_hits for r in results) / requests if requests else 0.0
        ),
        "hbm.clp_utilization": (
            statistics.fmean(r.stats.clp_utilization for r in results)
            if results else 0.0
        ),
        "tier.promotions": sum(t.promotions for t in traffic) / units,
        "tier.demotions": sum(t.demotions for t in traffic) / units,
    }


def _service_layer(spans, traced) -> dict:
    """Run time and queue wait of each traced job, joined through spans."""
    from e2ebench.layers import link_jobs
    from e2ebench.stats import percentile

    ran = link_jobs(spans)
    runs, waits = [], []
    for job in traced.extra.get("jobs", []):
        pipeline = ran.get(id(job.handle))
        if job.status != "completed" or pipeline is None:
            continue
        runs.append(1e3 * pipeline.duration)
        waits.append(1e3 * (job.latency - pipeline.duration))
    return {
        "service.run_ms_p50": percentile(runs, 50) if runs else 0.0,
        "service.wait_ms_p50": percentile(waits, 50) if waits else 0.0,
        "service.wait_ms_p90": percentile(waits, 90) if waits else 0.0,
    }


def _traced_pass(args, units, untraced, problems):
    """Run again under span wrappers; return (per-layer metrics, table)."""
    from repro.system.stages import MachineParams

    from e2ebench.catalog import PER_LAYER
    from e2ebench.layers import analyse, install, layer_table
    from e2ebench.spans import Tracer

    workload = _make(args)
    workload.setup()
    tracer = Tracer()
    try:
        install(tracer, workload.workload_classes())
        wrapped = tracer.installed
        traced = workload.run(units, args.seconds)
    finally:
        restore = tracer.remove()
        _close(workload)
    problems.extend(f"traced pass: {p}" for p in traced.problems)
    problems.extend(restore)
    print(f"wrappers: {wrapped} installed, all restored: {not restore}")
    if traced.fingerprints != untraced.fingerprints:
        problems.append("tracing changed a result fingerprint")

    default_tier = MachineParams.__dataclass_fields__["backend"].default
    spans = tracer.spans
    service = _service_layer(spans, traced)
    totals, by_name, conservation = analyse(spans, traced.window, default_tier)
    problems.extend(conservation)
    wall = traced.window[1] - traced.window[0]
    metrics = {}
    for key, value in totals.items():
        ratio = key.endswith(("_share", "_pct"))
        metrics[key] = value if ratio else value / units
    metrics.update(_simulated(untraced, units))
    metrics.update(service)
    metrics["trace.overhead_pct"] = 100.0 * (traced.work_s / untraced.work_s - 1)
    extra = untraced.extra
    for key in ("system.cells", "system.cache_hits", "system.cache_misses",
                "service.shed", "service.rejected", "service.timeouts",
                "loadgen.late_ms_p90", "loadgen.low_samples",
                "loadgen.high_samples"):
        value = extra.get(key, 0)
        metrics[key] = value / units if key.startswith("system.") else value
    metrics["failed_frac"] = untraced.failed / untraced.attempted
    for key in ("rank_flips", "speedup_err_pct", "low_p50_ms", "low_p90_ms",
                "high_p50_ms", "high_p90_ms", "goodput_jobs_s"):
        metrics[key] = extra.get(key, 0)
    missing = [name for name, _u, _b in PER_LAYER if name not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {name: metrics[name] for name, _u, _b in PER_LAYER}, \
        layer_table(by_name, wall), wall, traced


def _print_table(rows, wall, metrics) -> None:
    print(f"per-layer self time (traced pass, wall {wall:.3f} s):")
    print(f"  {'layer':<10} {'self_s':>9} {'share':>7} {'items_in':>11} "
          f"{'items_out':>11}")
    for layer, self_s, share, items_in, items_out in rows:
        print(f"  {layer:<10} {self_s:9.3f} {share:7.1%} {items_in:11d} "
              f"{items_out:11d}")
    print(f"  dark time (trace.untraced_s) {metrics['trace.untraced_s']:.3f} s, "
          f"coverage {metrics['trace.coverage_pct']:.1f}%, "
          f"tracing overhead {metrics['trace.overhead_pct']:+.1f}%")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        workload, seconds = _timed_setup(args)
        _close(workload)
        print(json.dumps({"setup_s": seconds}))
        return 0

    workload, local_setup = _timed_setup(args)
    from e2ebench.catalog import END_TO_END, PER_LAYER

    problems: list[str] = []
    try:
        setups = [local_setup] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
        units = _units(workload, args.seconds)
        untraced = workload.run(units, args.seconds)
    finally:
        _close(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems.extend(untraced.problems)
    attempted = untraced.attempted

    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "kacc_per_s": untraced.kacc_per_s,
    }
    print(f"workload {args.workload} seed {args.seed} units {units} "
          f"attempted {attempted} failed {untraced.failed}")
    units_of = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    for name, value in end_to_end.items():
        print(f"  {name:<20} {value:12.4f} {units_of[name]}")
    for key in ("rank_flips", "speedup_err_pct", "low_p50_ms", "low_p90_ms",
                "high_p50_ms", "high_p90_ms", "goodput_jobs_s",
                "loadgen.low_samples", "loadgen.high_samples",
                "loadgen.late_ms_p90"):
        if key in untraced.extra:
            print(f"  {key:<20} {untraced.extra[key]:12.4f} {units_of[key]}")
    for tier, table in untraced.extra.get("speedups", {}).items():
        for name, row in table.items():
            cells = "  ".join(f"{k} {v:.3f}" for k, v in row.items())
            print(f"  speedup {tier:<7} {name:<20} {cells}")
    for note in untraced.extra.get("notes", []):
        print(f"  note: {note}")
    unit_results = untraced.fingerprints[: len(untraced.fingerprints) // units]
    print(f"digest {_digest(unit_results)} ({len(unit_results)} results)")

    if args.trace:
        metrics, rows, wall, traced = _traced_pass(
            args, units, untraced, problems
        )
        attempted += traced.attempted
        _print_table(rows, wall, metrics)
        for name, unit, _better in PER_LAYER:
            print(f"  {name:<28} {metrics[name]:14.6g} {unit}")
        reported = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    else:
        reported = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit, _better, _bound in END_TO_END
        }
    # Each problem is one failed cell, job or gate.
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": reported,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
