"""The benchmark's workloads, driven only through public entry points.

Each workload builds its inputs from the workload seed in
:meth:`setup` (that is what ``setup_s`` times) and then runs a fixed
amount of work in :meth:`run`, the timed phase.  The program receives
only the generated inputs.  Every modelled cache starts empty in every
cell and job: the benchmark states that rather than warming them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from e2ebench.loadgen import Job, OpenLoop, poisson_dues
from e2ebench.stats import (
    percentile,
    rank_flips,
    speedup_err_pct,
    supported_percentile,
    union_length,
)

__all__ = ["WORKLOADS", "Pass"]


@dataclass
class Pass:
    """What one timed phase did, and what it found wrong."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    #: (cell key, MachineResult.fingerprint()) in run order; for the open
    #: loop, one entry per (tenant, input) kind.
    fingerprints: list[tuple[str, dict]] = field(default_factory=list)
    #: MachineResults that fed the memory system, for simulated totals.
    results: list = field(default_factory=list)
    program_accesses: int = 0
    #: Host seconds of work: timed-phase wall for a closed loop, time
    #: with at least one lane serving a job for the open loop.
    work_s: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    #: Workload-specific measurements (fidelity, latency, counts).
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def kacc_per_s(self) -> float:
        return self.program_accesses / 1e3 / self.work_s if self.work_s else 0.0


def _check_result(key: str, result, problems: list[str]) -> None:
    """The conservation visible from outside: every external access
    reached the memory system exactly once."""
    external = result.external_summary()
    if external is None or external.external_accesses != result.stats.requests:
        problems.append(
            f"{key}: external accesses "
            f"{None if external is None else external.external_accesses} "
            f"!= memory requests {result.stats.requests}"
        )


def _seeds(seed: int) -> tuple[int, int]:
    """(profile_seed, eval_seed); seed 0 gives the library defaults."""
    return 2 * seed, 2 * seed + 1


class Fig12Quick:
    """The ``repro suite --quick`` sweep: 4 SPEC2006 models x 8 systems.

    One caller, closed loop, serial, default tier, no disk cache; a
    fresh session per sweep so nothing is served from memory either.
    """

    name = "fig12-quick"
    nominal_unit_s = 30.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro import Session
        from repro.api import QUICK_DL_CONFIG, evaluation_workloads
        from repro.system import standard_systems

        self.inputs = evaluation_workloads(quick=True)
        self.systems = standard_systems()
        self.make_session = lambda: Session(
            cache_dir=None, workers=0, dl_config=QUICK_DL_CONFIG
        )
        self.make_session()  # set-up includes building one session

    def workload_classes(self):
        return {type(w) for w in self.inputs}

    def run(self, units: int, seconds: float) -> Pass:
        profile_seed, eval_seed = _seeds(self.seed)
        out = Pass()
        stage = {"cells": 0, "cache_hits": 0, "cache_misses": 0}
        sweeps = []
        start = time.perf_counter()
        for _ in range(units):
            sweeps.append(self.make_session().sweep(
                self.inputs, systems=self.systems,
                profile_seed=profile_seed, eval_seed=eval_seed,
            ))
        end = time.perf_counter()
        out.window, out.work_s = (start, end), end - start
        expected = len(self.inputs) * len(self.systems)
        for sweep in sweeps:
            out.attempted += expected
            for error in sweep.errors:
                out.problems.append(
                    f"{error.workload}/{error.system}: {error.stage}: "
                    f"{error.message}"
                )
            cells = 0
            for workload, row in sweep.table.results.items():
                for system, result in row.items():
                    key = f"{workload}/{system}"
                    cells += 1
                    _check_result(key, result, out.problems)
                    out.fingerprints.append((key, result.fingerprint()))
                    out.results.append(result)
                    out.program_accesses += result.external.program_accesses
            if cells + len(sweep.errors) != expected:
                out.problems.append(
                    f"sweep returned {cells} cells and {len(sweep.errors)} "
                    f"errors for {expected} cells"
                )
            stage["cells"] += cells
            stage["cache_hits"] += sweep.cache_hits
            stage["cache_misses"] += sweep.cache_misses
        _check_repeats(out, units)
        out.extra.update({f"system.{k}": v for k, v in stage.items()})
        return out


class StrideEvent:
    """Fig. 3/4/11 strided copies on the event reference and the default
    tier: fidelity of the default tier, and the write-back and
    one-set-per-thread (stride-128) corners of the cache filter."""

    name = "stride-event"
    nominal_unit_s = 10.0
    SYSTEMS = ("bs_dm", "bs_hm", "sdm_bsm", "sdm_bsm_ml4")
    REFERENCE = "event"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro import Session
        from repro.workloads import MixedStrideWorkload, StridedCopyWorkload

        self.inputs = [
            MixedStrideWorkload((1, 4, 8, 16)),
            StridedCopyWorkload(16),
            StridedCopyWorkload(128),
        ]
        self.make_session = lambda: Session(cache_dir=None, workers=0)
        self.make_session()  # set-up includes building one session

    def workload_classes(self):
        return {type(w) for w in self.inputs}

    def run(self, units: int, seconds: float) -> Pass:
        profile_seed, eval_seed = _seeds(self.seed)
        out = Pass()
        rounds = []
        start = time.perf_counter()
        for _ in range(units):
            session = self.make_session()
            tables = {}
            for tier in (self.REFERENCE, None):
                tables[tier] = {
                    w.name: session.compare(
                        w, self.SYSTEMS, backend=tier,
                        profile_seed=profile_seed, eval_seed=eval_seed,
                    )
                    for w in self.inputs
                }
            rounds.append(tables)
        end = time.perf_counter()
        out.window, out.work_s = (start, end), end - start
        for tables in rounds:
            speedups = {}
            for tier, table in tables.items():
                label = tier or "default"
                speedups[label] = {}
                for workload, row in table.items():
                    base = row[self.SYSTEMS[0]].time_ns
                    speedups[label][workload] = {
                        system: base / result.time_ns
                        for system, result in row.items()
                    }
                    for system, result in row.items():
                        key = f"{workload}/{system}/{label}"
                        out.attempted += 1
                        _check_result(key, result, out.problems)
                        out.fingerprints.append((key, result.fingerprint()))
                        out.results.append(result)
                        out.program_accesses += result.external.program_accesses
            # Both tiers must be fed the identical external stream.
            for workload, row in tables[None].items():
                for system, result in row.items():
                    ref = tables[self.REFERENCE][workload][system]
                    if ref.external_summary() != result.external_summary():
                        out.problems.append(
                            f"{workload}/{system}: tiers saw different "
                            "external streams"
                        )
            flips = rank_flips(speedups["default"], speedups[self.REFERENCE])
            err = speedup_err_pct(
                speedups["default"], speedups[self.REFERENCE], self.SYSTEMS[0]
            )
            if "rank_flips" in out.extra and (
                out.extra["rank_flips"] != flips
                or out.extra["speedup_err_pct"] != err
            ):
                out.problems.append("fidelity differs between rounds")
            out.extra.update(
                rank_flips=flips, speedup_err_pct=err, speedups=speedups
            )
        _check_repeats(out, units)
        out.extra.update({
            "system.cells": out.attempted, "system.cache_hits": 0,
            "system.cache_misses": 0,
        })
        return out


class ServeOpen:
    """Seeded Poisson arrivals from one generator thread into a
    two-tenant :class:`ServiceFrontend`, at a low and a high rate.

    ``graph`` runs SDM+BSM+ML(4) on the CPU engine and the default tier,
    rotating BFS / PageRank / HashJoin; every job profiles, selects with
    K-means and evaluates.  ``tiered`` runs BS+DM on the tiered backend
    (smart policy, fast tier a quarter of the footprint, guard on).
    """

    name = "serve-open"
    #: Offered rates (jobs/s); ``high`` sits below the knee measured on a
    #: 2-core host, where neither lane's queue grows without bound.
    RATES = {"low": 10.0, "high": 16.0}
    #: Latency limit for goodput, from the due time.
    LIMIT_MS = 500.0
    JOB_ACCESSES = 4000
    TIERED_FOOTPRINT = 1 << 20
    PAGE = 4096

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro import ServiceFrontend, TenantSpec
        from repro.workloads import (
            BFSWorkload,
            HashJoinWorkload,
            PageRankWorkload,
            TieredPressureWorkload,
        )

        profile_seed, eval_seed = _seeds(self.seed)
        self.graph_inputs = [
            BFSWorkload(max_accesses=self.JOB_ACCESSES),
            PageRankWorkload(max_accesses=self.JOB_ACCESSES),
            HashJoinWorkload(max_accesses=self.JOB_ACCESSES),
        ]
        for workload in self.graph_inputs[:2]:
            workload.graph(profile_seed)
            workload.graph(eval_seed)
        self.tiered_input = TieredPressureWorkload(
            footprint_bytes=self.TIERED_FOOTPRINT,
            hot_fraction=0.9,
            accesses=self.JOB_ACCESSES,
        )
        self.frontend = ServiceFrontend()
        self.frontend.admit(TenantSpec(name="graph", system="sdm_bsm_ml4"))
        self.frontend.admit(TenantSpec(
            name="tiered",
            system="bs_dm",
            backend="tiered",
            backend_options={
                "policy": "smart",
                "fast_pages": self.TIERED_FOOTPRINT // self.PAGE // 4,
            },
            guard=True,
        ))

    def close(self) -> None:
        self.frontend.close()

    def workload_classes(self):
        return {type(w) for w in self.graph_inputs} | {type(self.tiered_input)}

    def schedule(self, seconds: float) -> list[Job]:
        """The seeded arrival schedule: low phase, then high phase.

        Each phase offers ``rate * seconds / 2`` jobs (Poisson gaps), so
        the job count, and with it the percentiles it supports, does not
        depend on the seed.
        """
        rng = np.random.default_rng([self.seed, 0x5E4E])
        jobs = []
        rotation = 0
        for phase, rate in self.RATES.items():
            for due in poisson_dues(rng, rate, round(rate * seconds / 2)):
                if rng.random() < 0.5:
                    workload = self.graph_inputs[rotation % 3]
                    rotation += 1
                    jobs.append(Job("graph", workload, due, phase))
                else:
                    jobs.append(Job("tiered", self.tiered_input, due, phase))
        return jobs

    def run(self, units: int, seconds: float) -> Pass:
        profile_seed, eval_seed = _seeds(self.seed)
        loop = OpenLoop(
            self.frontend, profile_seed=profile_seed, eval_seed=eval_seed
        )
        out = Pass()
        jobs = self.schedule(seconds)
        start = time.perf_counter()
        for phase in self.RATES:
            # Phases run back to back; each starts once the last drained.
            loop.run([j for j in jobs if j.phase == phase])
        end = time.perf_counter()
        out.window = (start, end)
        self.frontend.drain(timeout=60.0)
        health = self.frontend.health
        out.attempted = len(jobs)
        by_kind: dict[str, dict] = {}
        busy = []
        for tenant in ("graph", "tiered"):
            previous_done = None
            for index, job in enumerate(jobs):
                if job.tenant != tenant:
                    continue
                key = f"job{index}/{tenant}/{job.workload.name}"
                if job.status != "completed":
                    out.problems.append(f"{key}: {job.status}")
                    continue
                # A lane is serial: a job's service starts when it was
                # sent or when the lane's previous job finished.
                begin = job.sent if previous_done is None else max(
                    job.sent, previous_done
                )
                busy.append((begin, job.done))
                previous_done = job.done
                result = job.handle.result
                _check_result(key, result, out.problems)
                fingerprint = result.fingerprint()
                out.results.append(result)
                out.program_accesses += result.external.program_accesses
                kind = f"{tenant}/{job.workload.name}"
                if by_kind.setdefault(kind, fingerprint) != fingerprint:
                    out.problems.append(
                        f"{key}: result differs from the first {kind} job "
                        "with the same input"
                    )
        # Host seconds in which some lane was serving a job: two lanes
        # overlapping share the host, so their overlap counts once.
        out.work_s = union_length(busy)
        # Every job of a kind ran the same input: one fingerprint per kind.
        out.fingerprints = sorted(by_kind.items())
        if not health.conserved() or health.violations():
            out.problems.append(
                f"service health: conserved={health.conserved()} "
                f"violations={health.violations()}"
            )
        extra = out.extra
        extra["jobs"] = jobs
        for phase in self.RATES:
            done = [j for j in jobs if j.phase == phase and j.status == "completed"]
            latencies = [1e3 * j.latency for j in done]
            extra[f"loadgen.{phase}_samples"] = len(latencies)
            highest = supported_percentile(len(latencies))
            if highest is None or highest < 90:
                extra.setdefault("notes", []).append(
                    f"{phase}: {len(latencies)} samples support p{highest}, "
                    "not p90; lengthen --seconds"
                )
            extra[f"{phase}_p50_ms"] = percentile(latencies, 50) if latencies else 0.0
            extra[f"{phase}_p90_ms"] = percentile(latencies, 90) if latencies else 0.0
        high = [j for j in jobs if j.phase == "high"]
        extra["goodput_jobs_s"] = sum(
            1 for j in high
            if j.status == "completed" and 1e3 * j.latency <= self.LIMIT_MS
        ) / (len(high) / self.RATES["high"])
        late = [1e3 * j.late for j in jobs if j.sent is not None]
        extra["loadgen.late_ms_p90"] = percentile(late, 90) if late else 0.0
        extra["service.shed"] = health.shed
        extra["service.rejected"] = health.rejected
        extra["service.timeouts"] = health.timeouts
        extra["system.cells"] = len(out.results)
        extra["system.cache_hits"] = extra["system.cache_misses"] = 0
        return out


def _check_repeats(out: Pass, units: int) -> None:
    """Repeated units run identical inputs, so their results must match."""
    if units < 2:
        return
    per_unit = len(out.fingerprints) // units
    first = out.fingerprints[:per_unit]
    for index in range(1, units):
        again = out.fingerprints[index * per_unit:(index + 1) * per_unit]
        if again != first:
            out.problems.append(f"unit {index} differs from unit 0")


WORKLOADS = {cls.name: cls for cls in (Fig12Quick, StrideEvent, ServeOpen)}
