"""Tests for the parallel, cached experiment engine.

The contract under test: cached, serial and parallel execution of the
same sweep are interchangeable — a warm cache serves every cell without
recomputation, a process pool produces numerically identical results,
and one failing cell degrades to a recorded error instead of killing
the sweep.
"""

import json

import pytest
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.system import (
    ExperimentRunner,
    MachineResult,
    StageMetrics,
    SuiteResult,
    system_by_key,
)
from repro.workloads import MixedStrideWorkload, StridedCopyWorkload
from tests.ledger_laws import LedgerLaws


def small_workloads():
    return [
        MixedStrideWorkload(strides=(1, 16), accesses_per_stride=600),
        StridedCopyWorkload(stride_lines=8, accesses_per_thread=600),
    ]


def small_systems():
    # Covers all three stage shapes: no profiling (bs_dm), suite-mix
    # profiling (bs_bsm) and per-workload selection (sdm_bsm).
    return [
        system_by_key("bs_dm"),
        system_by_key("bs_bsm"),
        system_by_key("sdm_bsm"),
    ]


class ExplodingWorkload(StridedCopyWorkload):
    """A workload whose trace generation always fails."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.name = "exploding"

    def trace(self, base, input_seed=0):
        raise RuntimeError("boom")


class TestCaching:
    def test_warm_cache_serves_every_cell_bit_identically(self, tmp_path):
        workloads, systems = small_workloads(), small_systems()
        first = ExperimentRunner(cache_dir=tmp_path).run_suite(
            workloads, systems=systems
        )
        assert not first.errors
        assert first.metrics["evaluate"].cache_misses == len(workloads) * len(
            systems
        )

        # A fresh runner on the same cache: zero recomputation.
        second = ExperimentRunner(cache_dir=tmp_path).run_suite(
            workloads, systems=systems
        )
        assert not second.errors
        assert second.cache_misses == 0
        assert second.metrics["evaluate"].cache_hits == len(workloads) * len(
            systems
        )
        assert second.bytes_simulated == 0
        assert second.table.to_dict() == first.table.to_dict()

    def test_run_one_round_trips_through_the_disk_cache(self, tmp_path):
        workload = small_workloads()[0]
        system = system_by_key("sdm_bsm")
        first = ExperimentRunner(cache_dir=tmp_path).run_one(workload, system)
        second = ExperimentRunner(cache_dir=tmp_path).run_one(workload, system)
        assert second.to_dict() == first.to_dict()

    def test_different_seed_is_a_different_cell(self, tmp_path):
        workload = small_workloads()[0]
        system = system_by_key("bs_dm")
        runner = ExperimentRunner(cache_dir=tmp_path)
        a = runner.run_one(workload, system, eval_seed=1)
        b = runner.run_one(workload, system, eval_seed=2)
        assert a.fingerprint() != b.fingerprint()


class TestParallelEquivalence:
    def test_parallel_cold_matches_serial_cold(self):
        workloads, systems = small_workloads(), small_systems()
        serial = ExperimentRunner(max_workers=0).run_suite(
            workloads, systems=systems
        )
        parallel = ExperimentRunner(max_workers=2).run_suite(
            workloads, systems=systems
        )
        assert not serial.errors and not parallel.errors
        assert parallel.table.fingerprint() == serial.table.fingerprint()

    def test_results_arrive_in_workload_major_order(self):
        workloads, systems = small_workloads(), small_systems()
        suite = ExperimentRunner(max_workers=2).run_suite(
            workloads, systems=systems
        )
        assert suite.table.workloads() == [w.name for w in workloads]
        assert suite.table.systems() == [s.label for s in systems]


class TestFailureIsolation:
    def test_one_bad_workload_does_not_kill_the_sweep(self):
        good = small_workloads()[0]
        bad = ExplodingWorkload(stride_lines=4, accesses_per_thread=600)
        systems = [system_by_key("bs_dm"), system_by_key("bs_hm")]
        suite = ExperimentRunner().run_suite([good, bad], systems=systems)
        assert suite.table.workloads() == [good.name]
        assert len(suite.errors) == len(systems)
        for error in suite.errors:
            assert error.workload == "exploding"
            assert error.stage == "evaluate"
            assert "boom" in error.message
        with pytest.raises(ConfigError, match="boom"):
            suite.raise_errors()

    def test_run_one_raises_on_failure(self):
        bad = ExplodingWorkload(stride_lines=4, accesses_per_thread=600)
        with pytest.raises(ConfigError, match="boom"):
            ExperimentRunner().run_one(bad, system_by_key("bs_dm"))


class TestSerialization:
    def test_suite_result_round_trips_through_json(self):
        workloads = [small_workloads()[0]]
        systems = [system_by_key("bs_dm"), system_by_key("sdm_bsm")]
        suite = ExperimentRunner().run_suite(workloads, systems=systems)
        rebuilt = SuiteResult.from_dict(json.loads(suite.to_json()))
        assert rebuilt.to_dict() == suite.to_dict()
        assert rebuilt.table.geomean("SDM+BSM") == suite.table.geomean(
            "SDM+BSM"
        )

    def test_machine_result_round_trips(self):
        workload = small_workloads()[0]
        result = ExperimentRunner().run_one(workload, system_by_key("sdm_bsm"))
        rebuilt = MachineResult.from_dict(json.loads(result.to_json()))
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.selection.num_mappings == result.selection.num_mappings


class TestStageMetricsMergeLaws(LedgerLaws):
    instances = st.builds(
        StageMetrics,
        stage=st.sampled_from(["profile", "evaluate"]),
        wall_seconds=st.integers(min_value=0, max_value=10**6).map(float),
        cache_hits=st.integers(min_value=0, max_value=10_000),
        cache_misses=st.integers(min_value=0, max_value=10_000),
        bytes_simulated=st.integers(min_value=0, max_value=10**9),
    )
    golden = (
        StageMetrics(
            "evaluate", wall_seconds=1.25, cache_hits=3, cache_misses=1,
            bytes_simulated=640,
        ),
        {
            "stage": "evaluate", "wall_seconds": 1.25, "cache_hits": 3,
            "cache_misses": 1, "bytes_simulated": 640,
        },
    )
