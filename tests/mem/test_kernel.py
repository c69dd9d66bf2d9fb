"""Tests for the kernel: syscalls, CMT driver, fault path."""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core.chunks import ChunkGeometry, MiB
from repro.core.sdam import SDAMController
from repro.errors import ProfilingError
from repro.mem.kernel import Kernel

SMALL = ChunkGeometry(total_bytes=32 * MiB)


def sdam_kernel() -> Kernel:
    return Kernel(SMALL, sdam=SDAMController(SMALL))


def rolled(shift: int) -> np.ndarray:
    return np.roll(np.arange(SMALL.window_bits), shift)


class TestMappingRegistration:
    def test_add_addr_map_returns_fresh_id(self):
        kernel = sdam_kernel()
        assert kernel.add_addr_map(rolled(1)) == 1
        assert kernel.add_addr_map(rolled(2)) == 2

    def test_duplicate_mapping_shares_id(self):
        kernel = sdam_kernel()
        assert kernel.add_addr_map(rolled(1)) == kernel.add_addr_map(rolled(1))

    def test_baseline_kernel_aliases_default(self):
        kernel = Kernel(SMALL, sdam=None)
        assert kernel.add_addr_map(rolled(1)) == 0
        assert not kernel.sdam_enabled

    def test_registered_ids(self):
        kernel = sdam_kernel()
        kernel.add_addr_map(rolled(1))
        assert kernel.registered_mapping_ids() == [0, 1]


class TestFaultPath:
    def test_fault_allocates_from_mapping_group(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(1))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, 4 * MiB, mapping_id=mapping_id)
        pa = space.translate(vma.start)
        chunk = SMALL.chunk_number(pa)
        assert kernel.physical.mapping_of_chunk(chunk) == mapping_id

    def test_cmt_programmed_on_chunk_acquire(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(3))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, MiB, mapping_id=mapping_id)
        pa = space.translate(vma.start)
        chunk = SMALL.chunk_number(pa)
        assert kernel.sdam.cmt.mapping_index_of(chunk) == mapping_id

    def test_unregistered_mapping_rejected(self):
        kernel = sdam_kernel()
        space = kernel.spawn()
        with pytest.raises(ProfilingError):
            kernel.sys_mmap(space, MiB, mapping_id=42)

    def test_munmap_releases_chunk_and_cmt(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(2))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, MiB, mapping_id=mapping_id)
        pa = space.translate(vma.start)
        chunk = SMALL.chunk_number(pa)
        kernel.sys_munmap(space, vma)
        assert kernel.sdam.cmt.mapping_index_of(chunk) == 0
        assert kernel.physical.free_chunk_count == SMALL.num_chunks


class TestTranslationPipeline:
    def test_identity_for_baseline(self):
        kernel = Kernel(SMALL, sdam=None)
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, MiB)
        va = vma.start + np.arange(0, MiB, 4096, dtype=np.uint64)
        ha = kernel.translate_to_hardware(space, va)
        pa = space.translate_trace(va)
        np.testing.assert_array_equal(ha, pa)

    def test_sdam_applies_chunk_mapping(self):
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(4))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, 2 * MiB, mapping_id=mapping_id)
        va = vma.start + np.arange(0, 2 * MiB, 64, dtype=np.uint64)
        pa = space.translate_trace(va)
        ha = kernel.translate_to_hardware(space, va)
        assert not np.array_equal(ha, pa)
        # Chunk numbers never change (Section 4).
        np.testing.assert_array_equal(
            SMALL.chunk_number(ha), SMALL.chunk_number(pa)
        )

    def test_distinct_mappings_in_one_process(self):
        kernel = sdam_kernel()
        id_a = kernel.add_addr_map(rolled(1))
        id_b = kernel.add_addr_map(rolled(7))
        space = kernel.spawn()
        vma_a = kernel.sys_mmap(space, MiB, mapping_id=id_a)
        vma_b = kernel.sys_mmap(space, MiB, mapping_id=id_b)
        pa_a = space.translate(vma_a.start)
        pa_b = space.translate(vma_b.start)
        assert SMALL.chunk_number(pa_a) != SMALL.chunk_number(pa_b)


class TestSpawn:
    def test_pids_unique(self):
        kernel = sdam_kernel()
        assert kernel.spawn().pid != kernel.spawn().pid


class TestLifetime:
    """The kernel's callbacks never point back at it: no reference cycle."""

    @staticmethod
    def faulted_kernel() -> Kernel:
        kernel = sdam_kernel()
        mapping_id = kernel.add_addr_map(rolled(1))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, 4 * MiB, mapping_id=mapping_id)
        space.translate_trace(
            vma.start + np.arange(0, 2 * MiB, 4096, dtype=np.uint64)
        )
        return kernel

    def test_freed_by_refcount_alone(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            kernel = self.faulted_kernel()
            assert kernel.spaces[0].total_faults > 0
            alive = weakref.ref(kernel)
            del kernel
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_pickle_round_trip(self):
        kernel = self.faulted_kernel()
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.registered_mapping_ids() == kernel.registered_mapping_ids()
        space = clone.spaces[0]
        vma = space.vmas[0]
        assert space.translate(vma.start) == kernel.spaces[0].translate(vma.start)
        # The clone faults into its own physical memory: the original,
        # faulting the same page afterwards, gets the same frame.
        fresh = vma.start + 3 * MiB
        frame = space.translate(fresh)
        assert kernel.spaces[0].translate(fresh) == frame
        chunk = SMALL.chunk_number(frame)
        assert clone.sdam.cmt.mapping_index_of(chunk) == 1
        assert clone.physical.mapping_of_chunk(chunk) == 1

    def test_sdam_stays_assignable(self):
        kernel = Kernel(SMALL, sdam=None)
        assert kernel.add_addr_map(rolled(1)) == 0
        kernel.sdam = SDAMController(SMALL)
        assert kernel.sdam_enabled
        mapping_id = kernel.add_addr_map(rolled(1))
        space = kernel.spawn()
        vma = kernel.sys_mmap(space, MiB, mapping_id=mapping_id)
        chunk = SMALL.chunk_number(space.translate(vma.start))
        assert kernel.sdam.cmt.mapping_index_of(chunk) == mapping_id
