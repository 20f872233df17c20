"""Tests for virtual memory areas, the VMA manager and processes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import GB, KB, MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.kernelops import KernelRoutineTrace
from repro.mimicos.process import Process
from repro.mimicos.vma import (
    VMAKind,
    VMAManager,
    VMANotFoundError,
    VirtualMemoryArea,
    vma_size_bucket,
)


class TestVirtualMemoryArea:
    def test_size_and_contains(self):
        vma = VirtualMemoryArea(start=0x1000, end=0x3000)
        assert vma.size == 0x2000
        assert vma.contains(0x1000)
        assert vma.contains(0x2FFF)
        assert not vma.contains(0x3000)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            VirtualMemoryArea(start=0x2000, end=0x1000)

    def test_kind_helpers(self):
        anon = VirtualMemoryArea(0, 0x1000, kind=VMAKind.ANONYMOUS)
        file_backed = VirtualMemoryArea(0x10000, 0x11000, kind=VMAKind.FILE_BACKED)
        dax = VirtualMemoryArea(0x20000, 0x21000, kind=VMAKind.DAX)
        assert anon.is_anonymous and not anon.is_file_backed
        assert file_backed.is_file_backed
        assert dax.is_file_backed


class TestSizeBuckets:
    def test_bucket_labels_match_fig18(self):
        assert vma_size_bucket(4 * KB) == "4KB"
        assert vma_size_bucket(100 * KB) == "<128KB"
        assert vma_size_bucket(300 * KB) == "<512KB"
        assert vma_size_bucket(5 * MB) == "<8MB"
        assert vma_size_bucket(2 * GB) == ">1GB"


class TestVMAManager:
    def test_mmap_creates_aligned_vma(self):
        manager = VMAManager()
        vma = manager.mmap(10_000)
        assert vma.size == 12 * KB
        assert vma.start % PAGE_SIZE_4K == 0

    @given(st.integers(min_value=1, max_value=64 * MB))
    def test_mmap_spans_the_fewest_whole_pages_property(self, size):
        vma = VMAManager().mmap(size)
        assert vma.size % PAGE_SIZE_4K == 0
        assert size <= vma.size < size + PAGE_SIZE_4K

    @given(st.lists(st.integers(min_value=1, max_value=8 * MB), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_large_mmaps_are_thp_aligned_property(self, sizes):
        """Mappings of 2 MB or more start on a 2 MB boundary, whatever
        smaller mappings were placed before them."""
        manager = VMAManager()
        for size in sizes:
            vma = manager.mmap(size)
            if size >= PAGE_SIZE_2M:
                assert vma.start % PAGE_SIZE_2M == 0

    def test_mmap_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            VMAManager().mmap(0)

    def test_find(self):
        manager = VMAManager()
        vma = manager.mmap(1 * MB)
        assert manager.find(vma.start) is vma
        assert manager.find(vma.end - 1) is vma
        assert manager.find(vma.end) is None

    def test_consecutive_mmaps_do_not_overlap(self):
        manager = VMAManager()
        vmas = [manager.mmap(64 * KB) for _ in range(20)]
        for a, b in zip(vmas, vmas[1:]):
            assert a.end <= b.start

    def test_fixed_address_mapping(self):
        manager = VMAManager()
        vma = manager.mmap(64 * KB, fixed_address=0x1000_0000)
        assert vma.start == 0x1000_0000

    def test_overlapping_fixed_mapping_rejected(self):
        manager = VMAManager()
        manager.mmap(64 * KB, fixed_address=0x1000_0000)
        with pytest.raises(ValueError):
            manager.mmap(64 * KB, fixed_address=0x1000_0000)

    def test_munmap(self):
        manager = VMAManager()
        vma = manager.mmap(64 * KB)
        manager.munmap(vma)
        assert manager.find(vma.start) is None
        assert len(manager) == 0

    def test_munmap_unknown_rejected(self):
        manager = VMAManager()
        foreign = VirtualMemoryArea(0x5000, 0x6000)
        with pytest.raises(ValueError):
            manager.munmap(foreign)

    def test_find_or_fault_raises_for_unmapped(self):
        manager = VMAManager()
        with pytest.raises(VMANotFoundError):
            manager.find_or_fault(0x1234)

    def test_find_or_fault_records_lookup_work(self):
        manager = VMAManager()
        vma = manager.mmap(64 * KB)
        trace = KernelRoutineTrace("fault")
        found = manager.find_or_fault(vma.start + 100, trace)
        assert found is vma
        assert "find_vma" in [op.name for op in trace.ops]

    def test_total_mapped_bytes(self):
        manager = VMAManager()
        manager.mmap(64 * KB)
        manager.mmap(128 * KB)
        assert sum(vma.size for vma in manager) == 192 * KB

    def test_size_histogram_counts_all_vmas(self):
        manager = VMAManager()
        manager.mmap(4 * KB)
        manager.mmap(4 * KB)
        manager.mmap(16 * MB)
        histogram = manager.size_histogram()
        assert histogram["4KB"] == 2
        assert histogram["<16MB"] == 1
        assert sum(histogram.values()) == 3

    def test_largest(self):
        manager = VMAManager()
        assert manager.largest() is None
        manager.mmap(64 * KB)
        big = manager.mmap(8 * MB)
        assert manager.largest() is big

    @given(st.lists(st.integers(min_value=1, max_value=4 * MB), min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_every_mapped_byte_is_findable_property(self, sizes):
        manager = VMAManager()
        vmas = [manager.mmap(size) for size in sizes]
        for vma in vmas:
            assert manager.find(vma.start) is vma
            assert manager.find(vma.end - 1) is vma
        assert len(manager) == len(sizes)


class TestProcess:
    def test_mmap_counts_calls(self):
        process = Process(pid=1)
        process.mmap(64 * KB)
        process.mmap(64 * KB)
        assert process.counters.get("mmap_calls") == 2
        assert sum(vma.size for vma in process.vmas) == 128 * KB

    def test_munmap(self):
        process = Process(pid=2)
        vma = process.mmap(64 * KB)
        process.munmap(vma)
        assert sum(vma.size for vma in process.vmas) == 0
