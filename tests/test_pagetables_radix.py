"""Tests for the radix page table, page-walk caches and the shared base class."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import PageTableBase
from repro.pagetables.radix import PageWalkCache, RadixPageTable


class TestPageWalkCache:
    def test_miss_then_hit(self):
        pwc = PageWalkCache("PWC", coverage_shift=21)
        assert not pwc.lookup(0x4000_0000)
        pwc.fill(0x4000_0000)
        assert pwc.lookup(0x4000_0000)

    def test_coverage_granularity(self):
        pwc = PageWalkCache("PWC", coverage_shift=21)
        pwc.fill(0x4000_0000)
        assert pwc.lookup(0x4000_0000 + PAGE_SIZE_4K)       # same 2 MB region
        assert not pwc.lookup(0x4000_0000 + PAGE_SIZE_2M)   # next region

    def test_lru_eviction_within_set(self):
        pwc = PageWalkCache("PWC", entries=4, associativity=4, coverage_shift=21)
        for index in range(5):
            pwc.fill(index * PAGE_SIZE_2M * pwc.num_sets)
        hits = sum(pwc.lookup(index * PAGE_SIZE_2M * pwc.num_sets) for index in range(5))
        assert hits == 4

    def test_invalidate(self):
        pwc = PageWalkCache("PWC", coverage_shift=21)
        pwc.fill(0x1000)
        pwc.invalidate(0x1000)
        assert not pwc.lookup(0x1000)

    def test_hit_rate(self):
        pwc = PageWalkCache("PWC")
        pwc.lookup(0)
        pwc.fill(0)
        pwc.lookup(0)
        assert pwc.hit_rate() == pytest.approx(0.5)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PageWalkCache("PWC", entries=10, associativity=4)


class TestRadixPageTable:
    def test_insert_and_functional_lookup(self):
        table = RadixPageTable()
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K)
        assert table.lookup(0x7F00_0000_0000) == (0x10_0000, PAGE_SIZE_4K)
        assert table.lookup(0x7F00_0000_0123) == (0x10_0000, PAGE_SIZE_4K)
        assert table.translate_functional(0x7F00_0000_0123) == 0x10_0123

    def test_lookup_missing(self):
        assert RadixPageTable().lookup(0x1234_0000) is None

    def test_walk_finds_mapping_with_four_accesses(self, flat_memory):
        table = RadixPageTable(enable_pwcs=False)
        table.insert(0x5555_0000, 0x20_0000, PAGE_SIZE_4K)
        result = table.walk(0x5555_0000, flat_memory)
        assert result.found
        assert result.memory_accesses == 4
        assert result.physical_base == 0x20_0000

    def test_walk_miss_reports_fault(self, flat_memory):
        table = RadixPageTable()
        result = table.walk(0x1234_5000, flat_memory)
        assert not result.found

    def test_huge_page_walk_terminates_early(self, flat_memory):
        table = RadixPageTable(enable_pwcs=False)
        table.insert(0x4000_0000, 0x800_0000, PAGE_SIZE_2M)
        result = table.walk(0x4000_0000 + 0x1234, flat_memory)
        assert result.found
        assert result.page_size == PAGE_SIZE_2M
        assert result.memory_accesses == 3

    def test_gigabyte_page_walk(self, flat_memory):
        table = RadixPageTable(enable_pwcs=False)
        table.insert(0x40_0000_0000, 0x1_0000_0000, PAGE_SIZE_1G)
        result = table.walk(0x40_0000_0000 + 123456, flat_memory)
        assert result.found
        assert result.page_size == PAGE_SIZE_1G
        assert result.memory_accesses == 2

    def test_pwc_reduces_walk_accesses(self, flat_memory):
        table = RadixPageTable()
        table.insert(0x7F00_0000_0000, 0x30_0000, PAGE_SIZE_4K)
        first = table.walk(0x7F00_0000_0000, flat_memory)
        second = table.walk(0x7F00_0000_0000 + PAGE_SIZE_4K, flat_memory)
        # The second walk shares PGD/PUD/PMD with the first, so the PMD-level
        # PWC lets it skip to the leaf access.
        assert second.memory_accesses < first.memory_accesses
        assert second.memory_accesses == 1

    def test_remove(self, flat_memory):
        table = RadixPageTable()
        table.insert(0x6000_0000, 0x40_0000, PAGE_SIZE_4K)
        assert table.remove(0x6000_0000)
        assert table.lookup(0x6000_0000) is None
        assert not table.walk(0x6000_0000, flat_memory).found
        assert not table.remove(0x6000_0000)

    def test_pt_frame_allocation_counted(self):
        table = RadixPageTable()
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K)
        assert table.counters.get("pt_frames_allocated") == 3  # PUD, PMD, PTE nodes
        table.insert(0x7F00_0000_1000, 0x11_0000, PAGE_SIZE_4K)
        assert table.counters.get("pt_frames_allocated") == 3  # shares all interior nodes

    def test_insert_records_kernel_work(self):
        table = RadixPageTable()
        trace = KernelRoutineTrace("fault")
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K, trace)
        assert "radix_pt_update" in trace.op_names()
        assert trace.total_memory_touches >= 4

    def test_unsupported_page_size_rejected(self):
        with pytest.raises(ValueError):
            RadixPageTable().insert(0, 0, 8192)

    def test_mapped_accounting(self):
        table = RadixPageTable()
        table.insert(0x1000_0000, 0x1000, PAGE_SIZE_4K)
        table.insert(0x4000_0000, 0x200000, PAGE_SIZE_2M)
        assert table.mapped_pages() == 2
        assert table.mapped_bytes() == PAGE_SIZE_4K + PAGE_SIZE_2M

    @given(st.sets(st.integers(min_value=0, max_value=1 << 22), min_size=1, max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_insert_lookup_walk_agree_property(self, page_numbers):
        from tests.conftest import FlatMemory
        flat_memory = FlatMemory()
        table = RadixPageTable()
        mappings = {}
        for index, vpn in enumerate(sorted(page_numbers)):
            virtual = 0x7F00_0000_0000 + vpn * PAGE_SIZE_4K
            physical = 0x10_0000_0000 + index * PAGE_SIZE_4K
            table.insert(virtual, physical, PAGE_SIZE_4K)
            mappings[virtual] = physical
        for virtual, physical in mappings.items():
            assert table.lookup(virtual) == (physical, PAGE_SIZE_4K)
            walk = table.walk(virtual, flat_memory)
            assert walk.found and walk.physical_base == physical
