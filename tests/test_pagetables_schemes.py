"""Tests for Utopia, RMM, Midgard, direct segments, VBI and the factory."""

import pytest

from repro.common.addresses import GB, MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import PageTableConfig
from repro.common.kernelops import KernelRoutineTrace
from repro.mimicos.buddy import BuddyAllocator
from repro.mimicos.vma import VMAKind, VirtualMemoryArea
from repro.mmu.mmu import MMU
from repro.pagetables.base import PageTableBase
from repro.pagetables.cuckoo import ElasticCuckooPageTable
from repro.pagetables.direct_segments import DirectSegmentTable
from repro.pagetables.factory import build_page_table
from repro.pagetables.hashchain import ChainedHashPageTable
from repro.pagetables.hdc import OpenAddressingHashPageTable
from repro.pagetables.midgard import MidgardTranslation
from repro.pagetables.radix import RadixPageTable
from repro.pagetables.rmm import RangeMemoryMapping
from repro.pagetables.utopia import UtopiaTranslation
from repro.pagetables.vbi import VirtualBlockInterface
from tests.conftest import FlatMemory
from tests.test_cache_oracle import cached
from tests.test_tlb_mmu import make_hierarchy, make_memory


def anon_vma(size=16 * MB, start=0x7F00_0000_0000):
    return VirtualMemoryArea(start=start, end=start + size, kind=VMAKind.ANONYMOUS)


def mmu_on(page_table):
    """An MMU translating through ``page_table`` (no fault handler), and
    its memory hierarchy."""
    memory = make_memory()
    mmu = MMU(make_hierarchy(), memory)
    mmu.set_context(1, page_table)
    return mmu, memory


class TestUtopia:
    def make(self, restseg_bytes=8 * MB, associativity=4):
        return UtopiaTranslation(restseg_size_bytes=restseg_bytes,
                                 restseg_associativity=associativity,
                                 restseg_base_address=1 << 40)

    def test_restseg_allocation_places_page_in_segment(self):
        utopia = self.make()
        buddy = BuddyAllocator(64 * MB)
        allocation = utopia.allocate_for_fault(1, 0x7F00_0000_0000, anon_vma(), buddy)
        assert allocation.page_size == PAGE_SIZE_4K
        assert allocation.address >= 1 << 40
        assert utopia.counters.get("restseg_allocations") == 1
        assert buddy.free_bytes == buddy.total_bytes  # the RestSeg frame is not a buddy frame

    def test_translation_of_restseg_page_uses_tag_walk(self):
        utopia = self.make()
        buddy = BuddyAllocator(64 * MB)
        memory = FlatMemory()
        virtual = 0x7F00_0000_0000
        allocation = utopia.allocate_for_fault(1, virtual, anon_vma(), buddy)
        utopia.insert(virtual, allocation.address, allocation.page_size)
        result = utopia.walk(virtual, memory)
        assert result.found
        assert result.physical_base == allocation.address
        assert utopia.counters.get("restseg_walks") == 1

    def test_set_conflict_falls_back_to_flexseg(self):
        utopia = self.make(restseg_bytes=4 * PAGE_SIZE_4K, associativity=1)
        buddy = BuddyAllocator(64 * MB)
        vma = anon_vma()
        placed = []
        for index in range(32):
            allocation = utopia.allocate_for_fault(1, vma.start + index * PAGE_SIZE_4K,
                                                   vma, buddy)
            placed.append(allocation)
        assert utopia.counters.get("restseg_set_conflicts") > 0
        assert utopia.counters.get("flexseg_allocations") > 0
        assert buddy.free_bytes < buddy.total_bytes

    def test_exhausted_flexseg_evicts_and_reports_swap_victims(self):
        utopia = self.make(restseg_bytes=4 * PAGE_SIZE_4K, associativity=1)
        buddy = BuddyAllocator(16 * PAGE_SIZE_4K, max_order=4)
        vma = anon_vma()
        evictions = 0
        for index in range(64):
            allocation = utopia.allocate_for_fault(1, vma.start + index * PAGE_SIZE_4K,
                                                   vma, buddy)
            evictions += len(allocation.evicted_pages)
        assert evictions > 0
        assert utopia.counters.get("restseg_evictions") == evictions

    def test_flexseg_pages_use_radix_walk(self):
        utopia = self.make(restseg_bytes=4 * PAGE_SIZE_4K, associativity=1)
        buddy = BuddyAllocator(64 * MB)
        memory = FlatMemory()
        vma = anon_vma()
        fallback_virtual = None
        for index in range(16):
            virtual = vma.start + index * PAGE_SIZE_4K
            allocation = utopia.allocate_for_fault(1, virtual, vma, buddy)
            utopia.insert(virtual, allocation.address, allocation.page_size)
            if allocation.fallback:
                fallback_virtual = virtual
        assert fallback_virtual is not None
        result = utopia.walk(fallback_virtual, memory)
        assert result.found
        assert utopia.counters.get("flexseg_walks") >= 1


class TestRMM:
    def test_eager_allocation_creates_range(self):
        rmm = RangeMemoryMapping(eager_paging_max_order=6)
        buddy = BuddyAllocator(64 * MB)
        vma = anon_vma()
        allocation = rmm.allocate_for_fault(1, vma.start, vma, buddy)
        assert rmm.counters.get("eager_allocations") == 1
        covering = rmm.covering_range(vma.start + PAGE_SIZE_4K)
        assert covering is not None
        size = covering.virtual_end - covering.virtual_start
        assert size == PAGE_SIZE_4K << 6
        assert allocation.zeroing_bytes == size

    def test_rlb_hit_avoids_memory_accesses(self):
        rmm = RangeMemoryMapping(eager_paging_max_order=6)
        buddy = BuddyAllocator(64 * MB)
        memory = FlatMemory()
        vma = anon_vma()
        rmm.allocate_for_fault(1, vma.start, vma, buddy)
        first = rmm.walk(vma.start, memory)            # range-table walk, fills the RLB
        second = rmm.walk(vma.start + PAGE_SIZE_4K, memory)
        assert first.found and second.found
        assert first.memory_accesses >= 1
        assert second.memory_accesses == 0
        assert second.latency == rmm.rlb.latency

    def test_eager_allocation_bounded_by_fragmentation(self):
        buddy = BuddyAllocator(64 * MB)
        # Fragment: allocate every 2 MB block, then free only every other one,
        # so no two free buddies can coalesce and the largest free block is 2 MB.
        blocks = []
        while buddy.has_block(9):
            blocks.append(buddy.allocate(9).address)
        for block in blocks[::2]:
            buddy.free(block)
        rmm = RangeMemoryMapping(eager_paging_max_order=12)
        vma = anon_vma()
        rmm.allocate_for_fault(1, vma.start, vma, buddy)
        covering = rmm.covering_range(vma.start)
        size = covering.virtual_end - covering.virtual_start
        assert size <= PAGE_SIZE_2M
        assert size < (PAGE_SIZE_4K << 12)

    def test_functional_lookup_through_range(self):
        rmm = RangeMemoryMapping(eager_paging_max_order=4)
        buddy = BuddyAllocator(64 * MB)
        vma = anon_vma()
        allocation = rmm.allocate_for_fault(1, vma.start, vma, buddy)
        inside = vma.start + 2 * PAGE_SIZE_4K
        physical, size = rmm.lookup(inside)
        assert physical == allocation.address + 2 * PAGE_SIZE_4K
        assert size == PAGE_SIZE_4K

    def test_radix_fallback_outside_ranges(self):
        rmm = RangeMemoryMapping()
        memory = FlatMemory()
        rmm.insert(0x6000_0000, 0x30_0000, PAGE_SIZE_4K)
        result = rmm.walk(0x6000_0000, memory)
        assert result.found
        assert result.physical_base == 0x30_0000


class TestMidgard:
    def test_register_vma_assigns_disjoint_ranges(self):
        midgard = MidgardTranslation()
        a = midgard.register_vma(0x1000_0000, 0x1000_0000 + 4 * MB)
        b = midgard.register_vma(0x2000_0000, 0x2000_0000 + 4 * MB)
        assert a.midgard_start != b.midgard_start
        assert midgard.counters.get("registered_vmas") == 2

    def test_frontend_hit_after_first_translation(self):
        midgard = MidgardTranslation()
        memory = FlatMemory()
        midgard.register_vma(0x1000_0000, 0x1000_0000 + 4 * MB)
        _, first_latency, first_accesses = midgard.translate_frontend(0x1000_0000, memory)
        _, second_latency, second_accesses = midgard.translate_frontend(0x1000_0000, memory)
        assert first_accesses >= 1          # VMA tree walk on the cold miss
        assert second_accesses == 0         # L1 VLB hit
        assert second_latency < first_latency

    def test_mmu_translation_end_to_end(self):
        """A cold access takes both steps: the frontend before the data
        access and the backend because the data came from DRAM."""
        midgard = MidgardTranslation()
        midgard.register_vma(0x1000_0000, 0x1000_0000 + 4 * MB)
        midgard.insert(0x1000_0000, 0x4000_0000, PAGE_SIZE_4K)
        mmu, memory = mmu_on(midgard)
        latency, _, faulted, _, served_by = mmu.access_data_fast(0x1000_0000 + 0x123)
        assert not faulted and served_by == "DRAM"
        assert cached(memory.l1, 0x4000_0123)
        breakdown = midgard.latency_breakdown()
        assert breakdown["frontend"] > 0 and breakdown["backend"] > 0
        assert latency == breakdown["frontend"] + breakdown["backend"]

    def test_cache_hit_skips_the_backend(self):
        midgard = MidgardTranslation()
        midgard.register_vma(0x1000_0000, 0x1000_0000 + 4 * MB)
        midgard.insert(0x1000_0000, 0x4000_0000, PAGE_SIZE_4K)
        mmu, _ = mmu_on(midgard)
        mmu.access_data_fast(0x1000_0000)
        first = midgard.latency_breakdown()
        _, _, _, _, served_by = mmu.access_data_fast(0x1000_0000)
        second = midgard.latency_breakdown()
        assert served_by == "L1"
        assert second["frontend"] > first["frontend"]
        assert second["backend"] == first["backend"]

    def test_unregistered_address_faults(self):
        mmu, _ = mmu_on(MidgardTranslation())
        _, _, faulted, _, served_by = mmu.access_data_fast(0x9999_0000)
        assert faulted and served_by == "none"
        assert mmu.counters.get("page_faults") == 1

    def test_replaces_tlbs_flag(self):
        assert MidgardTranslation.replaces_tlbs
        assert VirtualBlockInterface.replaces_tlbs
        assert not RadixPageTable.replaces_tlbs


class TestDirectSegment:
    def test_segment_established_on_large_vma(self):
        table = DirectSegmentTable()
        buddy = BuddyAllocator(256 * MB)
        vma = anon_vma(size=128 * MB)
        allocation = table.allocate_for_fault(1, vma.start, vma, buddy)
        assert table.segment_base == vma.start
        assert table.counters.get("segments_established") == 1
        assert allocation.zeroing_bytes > 0

    def test_segment_hits_have_no_walk_traffic(self):
        table = DirectSegmentTable()
        buddy = BuddyAllocator(256 * MB)
        memory = FlatMemory()
        vma = anon_vma(size=128 * MB)
        table.allocate_for_fault(1, vma.start, vma, buddy)
        result = table.walk(vma.start + 5 * PAGE_SIZE_4K, memory)
        assert result.found
        assert result.memory_accesses == 0

    def test_small_vma_uses_radix_path(self):
        table = DirectSegmentTable()
        buddy = BuddyAllocator(64 * MB)
        memory = FlatMemory()
        vma = anon_vma(size=1 * MB, start=0x5000_0000)
        allocation = table.allocate_for_fault(1, vma.start, vma, buddy)
        table.insert(vma.start, allocation.address, PAGE_SIZE_4K)
        result = table.walk(vma.start, memory)
        assert result.found
        assert result.memory_accesses >= 1


class TestVBI:
    def test_backend_translation_single_access(self):
        vbi = VirtualBlockInterface()
        memory = FlatMemory()
        vbi.insert(0x4000_0000, 0x8000_0000, PAGE_SIZE_4K)
        physical, latency, accesses = vbi.translate_backend(0x4000_0000 + 0x123, memory)
        assert physical == 0x8000_0000 + 0x123
        assert accesses == 1

    def test_frontend_is_cheap(self):
        vbi = VirtualBlockInterface()
        _, latency, accesses = vbi.translate_frontend(0x4000_0000, FlatMemory())
        assert latency == vbi.block_table_latency
        assert accesses == 0

    def test_mmu_translation_end_to_end(self):
        vbi = VirtualBlockInterface()
        vbi.insert(0x4000_0000, 0x8000_0000, PAGE_SIZE_4K)
        mmu, memory = mmu_on(vbi)
        latency, _, faulted, _, served_by = mmu.access_data_fast(0x4000_0000)
        assert not faulted and served_by == "DRAM"
        assert cached(memory.l1, 0x8000_0000)
        breakdown = vbi.latency_breakdown()
        assert breakdown["frontend"] == vbi.block_table_latency
        assert latency == breakdown["frontend"] + breakdown["backend"]


class TestFactory:
    @pytest.mark.parametrize("kind,expected", [
        ("radix", RadixPageTable),
        ("ech", ElasticCuckooPageTable),
        ("hdc", OpenAddressingHashPageTable),
        ("ht", ChainedHashPageTable),
        ("utopia", UtopiaTranslation),
        ("rmm", RangeMemoryMapping),
        ("midgard", MidgardTranslation),
        ("direct_segment", DirectSegmentTable),
        ("vbi", VirtualBlockInterface),
    ])
    def test_factory_builds_every_kind(self, kind, expected):
        table = build_page_table(PageTableConfig(kind=kind),
                                 physical_memory_bytes=1 * GB)
        assert isinstance(table, expected)
        assert table.kind == kind

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_page_table(PageTableConfig(kind="quantum"))

    def test_hash_table_scaled_to_physical_memory(self):
        table = build_page_table(PageTableConfig(kind="hdc", hash_table_size_bytes=4 * GB),
                                 physical_memory_bytes=256 * MB)
        assert table.num_buckets * 64 <= 256 * MB
