"""Tests for the TLBs, the MMU and nested translation."""

from functools import partial

import pytest

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import CacheConfig, DRAMConfig, TLBConfig
from repro.memhier.memory_system import MemoryHierarchy
from repro.mmu.mmu import MMU
from repro.mmu.nested import NestedTranslationUnit
from repro.mmu.tlb import TLB, TLBHierarchy
from repro.pagetables.radix import RadixPageTable
from tests.conftest import FlatMemory
from tests.test_cache_oracle import cached


def make_tlb(entries=16, associativity=4, latency=1, page_sizes=(PAGE_SIZE_4K,)):
    return TLB(TLBConfig("T", entries=entries, associativity=associativity,
                         latency=latency, page_sizes=page_sizes))


def make_hierarchy():
    return TLBHierarchy(
        l1i=TLBConfig("L1I", 16, 4, 1),
        l1d_4k=TLBConfig("L1D4K", 16, 4, 1),
        l1d_2m=TLBConfig("L1D2M", 8, 4, 1, page_sizes=(PAGE_SIZE_2M,)),
        l2=TLBConfig("L2", 64, 8, 8, page_sizes=(PAGE_SIZE_4K, PAGE_SIZE_2M)),
    )


def make_memory():
    return MemoryHierarchy(
        l1_config=CacheConfig("L1", 4 * 1024, 4, 2),
        l2_config=CacheConfig("L2", 16 * 1024, 4, 8),
        l3_config=CacheConfig("L3", 64 * 1024, 8, 20),
        dram_config=DRAMConfig(capacity_bytes=1 << 30),
    )


def lookup(tlbs, virtual_address):
    """A full data-TLB lookup: probe the L1 data TLBs, then the unified L2
    TLB.  Returns the (physical base, page size) of the hit, or None, and
    leaves the lookup latency in ``tlbs.last_latency``; an L2 hit is copied
    into the L1 TLB that holds its page size.  The MMU writes the L1 hit
    out in place and calls ``lookup_after_l1d_miss`` after an L1 miss; this
    is the two joined."""
    tlbs._c_data_lookups[0] += 1
    latency = tlbs.l1d_4k.latency
    for tlb in tlbs._l1_data:
        entry = tlb.lookup(virtual_address)
        if entry is not None:
            tlbs.last_latency = latency
            return entry
    return tlbs._lookup_l2(virtual_address, latency)


class TestTLB:
    def test_miss_then_hit(self):
        tlb = make_tlb()
        assert tlb.lookup(0x1000) is None
        tlb.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        assert tlb.lookup(0x1000) == (0xA000, PAGE_SIZE_4K)
        assert tlb.lookup(0x1FFF) == (0xA000, PAGE_SIZE_4K)

    def test_unsupported_page_size_not_cached(self):
        tlb = make_tlb(page_sizes=(PAGE_SIZE_4K,))
        tlb.fill(0x20_0000, 0xB00000, PAGE_SIZE_2M)
        assert tlb.lookup(0x20_0000) is None

    def test_lru_eviction(self):
        tlb = make_tlb(entries=4, associativity=4)
        for index in range(4):
            tlb.fill(index * PAGE_SIZE_4K * tlb.num_sets, index, PAGE_SIZE_4K)
        tlb.lookup(0)  # refresh entry 0
        tlb.fill(4 * PAGE_SIZE_4K * tlb.num_sets, 4, PAGE_SIZE_4K)
        assert tlb.lookup(0) is not None
        assert tlb.lookup(1 * PAGE_SIZE_4K * tlb.num_sets) is None

    def test_invalidate_and_flush(self):
        tlb = make_tlb()
        tlb.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        tlb.invalidate(0x1000)
        assert tlb.lookup(0x1000) is None
        tlb.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        tlb.flush()
        assert tlb.lookup(0x1000) is None

    def test_invalidating_an_extent_drops_every_overlapping_entry(self):
        tlb = make_tlb(entries=64, associativity=8,
                       page_sizes=(PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G))
        for index in range(4):
            tlb.fill(0x20_0000 + index * PAGE_SIZE_4K, 0xA000 + index * PAGE_SIZE_4K,
                     PAGE_SIZE_4K)
        tlb.fill(0x40_0000, 0x80_0000, PAGE_SIZE_2M)
        tlb.fill(0x1000, 0xB000, PAGE_SIZE_4K)
        tlb.invalidate(0x20_0000, PAGE_SIZE_2M)
        assert all(tlb.lookup(0x20_0000 + index * PAGE_SIZE_4K) is None
                   for index in range(4))
        assert tlb.lookup(0x40_0000) == (0x80_0000, PAGE_SIZE_2M)
        assert tlb.lookup(0x1000) == (0xB000, PAGE_SIZE_4K)
        assert tlb.counters.get("invalidations") == 4

    def test_miss_rate(self):
        tlb = make_tlb()
        tlb.lookup(0)
        tlb.fill(0, 0, PAGE_SIZE_4K)
        tlb.lookup(0)
        assert tlb.counters.get("misses") / tlb.counters.get("lookups") == pytest.approx(0.5)


class TestTLBHierarchy:
    def test_fill_then_l1_hit(self):
        hierarchy = make_hierarchy()
        hierarchy.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        assert lookup(hierarchy, 0x1000) == (0xA000, PAGE_SIZE_4K)
        assert (hierarchy.l1d_4k.counters.get("hits"), hierarchy.l2.counters.get("hits")) == (1, 0)
        assert hierarchy.last_latency == hierarchy.l1d_4k.latency

    def test_l2_hit_promotes_to_l1(self):
        hierarchy = make_hierarchy()
        hierarchy.l2.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        lookup(hierarchy, 0x1000)
        assert (hierarchy.l1d_4k.counters.get("hits"), hierarchy.l2.counters.get("hits")) == (0, 1)
        lookup(hierarchy, 0x1000)
        assert (hierarchy.l1d_4k.counters.get("hits"), hierarchy.l2.counters.get("hits")) == (1, 1)

    def test_miss_counts_l2_misses(self):
        hierarchy = make_hierarchy()
        assert lookup(hierarchy, 0x5000) is None
        assert hierarchy.l2_misses() == 1

    def test_huge_page_goes_to_2m_l1(self):
        hierarchy = make_hierarchy()
        hierarchy.fill(0x20_0000, 0xB0_0000, PAGE_SIZE_2M)
        assert lookup(hierarchy, 0x20_0000 + 0x1234) == (0xB0_0000, PAGE_SIZE_2M)
        assert hierarchy.l1d_2m.counters.get("hits") == 1

    def test_gigabyte_translations_live_in_l2_only(self):
        hierarchy = make_hierarchy()
        hierarchy.fill(0x4000_0000, 0x8000_0000, PAGE_SIZE_1G)
        assert lookup(hierarchy, 0x4000_0000 + 999) is not None
        assert hierarchy.l2.counters.get("hits") == 1

    def test_latency_accumulates_on_l2_hit(self):
        hierarchy = make_hierarchy()
        hierarchy.l2.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        lookup(hierarchy, 0x1000)
        assert hierarchy.last_latency == hierarchy.l1d_4k.latency + hierarchy.l2.latency


class TestInPlaceL1Hit:
    """``access_data_fast`` writes the L1 data-TLB hit out in place; it must
    leave exactly what a full :func:`lookup` plus ``MMU._access`` leave."""

    @staticmethod
    def warmed(address, size):
        mmu = MMU(make_hierarchy(), make_memory())
        table = RadixPageTable()
        mmu.set_context(1, table)
        table.insert(address, 0x4000_0000, size)
        for offset in (0, 0x40, 0x1040):
            mmu.access_data(address + offset)
        return mmu

    @pytest.mark.parametrize("size", [PAGE_SIZE_4K, PAGE_SIZE_2M])
    def test_matches_the_lookup_path(self, size):
        address = 0x7F00_0020_0000
        in_place, reference = self.warmed(address, size), self.warmed(address, size)
        hits = in_place.fast_hits
        got = in_place.access_data(address + 0x80, True, 7)
        assert in_place.fast_hits == hits + 1
        reference._c_data_accesses[0] += 1
        # _access starts a data lookup at the L2 TLB; give it the full one.
        reference.tlbs.lookup_after_l1d_miss = partial(lookup, reference.tlbs)
        want = reference._access(address + 0x80, True, 7)
        assert got == want
        assert in_place.stats() == reference.stats()
        assert in_place.memory.stats() == reference.memory.stats()
        for name in ("l1d_4k", "l1d_2m", "l2"):
            assert [list(entries) for entries in getattr(in_place.tlbs, name)._sets] == \
                [list(entries) for entries in getattr(reference.tlbs, name)._sets]


class TestMMU:
    def make_mmu(self, extensions=None):
        memory = make_memory()
        mmu = MMU(make_hierarchy(), memory, extensions)
        table = RadixPageTable()
        mmu.set_context(pid=1, page_table=table)
        return mmu, table, memory

    def test_requires_context(self):
        mmu = MMU(make_hierarchy(), make_memory())
        with pytest.raises(RuntimeError):
            mmu.access_data(0x1000)

    def test_tlb_hit_path(self):
        mmu, table, _ = self.make_mmu()
        table.insert(0x1000, 0xA000, PAGE_SIZE_4K)
        mmu.access_data(0x1000)   # walk + fill
        mmu.access_data(0x1040)
        assert mmu.counters.get("tlb_hits") == 1
        assert cached(mmu.memory.l1, 0xA040)

    def test_walk_on_tlb_miss(self):
        mmu, table, _ = self.make_mmu()
        table.insert(0x2000, 0xB000, PAGE_SIZE_4K)
        mmu.access_data(0x2000)
        assert cached(mmu.memory.l1, 0xB000)
        assert mmu.counters.get("page_walks") == 1
        assert mmu.average_ptw_latency() > 0

    def test_page_fault_invokes_callback_and_retries(self):
        mmu, table, _ = self.make_mmu()
        calls = []

        def fault_callback(pid, vaddr):
            calls.append((pid, vaddr))
            table.insert(vaddr, 0xC000, PAGE_SIZE_4K)
            return 500, True

        mmu.set_fault_callback(fault_callback)
        _, fault_latency, page_fault, _, _ = mmu.access_data(0x3000)
        assert calls == [(1, 0x3000)]
        assert page_fault
        assert fault_latency == 500
        assert cached(mmu.memory.l1, 0xC000)

    def test_unhandled_fault_is_segfault(self):
        mmu, _, _ = self.make_mmu()
        mmu.set_fault_callback(lambda pid, vaddr: (0, False))
        _, _, page_fault, data_latency, served_by = mmu.access_data(0x9000)
        assert page_fault and (data_latency, served_by) == (0, "none")
        assert mmu.counters.get("segfaults") == 1

    def test_missing_callback_is_segfault(self):
        mmu, _, memory = self.make_mmu()
        assert mmu.access_data(0x9000)[3:] == (0, "none")
        assert mmu.counters.get("segfaults") == 1
        assert memory.counters.get("requests_data") == 0

    def test_data_access_uses_memory_hierarchy(self):
        mmu, table, memory = self.make_mmu()
        table.insert(0x5000, 0xE000, PAGE_SIZE_4K)
        _, _, _, data_latency, _ = mmu.access_data(0x5000)
        assert data_latency > 0
        assert memory.counters.get("requests_data") == 1

    def test_stats_shape(self):
        mmu, table, _ = self.make_mmu()
        table.insert(0x1000, 0xA000, PAGE_SIZE_4K)
        mmu.access_data(0x1000)
        stats = mmu.stats()
        assert "counters" in stats and "tlbs" in stats and "avg_ptw_latency" in stats


class TestNestedTranslation:
    def test_two_dimensional_walk(self):
        guest = RadixPageTable()
        host = RadixPageTable()
        guest_virtual = 0x7F00_0000_0000
        guest_physical = 0x10_0000
        host_physical = 0x90_0000
        guest.insert(guest_virtual, guest_physical, PAGE_SIZE_4K)
        host.insert(guest_physical, host_physical, PAGE_SIZE_4K)
        unit = NestedTranslationUnit(guest, host)
        memory = FlatMemory()
        result = unit.walk(guest_virtual, memory)
        assert result.found
        assert result.physical_base == host_physical
        # The 2-D walk costs far more accesses than a single 4-level walk.
        assert result.memory_accesses > 4

    def test_nested_tlb_caches_translation(self):
        guest, host = RadixPageTable(), RadixPageTable()
        guest.insert(0x1000, 0x20_0000, PAGE_SIZE_4K)
        host.insert(0x20_0000, 0x30_0000, PAGE_SIZE_4K)
        unit = NestedTranslationUnit(guest, host)
        memory = FlatMemory()
        unit.walk(0x1000, memory)
        cached = unit.walk(0x1000, memory)
        assert cached.memory_accesses == 0
        assert unit.counters.get("nested_tlb_hits") == 1

    def test_guest_fault_propagates(self):
        unit = NestedTranslationUnit(RadixPageTable(), RadixPageTable())
        result = unit.walk(0x4000, FlatMemory())
        assert not result.found and unit.counters.get("guest_faults") == 1

    def test_mmu_uses_nested_unit(self):
        memory = make_memory()
        mmu = MMU(make_hierarchy(), memory)
        guest, host = RadixPageTable(), RadixPageTable()
        guest.insert(0x1000, 0x20_0000, PAGE_SIZE_4K)
        host.insert(0x20_0000, 0x30_0000, PAGE_SIZE_4K)
        mmu.set_context(1, guest)
        mmu.set_nested_unit(NestedTranslationUnit(guest, host))
        mmu.access_data(0x1000)
        assert cached(memory.l1, 0x30_0000)
