"""Unit tests for the nested (2-D) translation unit and its nested TLB.

Covers the fill/lookup/invalidate/flush surface the two-level shootdown
wiring depends on, the LRU semantics, and the split guest/host latency
accounting of the 2-D walk.
"""

import pytest

from repro.common.addresses import MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.mmu.nested import NestedTranslationUnit, _NestedTLB
from repro.pagetables.base import WalkResult
from tests.conftest import FlatMemory


class _StubTable:
    """Walk-capable page-table stub with a scripted mapping."""

    def __init__(self, mappings, latency=30, accesses=4):
        self.mappings = dict(mappings)
        self.latency = latency
        self.accesses = accesses
        self.walks = 0

    def walk(self, virtual_address, memory):
        self.walks += 1
        for base, (physical, size) in self.mappings.items():
            if base <= virtual_address < base + size:
                return WalkResult(found=True, latency=self.latency,
                                  memory_accesses=self.accesses,
                                  physical_base=physical, page_size=size)
        return WalkResult(found=False, latency=self.latency,
                          memory_accesses=self.accesses)


class TestNestedTLB:
    def test_fill_then_lookup_hits(self):
        tlb = _NestedTLB(entries=4)
        tlb.fill(0x1000, 0x8000, PAGE_SIZE_4K)
        assert tlb.lookup(0x1000) == (0x8000, PAGE_SIZE_4K)
        assert tlb.lookup(0x2000) is None

    def test_lru_eviction(self):
        tlb = _NestedTLB(entries=2)
        tlb.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        tlb.fill(0x2000, 0xB000, PAGE_SIZE_4K)
        tlb.lookup(0x1000)                      # refresh 0x1000's stamp
        tlb.fill(0x3000, 0xC000, PAGE_SIZE_4K)  # evicts 0x2000 (LRU)
        assert tlb.lookup(0x1000) is not None
        assert tlb.lookup(0x2000) is None
        assert tlb.lookup(0x3000) is not None

    def test_invalidate_drops_only_the_named_page(self):
        tlb = _NestedTLB(entries=4)
        tlb.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        tlb.fill(0x2000, 0xB000, PAGE_SIZE_4K)
        assert tlb.invalidate(0x1000) is True
        assert tlb.invalidate(0x1000) is False   # already gone
        assert tlb.lookup(0x1000) is None
        assert tlb.lookup(0x2000) is not None

    def test_flush_drops_everything(self):
        tlb = _NestedTLB(entries=4)
        tlb.fill(0x1000, 0xA000, PAGE_SIZE_4K)
        tlb.fill(0x2000, 0xB000, PAGE_SIZE_4K)
        assert tlb.flush() is True
        assert tlb.flush() is False              # nothing left to drop
        assert tlb.lookup(0x1000) is None and tlb.lookup(0x2000) is None

    def test_invalidating_an_extent_drops_every_overlapping_entry(self):
        """A guest huge page backed by smaller host pages is cached as
        several smaller combined entries; shooting the huge page down must
        drop all of them and nothing outside it."""
        tlb = _NestedTLB(entries=8)
        for index in range(3):
            tlb.fill(0x20_0000 + index * PAGE_SIZE_4K, 0xA0_0000 + index * PAGE_SIZE_4K,
                     PAGE_SIZE_4K)
        tlb.fill(0x40_0000, 0xB0_0000, PAGE_SIZE_4K)
        assert tlb.invalidate(0x20_0000, 2 << 20) is True
        assert all(tlb.lookup(0x20_0000 + index * PAGE_SIZE_4K) is None
                   for index in range(3))
        assert tlb.lookup(0x40_0000) is not None

class TestNestedTranslationUnit:
    def _unit(self):
        guest = _StubTable({0x0: (0x40_0000, PAGE_SIZE_2M)}, latency=30, accesses=4)
        # Host table maps guest-physical 0x40_0000..+2M onto host-physical.
        host = _StubTable({0x40_0000: (0x80_0000, PAGE_SIZE_2M)}, latency=20, accesses=4)
        return NestedTranslationUnit(guest, host, nested_tlb_entries=8), guest, host

    def test_cold_walk_charges_both_dimensions(self):
        unit, guest, host = self._unit()
        result = unit.walk(0x1000, FlatMemory())
        assert result.found
        assert guest.walks == 1
        # One host walk per guest memory access (the 2-D blow-up).
        assert host.walks == guest.accesses
        assert result.guest_latency == guest.latency
        assert result.host_latency == host.latency * guest.accesses
        assert result.latency == result.guest_latency + result.host_latency

    def test_warm_walk_hits_nested_tlb_with_no_table_walks(self):
        unit, guest, host = self._unit()
        unit.walk(0x1000, FlatMemory())
        warm = unit.walk(0x1000, FlatMemory())
        assert warm.found
        assert warm.memory_accesses == 0
        assert warm.guest_latency == 0 and warm.host_latency == 0
        assert guest.walks == 1 and host.walks == 4  # no new walks
        assert unit.stats().get("nested_tlb_hits") == 1

    def test_invalidate_forces_a_fresh_two_dimensional_walk(self):
        unit, guest, host = self._unit()
        unit.walk(0x1000, FlatMemory())
        unit.invalidate(0x1000)
        assert unit.stats().get("nested_tlb_invalidations") == 1
        again = unit.walk(0x1000, FlatMemory())
        assert again.found
        assert guest.walks == 2          # really re-walked
        assert again.memory_accesses > 0

    def test_flush_forces_fresh_walks_for_every_page(self):
        unit, guest, host = self._unit()
        unit.walk(0x1000, FlatMemory())
        unit.walk(0x3000, FlatMemory())
        walks_before = guest.walks
        unit.flush()
        assert unit.stats().get("nested_tlb_flushes") == 1
        unit.walk(0x1000, FlatMemory())
        unit.walk(0x3000, FlatMemory())
        assert guest.walks == walks_before + 2

    def test_stale_entry_translates_wrong_until_invalidated(self):
        """The bug class the invalidation wiring exists for: remap the host
        dimension and the nested TLB keeps translating to the old frame."""
        unit, guest, host = self._unit()
        first = unit.walk(0x1000, FlatMemory())
        old_base = first.physical_base
        # Hypervisor remaps the backing frame.
        host.mappings[0x40_0000] = (0xC0_0000, PAGE_SIZE_2M)
        stale = unit.walk(0x1000, FlatMemory())
        assert stale.physical_base == old_base  # wrong: stale entry
        unit.flush()
        fresh = unit.walk(0x1000, FlatMemory())
        assert fresh.physical_base != old_base

    def test_guest_fault_reports_guest_dimension_only(self):
        unit = NestedTranslationUnit(_StubTable({}), _StubTable({}),
                                     nested_tlb_entries=8)
        result = unit.walk(0x1000, FlatMemory())
        assert not result.found and unit.counters.get("guest_faults") == 1
        assert result.host_latency == 0
        assert result.guest_latency == result.latency

    def test_host_fault_reports_both_dimensions(self):
        guest = _StubTable({0x0: (0x40_0000, PAGE_SIZE_2M)})
        unit = NestedTranslationUnit(guest, _StubTable({}), nested_tlb_entries=8)
        result = unit.walk(0x1000, FlatMemory())
        assert not result.found and unit.counters.get("host_faults") == 1
        assert result.guest_latency > 0 and result.host_latency > 0
        assert result.latency == result.guest_latency + result.host_latency
