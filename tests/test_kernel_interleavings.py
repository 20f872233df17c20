"""Directed kernel-op interleavings across every registered page-table design.

The scenario fuzzer explores these interleavings randomly; this file pins the
three classically dangerous ones as deterministic tests so a regression in any
backend's invalidation discipline fails with a readable name instead of a
shrunk reproducer:

* munmap immediately followed by a MAP_FIXED mmap of the same range — the
  stale-translation hazard PR 4's parity sweep originally surfaced;
* THP collapse racing swap-out over the same region — collapse must never
  resurrect a translation for a page reclaim just swapped out;
* process migration with in-flight THP reservations — a context switch onto
  another core must not strand or corrupt a reserved-but-unpromoted region.
"""

from dataclasses import replace

import pytest

from repro.common.addresses import MB, PAGE_SIZE_2M, PAGE_SIZE_4K, align_up
from repro.common.config import PageTableConfig
from repro.core.virtuoso import Virtuoso
from repro.mimicos.kernel import MimicOS
from repro.pagetables.factory import registered_kinds
from tests.conftest import tiny_mimicos_config, tiny_system_config

ALL_KINDS = registered_kinds()


def booted_kernel(kind: str, **overrides) -> MimicOS:
    return MimicOS(tiny_mimicos_config(**overrides), PageTableConfig(kind=kind))


def fault_range(kernel: MimicOS, process, start: int, pages: int) -> None:
    for index in range(pages):
        address = start + index * PAGE_SIZE_4K
        if process.page_table.lookup(address) is None:
            result = kernel.handle_page_fault(process.pid, address)
            assert not result.segfault, hex(address)


def aligned_region(vma) -> int:
    """First 2 MB-aligned region base fully inside ``vma``."""
    base = align_up(vma.start, PAGE_SIZE_2M)
    assert base + PAGE_SIZE_2M <= vma.end, "VMA too small for an aligned region"
    return base


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestMunmapThenFixedMmapSameRange:
    """VA reuse: the one sequence where yesterday's translations are poison."""

    def test_reused_range_starts_cold_and_refaults_cleanly(self, kind):
        kernel = booted_kernel(kind)
        process = kernel.create_process("reuse")
        pages = 64
        vma = kernel.mmap(process, pages * PAGE_SIZE_4K)
        start, size = vma.start, vma.size
        fault_range(kernel, process, start, pages)

        removed = kernel.munmap(process, vma)
        assert removed > 0
        for index in range(pages):
            assert process.page_table.lookup(start + index * PAGE_SIZE_4K) is None

        fresh = kernel.mmap(process, size, fixed_address=start)
        assert fresh.start == start, "MAP_FIXED must reuse the exact range"
        # The new VMA starts with no translations, so touching it faults
        # again (range-granular backends may cover all pages in one fault).
        faults_before = kernel.counters.get("page_fault_requests")
        fault_range(kernel, process, start, pages)
        assert kernel.counters.get("page_fault_requests") > faults_before
        fault_range(kernel, process, start, pages)  # now fully resident again

    def test_interleaving_repeats_without_leaking_mappings(self, kind):
        kernel = booted_kernel(kind)
        process = kernel.create_process("churn")
        vma = kernel.mmap(process, 16 * PAGE_SIZE_4K)
        start, size = vma.start, vma.size
        for _ in range(4):
            fault_range(kernel, process, start, 16)
            kernel.munmap(process, vma)
            vma = kernel.mmap(process, size, fixed_address=start)
            assert vma.start == start
        assert process.page_table.lookup(start) is None


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestCollapseRacingSwapOut:
    """khugepaged collapse and forced reclaim fighting over one region."""

    def test_every_page_refaults_cleanly_after_the_race(self, kind):
        kernel = booted_kernel(kind, thp_policy="linux")
        process = kernel.create_process("racer")
        vma = kernel.mmap(process, 4 * MB)
        region = aligned_region(vma)
        pages = PAGE_SIZE_2M // PAGE_SIZE_4K
        fault_range(kernel, process, region, pages)

        reclaimed = kernel.reclaim_cold_pages(32)
        assert reclaimed > 0, "forced reclaim found nothing to swap out"
        kernel.run_khugepaged(max_regions=8)

        # Whatever interleaving of unmap/collapse won, the region must be
        # fully usable: every page either still translates or refaults.
        fault_range(kernel, process, region, pages)
        for index in range(pages):
            assert process.page_table.lookup(region + index * PAGE_SIZE_4K) \
                is not None

    def test_collapse_after_full_reclaim_of_region_is_a_noop_not_a_crash(self, kind):
        kernel = booted_kernel(kind, thp_policy="linux")
        process = kernel.create_process("drained")
        vma = kernel.mmap(process, 4 * MB)
        region = aligned_region(vma)
        fault_range(kernel, process, region, 64)
        # Reclaim more mappings than were ever created: drains everything.
        kernel.reclaim_cold_pages(10_000)
        assert process.page_table.lookup(region) is None
        kernel.run_khugepaged()
        assert process.page_table.lookup(region) is None, \
            "collapse resurrected a translation for a swapped-out page"
        fault_range(kernel, process, region, 64)


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestMigrationWithInflightReservations:
    """Core migration while a THP reservation is open but unpromoted."""

    def build_system(self, kind: str) -> Virtuoso:
        config = tiny_system_config().with_page_table(PageTableConfig(kind=kind))
        config = config.with_mimicos(replace(config.mimicos, thp_policy="cr_thp"))
        system = Virtuoso(config, seed=3)
        if getattr(system.kernel.create_process("probe").page_table,
                   "overrides_allocation", False):
            pytest.skip(f"{kind} owns physical allocation; the THP reservation "
                        "path is structurally bypassed")
        return system

    def test_reservation_survives_migration_and_keeps_placing_pages(self, kind):
        system = self.build_system(kind)
        process = system.create_process("migrant")
        vma = system.kernel.mmap(process, 4 * MB)
        region = aligned_region(vma)

        first = system.kernel.handle_page_fault(process.pid, region)
        assert not first.segfault
        policy = system.kernel.thp_policy
        assert policy.counters.get("reservations") > policy.counters.get("promotions"), \
            "cr_thp should hold an unpromoted reservation after one fault"

        # Migrate mid-reservation: full TLB/translation-cache flush.
        system.mmu.migrate_in(process.pid, process.page_table)

        # The reservation still places the neighbouring 4 KB page inside the
        # same reserved 2 MB physical block, contiguously with the first.
        second = system.kernel.handle_page_fault(process.pid,
                                                 region + PAGE_SIZE_4K)
        assert not second.segfault
        assert second.physical_base == first.physical_base + PAGE_SIZE_4K
        assert policy.counters.get("reservations") > policy.counters.get("promotions")
        assert process.page_table.lookup(region) is not None
        assert process.page_table.lookup(region + PAGE_SIZE_4K) is not None

    def test_reclaim_during_open_reservation_then_migrate(self, kind):
        system = self.build_system(kind)
        process = system.create_process("pressured")
        vma = system.kernel.mmap(process, 4 * MB)
        region = aligned_region(vma)
        for index in range(8):
            result = system.kernel.handle_page_fault(
                process.pid, region + index * PAGE_SIZE_4K)
            assert not result.segfault

        reclaimed = system.kernel.reclaim_cold_pages(4)
        assert reclaimed > 0
        system.mmu.migrate_in(process.pid, process.page_table)

        # Reclaimed pages refault; untouched reservation offsets still fill.
        for index in range(16):
            address = region + index * PAGE_SIZE_4K
            if process.page_table.lookup(address) is None:
                result = system.kernel.handle_page_fault(process.pid, address)
                assert not result.segfault
            assert process.page_table.lookup(address) is not None
