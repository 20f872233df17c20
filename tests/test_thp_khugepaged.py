"""Tests for the THP allocation policies, khugepaged and fragmentation control."""

import pytest

from repro.common.addresses import MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.kernelops import KernelRoutineTrace
from repro.common.rng import DeterministicRNG
from repro.mimicos.buddy import ORDER_2M, BuddyAllocator
from repro.mimicos.fragmentation import FragmentationController
from repro.mimicos.khugepaged import Khugepaged
from repro.mimicos.thp import (
    AggressiveReservationTHP,
    BuddyOnlyPolicy,
    ConservativeReservationTHP,
    LinuxTHPPolicy,
    build_thp_policy,
)
from repro.mimicos.vma import VirtualMemoryArea, VMAKind
from repro.pagetables.radix import RadixPageTable
from tests.conftest import tiny_mimicos_config


def make_vma(size=8 * MB, start=0x7F00_0000_0000):
    return VirtualMemoryArea(start=start, end=start + size, kind=VMAKind.ANONYMOUS)


def make_buddy(size=128 * MB):
    return BuddyAllocator(size)


def exhaust_huge_blocks(buddy):
    """Leave the allocator with plenty of 4 KB pages but no free 2 MB block."""
    blocks = []
    while buddy.has_block(ORDER_2M):
        blocks.append(buddy.allocate(ORDER_2M).address)
    # Splinter the last block: free it and pin a single 4 KB page inside it.
    last = blocks.pop()
    buddy.free(last)
    buddy.allocate(0)
    return buddy


class TestBuddyOnlyPolicy:
    def test_always_allocates_4k(self):
        policy = BuddyOnlyPolicy(make_buddy(), tiny_mimicos_config())
        vma = make_vma()
        allocation = policy.on_anonymous_fault(1, vma.start, vma)
        assert allocation.page_size == PAGE_SIZE_4K
        assert allocation.zeroing_bytes == PAGE_SIZE_4K


class TestLinuxTHPPolicy:
    def test_allocates_huge_page_when_region_fits(self):
        policy = LinuxTHPPolicy(make_buddy(), tiny_mimicos_config())
        vma = make_vma()
        allocation = policy.on_anonymous_fault(1, vma.start, vma)
        assert allocation.page_size == PAGE_SIZE_2M
        assert allocation.zeroing_bytes == PAGE_SIZE_2M

    def test_falls_back_when_region_does_not_fit(self):
        policy = LinuxTHPPolicy(make_buddy(), tiny_mimicos_config())
        vma = make_vma(size=64 * 1024)
        allocation = policy.on_anonymous_fault(1, vma.start + 4096, vma)
        assert allocation.page_size == PAGE_SIZE_4K
        assert allocation.notify_khugepaged

    def test_falls_back_when_no_huge_block_free(self):
        buddy = exhaust_huge_blocks(make_buddy(8 * MB))
        policy = LinuxTHPPolicy(buddy, tiny_mimicos_config())
        vma = make_vma()
        allocation = policy.on_anonymous_fault(1, vma.start, vma)
        assert allocation.page_size == PAGE_SIZE_4K
        assert allocation.fallback
        assert policy.counters.get("thp_fallbacks") == 1


class TestReservationPolicies:
    def test_conservative_promotes_after_half_region(self):
        policy = ConservativeReservationTHP(make_buddy(), tiny_mimicos_config())
        vma = make_vma()
        pages = PAGE_SIZE_2M // PAGE_SIZE_4K
        promoted = None
        for index in range(pages):
            allocation = policy.on_anonymous_fault(1, vma.start + index * PAGE_SIZE_4K, vma)
            if allocation.promoted_region_va is not None:
                promoted = index
                break
        assert promoted is not None
        assert promoted == pages // 2  # promotion just past 50 % utilisation

    def test_aggressive_promotes_earlier_than_conservative(self):
        def promotion_index(policy):
            vma = make_vma()
            pages = PAGE_SIZE_2M // PAGE_SIZE_4K
            for index in range(pages):
                allocation = policy.on_anonymous_fault(1, vma.start + index * PAGE_SIZE_4K, vma)
                if allocation.promoted_region_va is not None:
                    return index
            return pages

        aggressive = promotion_index(AggressiveReservationTHP(make_buddy(), tiny_mimicos_config()))
        conservative = promotion_index(ConservativeReservationTHP(make_buddy(), tiny_mimicos_config()))
        assert aggressive < conservative

    def test_reserved_offsets_are_stable(self):
        policy = ConservativeReservationTHP(make_buddy(), tiny_mimicos_config())
        vma = make_vma()
        first = policy.on_anonymous_fault(1, vma.start, vma)
        second = policy.on_anonymous_fault(1, vma.start + PAGE_SIZE_4K, vma)
        assert second.address == first.address + PAGE_SIZE_4K

    def test_reservation_falls_back_without_huge_blocks(self):
        buddy = exhaust_huge_blocks(make_buddy(8 * MB))
        policy = AggressiveReservationTHP(buddy, tiny_mimicos_config())
        vma = make_vma()
        allocation = policy.on_anonymous_fault(1, vma.start, vma)
        assert allocation.fallback
        assert allocation.page_size == PAGE_SIZE_4K

    def test_promotion_records_kernel_work(self):
        policy = AggressiveReservationTHP(make_buddy(), tiny_mimicos_config())
        vma = make_vma()
        trace = KernelRoutineTrace("fault")
        pages_needed = int((PAGE_SIZE_2M // PAGE_SIZE_4K) * 0.1) + 4
        promotion = None
        for index in range(pages_needed):
            allocation = policy.on_anonymous_fault(1, vma.start + index * PAGE_SIZE_4K, vma,
                                                   trace)
            if allocation.promoted_region_va is not None:
                promotion = allocation
                break
        assert promotion is not None
        assert "thp_promote_region" in [op.name for op in trace.ops]


class TestPolicyFactory:
    def test_known_policies(self):
        buddy = make_buddy()
        config = tiny_mimicos_config()
        for name in ("bd", "never", "linux", "cr_thp", "ar_thp"):
            assert build_thp_policy(name, buddy, config).name in (name, "reservation")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            build_thp_policy("magic", make_buddy(), tiny_mimicos_config())


class TestKhugepaged:
    def _populate_small_pages(self, page_table, buddy, region_va, count):
        for index in range(count):
            frame = buddy.allocate(0).address
            page_table.insert(region_va + index * PAGE_SIZE_4K, frame, PAGE_SIZE_4K)

    def test_collapse_eligible_region(self):
        buddy = make_buddy()
        page_table = RadixPageTable()
        daemon = Khugepaged(buddy, min_present_pages=64)
        region = 0x7F00_0000_0000
        self._populate_small_pages(page_table, buddy, region, 128)
        daemon.enqueue_hint(pid=1, region_va=region)
        result = daemon.scan({1: page_table})
        assert result.regions_collapsed == 1
        assert result.pages_copied == 128
        assert page_table.lookup(region) == (page_table.lookup(region)[0], PAGE_SIZE_2M)

    def test_sparse_region_not_collapsed(self):
        buddy = make_buddy()
        page_table = RadixPageTable()
        daemon = Khugepaged(buddy, min_present_pages=64)
        region = 0x7F00_0000_0000
        self._populate_small_pages(page_table, buddy, region, 8)
        daemon.enqueue_hint(1, region)
        result = daemon.scan({1: page_table})
        assert result.regions_collapsed == 0

    def test_duplicate_hints_deduplicated(self):
        daemon = Khugepaged(make_buddy())
        daemon.enqueue_hint(1, 0x1000_0000)
        daemon.enqueue_hint(1, 0x1000_0000)
        assert daemon.counters.get("hints") == 1

    def test_scan_limit_respected(self):
        buddy = make_buddy()
        daemon = Khugepaged(buddy, max_regions_per_scan=2)
        for index in range(5):
            daemon.enqueue_hint(1, 0x1000_0000 + index * PAGE_SIZE_2M)
        result = daemon.scan({1: RadixPageTable()})
        assert result.regions_scanned == 2
        assert daemon.scan({1: RadixPageTable()}, max_regions=10).regions_scanned == 3

    def test_no_collapse_when_memory_exhausted(self):
        buddy = make_buddy(8 * MB)
        page_table = RadixPageTable()
        daemon = Khugepaged(buddy, min_present_pages=16)
        region = 0x7F00_0000_0000
        self._populate_small_pages(page_table, buddy, region, 32)
        while buddy.has_block(ORDER_2M):
            buddy.allocate(ORDER_2M)
        daemon.enqueue_hint(1, region)
        result = daemon.scan({1: page_table})
        assert result.regions_collapsed == 0
        assert daemon.counters.get("regions_skipped_no_memory") == 1


class TestFragmentationController:
    def test_fragment_to_target(self):
        buddy = make_buddy(64 * MB)
        controller = FragmentationController(buddy, DeterministicRNG(1))
        achieved = controller.fragment_to(0.5)
        assert achieved <= 0.55
        assert controller.counters.get("pinned_pages") > 0

    def test_pinned_pages_hold_all_the_memory_taken(self):
        buddy = make_buddy(64 * MB)
        controller = FragmentationController(buddy, DeterministicRNG(2))
        controller.fragment_to(0.7)
        assert (buddy.total_bytes - buddy.free_bytes
                == controller.counters.get("pinned_pages") * PAGE_SIZE_4K)
        for address in controller._pinned:
            buddy.free(address)
        assert buddy.free_bytes == buddy.total_bytes

    def test_invalid_target_rejected(self):
        controller = FragmentationController(make_buddy())
        with pytest.raises(ValueError):
            controller.fragment_to(1.5)

    def test_already_fragmented_is_noop(self):
        buddy = make_buddy(64 * MB)
        controller = FragmentationController(buddy)
        achieved = controller.fragment_to(1.0)
        assert achieved == pytest.approx(1.0)
        assert controller.counters.get("pinned_pages") == 0
