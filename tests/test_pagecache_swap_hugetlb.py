"""Tests for the page cache, swap subsystem, hugetlbfs pool and SSD model."""

import pytest

from repro.common.addresses import MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import SSDConfig
from repro.common.kernelops import KernelRoutineTrace
from repro.mimicos.buddy import BuddyAllocator
from repro.mimicos.hugetlbfs import HugeTLBFS
from repro.mimicos.page_cache import PageCache
from repro.mimicos.swap import SwapFullError, SwapSubsystem
from repro.storage.ssd import SSDModel


class TestPageCache:
    def test_miss_then_hit(self):
        cache = PageCache(1 * MB)
        assert not cache.lookup(1, 0)
        cache.insert(1, 0)
        assert cache.lookup(1, 0)

    def test_capacity_eviction(self):
        cache = PageCache(4 * PAGE_SIZE_4K)
        for index in range(8):
            cache.insert(1, index)
        assert [index for index in range(8) if cache.lookup(1, index)] == [4, 5, 6, 7]

    def test_populate_file(self):
        cache = PageCache(8 * MB)
        inserted = cache.populate_file(file_id=3, size_bytes=1 * MB)
        assert inserted == 256
        assert cache.lookup(3, 0)
        assert cache.lookup(3, 255)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PageCache(0)

    def test_trace_records_lookup_work(self):
        cache = PageCache(1 * MB)
        trace = KernelRoutineTrace("fault")
        cache.lookup(1, 2, trace)
        assert "page_cache_lookup" in [op.name for op in trace.ops]


class TestSwapSubsystem:
    def test_swap_out_and_in_roundtrip(self):
        swap = SwapSubsystem(16 * MB)
        swap.swap_out(pid=1, vpn=100)
        assert swap.free_slots == swap.capacity_slots - 1
        swap.swap_in(pid=1, vpn=100)
        assert swap.free_slots == swap.capacity_slots
        with pytest.raises(KeyError):
            swap.swap_in(pid=1, vpn=100)

    def test_swap_full(self):
        swap = SwapSubsystem(2 * PAGE_SIZE_4K)
        swap.swap_out(1, 1)
        swap.swap_out(1, 2)
        with pytest.raises(SwapFullError):
            swap.swap_out(1, 3)

    def test_swap_in_unknown_page_raises(self):
        swap = SwapSubsystem(1 * MB)
        with pytest.raises(KeyError):
            swap.swap_in(1, 55)

    def test_slot_reuse(self):
        swap = SwapSubsystem(2 * PAGE_SIZE_4K)
        swap.swap_out(1, 1)
        swap.swap_in(1, 1)
        swap.swap_out(1, 2)
        swap.swap_out(1, 3)
        assert swap.free_slots == 0
        swap.swap_in(1, 2)
        swap.swap_in(1, 3)

    def test_ssd_latency_accumulates(self):
        ssd = SSDModel(SSDConfig())
        swap = SwapSubsystem(16 * MB, ssd=ssd)
        latency = swap.swap_out(1, 1)
        assert latency > 0
        assert swap.swap_cycles == latency

    def test_swap_cache_lookup(self):
        swap = SwapSubsystem(16 * MB)
        trace = KernelRoutineTrace("fault")
        assert not swap.lookup_swap_cache(1, 9, trace)
        swap.swap_out(1, 9)
        assert swap.lookup_swap_cache(1, 9, trace)
        assert swap.counters.get("swap_cache_lookups") == 2


class TestHugeTLBFS:
    def test_reserve_and_allocate(self):
        buddy = BuddyAllocator(64 * MB)
        pool = HugeTLBFS(buddy, reserved_bytes=8 * MB)
        assert pool.reserved_pages == 4
        page = pool.allocate()
        assert page is not None and page % PAGE_SIZE_2M == 0
        assert [pool.allocate() is not None for _ in range(4)] == [True] * 3 + [False]

    def test_empty_pool_returns_none(self):
        buddy = BuddyAllocator(64 * MB)
        pool = HugeTLBFS(buddy)
        assert pool.allocate() is None

    def test_free_returns_page_to_pool(self):
        buddy = BuddyAllocator(64 * MB)
        pool = HugeTLBFS(buddy, reserved_bytes=2 * MB)
        page = pool.allocate()
        pool.free(page)
        assert pool.allocate() == page

    def test_reserve_bounded_by_memory(self):
        buddy = BuddyAllocator(8 * MB)
        pool = HugeTLBFS(buddy)
        reserved = pool.reserve(100)
        assert reserved == 4


class TestSSDModel:
    def test_read_write_latency_difference(self):
        ssd = SSDModel(SSDConfig(read_latency_us=60, write_latency_us=15))
        read = ssd.read(0)
        write = ssd.write(1)
        assert read.latency_cycles > write.latency_cycles

    def test_queueing_delay_builds_up(self):
        ssd = SSDModel(SSDConfig(channels=1))
        first = ssd.read(0, now_cycles=0)
        second = ssd.read(0, now_cycles=0)
        assert second.queue_delay_cycles > 0
        assert second.latency_cycles > first.latency_cycles

    def test_channel_striping(self):
        ssd = SSDModel(SSDConfig(channels=4))
        channels = {ssd.read(block).channel for block in range(4)}
        assert channels == {0, 1, 2, 3}

    def test_stats(self):
        ssd = SSDModel(SSDConfig())
        ssd.read(0)
        ssd.write(0)
        assert (ssd.counters.get("reads"), ssd.counters.get("writes")) == (1, 1)
