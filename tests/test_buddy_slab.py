"""Tests for the buddy and slab physical-memory allocators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.kernelops import KernelRoutineTrace
from repro.mimicos.buddy import ORDER_1G, ORDER_2M, BuddyAllocator, OutOfMemoryError
from repro.mimicos.slab import SlabAllocator, SlabCache


def allocated_bytes(buddy):
    return buddy.total_bytes - buddy.free_bytes


class TestBuddyAllocator:
    def test_initial_state_all_free(self, buddy):
        assert buddy.free_bytes == buddy.total_bytes
        assert allocated_bytes(buddy) == 0
        assert buddy.usage == 0.0

    def test_allocate_order_zero(self, buddy):
        result = buddy.allocate(0)
        assert result.order == 0
        assert allocated_bytes(buddy) == PAGE_SIZE_4K
        assert result.address % PAGE_SIZE_4K == 0

    def test_allocate_2mb_alignment(self, buddy):
        result = buddy.allocate(ORDER_2M)
        assert result.address % PAGE_SIZE_2M == 0
        assert allocated_bytes(buddy) == PAGE_SIZE_2M

    def test_allocation_splits_larger_blocks(self, buddy):
        result = buddy.allocate(0)
        assert result.splits > 0

    def test_free_and_coalesce_restores_state(self, buddy):
        addresses = [buddy.allocate(0).address for _ in range(64)]
        for address in addresses:
            buddy.free(address)
        assert buddy.free_bytes == buddy.total_bytes
        assert buddy.free_blocks_at_least(ORDER_2M) == buddy.total_bytes // PAGE_SIZE_2M

    def test_double_free_rejected(self, buddy):
        address = buddy.allocate(0).address
        buddy.free(address)
        with pytest.raises(ValueError):
            buddy.free(address)

    def test_free_unknown_address_rejected(self, buddy):
        with pytest.raises(ValueError):
            buddy.free(0xDEADBEEF)

    def test_out_of_memory(self):
        tiny = BuddyAllocator(16 * PAGE_SIZE_4K, max_order=4)
        for _ in range(16):
            tiny.allocate(0)
        with pytest.raises(OutOfMemoryError):
            tiny.allocate(0)

    def test_invalid_order(self, buddy):
        with pytest.raises(ValueError):
            buddy.allocate(-1)
        with pytest.raises(ValueError):
            buddy.allocate(buddy.max_order + 1)

    def test_fragmentation_metric_decreases_with_allocations(self, buddy):
        initial = buddy.fraction_free_huge_blocks()
        assert initial == pytest.approx(1.0)
        for _ in range(16):
            buddy.allocate(ORDER_2M)
        assert buddy.fraction_free_huge_blocks() < initial

    def test_has_block(self, buddy):
        assert buddy.has_block(ORDER_2M)
        assert buddy.has_block(0)

    def test_free_lists_hold_every_free_byte(self, buddy):
        buddy.allocate(0)
        segments = [PAGE_SIZE_4K << order
                    for order, blocks in buddy._free_lists.items() for _ in blocks]
        assert sum(segments) == buddy.free_bytes == buddy.total_bytes - PAGE_SIZE_4K
        assert max(segments) == buddy.total_bytes // 2

    def test_trace_records_kernel_work(self, buddy):
        trace = KernelRoutineTrace("alloc")
        buddy.allocate(0, trace)
        assert any(op.name == "buddy_alloc" for op in trace.ops)
        assert sum(len(op.memory_touches) for op in trace.ops) > 0

    def test_buddy_address_never_overlaps(self, buddy):
        seen = set()
        for _ in range(200):
            address = buddy.allocate(0).address
            assert address not in seen
            seen.add(address)

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_alloc_free_roundtrip_property(self, orders):
        buddy = BuddyAllocator(64 * MB)
        allocated = []
        for order in orders:
            allocated.append((buddy.allocate(order).address, order))
        used = sum(PAGE_SIZE_4K << order for _, order in allocated)
        assert allocated_bytes(buddy) == used
        for address, _ in allocated:
            buddy.free(address)
        assert buddy.free_bytes == buddy.total_bytes

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_blocks_never_overlap_property(self, orders):
        buddy = BuddyAllocator(64 * MB)
        intervals = []
        for order in orders:
            result = buddy.allocate(order)
            size = PAGE_SIZE_4K << order
            intervals.append((result.address, result.address + size))
        intervals.sort()
        for (start_a, end_a), (start_b, _) in zip(intervals, intervals[1:]):
            assert end_a <= start_b


class TestSlabAllocator:
    def test_pt_frame_allocation(self, buddy):
        slab = SlabAllocator(buddy)
        frame = slab.allocate_pt_frame()
        assert frame % PAGE_SIZE_4K == 0
        assert allocated_bytes(buddy) == PAGE_SIZE_4K

    def test_small_objects_share_a_slab(self, buddy):
        slab = SlabAllocator(buddy)
        cache = slab.cache("vma", 64)
        objects = [cache.allocate() for _ in range(10)]
        assert len(set(objects)) == 10
        assert allocated_bytes(buddy) == PAGE_SIZE_4K  # one backing page

    def test_free_and_reuse(self, buddy):
        slab = SlabAllocator(buddy)
        cache = slab.cache("obj", 128)
        first = cache.allocate()
        cache.free(first)
        assert cache.allocate() == first

    def test_free_unknown_object_rejected(self, buddy):
        cache = SlabAllocator(buddy).cache("obj", 128)
        with pytest.raises(ValueError):
            cache.free(0x1234)

    def test_cache_size_conflict_rejected(self, buddy):
        slab = SlabAllocator(buddy)
        slab.cache("obj", 128)
        with pytest.raises(ValueError):
            slab.cache("obj", 256)

    def test_invalid_object_size(self, buddy):
        with pytest.raises(ValueError):
            SlabCache("bad", 8192, buddy)

    def test_refill_allocates_new_backing_page(self, buddy):
        slab = SlabAllocator(buddy)
        cache = slab.cache("pt_frame", PAGE_SIZE_4K)
        cache.allocate()
        cache.allocate()
        assert allocated_bytes(buddy) == 2 * PAGE_SIZE_4K
        assert cache.counters.get("slab_refills") == 2

    def test_trace_records_refill_work(self, buddy):
        slab = SlabAllocator(buddy)
        trace = KernelRoutineTrace("fault")
        slab.allocate_pt_frame(trace)
        names = [op.name for op in trace.ops]
        assert "slab_alloc_pt_frame" in names
        assert "buddy_alloc" in names

    def test_allocated_object_count(self, buddy):
        cache = SlabAllocator(buddy).cache("obj", 512)
        handles = [cache.allocate() for _ in range(5)]
        assert cache.counters.get("allocations") == 5
        cache.free(handles[0])
        assert cache.counters.get("allocations") - cache.counters.get("frees") == 4
