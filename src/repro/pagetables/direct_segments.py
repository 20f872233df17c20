"""Direct Segments: map one large primary region with a base/limit/offset.

Direct segments (Basu et al., ISCA 2013) add a single hardware segment
register triple (BASE, LIMIT, OFFSET) next to the TLB.  Virtual addresses
inside ``[BASE, LIMIT)`` translate by adding OFFSET with no TLB entry and no
page-table walk at all; everything else falls back to conventional paging.
The OS must back the segment with one contiguous physical region, typically
the application's primary heap.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.addresses import PAGE_SIZE_4K, align_down
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import (
    FaultAllocation,
    MemoryInterface,
    PageTableBase,
    TranslationMapping,
    WalkResult,
)
from repro.pagetables.radix import RadixPageTable


class DirectSegmentTable(PageTableBase):
    """A direct segment in front of a conventional radix page table."""

    kind = "direct_segment"
    overrides_allocation = True

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 segment_size_bytes: int = 32 << 30):
        super().__init__(frame_allocator)
        self._c_segment_hits = self.counters.hot("segment_hits")
        self.radix = RadixPageTable(self.frame_allocator)
        self.segment_size_bytes = segment_size_bytes
        # Segment registers; established lazily on the first fault of a VMA
        # large enough to justify a direct segment.
        self.segment_base: Optional[int] = None
        self.segment_limit: Optional[int] = None
        self.segment_offset: int = 0

    # ------------------------------------------------------------------ #
    # Allocation override: establish the segment for the primary VMA
    # ------------------------------------------------------------------ #
    def allocate_for_fault(self, pid: int, virtual_address: int, vma,
                           buddy, trace: Optional[KernelRoutineTrace] = None) -> FaultAllocation:
        """Back the primary VMA with one contiguous block; others use 4 KB pages."""
        if self.segment_base is None and vma.size >= (64 << 20):
            # Establish the direct segment over as much of the VMA as the
            # buddy allocator can provide contiguously.
            order = buddy.max_order
            while order > 0 and (not buddy.has_block(order)
                                 or (PAGE_SIZE_4K << order) > vma.size):
                order -= 1
            result = buddy.allocate(order, trace)
            block_bytes = PAGE_SIZE_4K << order
            self.segment_base = vma.start
            self.segment_limit = vma.start + block_bytes
            self.segment_offset = result.address - vma.start
            self.counters.add("segments_established")
            if trace is not None and trace.recording:
                trace.new_op("direct_segment_setup", work_units=64)
            return FaultAllocation(address=result.address, page_size=PAGE_SIZE_4K,
                                   zeroing_bytes=block_bytes)

        if self._in_segment(virtual_address):
            page = align_down(virtual_address, PAGE_SIZE_4K)
            return FaultAllocation(address=page + self.segment_offset,
                                   page_size=PAGE_SIZE_4K, zeroing_bytes=0)

        result = buddy.allocate(0, trace)
        return FaultAllocation(address=result.address, page_size=PAGE_SIZE_4K,
                               zeroing_bytes=PAGE_SIZE_4K, fallback=True)

    def _in_segment(self, virtual_address: int) -> bool:
        return (self.segment_base is not None and self.segment_limit is not None
                and self.segment_base <= virtual_address < self.segment_limit)

    # ------------------------------------------------------------------ #
    # Structure updates
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        if not self._in_segment(virtual_base):
            self.radix.insert(virtual_base, physical_base, page_size, trace)

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        if not self._in_segment(mapping.virtual_base):
            self.radix.remove(mapping.virtual_base, trace)

    def lookup(self, virtual_address: int):
        """Functional lookup that understands the segment region."""
        if self._in_segment(virtual_address):
            page = align_down(virtual_address, PAGE_SIZE_4K)
            return page + self.segment_offset, PAGE_SIZE_4K
        return super().lookup(virtual_address)

    # ------------------------------------------------------------------ #
    # Hardware walk
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """Segment-register check (free), else a conventional radix walk."""
        self._c_walks[0] += 1
        if self._in_segment(virtual_address):
            self._c_segment_hits[0] += 1
            self._c_walk_hits[0] += 1
            page = align_down(virtual_address, PAGE_SIZE_4K)
            return WalkResult(found=True, latency=1, memory_accesses=0,
                              physical_base=page + self.segment_offset,
                              page_size=PAGE_SIZE_4K)
        result = self.radix.walk(virtual_address, memory)
        if result.found:
            self._c_walk_hits[0] += 1
        else:
            self._c_walk_faults[0] += 1
        return result
