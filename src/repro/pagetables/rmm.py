"""RMM: Redundant Memory Mappings — range translation with eager paging.

RMM (Karakostas et al., ISCA 2015) adds a *range translation* path next to
the conventional radix page table.  The OS side uses **eager paging**: on a
fault, instead of allocating a single page, it allocates the largest
available contiguous physical block (up to a maximum order) and maps the
whole virtual range onto it, recording the range in a per-process range
table (a B-tree).  The hardware side adds a **Range Lookaside Buffer (RLB)**
probed in parallel with the L2 TLB: an RLB hit translates the address with
simple arithmetic and *no* page-table access at all, which is why Fig. 21
shows RMM eliminating ~90 % of the DRAM row-buffer conflicts caused by
translation metadata even at high fragmentation.

The radix page table is still maintained redundantly so that unmapped or
fragmented corners of the address space fall back to a normal walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_4K, align_down
from repro.common.lru import RangeCache
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import (
    FaultAllocation,
    MemoryInterface,
    PageTableBase,
    TranslationMapping,
    WalkResult,
)
from repro.pagetables.radix import RadixPageTable

#: Bytes per range-table (B-tree) node.
RANGE_NODE_SIZE = 64


@dataclass
class VirtualRange:
    """One contiguous virtual-to-physical range mapping."""

    virtual_start: int
    virtual_end: int  # exclusive
    physical_start: int

    def contains(self, virtual_address: int) -> bool:
        return self.virtual_start <= virtual_address < self.virtual_end

    def translate(self, virtual_address: int) -> int:
        return self.physical_start + (virtual_address - self.virtual_start)


class RangeLookasideBuffer(RangeCache):
    """The RLB: a small fully-associative cache of ranges (64 entries, 9 cycles)."""

    def invalidate(self, virtual_start: int) -> None:
        """Drop the cached range starting at ``virtual_start`` (range shootdown)."""
        if self._ranges.pop(virtual_start, None) is not None:
            del self._recency[virtual_start]


class RangeMemoryMapping(PageTableBase):
    """RMM: range table + RLB + redundant radix page table, with eager paging."""

    kind = "rmm"
    overrides_allocation = True

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 rlb_entries: int = 64, rlb_latency: int = 9,
                 eager_paging_max_order: int = 18,
                 range_table_base: Optional[int] = None):
        super().__init__(frame_allocator)
        self._c_rlb_hits = self.counters.hot("rlb_hits")
        self._c_range_table_walks = self.counters.hot("range_table_walks")
        self.radix = RadixPageTable(self.frame_allocator)
        self.rlb = RangeLookasideBuffer(rlb_entries, rlb_latency)
        self.eager_paging_max_order = eager_paging_max_order
        self.range_table_base = (range_table_base if range_table_base is not None
                                 else self.frame_allocator(None))
        #: Sorted-by-start list of ranges per pid is overkill here: a flat list
        #: with binary-search-free linear fallback keeps the model simple and
        #: the range count is small by construction (eager paging).
        self._ranges: List[VirtualRange] = []

    # ------------------------------------------------------------------ #
    # Allocation override: eager paging
    # ------------------------------------------------------------------ #
    def allocate_for_fault(self, pid: int, virtual_address: int, vma,
                           buddy, trace: Optional[KernelRoutineTrace] = None) -> FaultAllocation:
        """Allocate the largest free contiguous block covering the fault.

        The block is bounded by (i) the eager-paging maximum order, (ii) the
        largest free block the buddy allocator has (fragmentation!), and
        (iii) the portion of the VMA after the faulting page that no live
        range or mapping covers yet: a page covered twice would translate to
        two frames.
        """
        fault_page = align_down(virtual_address, PAGE_SIZE_4K)
        limit = min([vma.end] + [r.virtual_start for r in self._ranges
                                 if r.virtual_start > fault_page])

        order = min(self.eager_paging_max_order, buddy.max_order)
        while order > 0:
            block_bytes = PAGE_SIZE_4K << order
            if (block_bytes <= limit - fault_page and buddy.has_block(order)
                    and not self.maps_any(fault_page + PAGE_SIZE_4K,
                                          block_bytes - PAGE_SIZE_4K)):
                break
            order -= 1

        result = buddy.allocate(order, trace)
        block_bytes = PAGE_SIZE_4K << order
        self.counters.add("eager_allocations")
        self.counters.add("eager_allocated_bytes", block_bytes)

        # Record the range (OS side) so the hardware can use range translation.
        new_range = VirtualRange(virtual_start=fault_page,
                                 virtual_end=fault_page + block_bytes,
                                 physical_start=result.address)
        self._ranges.append(new_range)
        if trace is not None and trace.recording:
            op = trace.new_op("rmm_range_insert", work_units=8 + order)
            op.touch(self._range_node_address(len(self._ranges)), is_write=True)

        return FaultAllocation(address=result.address, page_size=PAGE_SIZE_4K,
                               zeroing_bytes=block_bytes)

    def covering_range(self, virtual_address: int) -> Optional[VirtualRange]:
        """The eager-paging range covering ``virtual_address`` (functional)."""
        for entry in self._ranges:
            if entry.contains(virtual_address):
                return entry
        return None

    # ------------------------------------------------------------------ #
    # Structure updates (redundant radix entries)
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        self.radix.insert(virtual_base, physical_base, page_size, trace)

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        self.radix.remove(mapping.virtual_base, trace)
        dead = [r for r in self._ranges if r.contains(mapping.virtual_base)]
        if dead:
            self._ranges = [r for r in self._ranges
                            if not r.contains(mapping.virtual_base)]
            # A dropped range must leave the RLB too, or the hardware keeps
            # translating through it after the OS tore it down; and the TLBs
            # hold 4 KB translations of every page it covered.
            for entry in dead:
                self.rlb.invalidate(entry.virtual_start)
                if self.shootdown is not None:
                    self.shootdown(entry.virtual_start,
                                   entry.virtual_end - entry.virtual_start)

    def lookup(self, virtual_address: int) -> Optional[Tuple[int, int]]:
        """Functional lookup: consult both the base mappings and the ranges."""
        direct = super().lookup(virtual_address)
        if direct is not None:
            return direct
        covering = self.covering_range(virtual_address)
        if covering is not None:
            page_base = align_down(virtual_address, PAGE_SIZE_4K)
            return covering.translate(page_base), PAGE_SIZE_4K
        return None

    # ------------------------------------------------------------------ #
    # Hardware walk
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """RLB probe; on a miss, walk the range table, then fall back to radix."""
        self._c_walks[0] += 1

        cached = self.rlb.lookup(virtual_address)
        if cached is not None:
            self._c_rlb_hits[0] += 1
            self._c_walk_hits[0] += 1
            page_base = align_down(virtual_address, PAGE_SIZE_4K)
            return WalkResult(found=True, latency=self.rlb.latency, memory_accesses=0,
                              physical_base=cached.translate(page_base),
                              page_size=PAGE_SIZE_4K)

        latency = self.rlb.latency
        accesses = 0
        covering = self.covering_range(virtual_address)
        if covering is not None:
            # Range-table walk: a B-tree descent of depth ~log_8(#ranges).
            depth = max(1, (max(1, len(self._ranges)).bit_length() + 2) // 3)
            for level in range(depth):
                latency += memory.access_value(self._range_node_address(level), False,
                                               "translation")
                accesses += 1
            self.rlb.fill(covering)
            self._c_range_table_walks[0] += 1
            self._c_walk_hits[0] += 1
            self._c_walk_memory_accesses[0] += accesses
            page_base = align_down(virtual_address, PAGE_SIZE_4K)
            return WalkResult(found=True, latency=latency, memory_accesses=accesses,
                              physical_base=covering.translate(page_base),
                              page_size=PAGE_SIZE_4K)

        # No range covers the address: conventional radix walk.
        radix_result = self.radix.walk(virtual_address, memory)
        radix_result.latency += latency
        radix_result.memory_accesses += accesses
        if radix_result.found:
            self._c_walk_hits[0] += 1
        else:
            self._c_walk_faults[0] += 1
        self._c_walk_memory_accesses[0] += radix_result.memory_accesses
        return radix_result

    def _range_node_address(self, level: int) -> int:
        return self.range_table_base + level * RANGE_NODE_SIZE

