"""Buddy physical-page allocator, imitating Linux's zoned buddy system.

The buddy allocator manages physical memory in blocks of ``4 KB * 2**order``.
Order 0 is a 4 KB base page, order 9 a 2 MB huge page and order 18 a 1 GB
gigantic page.  Allocation splits larger blocks; freeing coalesces buddies.
The allocator also exposes the fragmentation metrics the paper's case
studies are parameterised by (fraction of free 2 MB blocks, largest free
contiguous segments).

When a :class:`~repro.mimicos.ops.KernelRoutineTrace` is supplied, every
free-list scan, split and coalesce records kernel work and memory touches so
the imitation layer can charge realistic, *variable* latency for physical
memory allocation — the core observation of Fig. 2 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.stats import Counter
from repro.mimicos.ops import KernelAddressSpace, KernelRoutineTrace

#: Order of a 2 MB block (2 MB / 4 KB = 2**9).
ORDER_2M = 9
#: Order of a 1 GB block (1 GB / 4 KB = 2**18).
ORDER_1G = 18

#: Size of the ``buddy_free_lists`` kernel region.
_FREELIST_REGION_BYTES = 1 << 20


@dataclass
class AllocationResult:
    """Outcome of a buddy allocation."""

    address: int
    order: int
    splits: int = 0
    scanned_orders: int = 0


class OutOfMemoryError(RuntimeError):
    """Raised when the buddy allocator cannot satisfy a request."""


class BuddyAllocator:
    """A binary-buddy allocator over a contiguous physical address range."""

    def __init__(self, total_bytes: int, base_address: int = 0,
                 max_order: int = ORDER_1G,
                 kernel_space: Optional[KernelAddressSpace] = None):
        if total_bytes <= 0 or total_bytes % PAGE_SIZE_4K != 0:
            raise ValueError("total_bytes must be a positive multiple of 4KB")
        self.total_bytes = total_bytes
        self.base_address = base_address
        self.max_order = max_order
        self.kernel_space = kernel_space
        #: Base of the free-list heads (64 bytes per order).  In a kernel's
        #: address space the region is reserved by the first traced
        #: allocation or free; without one, a synthetic address anchored
        #: past the managed range.
        self._freelist_base: Optional[int] = (
            None if kernel_space is not None else base_address + total_bytes)
        self.counters = Counter()
        self._c_allocations = self.counters.hot("allocations")
        self._c_allocations_by_order = [self.counters.hot(f"allocations_order_{order}")
                                        for order in range(max_order + 1)]
        # Every allocation counts its splits, 0 included.
        self._c_splits = self.counters.hot("splits", zero_with="allocations")
        # Each free list is an insertion-ordered dict used as an ordered set:
        # membership tests (coalescing) and popping the oldest block are both
        # O(1), which keeps allocation fast even with hundreds of thousands of
        # free 4 KB blocks (the fragmented-memory experiments).
        self._free_lists: Dict[int, Dict[int, None]] = {order: {} for order in range(max_order + 1)}
        #: address -> order for every currently allocated block.
        self._allocated: Dict[int, int] = {}
        self._free_bytes = 0
        self._populate_free_lists()

    # ------------------------------------------------------------------ #
    # Initial free-list population
    # ------------------------------------------------------------------ #
    def _populate_free_lists(self) -> None:
        remaining = self.total_bytes
        address = self.base_address
        while remaining > 0:
            order = self.max_order
            while order > 0 and (self._block_size(order) > remaining or
                                 (address - self.base_address) % self._block_size(order) != 0):
                order -= 1
            self._free_lists[order][address] = None
            block = self._block_size(order)
            address += block
            remaining -= block
            self._free_bytes += block

    def _block_size(self, order: int) -> int:
        return PAGE_SIZE_4K << order

    # ------------------------------------------------------------------ #
    # Allocation / free
    # ------------------------------------------------------------------ #
    def allocate(self, order: int, trace: Optional[KernelRoutineTrace] = None) -> AllocationResult:
        """Allocate one block of the given order.

        Raises :class:`OutOfMemoryError` if no block of this order (or any
        larger order that could be split) is free.
        """
        max_order = self.max_order
        if not 0 <= order <= max_order:
            raise ValueError(f"order {order} out of range [0, {max_order}]")
        free_lists = self._free_lists
        found_order = order
        while not free_lists[found_order]:
            if found_order == max_order:
                if trace is not None:
                    if self._freelist_base is None:
                        self._reserve_freelists()
                    if trace.recording:
                        self._record_allocation(trace, order, max_order, 0, 1)
                self.counters.add("allocation_failures")
                raise OutOfMemoryError(f"no free block of order >= {order}")
            found_order += 1

        free_list = free_lists[found_order]
        address = next(iter(free_list))
        del free_list[address]
        for split_order in range(found_order - 1, order - 1, -1):
            free_lists[split_order][address + (PAGE_SIZE_4K << split_order)] = None

        self._allocated[address] = order
        self._free_bytes -= PAGE_SIZE_4K << order
        splits = found_order - order
        self._c_allocations[0] += 1
        self._c_allocations_by_order[order][0] += 1
        self._c_splits[0] += splits
        scanned = found_order - order + 1
        if trace is not None:
            if self._freelist_base is None:
                self._reserve_freelists()
            if trace.recording:
                self._record_allocation(trace, order, found_order, splits, 1 + scanned + splits)
        return AllocationResult(address=address, order=order, splits=splits,
                                scanned_orders=scanned)

    def _record_allocation(self, trace: KernelRoutineTrace, order: int, last_scanned: int,
                           splits: int, work_units: int) -> None:
        """Record the ``buddy_alloc`` op: a read of every free list scanned
        from ``order`` up to ``last_scanned``, then a write of each list a
        split fed, largest first."""
        base = self._freelist_base
        touches = [(base + (scanned << 6) % _FREELIST_REGION_BYTES, False)
                   for scanned in range(order, last_scanned + 1)]
        touches += [(base + (split << 6) % _FREELIST_REGION_BYTES, True)
                    for split in range(order + splits - 1, order - 1, -1)]
        trace.new_op("buddy_alloc", work_units=work_units).memory_touches = touches

    def splinter(self, order: int = ORDER_2M) -> int:
        """Break one free block of ``order`` so it no longer exists as a unit.

        One 4 KB page of the block stays allocated (pinned) and the remainder
        is returned to the free lists as the maximal set of smaller buddies,
        so the block can no longer back a huge page while almost all of its
        capacity stays available to 4 KB allocations.  Used by the
        fragmentation controller; returns the pinned page's address.
        """
        result = self.allocate(order)
        base = result.address
        # Re-register the block as: [pinned 4 KB][free 4 KB][free 8 KB]...[free half].
        self._allocated[base] = 0
        for sub_order in range(order):
            self._free_lists[sub_order][base + (PAGE_SIZE_4K << sub_order)] = None
        self._free_bytes += self._block_size(order) - PAGE_SIZE_4K
        self.counters.add("splinters")
        return base

    def free(self, address: int, trace: Optional[KernelRoutineTrace] = None) -> None:
        """Free a previously allocated block, coalescing with free buddies."""
        if address not in self._allocated:
            raise ValueError(f"address {address:#x} was not allocated by this buddy allocator")
        order = self._allocated.pop(address)
        self._free_bytes += self._block_size(order)
        self.counters.add("frees")

        op = None
        if trace is not None:
            base = self._freelist_base
            if base is None:
                base = self._reserve_freelists()
            if trace.recording:
                op = trace.new_op("buddy_free", work_units=1)

        # Coalesce upwards while the buddy block is also free.
        while order < self.max_order:
            buddy = self._buddy_of(address, order)
            if buddy not in self._free_lists[order]:
                break
            del self._free_lists[order][buddy]
            address = min(address, buddy)
            order += 1
            self.counters.add("coalesces")
            if op is not None:
                op.work_units += 1
                op.touch(base + (order << 6) % _FREELIST_REGION_BYTES, is_write=True)
        self._free_lists[order][address] = None
        if op is not None:
            op.touch(base + (order << 6) % _FREELIST_REGION_BYTES, is_write=True)

    def _buddy_of(self, address: int, order: int) -> int:
        offset = address - self.base_address
        return self.base_address + (offset ^ self._block_size(order))

    def _reserve_freelists(self) -> int:
        """Reserve the ``buddy_free_lists`` kernel region and cache its base.

        Called by the first allocation or free that gets a trace, recording
        or not, so a discarded trace reserves the region at the same call.
        """
        base = self._freelist_base = self.kernel_space.region("buddy_free_lists",
                                                              _FREELIST_REGION_BYTES)
        return base

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def free_bytes(self) -> int:
        """Bytes currently free."""
        return self._free_bytes

    @property
    def usage(self) -> float:
        """Fraction of physical memory in use (drives the swap threshold)."""
        return (self.total_bytes - self._free_bytes) / self.total_bytes

    def has_block(self, order: int) -> bool:
        """True if a block of at least ``order`` can be allocated without failing."""
        return any(self._free_lists[o] for o in range(order, self.max_order + 1))

    def free_blocks_at_least(self, order: int) -> int:
        """Number of free blocks of order ``order``, counting larger blocks as multiple."""
        count = 0
        for o in range(order, self.max_order + 1):
            count += len(self._free_lists[o]) << (o - order)
        return count

    def fraction_free_huge_blocks(self, order: int = ORDER_2M) -> float:
        """Fraction of the physical memory's ``order``-sized slots that are free.

        This is the paper's definition of memory fragmentation for the page
        table case study: "the percentage of free 2 MB pages compared to the
        total number of 2 MB pages".
        """
        total_slots = self.total_bytes // self._block_size(order)
        if total_slots == 0:
            return 0.0
        return self.free_blocks_at_least(order) / total_slots

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
