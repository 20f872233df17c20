"""The MimicOS page-fault handler: the Fig. 6 flow of the paper.

``do_page_fault`` imitates the Linux fault path:

1. Find the VMA covering the faulting address (segfault if none).
2. hugetlbfs VMAs are served from the reserved huge-page pool.
3. If the PTE already exists but the page was swapped out, swap it back in.
4. If the translation scheme overrides allocation (Utopia, RMM eager paging,
   direct segments), ask it for the frame; any pages it evicts are swapped out.
5. Otherwise try a 1 GB page (DAX / file-backed VMAs with the right flags and
   a free contiguous gigabyte), then the THP policy for anonymous VMAs, then
   the page-cache / disk path for file-backed VMAs.
6. Zero (or fetch) the page, update the page table and, when asked, notify
   khugepaged.

Every step appends :class:`~repro.mimicos.ops.KernelOp` records, so the
fault's *latency is not a constant*: it depends on the allocator state, the
policy, the page size, zeroing, PT update depth and any disk I/O — exactly
the variability Figs. 2, 15 and 16 measure.

A caller that wants only the fault's side effects (pre-faulting before the
measured region) passes a :class:`~repro.mimicos.ops.DiscardedTrace`.  The
handler then takes the same path and leaves the same allocator, page-table,
residency and kernel-address state.  Every step checks ``trace.recording``
and, under a discarded trace, builds no op and computes no touch address
whose only effect is the touch it records; the kernel-address regions are
still reserved at the same calls.  The per-fault counters are hot cells
(:meth:`~repro.common.stats.Counter.hot`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.addresses import (
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    align_down,
    page_number,
)
from repro.common.stats import Counter
from repro.mimicos.buddy import ORDER_1G, ORDER_2M, BuddyAllocator, OutOfMemoryError
from repro.mimicos.hugetlbfs import HugeTLBFS
from repro.mimicos.khugepaged import Khugepaged
from repro.mimicos.ops import KernelRoutineTrace
from repro.mimicos.page_cache import PageCache
from repro.mimicos.process import Process
from repro.mimicos.slab import SlabAllocator
from repro.mimicos.swap import SwapSubsystem
from repro.mimicos.thp import THPAllocation, THPPolicyBase
from repro.mimicos.vma import VMAKind, VMANotFoundError, VirtualMemoryArea


@dataclass
class PageFaultResult:
    """Everything the simulator needs to know about one handled fault."""

    virtual_address: int
    physical_base: int = 0
    page_size: int = PAGE_SIZE_4K
    is_major: bool = False
    segfault: bool = False
    #: The kernel work performed; expanded into an instruction stream.
    trace: KernelRoutineTrace = field(default_factory=lambda: KernelRoutineTrace("do_page_fault"))
    #: Disk latency (swap-in / page-cache miss / swap-outs forced by this fault).
    disk_latency_cycles: int = 0
    #: Pages swapped out as a side effect of this fault.
    swapped_out_pages: int = 0
    #: True if the allocation fell back from a huge to a small page.
    fallback: bool = False


class PageFaultHandler:
    """Imitation of the Linux page-fault path (``__do_page_fault``)."""

    def __init__(self, buddy: BuddyAllocator, slab: SlabAllocator,
                 hugetlbfs: HugeTLBFS, page_cache: PageCache, swap: SwapSubsystem,
                 thp_policy: THPPolicyBase, khugepaged: Khugepaged,
                 zeroing_bytes_per_cycle: int = 64,
                 tlb_shootdown: Optional[Callable[[int, int], None]] = None):
        self.buddy = buddy
        self.slab = slab
        self.hugetlbfs = hugetlbfs
        self.page_cache = page_cache
        self.swap = swap
        self.thp_policy = thp_policy
        self.khugepaged = khugepaged
        self.zeroing_bytes_per_cycle = zeroing_bytes_per_cycle
        #: Hardware invalidation hook ``(pid, vaddr)`` for the two fault
        #: sub-paths that unmap *other* live pages: THP reservation
        #: promotion (4 KB PTEs replaced by one 2 MB PTE) and
        #: restrictive-mapping evictions (a victim page swapped out to make
        #: room for the faulting one).
        self.tlb_shootdown = tlb_shootdown
        self.counters = Counter()
        self._c_page_faults = self.counters.hot("page_faults")
        self._c_minor_faults = self.counters.hot("minor_faults")
        #: page size -> hot cell of its ``faults_<size>kb`` counter.
        self._c_faults_by_size = {size: self.counters.hot(f"faults_{size >> 10}kb")
                                  for size in (PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G)}

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def handle(self, process: Process, virtual_address: int, now_cycles: int = 0,
               trace: Optional[KernelRoutineTrace] = None,
               unmapped: bool = False) -> PageFaultResult:
        """Handle one page fault for ``process`` at ``virtual_address``.

        The kernel work is recorded into ``trace`` (default: a fresh
        ``do_page_fault`` trace), which becomes ``result.trace``.
        ``unmapped`` says the caller has just looked the address up in the
        process's page table and found no mapping, so the handler does not
        look it up again.
        """
        result = (PageFaultResult(virtual_address=virtual_address) if trace is None
                  else PageFaultResult(virtual_address=virtual_address, trace=trace))
        trace = result.trace
        if trace.recording:
            trace.new_op("fault_entry", work_units=12)
        self._c_page_faults[0] += 1

        # 1. Find the VMA.
        try:
            vma = process.vmas.find_or_fault(virtual_address, trace)
        except VMANotFoundError:
            result.segfault = True
            self.counters.add("segfaults")
            trace.new_op("deliver_sigsegv", work_units=32)
            return result

        page_table = process.page_table

        # 2. hugetlbfs path (explicitly requested huge pages).
        if vma.kind == VMAKind.HUGETLB:
            return self._handle_hugetlb(process, vma, virtual_address, result)

        # 3. Existing PTE: swapped-out anonymous page or write to existing mapping.
        existing = (None if unmapped or page_table is None
                    else page_table.lookup(virtual_address))
        if existing is None and self.swap.lookup_swap_cache(
                process.pid, virtual_address // PAGE_SIZE_4K, trace):
            return self._handle_swap_in(process, vma, virtual_address, now_cycles, result)

        # 4. Translation schemes that own physical allocation (Utopia, RMM, DS).
        if page_table is not None and getattr(page_table, "overrides_allocation", False):
            return self._handle_scheme_allocation(process, vma, virtual_address,
                                                  now_cycles, result)

        # 5. Conventional allocation paths.
        allocation = self._allocate_conventional(process, vma, virtual_address,
                                                 now_cycles, result)
        if allocation is None:
            return result

        self._finish_fault(process, vma, virtual_address, allocation.address,
                           allocation.page_size, allocation.zeroing_bytes, result)
        result.fallback = allocation.fallback
        if allocation.notify_khugepaged:
            self.khugepaged.enqueue_hint(process.pid, align_down(virtual_address, PAGE_SIZE_2M))
        if allocation.promoted_region_va is not None:
            self._apply_promotion(process, allocation, result)
        return result

    # ------------------------------------------------------------------ #
    # Individual paths
    # ------------------------------------------------------------------ #
    def _handle_hugetlb(self, process: Process, vma: VirtualMemoryArea,
                        virtual_address: int, result: PageFaultResult) -> PageFaultResult:
        trace = result.trace
        trace.new_op("hugetlb_fault", work_units=8)
        page = self.hugetlbfs.allocate(trace)
        if page is None:
            # Pool exhausted: fall back to a normal 2 MB buddy allocation.
            try:
                page = self.buddy.allocate(ORDER_2M, trace).address
            except OutOfMemoryError:
                result.segfault = True
                self.counters.add("hugetlb_failures")
                return result
        self.counters.add("hugetlb_faults")
        self._finish_fault(process, vma, virtual_address, page, PAGE_SIZE_2M,
                           PAGE_SIZE_2M, result)
        return result

    def _handle_swap_in(self, process: Process, vma: VirtualMemoryArea,
                        virtual_address: int, now_cycles: int,
                        result: PageFaultResult) -> PageFaultResult:
        trace = result.trace
        self.counters.add("swap_in_faults")
        result.is_major = True
        vpn = page_number(virtual_address)
        try:
            frame = self.buddy.allocate(0, trace)
        except OutOfMemoryError:
            result.segfault = True
            return result
        disk_latency = self.swap.swap_in(process.pid, vpn, now_cycles, trace)
        result.disk_latency_cycles += disk_latency
        trace.disk_latency_cycles += disk_latency
        self._finish_fault(process, vma, virtual_address, frame.address, PAGE_SIZE_4K,
                           0, result)
        return result

    def _handle_scheme_allocation(self, process: Process, vma: VirtualMemoryArea,
                                  virtual_address: int, now_cycles: int,
                                  result: PageFaultResult) -> PageFaultResult:
        trace = result.trace
        page_table = process.page_table
        allocation = page_table.allocate_for_fault(process.pid, virtual_address, vma,
                                                   self.buddy, trace)
        self.counters.add("scheme_allocations")
        # Pages evicted by a restrictive mapping must be swapped out even
        # though free memory may exist (the Fig. 20 pathology).
        for evicted_pid, evicted_va in allocation.evicted_pages:
            latency = self.swap.swap_out(evicted_pid, page_number(evicted_va),
                                         now_cycles, trace)
            result.disk_latency_cycles += latency
            trace.disk_latency_cycles += latency
            result.swapped_out_pages += 1
            if page_table is not None:
                page_table.remove(evicted_va, trace)
                if self.tlb_shootdown is not None:
                    self.tlb_shootdown(evicted_pid, evicted_va)
        self._finish_fault(process, vma, virtual_address, allocation.address,
                           allocation.page_size, allocation.zeroing_bytes, result)
        result.fallback = allocation.fallback
        return result

    def _allocate_conventional(self, process: Process, vma: VirtualMemoryArea,
                               virtual_address: int, now_cycles: int,
                               result: PageFaultResult) -> Optional[THPAllocation]:
        trace = result.trace

        # 1 GB path: DAX or file-backed VMAs with 1 GB flags and a free gigabyte.
        if (vma.kind in (VMAKind.DAX, VMAKind.FILE_BACKED) and vma.allow_1g_pages
                and self._region_fits(virtual_address, vma, PAGE_SIZE_1G)
                and self.buddy.has_block(ORDER_1G)):
            try:
                frame = self.buddy.allocate(ORDER_1G, trace)
                self.counters.add("gigabyte_faults")
                return THPAllocation(address=frame.address, page_size=PAGE_SIZE_1G,
                                     zeroing_bytes=0)
            except OutOfMemoryError:
                pass

        if vma.kind == VMAKind.ANONYMOUS:
            try:
                return self.thp_policy.on_anonymous_fault(process.pid, virtual_address,
                                                          vma, trace, process.page_table)
            except OutOfMemoryError:
                result.segfault = True
                self.counters.add("oom_faults")
                return None

        # File-backed path: allocate a 4 KB frame and consult the page cache.
        try:
            frame = self.buddy.allocate(0, trace)
        except OutOfMemoryError:
            result.segfault = True
            self.counters.add("oom_faults")
            return None
        file_id = vma.start >> 21
        page_index = (virtual_address - vma.start) // PAGE_SIZE_4K
        if not self.page_cache.lookup(file_id, page_index, trace):
            result.is_major = True
            self.counters.add("major_faults")
            disk_latency = 0
            if self.swap.ssd is not None:
                disk_latency = self.swap.ssd.read(page_index, now_cycles).latency_cycles
            else:
                disk_latency = 500_000  # a conservative fixed disk latency
            result.disk_latency_cycles += disk_latency
            trace.disk_latency_cycles += disk_latency
            self.page_cache.insert(file_id, page_index, trace)
        if trace.recording:
            copy_op = trace.new_op("copy_from_page_cache", work_units=PAGE_SIZE_4K // 256)
            copy_op.touch(frame.address, is_write=True)
        return THPAllocation(address=frame.address, page_size=PAGE_SIZE_4K, zeroing_bytes=0)

    # ------------------------------------------------------------------ #
    # Common epilogue
    # ------------------------------------------------------------------ #
    def _finish_fault(self, process: Process, vma: VirtualMemoryArea,
                      virtual_address: int, physical_base: int, page_size: int,
                      zeroing_bytes: int, result: PageFaultResult) -> None:
        trace = result.trace
        # The zero-page and bookkeeping touches are pure arithmetic on
        # ``physical_base`` (no kernel-address region is reserved), so a
        # trace that records nothing can skip the loops outright.
        if trace.recording:
            if zeroing_bytes > 0:
                zeroing_cycles = max(1, zeroing_bytes // self.zeroing_bytes_per_cycle)
                zero_op = trace.new_op("zero_page", work_units=zeroing_cycles)
                # Touch a strided sample of the zeroed region (cap the number of
                # recorded addresses; the work units carry the full cost).
                stride = max(64, zeroing_bytes // 32)
                for offset in range(0, zeroing_bytes, stride):
                    zero_op.touch(physical_base + offset, is_write=True)

            # Bookkeeping every anonymous/file fault performs regardless of the
            # allocation path: reverse-map insertion, LRU list linkage, memory
            # cgroup charging and the PTE lock round trip.
            bookkeeping = trace.new_op("fault_bookkeeping", work_units=120)
            for index in range(8):
                bookkeeping.touch(0xFFFF_8D00_0000_0000 + (physical_base >> 12) * 64
                                  + index * 8, is_write=index % 2 == 0)

        if process.page_table is not None:
            process.page_table.insert(virtual_address, physical_base, page_size, trace)

        result.physical_base = align_down(physical_base, page_size)
        result.page_size = page_size
        if trace.recording:
            trace.new_op("fault_return", work_units=8)
        if result.is_major:
            self.counters.add("resolved_major_faults")
        else:
            self._c_minor_faults[0] += 1
        self._c_faults_by_size[page_size][0] += 1
        process.fault_cell[0] += 1

    def _apply_promotion(self, process: Process, allocation: THPAllocation,
                         result: PageFaultResult) -> None:
        """Replace the 4 KB mappings of a promoted region with one 2 MB mapping."""
        trace = result.trace
        region_va = allocation.promoted_region_va
        pages = PAGE_SIZE_2M // PAGE_SIZE_4K
        removed = 0
        for index in range(pages):
            vaddr = region_va + index * PAGE_SIZE_4K
            if process.page_table.remove(vaddr, trace):
                removed += 1
                if self.tlb_shootdown is not None:
                    self.tlb_shootdown(process.pid, vaddr)
        process.page_table.insert(region_va, allocation.address, PAGE_SIZE_2M, trace)
        self.counters.add("thp_promotions")
        trace.new_op("thp_promotion_tlb_shootdown", work_units=64 + removed * 2)

    @staticmethod
    def _region_fits(virtual_address: int, vma: VirtualMemoryArea, page_size: int) -> bool:
        region_start = align_down(virtual_address, page_size)
        return region_start >= vma.start and region_start + page_size <= vma.end

    def stats(self) -> dict:
        """Raw counter snapshot."""
        return self.counters.as_dict()
