"""khugepaged: the background daemon that collapses 4 KB pages into 2 MB pages.

When the Linux-like THP policy cannot serve a fault with a huge page it
falls back to a 4 KB page and notifies khugepaged.  khugepaged later scans
the hinted 2 MB regions (Fig. 6, "KHugePage Scanning"), and when a region
has enough resident small pages and a free 2 MB physical block exists, it
collapses the region: allocate the huge block, copy the resident pages,
rewrite the page table and free the old frames.  The scan itself and the
copies are recorded as kernel work so collapse activity shows up as latency
and memory interference, exactly like the real daemon.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.stats import Counter
from repro.mimicos.buddy import ORDER_2M, BuddyAllocator, OutOfMemoryError
from repro.mimicos.ops import KernelRoutineTrace


@dataclass
class CollapseResult:
    """Outcome of one khugepaged scan invocation."""

    regions_scanned: int = 0
    regions_collapsed: int = 0
    pages_copied: int = 0
    trace: Optional[KernelRoutineTrace] = None


class Khugepaged:
    """The huge-page collapse daemon.

    The daemon is driven by the kernel: :meth:`enqueue_hint` is called by the
    fault path, and :meth:`scan` is invoked periodically (every
    ``scan_interval_faults`` minor faults) by :class:`~repro.mimicos.kernel.MimicOS`.
    """

    PAGES_PER_REGION = PAGE_SIZE_2M // PAGE_SIZE_4K

    def __init__(self, buddy: BuddyAllocator, min_present_pages: int = 64,
                 max_regions_per_scan: int = 8,
                 tlb_shootdown: Optional[Callable[[int, int], None]] = None):
        self.buddy = buddy
        self.min_present_pages = min_present_pages
        self.max_regions_per_scan = max_regions_per_scan
        #: Hardware invalidation hook ``(pid, vaddr)``: a collapse rewrites
        #: live translations (4 KB pages move into a fresh 2 MB frame), so
        #: every removed page must be shot down from the TLBs or a core
        #: would keep translating to the freed small frames.
        self.tlb_shootdown = tlb_shootdown
        self._hints: Deque[Tuple[int, int]] = deque()
        self._hinted: set = set()
        self.counters = Counter()

    def enqueue_hint(self, pid: int, region_va: int) -> None:
        """Record that a 2 MB region may be worth collapsing."""
        key = (pid, region_va)
        if key in self._hinted:
            return
        self._hinted.add(key)
        self._hints.append(key)
        self.counters.add("hints")

    def scan(self, page_tables: Dict[int, object],
             max_regions: Optional[int] = None) -> CollapseResult:
        """Scan up to ``max_regions`` hinted regions and collapse eligible ones.

        ``page_tables`` maps pid -> page-table object exposing ``lookup``,
        ``remove`` and ``insert`` (the interface of
        :class:`repro.pagetables.base.PageTableBase`).
        """
        limit = max_regions if max_regions is not None else self.max_regions_per_scan
        trace = KernelRoutineTrace(routine="khugepaged_scan")
        result = CollapseResult(trace=trace)

        while self._hints and result.regions_scanned < limit:
            pid, region_va = self._hints.popleft()
            self._hinted.discard((pid, region_va))
            page_table = page_tables.get(pid)
            if page_table is None:
                continue
            result.regions_scanned += 1
            self.counters.add("regions_scanned")
            copied = self._try_collapse(pid, region_va, page_table, trace)
            if copied is not None:
                result.regions_collapsed += 1
                result.pages_copied += copied
                self.counters.add("regions_collapsed")
                self.counters.add("pages_copied", copied)
        return result

    def _try_collapse(self, pid: int, region_va: int, page_table: object,
                      trace: KernelRoutineTrace) -> Optional[int]:
        """Attempt to collapse one region; returns pages copied or None."""
        scan_op = trace.new_op("khugepaged_region_scan", work_units=self.PAGES_PER_REGION)
        present: Dict[int, int] = {}
        for index in range(self.PAGES_PER_REGION):
            vaddr = region_va + index * PAGE_SIZE_4K
            mapping = page_table.lookup(vaddr)
            if mapping is None:
                continue
            physical, size = mapping
            if size != PAGE_SIZE_4K:
                # Already huge (or larger): nothing to collapse.
                return None
            present[vaddr] = physical
            scan_op.touch(physical, is_write=False)

        if len(present) < self.min_present_pages:
            self.counters.add("regions_skipped_sparse")
            return None
        if not self.buddy.has_block(ORDER_2M):
            self.counters.add("regions_skipped_no_memory")
            return None

        try:
            huge = self.buddy.allocate(ORDER_2M, trace)
        except OutOfMemoryError:
            self.counters.add("regions_skipped_no_memory")
            return None

        copy_op = trace.new_op("khugepaged_copy", work_units=len(present) * 8)
        for index, (vaddr, old_physical) in enumerate(sorted(present.items())):
            offset = vaddr - region_va
            copy_op.touch(old_physical, is_write=False)
            copy_op.touch(huge.address + offset, is_write=True)
            page_table.remove(vaddr)
            if self.tlb_shootdown is not None:
                self.tlb_shootdown(pid, vaddr)
            try:
                self.buddy.free(old_physical)
            except ValueError:
                # The frame came from a reservation block the policy still owns.
                pass

        page_table.insert(region_va, huge.address, PAGE_SIZE_2M, trace)
        return len(present)

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
