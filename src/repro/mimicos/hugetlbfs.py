"""hugetlbfs: a reserved pool of huge pages for explicit huge-page mappings.

Linux's hugetlbfs pre-reserves huge pages at boot (or via sysfs) so that an
application that explicitly requests huge pages through ``mmap(MAP_HUGETLB)``
or ``shmget(SHM_HUGETLB)`` is guaranteed to get them.  MimicOS's page-fault
handler checks hugetlbfs first (Fig. 6, step 1): a fault inside a hugetlb
VMA is served directly from this pool and skips the buddy allocator.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.addresses import PAGE_SIZE_2M
from repro.common.stats import Counter
from repro.mimicos.buddy import ORDER_2M, BuddyAllocator, OutOfMemoryError
from repro.mimicos.ops import KernelRoutineTrace


class HugeTLBFS:
    """A pool of pre-reserved 2 MB pages."""

    def __init__(self, buddy: BuddyAllocator, reserved_bytes: int = 0):
        self.buddy = buddy
        self.counters = Counter()
        self._free_pool: List[int] = []
        self._reserved_pages = 0
        if reserved_bytes > 0:
            self.reserve(reserved_bytes // PAGE_SIZE_2M)

    def reserve(self, pages: int) -> int:
        """Reserve ``pages`` 2 MB pages from the buddy allocator; returns how many succeeded."""
        reserved = 0
        for _ in range(pages):
            try:
                result = self.buddy.allocate(ORDER_2M)
            except OutOfMemoryError:
                break
            self._free_pool.append(result.address)
            reserved += 1
        self._reserved_pages += reserved
        self.counters.add("reserved_pages", reserved)
        return reserved

    @property
    def reserved_pages(self) -> int:
        """Total huge pages ever reserved into the pool."""
        return self._reserved_pages

    def allocate(self, trace: Optional[KernelRoutineTrace] = None) -> Optional[int]:
        """Hand out one reserved 2 MB page (None if the pool is empty)."""
        if trace is not None and trace.recording:
            op = trace.new_op("hugetlb_alloc", work_units=2)
            op.touch(0xFFFF_8B00_0000_0000, is_write=True)
        if not self._free_pool:
            self.counters.add("pool_empty")
            return None
        self.counters.add("allocations")
        return self._free_pool.pop()

    def free(self, address: int, trace: Optional[KernelRoutineTrace] = None) -> None:
        """Return a huge page to the pool (it stays reserved)."""
        self._free_pool.append(address)
        self.counters.add("frees")
        if trace is not None:
            trace.new_op("hugetlb_free", work_units=1)

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
