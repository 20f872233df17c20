"""The page cache: in-memory cache of file-backed pages.

On a fault over a file-backed VMA, MimicOS consults the page cache (Fig. 6,
step 7).  A hit means the data is already in memory and only the page table
needs updating; a miss means a disk access through the SSD model.  The paper
pre-populates the page cache in its motivation experiments to isolate minor
fault cost, so the cache supports explicit pre-population too.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.lru import LRU
from repro.common.stats import Counter
from repro.mimicos.ops import KernelAddressSpace, KernelRoutineTrace

#: Size of the ``page_cache_xarray`` kernel region (64 bytes per node).
_XARRAY_BYTES = 1 << 20
#: Base of the xarray nodes when no kernel address space is wired up.
_FALLBACK_XARRAY = 0xFFFF_8900_0000_0000


class PageCache:
    """An LRU cache of (file id, page index) -> cached flag.

    The simulator never stores file data; presence in the cache is all that
    matters.  Capacity is expressed in bytes and enforced with LRU eviction,
    so long-running workloads eventually experience page-cache churn.
    """

    def __init__(self, capacity_bytes: int,
                 kernel_space: Optional[KernelAddressSpace] = None):
        if capacity_bytes <= 0:
            raise ValueError("page cache capacity must be positive")
        self.capacity_pages = max(1, capacity_bytes // PAGE_SIZE_4K)
        self.kernel_space = kernel_space
        #: Base of the ``page_cache_xarray`` region (see :meth:`_reserve_xarray`).
        self._xarray_base: Optional[int] = None
        #: (file id, page index) -> True, least recently used first.
        self._pages = LRU(self.capacity_pages)
        self.counters = Counter()

    def lookup(self, file_id: int, page_index: int,
               trace: Optional[KernelRoutineTrace] = None) -> bool:
        """Return True on a page-cache hit; records the radix-tree lookup work."""
        key = (file_id, page_index)
        if trace is not None:
            if trace.recording:
                trace.new_op("page_cache_lookup", work_units=3).touch(
                    self._node_address(file_id, page_index), is_write=False)
            elif self._xarray_base is None:
                self._reserve_xarray()
        hit = key in self._pages
        if hit:
            self._pages.move_to_end(key)
            self.counters.add("hits")
        else:
            self.counters.add("misses")
        return hit

    def insert(self, file_id: int, page_index: int,
               trace: Optional[KernelRoutineTrace] = None) -> None:
        """Insert a page after it has been read from disk."""
        key = (file_id, page_index)
        if key in self._pages:
            self._pages.move_to_end(key)
            return
        if self._pages.put(key, True) is not None:
            self.counters.add("evictions")
        self.counters.add("insertions")
        if trace is not None:
            if trace.recording:
                trace.new_op("page_cache_insert", work_units=2).touch(
                    self._node_address(file_id, page_index), is_write=True)
            elif self._xarray_base is None:
                self._reserve_xarray()

    def populate_file(self, file_id: int, size_bytes: int) -> int:
        """Pre-populate the cache with every page of a file; returns pages inserted.

        Mirrors the paper's methodology of warming the page cache before the
        measured run so all faults are minor faults.
        """
        pages = max(1, size_bytes // PAGE_SIZE_4K)
        inserted = 0
        for index in range(pages):
            self.insert(file_id, index)
            inserted += 1
        return inserted

    def _reserve_xarray(self) -> Optional[int]:
        """Reserve the ``page_cache_xarray`` kernel region and cache its base
        (None without a kernel address space).

        Every traced lookup and insert calls this, recording or not, so a
        discarded trace reserves the region at the same call.
        """
        if self._xarray_base is None and self.kernel_space is not None:
            self._xarray_base = self.kernel_space.region("page_cache_xarray", _XARRAY_BYTES)
        return self._xarray_base

    def _node_address(self, file_id: int, page_index: int) -> int:
        index = file_id * 4096 + page_index
        if self.kernel_space is None:
            return _FALLBACK_XARRAY + index * 64
        return self._reserve_xarray() + index * 64 % _XARRAY_BYTES

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
