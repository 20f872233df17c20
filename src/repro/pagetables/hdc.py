"""HDC: the global open-addressing hashed page table of Yaniv & Tsafrir.

"Hash, Don't Cache (the page table)" proposes a single, global,
open-addressing hash table sized as a fraction of physical memory (4 GB in
Table 4) with clustered entries holding several PTEs each.  A translation
is usually one memory access: hash the VPN, read the bucket; collisions are
resolved by linear probing to the next bucket.

Because the table is allocated in one large physical chunk at boot, minor
page faults never allocate page-table frames — the source of the
minor-fault latency advantage over Radix shown in Fig. 15.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import MemoryInterface, PageTableBase, TranslationMapping, WalkResult
from repro.pagetables.hashing import bucket_index

#: Bytes per hash bucket (a cluster of PTEs plus a tag).
BUCKET_SIZE = 64


class OpenAddressingHashPageTable(PageTableBase):
    """Global open-addressing hashed page table (HDC)."""

    kind = "hdc"

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 table_size_bytes: int = 4 << 30, ptes_per_entry: int = 8,
                 table_base_address: Optional[int] = None,
                 max_probe_length: int = 64):
        super().__init__(frame_allocator)
        # Every walk counts its memory accesses, 0 with max_probe_length 0.
        self.counters.hot("walk_memory_accesses", zero_with="walks")
        self.ptes_per_entry = ptes_per_entry
        self.num_buckets = max(1, table_size_bytes // BUCKET_SIZE)
        self.table_base_address = (table_base_address if table_base_address is not None
                                   else self.frame_allocator(None))
        self.max_probe_length = max_probe_length
        #: bucket index -> key (virtual base, page size) stored there.
        self._buckets: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    # Structure updates
    # ------------------------------------------------------------------ #
    def _key(self, virtual_base: int, page_size: int) -> int:
        # Buckets are *clustered*: one bucket holds the PTEs of
        # ``ptes_per_entry`` consecutive pages (the HDC design), so the
        # bucket footprint scales with footprint/8 rather than one bucket
        # per page.
        cluster = virtual_base // (page_size * self.ptes_per_entry)
        return cluster * 8 + page_size.bit_length()

    def _bucket_address(self, index: int) -> int:
        return self.table_base_address + index * BUCKET_SIZE

    def _probe_sequence(self, key: int):
        start = bucket_index(key, self.num_buckets)
        for offset in range(self.max_probe_length):
            yield (start + offset) % self.num_buckets

    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        key = self._key(virtual_base, page_size)
        op = (trace.new_op("hdc_insert", work_units=1)
              if trace is not None and trace.recording else None)
        for probes, index in enumerate(self._probe_sequence(key), start=1):
            occupant = self._buckets.get(index)
            if op is not None:
                op.touch(self._bucket_address(index), is_write=occupant is None)
            if occupant is None or occupant == key:
                self._buckets[index] = key
                self.counters.add("insert_probes", probes)
                if op is not None:
                    op.work_units += probes
                return
        self.counters.add("insert_overflows")
        # Overflow: fall back to storing at the home bucket (evicting the
        # occupant from the structure, though the functional mapping in the
        # base class keeps correctness).
        home = bucket_index(key, self.num_buckets)
        self._buckets[home] = key

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        # The bucket is shared by the whole cluster, so it stays in place
        # until the table is rebuilt; only the removal work is charged.
        key = self._key(mapping.virtual_base, mapping.page_size)
        if trace is not None and trace.recording:
            op = trace.new_op("hdc_remove", work_units=2)
            op.touch(self._bucket_address(bucket_index(key, self.num_buckets)), is_write=True)

    # ------------------------------------------------------------------ #
    # Hardware walk
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """Probe buckets for each supported page size (largest first)."""
        self._c_walks[0] += 1
        latency = 0
        accesses = 0
        # Probe only page sizes with live mappings (the base class shrinks
        # the set on removal, so unmapping a size stops its probes).
        active_sizes = (self.active_page_sizes()
                        or tuple(sorted(self.SUPPORTED_PAGE_SIZES, reverse=True)))
        for page_size in active_sizes:
            virtual_base = virtual_address - (virtual_address % page_size)
            mapping = self._mappings.get(virtual_base)
            key = self._key(virtual_base, page_size)
            for index in self._probe_sequence(key):
                latency += memory.access_value(self._bucket_address(index), False, "ptw")
                accesses += 1
                occupant = self._buckets.get(index)
                if occupant == key:
                    if mapping is None or mapping.page_size != page_size:
                        break
                    self._c_walk_hits[0] += 1
                    self._c_walk_memory_accesses[0] += accesses
                    return WalkResult(found=True, latency=latency, memory_accesses=accesses,
                                      physical_base=mapping.physical_base,
                                      page_size=page_size)
                if occupant is None:
                    break
        self._c_walk_faults[0] += 1
        self._c_walk_memory_accesses[0] += accesses
        return WalkResult(found=False, latency=latency, memory_accesses=accesses)
