"""Elastic Cuckoo Hash page tables (ECH, Skarlatos et al., ASPLOS 2020).

ECH keeps one elastic cuckoo hash table per page size.  Each table has
``ways`` independent hash functions ("nests"); an entry lives in exactly one
of its nests, so a lookup probes all nests — in parallel in hardware, which
makes the *latency* of a walk close to a single memory access but the
*memory traffic* equal to the number of nests (times the number of active
page-size tables).  That extra traffic is why the paper's Fig. 14 shows ECH
increasing DRAM row-buffer conflicts by ~52 % over Radix even though Fig. 13
shows it reducing total PTW latency.

Insertion is cuckoo insertion: if every nest for the key is occupied, one
occupant is relocated to one of its alternative nests, possibly cascading.
When a relocation chain exceeds a bound the table grows ("elastic" resize),
a rare but expensive event.  Cuckoo Walk Caches (CWCs) let the walker skip
probing nests that cannot contain the entry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.kernelops import KernelOp, KernelRoutineTrace
from repro.pagetables.base import MemoryInterface, PageTableBase, TranslationMapping, WalkResult
from repro.pagetables.hashing import bucket_index

#: Bytes per cuckoo bucket.
BUCKET_SIZE = 64


class _CuckooTable:
    """One elastic cuckoo hash table (for one page size)."""

    def __init__(self, ways: int, buckets_per_way: int, base_address: int):
        self.ways = ways
        self.buckets_per_way = buckets_per_way
        self.base_address = base_address
        #: One dict per way: bucket index -> virtual base stored there.
        self.nests: List[Dict[int, int]] = [dict() for _ in range(ways)]
        self.occupancy = 0

    def bucket_address(self, way: int, index: int) -> int:
        """Physical address of bucket ``index`` in nest ``way``."""
        return self.base_address + (way * self.buckets_per_way + index) * BUCKET_SIZE

    def index_for(self, key: int, way: int) -> int:
        """Bucket index of ``key`` in nest ``way``."""
        return bucket_index(key, self.buckets_per_way, salt=way + 1)

    def place(self, key: int, max_relocations: int,
              op: Optional[KernelOp] = None) -> Tuple[Optional[int], int]:
        """Cuckoo insertion of ``key``, recording its bucket touches on ``op``.

        When every nest's bucket for the key is taken, the occupant of one
        is evicted and re-inserted in turn.  Returns ``(None, relocations)``
        once every key has a bucket, or ``(key, relocations)`` with the key
        left without one when the chain exceeds ``max_relocations``.
        """
        relocations = 0
        for _ in range(max_relocations + 1):
            for way in range(self.ways):
                index = self.index_for(key, way)
                nest = self.nests[way]
                if op is not None:
                    op.touch(self.bucket_address(way, index), is_write=False)
                if index not in nest or nest[index] == key:
                    if index not in nest:
                        self.occupancy += 1
                    nest[index] = key
                    if op is not None:
                        op.touch(self.bucket_address(way, index), is_write=True)
                    return None, relocations
            # Every nest is full: displace one occupant, rotating the nests.
            way = relocations % self.ways
            index = self.index_for(key, way)
            nest = self.nests[way]
            evicted = nest[index]
            nest[index] = key
            if op is not None:
                op.touch(self.bucket_address(way, index), is_write=True)
            key = evicted
            relocations += 1
        return key, relocations

    def grow(self, keys: List[int], base_address: int, max_relocations: int) -> bool:
        """Elastic resize: double every nest into the range at
        ``base_address`` and place ``keys`` through the relocation loop.
        False if a relocation chain overflowed (some key has no bucket)."""
        self.buckets_per_way *= 2
        self.base_address = base_address
        self.nests = [dict() for _ in range(self.ways)]
        self.occupancy = 0
        return all(self.place(key, max_relocations)[0] is None for key in keys)


class ElasticCuckooPageTable(PageTableBase):
    """ECH: per-page-size elastic cuckoo hash tables with parallel nest probing."""

    kind = "ech"

    MAX_RELOCATIONS = 16

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 ways: int = 4, initial_buckets_per_way: int = 8192,
                 cwc_latency: int = 2, table_base_address: Optional[int] = None):
        super().__init__(frame_allocator)
        # Every walk counts its memory accesses, 0 with no table built yet.
        self.counters.hot("walk_memory_accesses", zero_with="walks")
        self.ways = ways
        self.cwc_latency = cwc_latency
        base = (table_base_address if table_base_address is not None
                else self.frame_allocator(None))
        self._tables: Dict[int, _CuckooTable] = {}
        self._next_table_base = base
        self._initial_buckets = initial_buckets_per_way
        #: A perfect Cuckoo Walk Cache model: remembers, per 2 MB virtual
        #: region, which page-size tables can possibly hold translations, so
        #: the walker skips the others (Table 4: "Perfect Cuckoo Walk caches").
        self._cwc_regions: Dict[int, set] = {}
        #: Live mappings per (2 MB region, page size); a *perfect* CWC must
        #: also forget a size once the region's last mapping of that size is
        #: removed, or post-unmap walks would keep probing empty tables.
        self._cwc_counts: Dict[Tuple[int, int], int] = {}

    def _table_for(self, page_size: int) -> _CuckooTable:
        table = self._tables.get(page_size)
        if table is None:
            table = _CuckooTable(self.ways, self._initial_buckets, self._next_table_base)
            self._next_table_base += self.ways * self._initial_buckets * BUCKET_SIZE * 4
            self._tables[page_size] = table
        return table

    def _key(self, virtual_base: int, page_size: int) -> int:
        return virtual_base // page_size

    # ------------------------------------------------------------------ #
    # Structure updates
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        table = self._table_for(page_size)
        key = self._key(virtual_base, page_size)
        region = virtual_base >> 21
        self._cwc_regions.setdefault(region, set()).add(page_size)
        self._cwc_counts[(region, page_size)] = \
            self._cwc_counts.get((region, page_size), 0) + 1
        op = (trace.new_op("ech_insert", work_units=2)
              if trace is not None and trace.recording else None)

        pending, relocations = table.place(key, self.MAX_RELOCATIONS, op)
        if pending is None:
            if op is not None:
                op.work_units += relocations
            self.counters.add("insert_relocations", relocations)
            return
        # Relocation chain too long: elastic resize into a fresh range, then
        # place every key and the pending one, doubling again while a
        # relocation chain overflows.
        if trace is not None and trace.recording:
            resize_op = trace.new_op("ech_resize",
                                     work_units=table.occupancy * 2 + 64)
            resize_op.touch(table.base_address, is_write=True)
        keys = [key for nest in table.nests for key in nest.values()]
        keys.append(pending)
        while True:
            self.counters.add("elastic_resizes")
            base = self._next_table_base
            self._next_table_base += table.ways * table.buckets_per_way * 2 * BUCKET_SIZE
            if table.grow(keys, base, self.MAX_RELOCATIONS):
                return

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        table = self._tables.get(mapping.page_size)
        if table is None:
            return
        key = self._key(mapping.virtual_base, mapping.page_size)
        for way in range(table.ways):
            index = table.index_for(key, way)
            if table.nests[way].get(index) == key:
                del table.nests[way][index]
                table.occupancy -= 1
                break
        region = mapping.virtual_base >> 21
        count_key = (region, mapping.page_size)
        remaining = self._cwc_counts.get(count_key, 0) - 1
        if remaining > 0:
            self._cwc_counts[count_key] = remaining
        else:
            self._cwc_counts.pop(count_key, None)
            sizes = self._cwc_regions.get(region)
            if sizes is not None:
                sizes.discard(mapping.page_size)
                if not sizes:
                    del self._cwc_regions[region]
        if trace is not None and trace.recording:
            trace.new_op("ech_remove", work_units=2)

    # ------------------------------------------------------------------ #
    # Hardware walk
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """Probe every nest of every candidate page-size table in parallel.

        Latency is the maximum of the parallel probes (plus the CWC lookup);
        memory traffic is all of them, which is what perturbs DRAM.
        """
        self._c_walks[0] += 1
        cwc_sizes = self._cwc_regions.get(virtual_address >> 21)
        candidate_sizes = sorted(cwc_sizes or self._tables.keys() or {PAGE_SIZE_4K},
                                 reverse=True)

        latency = self.cwc_latency
        accesses = 0
        max_probe_latency = 0
        result: Optional[WalkResult] = None

        for page_size in candidate_sizes:
            table = self._tables.get(page_size)
            if table is None:
                continue
            virtual_base = virtual_address - (virtual_address % page_size)
            key = self._key(virtual_base, page_size)
            mapping = self._mappings.get(virtual_base)
            for way in range(table.ways):
                index = table.index_for(key, way)
                probe_latency = memory.access_value(table.bucket_address(way, index), False, "ptw")
                accesses += 1
                max_probe_latency = max(max_probe_latency, probe_latency)
                if table.nests[way].get(index) == key and mapping is not None \
                        and mapping.page_size == page_size and result is None:
                    result = WalkResult(found=True, latency=0, memory_accesses=0,
                                        physical_base=mapping.physical_base,
                                        page_size=page_size)

        latency += max_probe_latency
        self._c_walk_memory_accesses[0] += accesses
        if result is not None:
            self._c_walk_hits[0] += 1
            result.latency = latency
            result.memory_accesses = accesses
            return result
        self._c_walk_faults[0] += 1
        return WalkResult(found=False, latency=latency, memory_accesses=accesses)
