"""HT: a PowerPC-style chained (bucket + collision chain) hashed page table.

The ``HT`` design of the paper's first case study is a global 4 GB hash
table whose buckets hold a small cluster of PTEs; colliding translations are
linked into a per-bucket chain.  A walk reads the home bucket and then
follows chain nodes one memory access at a time, so lookup cost grows with
chain length but is usually a single access.  Like HDC, the table is
allocated up front, so minor faults never allocate page-table frames.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import MemoryInterface, PageTableBase, TranslationMapping, WalkResult
from repro.pagetables.hashing import bucket_index

#: Bytes per bucket / chain node.
BUCKET_SIZE = 64


class ChainedHashPageTable(PageTableBase):
    """Global chained hashed page table (HT)."""

    kind = "ht"

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 table_size_bytes: int = 4 << 30, ptes_per_entry: int = 8,
                 table_base_address: Optional[int] = None):
        super().__init__(frame_allocator)
        self.ptes_per_entry = ptes_per_entry
        self.num_buckets = max(1, table_size_bytes // BUCKET_SIZE)
        self.table_base_address = (table_base_address if table_base_address is not None
                                   else self.frame_allocator(None))
        #: bucket index -> ordered list of (virtual base, page size) in the chain.
        self._chains: Dict[int, List[Tuple[int, int]]] = {}
        #: Overflow chain nodes live in a separate region past the table.
        self._overflow_base = self.table_base_address + self.num_buckets * BUCKET_SIZE

    def _key(self, virtual_base: int, page_size: int) -> int:
        # Clustered buckets: one chain entry covers ``ptes_per_entry``
        # consecutive pages, as in the PowerPC HTAB's PTE groups.
        cluster = virtual_base // (page_size * self.ptes_per_entry)
        return cluster * 8 + page_size.bit_length()

    def _home_index(self, key: int) -> int:
        return bucket_index(key, self.num_buckets)

    def _node_address(self, home_index: int, position: int) -> int:
        if position == 0:
            return self.table_base_address + home_index * BUCKET_SIZE
        return self._overflow_base + (home_index * 8 + position) * BUCKET_SIZE

    # ------------------------------------------------------------------ #
    # Structure updates
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        key = self._key(virtual_base, page_size)
        home = self._home_index(key)
        chain = self._chains.setdefault(home, [])
        op = (trace.new_op("ht_insert", work_units=1 + len(chain))
              if trace is not None and trace.recording else None)
        if key not in chain:
            chain.append(key)
        if op is not None:
            op.touch(self._node_address(home, len(chain) - 1), is_write=True)
        self.counters.add("chain_length_total", len(chain))

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        # The chain entry is shared by the whole cluster, so it is left in
        # place; only the removal work is charged.
        key = self._key(mapping.virtual_base, mapping.page_size)
        home = self._home_index(key)
        if trace is not None and trace.recording:
            chain = self._chains.get(home, [])
            op = trace.new_op("ht_remove", work_units=1 + len(chain))
            op.touch(self._node_address(home, 0), is_write=True)

    # ------------------------------------------------------------------ #
    # Hardware walk
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """Read the home bucket, then chain nodes until the entry is found."""
        self._c_walks[0] += 1
        latency = 0
        accesses = 0
        # Only page sizes with live mappings are probed (the base class
        # shrinks the set on removal, so unmapping a size stops its probes).
        active_sizes = (self.active_page_sizes()
                        or tuple(sorted(self.SUPPORTED_PAGE_SIZES, reverse=True)))
        for page_size in active_sizes:
            virtual_base = virtual_address - (virtual_address % page_size)
            mapping = self._mappings.get(virtual_base)
            key = self._key(virtual_base, page_size)
            home = self._home_index(key)
            chain = self._chains.get(home, [])
            # Always read the home bucket.
            latency += memory.access_value(self._node_address(home, 0), False, "ptw")
            accesses += 1
            if key in chain:
                position = chain.index(key)
                for node in range(1, position + 1):
                    latency += memory.access_value(self._node_address(home, node), False, "ptw")
                    accesses += 1
                if mapping is not None and mapping.page_size == page_size:
                    self._c_walk_hits[0] += 1
                    self._c_walk_memory_accesses[0] += accesses
                    return WalkResult(found=True, latency=latency, memory_accesses=accesses,
                                      physical_base=mapping.physical_base,
                                      page_size=page_size)
        self._c_walk_faults[0] += 1
        self._c_walk_memory_accesses[0] += accesses
        return WalkResult(found=False, latency=latency, memory_accesses=accesses)

