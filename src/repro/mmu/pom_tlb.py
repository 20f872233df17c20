"""A large software-managed, in-DRAM TLB (part-of-memory TLB).

Ryoo et al. propose a very large TLB that lives in main memory and is probed
after the on-chip TLBs miss but before the page-table walk.  A hit costs one
memory access (usually an LLC or DRAM access to the table); a miss adds that
access on top of the walk.  Because the table is orders of magnitude larger
than the on-chip TLBs, most walks are avoided for workloads whose hot set
exceeds the L2 TLB reach.

Entries are 4 KB translations, one per slot; a huge page is held as the
4 KB pieces that walked.  The table is software-managed, so a shootdown
(:meth:`PartOfMemoryTLB.invalidate`) scans it for every piece of the page.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.stats import Counter


class PartOfMemoryTLB:
    """A software-managed TLB stored in a region of physical memory."""

    ENTRY_SIZE = 16

    def __init__(self, entries: int = 1 << 20, base_address: int = 1 << 44):
        self.entries = entries
        self.base_address = base_address
        #: Slot -> (virtual address, 4 KB frame, page base, page size).
        self._table: Dict[int, Tuple[int, int, int, int]] = {}
        self.counters = Counter()

    def _slot(self, virtual_address: int) -> int:
        return (virtual_address // PAGE_SIZE_4K) % self.entries

    def _slot_address(self, slot: int) -> int:
        return self.base_address + slot * self.ENTRY_SIZE

    def lookup(self, virtual_address: int, memory) -> Tuple[Optional[Tuple[int, int]], int]:
        """Probe the in-memory table; returns ((physical, size) or None, latency)."""
        slot = self._slot(virtual_address)
        latency = memory.access_value(self._slot_address(slot), False, "ptw")
        entry = self._table.get(slot)
        vpn = virtual_address // PAGE_SIZE_4K
        if entry is not None and entry[0] // PAGE_SIZE_4K == vpn:
            self.counters.add("hits")
            return (entry[1], PAGE_SIZE_4K), latency
        self.counters.add("misses")
        return None, latency

    def fill(self, virtual_address: int, physical_base: int, memory,
             page_size: int = PAGE_SIZE_4K) -> None:
        """Install the 4 KB piece of the page (``physical_base``,
        ``page_size``) that ``virtual_address`` falls in (one memory write
        to the table)."""
        slot = self._slot(virtual_address)
        offset = virtual_address % page_size
        frame = physical_base + offset - offset % PAGE_SIZE_4K
        self._table[slot] = (virtual_address, frame, virtual_address - offset, page_size)
        memory.access_value(self._slot_address(slot), True, "ptw")
        self.counters.add("fills")

    def invalidate(self, virtual_address: int, size: int = PAGE_SIZE_4K) -> None:
        """Drop every entry whose page overlaps the ``size`` bytes at
        ``virtual_address`` (shootdown)."""
        end = virtual_address + size
        stale = [slot for slot, (_, _, page_base, page_size) in self._table.items()
                 if page_base < end and virtual_address < page_base + page_size]
        for slot in stale:
            del self._table[slot]
        if stale:
            self.counters.add("invalidations")

    def flush(self) -> None:
        """Drop every entry (context switch without ASIDs)."""
        self._table.clear()
        self.counters.add("flushes")

    def hit_rate(self) -> float:
        """Hit fraction over all probes."""
        hits = self.counters.get("hits")
        total = hits + self.counters.get("misses")
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
