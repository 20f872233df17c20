"""Sequential TLB prefetching.

A distance-1 sequential prefetcher in the spirit of agile TLB prefetching:
after a demand L2-TLB fill for virtual page N, the translation for page N+1
is fetched from the page table (functionally — the prefetch engine walks in
the background, so no latency is charged to the demand access, but the
walk's memory traffic is) and installed in the L2 TLB.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.stats import Counter


class SequentialTLBPrefetcher:
    """Prefetch the next page's translation into the L2 TLB after each fill."""

    def __init__(self, degree: int = 1):
        self.degree = degree
        self.counters = Counter()

    def on_fill(self, virtual_address: int, page_size: int, page_table,
                tlb_hierarchy, memory=None) -> int:
        """Issue prefetches; returns the number of translations prefetched."""
        prefetched = 0
        for distance in range(1, self.degree + 1):
            next_address = virtual_address + distance * page_size
            mapping = page_table.lookup(next_address)
            if mapping is None:
                self.counters.add("prefetch_misses")
                continue
            physical_base, size = mapping
            tlb_hierarchy.l2.fill(next_address, physical_base, size)
            prefetched += 1
            self.counters.add("prefetches")
            if memory is not None:
                # The background walk still reads the page table in memory.
                memory.access_value(physical_base, False, "ptw")
        return prefetched

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
