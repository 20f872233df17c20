"""Victima: store TLB victims in the L2 data cache.

Victima (Kanellopoulos et al., MICRO 2023) repurposes underutilised data
cache capacity to hold translations evicted from the L2 TLB.  On an L2 TLB
miss, the L2 cache is probed for a stored translation before starting a
page-table walk; a hit avoids the walk at the cost of an L2-cache access.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.stats import Counter


class VictimaCacheTLB:
    """Translation storage backed by the L2 data cache."""

    #: Synthetic physical region used to index the stored translations into
    #: the cache (so they occupy real cache lines and can be evicted by data).
    STORAGE_BASE = 1 << 45

    def __init__(self, l2_cache):
        self.l2_cache = l2_cache
        self._entries: Dict[int, Tuple[int, int]] = {}
        self.counters = Counter()

    def _line_address(self, virtual_address: int) -> int:
        vpn = virtual_address // PAGE_SIZE_4K
        return self.STORAGE_BASE + vpn * 64

    def store_victim(self, virtual_address: int, physical_base: int, page_size: int) -> None:
        """Called when the L2 TLB evicts an entry."""
        vpn = virtual_address // page_size
        self._entries[(vpn, page_size)] = (physical_base, page_size)
        self.l2_cache.fill(self._line_address(virtual_address), request_type="translation")
        self.counters.add("victims_stored")

    def lookup(self, virtual_address: int) -> Tuple[Optional[Tuple[int, int]], int]:
        """Probe the L2 cache for a stored translation; returns (entry, latency)."""
        line = self._line_address(virtual_address)
        latency = self.l2_cache.latency
        if not self.l2_cache.access_bool(line, False, "translation"):
            self.counters.add("cache_misses")
            return None, latency
        for page_size in (PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G):
            entry = self._entries.get((virtual_address // page_size, page_size))
            if entry is not None:
                self.counters.add("hits")
                return entry, latency
        self.counters.add("stale_lines")
        return None, latency

    def invalidate(self, virtual_address: int, size: int = PAGE_SIZE_4K) -> None:
        """Drop every stored translation overlapping the ``size`` bytes at
        ``virtual_address`` (shootdown)."""
        end = virtual_address + size
        for key in [(vpn, page_size) for vpn, page_size in self._entries
                    if vpn * page_size < end and virtual_address < (vpn + 1) * page_size]:
            del self._entries[key]
            self.counters.add("invalidations")

    def flush(self) -> None:
        """Drop every stored translation (context switch without ASIDs)."""
        self._entries.clear()
        self.counters.add("flushes")

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
