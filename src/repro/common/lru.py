"""The one least-recently-used replacement policy of the translation side.

Every small translation cache in the simulator — TLB sets, page-walk
caches, the nested TLB, RMM's RLB and Midgard's VLBs (both a
:class:`RangeCache`), Utopia's SF/TAR caches and the MimicOS page cache —
replaces entries through :class:`LRU`: an ordered dict kept in recency
order, oldest first.  A hit is ``lru.move_to_end(key)``, a fill is
:meth:`LRU.put`, and the victim is always the first key.  Probes (``key in
lru``, ``lru.get(key)``, ``lru[key]``) are the dict's own C-level
operations, and removal uses the dict's own ``pop``/``clear``.

Recency order picks the same victim as a clock-and-stamp LRU only when
every touch advances the clock, so that no two stamps tie.  The data caches
(:mod:`repro.memhier.cache`) keep their stamps for that reason: a prefetch
fill does not advance their clock, and a tie there goes to the lower way.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple


class LRU(OrderedDict):
    """A fixed-capacity ordered dict that evicts its least recently used key."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def put(self, key: Hashable, value: Any) -> Optional[Tuple[Hashable, Any]]:
        """Insert or refresh ``key``; return the evicted ``(key, value)`` or None."""
        if key in self:
            self[key] = value
            self.move_to_end(key)
            return None
        evicted = self.popitem(last=False) if len(self) >= self.capacity else None
        self[key] = value
        return evicted


class RangeCache:
    """A small fully-associative cache of ranges: RMM's RLB, Midgard's VLBs.

    Entries are ranges with a ``virtual_start`` key and ``contains(address)``.
    A lookup scans them in first-inserted order, so where cached ranges
    overlap (RMM's can) the oldest one answers; eviction is LRU by key.
    """

    def __init__(self, entries: int, latency: int):
        self.latency = latency
        #: Cached ranges by start, in first-inserted order (the scan order).
        self._ranges: Dict[int, Any] = {}
        #: The same keys in recency order (the eviction order).
        self._recency = LRU(entries)
        self.hits = 0
        self.misses = 0

    def lookup(self, virtual_address: int) -> Optional[Any]:
        """Return the cached range covering ``virtual_address`` (if any)."""
        for key, entry in self._ranges.items():
            if entry.contains(virtual_address):
                self._recency.move_to_end(key)
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def fill(self, entry: Any) -> None:
        """Insert a range, evicting the least recently used one when full."""
        key = entry.virtual_start
        evicted = self._recency.put(key, None)
        if evicted is not None:
            del self._ranges[evicted[0]]
        self._ranges[key] = entry
