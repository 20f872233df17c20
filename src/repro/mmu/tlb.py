"""Translation lookaside buffers: per-page-size L1 TLBs and a unified L2 TLB.

The hierarchy mirrors Table 4: a 128-entry L1 instruction TLB, split L1 data
TLBs for 4 KB and 2 MB pages, and a 2048-entry 16-way unified L2 TLB holding
both page sizes (1 GB translations are also accepted by the L2 TLB, which is
how modern cores behave).  The L2 TLB's misses-per-kilo-instruction is one
of the validation metrics of Fig. 10.

The core model translates data accesses only (instruction fetches are not
simulated), so the L1 instruction TLB is never looked up or filled.  It is
kept because shootdowns and flushes reach it like every other TLB, and
every report counts its flushes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import TLBConfig
from repro.common.lru import LRU
from repro.common.stats import Counter


class TLB:
    """One set-associative TLB holding translations for specific page sizes."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self.name = config.name
        self.latency = config.latency
        self.page_sizes = tuple(config.page_sizes)
        self.num_sets = config.sets
        self.associativity = config.associativity
        #: One LRU per set: (vpn tag, page size) -> (physical base, page size)
        self._sets: List[LRU] = [LRU(self.associativity) for _ in range(self.num_sets)]
        self.counters = Counter()
        self._c_lookups = self.counters.hot("lookups")
        self._c_hits = self.counters.hot("hits")
        self._c_misses = self.counters.hot("misses")
        self._c_fills = self.counters.hot("fills")
        self._c_evictions = self.counters.hot("evictions")

    def lookup(self, virtual_address: int) -> Optional[Tuple[int, int]]:
        """Return (physical base, page size) on a hit, None on a miss."""
        self._c_lookups[0] += 1
        for page_size in self.page_sizes:
            vpn = virtual_address // page_size
            entries = self._sets[vpn % self.num_sets]
            key = (vpn, page_size)
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                self._c_hits[0] += 1
                return entry
        self._c_misses[0] += 1
        return None

    def fill(self, virtual_address: int, physical_base: int, page_size: int) -> None:
        """Insert a translation (LRU replacement within the set).

        A translation of a page size this TLB does not hold is ignored.
        """
        if page_size not in self.page_sizes:
            return
        vpn = virtual_address // page_size
        if self._sets[vpn % self.num_sets].put((vpn, page_size),
                                               (physical_base, page_size)) is not None:
            self._c_evictions[0] += 1
        self._c_fills[0] += 1

    def invalidate(self, virtual_address: int, size: int = PAGE_SIZE_4K) -> None:
        """Drop every translation overlapping the ``size`` bytes from the
        4 KB page of ``virtual_address`` on (TLB shootdown).  Only the sets
        that can hold one are read: one set per page size for one page."""
        start = virtual_address - virtual_address % PAGE_SIZE_4K
        end = start + max(size, PAGE_SIZE_4K)
        for page_size in self.page_sizes:
            first, last = start // page_size, (end - 1) // page_size
            for vpn in range(first, min(last, first + self.num_sets - 1) + 1):
                entries = self._sets[vpn % self.num_sets]
                for key in [tag for tag in entries
                            if tag[1] == page_size and first <= tag[0] <= last]:
                    del entries[key]
                    self.counters.add("invalidations")

    def flush(self) -> None:
        """Invalidate every entry (context switch without ASIDs)."""
        for entries in self._sets:
            entries.clear()
        self.counters.add("flushes")

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()


class TLBHierarchy:
    """The paper's two-level TLB hierarchy with split L1 data TLBs."""

    def __init__(self, l1i: TLBConfig, l1d_4k: TLBConfig, l1d_2m: TLBConfig,
                 l2: TLBConfig):
        self.l1i = TLB(l1i)
        self.l1d_4k = TLB(l1d_4k)
        self.l1d_2m = TLB(l1d_2m)
        # The unified L2 TLB also accepts 1 GB translations.
        l2_sizes = tuple(sorted(set(l2.page_sizes) | {PAGE_SIZE_1G}))
        self.l2 = TLB(TLBConfig(l2.name, l2.entries, l2.associativity, l2.latency, l2_sizes))
        self.counters = Counter()
        self._c_data_lookups = self.counters.hot("data_lookups")
        self._c_l2_misses = self.counters.hot("l2_misses")
        #: The L1 data TLBs a lookup probes, 4 KB first (they are probed in
        #: parallel, so the 4 KB TLB's latency is the L1 latency).
        self._l1_data = (self.l1d_4k, self.l1d_2m)
        #: The L1 data TLB a translation of each page size is filled into;
        #: 1 GB translations live only in the L2 TLB, as on real cores.
        self._l1_data_by_size = {PAGE_SIZE_4K: self.l1d_4k, PAGE_SIZE_2M: self.l1d_2m}
        #: The latency of the most recent lookup.
        self.last_latency = 0

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def lookup_after_l1d_miss(self, virtual_address: int) -> Optional[Tuple[int, int]]:
        """A lookup whose L1 data TLBs the caller has already probed.

        For a caller that peeked both L1 data TLBs without counting and
        found nothing: counts the lookup and both L1 misses exactly as
        :meth:`lookup` does, then goes straight to the L2 step.
        """
        self._c_data_lookups[0] += 1
        l1d_4k, l1d_2m = self.l1d_4k, self.l1d_2m
        l1d_4k._c_lookups[0] += 1
        l1d_4k._c_misses[0] += 1
        l1d_2m._c_lookups[0] += 1
        l1d_2m._c_misses[0] += 1
        return self._lookup_l2(virtual_address, l1d_4k.latency)

    def _lookup_l2(self, virtual_address: int, latency: int) -> Optional[Tuple[int, int]]:
        """The L2 step both lookups end in, after ``latency`` cycles of L1."""
        l2 = self.l2
        self.last_latency = latency + l2.latency
        entry = l2.lookup(virtual_address)
        if entry is None:
            self._c_l2_misses[0] += 1
            return None
        self._fill_l1(virtual_address, entry[0], entry[1])
        return entry

    # ------------------------------------------------------------------ #
    # Fills / invalidations
    # ------------------------------------------------------------------ #
    def fill(self, virtual_address: int, physical_base: int, page_size: int) -> None:
        """Install a translation after a successful walk."""
        self.l2.fill(virtual_address, physical_base, page_size)
        self._fill_l1(virtual_address, physical_base, page_size)

    def _fill_l1(self, virtual_address: int, physical_base: int, page_size: int) -> None:
        tlb = self._l1_data_by_size.get(page_size)
        if tlb is not None:
            tlb.fill(virtual_address, physical_base, page_size)

    def invalidate(self, virtual_address: int, size: int = PAGE_SIZE_4K) -> None:
        """Shoot down every entry overlapping the ``size`` bytes at
        ``virtual_address``."""
        for tlb in (self.l1i, self.l1d_4k, self.l1d_2m, self.l2):
            tlb.invalidate(virtual_address, size)

    def flush(self) -> None:
        """Flush the whole hierarchy."""
        for tlb in (self.l1i, self.l1d_4k, self.l1d_2m, self.l2):
            tlb.flush()

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def l2_misses(self) -> int:
        """Number of L2 TLB misses (numerator of the MPKI metric in Fig. 10)."""
        return self.counters.get("l2_misses")

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-TLB counter snapshot."""
        return {
            "hierarchy": self.counters.as_dict(),
            "l1i": self.l1i.stats(),
            "l1d_4k": self.l1d_4k.stats(),
            "l1d_2m": self.l1d_2m.stats(),
            "l2": self.l2.stats(),
        }
