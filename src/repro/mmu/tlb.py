"""Translation lookaside buffers: per-page-size L1 TLBs and a unified L2 TLB.

The hierarchy mirrors Table 4: a 128-entry L1 instruction TLB, split L1 data
TLBs for 4 KB and 2 MB pages, and a 2048-entry 16-way unified L2 TLB holding
both page sizes (1 GB translations are also accepted by the L2 TLB, which is
how modern cores behave).  The L2 TLB's misses-per-kilo-instruction is one
of the validation metrics of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import TLBConfig
from repro.common.lru import LRU
from repro.common.stats import Counter


@dataclass(slots=True)
class TLBLookupResult:
    """Outcome of a TLB hierarchy lookup."""

    hit: bool
    latency: int
    level: str = "miss"
    physical_base: int = 0
    page_size: int = PAGE_SIZE_4K


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
        #: Bumped whenever the TLB's *contents* change (fill, invalidate,
        #: flush).  The MMU's VPN translation cache watches this to detect
        #: that a cached L1 hit may no longer replay identically.
        self.version = 0
        self._c_lookups = self.counters.hot("lookups")
        self._c_hits = self.counters.hot("hits")
        self._c_misses = self.counters.hot("misses")
        self._c_fills = self.counters.hot("fills")
        self._c_evictions = self.counters.hot("evictions")

    def _index_and_tag(self, virtual_address: int, page_size: int) -> Tuple[int, int]:
        vpn = virtual_address // page_size
        return vpn % self.num_sets, vpn

    def supports(self, page_size: int) -> bool:
        """True if this TLB can hold translations of ``page_size``."""
        return page_size in self.page_sizes

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
        """Insert a translation (LRU replacement within the set)."""
        if not self.supports(page_size):
            return
        self.version += 1
        set_index, tag = self._index_and_tag(virtual_address, page_size)
        if self._sets[set_index].put((tag, page_size), (physical_base, page_size)) is not None:
            self._c_evictions[0] += 1
        self._c_fills[0] += 1

    def invalidate(self, virtual_address: int) -> None:
        """Drop any translation covering ``virtual_address`` (TLB shootdown)."""
        for page_size in self.page_sizes:
            set_index, tag = self._index_and_tag(virtual_address, page_size)
            if self._sets[set_index].pop((tag, page_size), None) is not None:
                self.version += 1
                self.counters.add("invalidations")

    def flush(self) -> None:
        """Invalidate every entry (context switch without ASIDs)."""
        for entries in self._sets:
            entries.clear()
        self.version += 1
        self.counters.add("flushes")

    def hits(self) -> int:
        """Total hits."""
        return self.counters.get("hits")

    def misses(self) -> int:
        """Total misses."""
        return self.counters.get("misses")

    def miss_rate(self) -> float:
        """Miss fraction over all lookups."""
        lookups = self.counters.get("lookups")
        return self.misses() / lookups if lookups else 0.0

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
        self._c_instruction_lookups = self.counters.hot("instruction_lookups")
        self._c_l2_misses = self.counters.hot("l2_misses")

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def lookup_data(self, virtual_address: int) -> TLBLookupResult:
        """L1 data TLBs (both page sizes probed in parallel), then the L2 TLB."""
        self._c_data_lookups[0] += 1
        latency = self.l1d_4k.latency

        for l1 in (self.l1d_4k, self.l1d_2m):
            entry = l1.lookup(virtual_address)
            if entry is not None:
                physical_base, page_size = entry
                return TLBLookupResult(hit=True, latency=latency, level="L1",
                                       physical_base=physical_base, page_size=page_size)

        latency += self.l2.latency
        entry = self.l2.lookup(virtual_address)
        if entry is not None:
            physical_base, page_size = entry
            self._fill_l1(virtual_address, physical_base, page_size)
            return TLBLookupResult(hit=True, latency=latency, level="L2",
                                   physical_base=physical_base, page_size=page_size)
        self._c_l2_misses[0] += 1
        return TLBLookupResult(hit=False, latency=latency)

    def lookup_instruction(self, virtual_address: int) -> TLBLookupResult:
        """L1 instruction TLB, then the unified L2 TLB."""
        self._c_instruction_lookups[0] += 1
        latency = self.l1i.latency
        entry = self.l1i.lookup(virtual_address)
        if entry is not None:
            physical_base, page_size = entry
            return TLBLookupResult(hit=True, latency=latency, level="L1I",
                                   physical_base=physical_base, page_size=page_size)
        latency += self.l2.latency
        entry = self.l2.lookup(virtual_address)
        if entry is not None:
            physical_base, page_size = entry
            self.l1i.fill(virtual_address, physical_base, page_size)
            return TLBLookupResult(hit=True, latency=latency, level="L2",
                                   physical_base=physical_base, page_size=page_size)
        self._c_l2_misses[0] += 1
        return TLBLookupResult(hit=False, latency=latency)

    # ------------------------------------------------------------------ #
    # Fills / invalidations
    # ------------------------------------------------------------------ #
    def fill(self, virtual_address: int, physical_base: int, page_size: int,
             instruction: bool = False) -> None:
        """Install a translation after a successful walk."""
        self.l2.fill(virtual_address, physical_base, page_size)
        if instruction:
            self.l1i.fill(virtual_address, physical_base, page_size)
        else:
            self._fill_l1(virtual_address, physical_base, page_size)

    def _fill_l1(self, virtual_address: int, physical_base: int, page_size: int) -> None:
        if page_size == PAGE_SIZE_4K:
            self.l1d_4k.fill(virtual_address, physical_base, page_size)
        elif page_size == PAGE_SIZE_2M:
            self.l1d_2m.fill(virtual_address, physical_base, page_size)
        # 1 GB translations live only in the L2 TLB, as on real cores.

    def invalidate(self, virtual_address: int) -> None:
        """Shoot down any entry covering ``virtual_address``."""
        for tlb in (self.l1i, self.l1d_4k, self.l1d_2m, self.l2):
            tlb.invalidate(virtual_address)

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
