"""The memory hierarchy: L1/L2/L3 caches in front of DRAM.

`MemoryHierarchy.access_value` is the single entry point used by the MMU,
the page-table walkers and the MimicOS instruction-stream injector.  It
returns the access's latency and leaves the level that served it in
``last_served_by``.  Each access carries a *request
type* string (``"data"``, ``"ptw"``, ``"translation"``, ``"kernel"``,
``"kernel_zero"``, ``"prefetch"``) so that cache pollution and DRAM
row-buffer interference can be attributed to application data, page-table
walks, translation metadata or kernel (MimicOS) activity — the attribution
the paper's case studies are built on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import CacheConfig, DRAMConfig, PrefetcherConfig, SystemConfig
from repro.common.stats import Counter
from repro.memhier.cache import Cache
from repro.memhier.dram import DRAMModel
from repro.memhier.prefetcher import Prefetcher, build_prefetcher


#: One level below the L1 on a request type's route: the cache, its
#: ``hits_<type>``/``misses_<type>`` cells, the name :attr:`MemoryHierarchy.
#: last_served_by` gives a hit there, and the prefetcher a hit trains (None:
#: none).
_Level = Tuple[Cache, List[int], List[int], str, Optional[Prefetcher]]

#: A request type's hot cells, built on its first access (see ``_routes``).
_Route = Tuple[List[int], List[int], List[int], bool, Tuple[_Level, _Level]]


class MemoryHierarchy:
    """Three cache levels backed by DRAM, with per-level prefetchers.

    The hierarchy is deliberately blocking and latency-additive: a request
    pays each level's lookup latency until it hits, then DRAM latency if it
    misses everywhere.  Memory-level parallelism is modelled by the core
    model (which discounts overlapping misses), not here.
    """

    def __init__(self,
                 l1_config: CacheConfig,
                 l2_config: CacheConfig,
                 l3_config: CacheConfig,
                 dram_config: DRAMConfig,
                 l1_prefetcher: Optional[PrefetcherConfig] = None,
                 l2_prefetcher: Optional[PrefetcherConfig] = None):
        l1, l2 = Cache(l1_config), Cache(l2_config)
        self._wire(l1, build_prefetcher(l1_prefetcher, l1), l2,
                   build_prefetcher(l2_prefetcher, l2), Cache(l3_config),
                   DRAMModel(dram_config))

    def _wire(self, l1: Cache, l1_prefetcher: Optional[Prefetcher], l2: Cache,
              l2_prefetcher: Optional[Prefetcher], l3: Cache, dram: DRAMModel) -> None:
        self.l1 = l1
        self.l2 = l2
        self.l3 = l3
        self.dram = dram
        #: Each prefetcher fills the cache it is attached to; None: no prefetcher.
        self.l1_prefetcher = l1_prefetcher
        self.l2_prefetcher = l2_prefetcher
        self.counters = Counter()
        self._c_l1_prefetches = self.counters.hot("l1_prefetches")
        self._c_l2_prefetches = self.counters.hot("l2_prefetches")
        #: request-type string -> (``requests_<type>`` cell, the L1's
        #: ``hits_<type>``/``misses_<type>`` cells, whether the type trains
        #: the prefetchers, the L2 and L3 steps as :data:`_Level`); one
        #: lookup per access.  ``requests`` is the sum of the
        #: ``requests_<type>`` counters, written when they are read.
        self._routes: Dict[str, _Route] = {}
        #: The level that served the most recent :meth:`access_value` call.
        self.last_served_by = "none"

    @classmethod
    def from_system_config(cls, config: SystemConfig) -> "MemoryHierarchy":
        """Build the hierarchy described by a :class:`SystemConfig`."""
        return cls(
            l1_config=config.l1d_cache,
            l2_config=config.l2_cache,
            l3_config=config.l3_cache,
            dram_config=config.dram,
            l1_prefetcher=config.l1_prefetcher,
            l2_prefetcher=config.l2_prefetcher,
        )

    @classmethod
    def per_core_view(cls, shared: "MemoryHierarchy",
                      config: SystemConfig) -> "MemoryHierarchy":
        """A per-core view of ``shared``: private L1, shared L2/LLC/DRAM.

        The view is a complete :class:`MemoryHierarchy` (the access path is
        unchanged), but ``l2``/``l3``/``dram`` — and the L2 prefetcher, which
        belongs to the shared L2 — *are the shared hierarchy's objects*, so
        co-running cores pollute each other's shared cache levels and contend
        on the DRAM row buffers exactly as the single-hierarchy model would
        charge one core.  Only the L1 cache and the L1 prefetcher are built;
        they and the request counters are private, giving per-core
        attribution; ``last_served_by`` is per-view, so each core reads its
        own outcome even though the levels are shared.
        """
        view = cls.__new__(cls)
        l1 = Cache(config.l1d_cache)
        view._wire(l1, build_prefetcher(config.l1_prefetcher, l1), shared.l2,
                   shared.l2_prefetcher, shared.l3, shared.dram)
        return view

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #
    def _route(self, access_type: str) -> _Route:
        trains = access_type != "prefetch"
        # Each level's hit and miss cells; an L3 hit trains no prefetcher.
        lower = ((self.l2, *self.l2._cells_for(access_type), "L2",
                  self.l2_prefetcher if trains else None),
                 (self.l3, *self.l3._cells_for(access_type), "L3", None))
        route = self._routes[access_type] = (
            self.counters.hot("requests_" + access_type, part_of=("requests",)),
            *self.l1._cells_for(access_type), trains, lower)
        return route

    @property
    def last_row_conflict(self) -> bool:
        """Whether the most recent :meth:`access_value` call met a DRAM
        row-buffer conflict.  Read it before the next access to the DRAM,
        which a per-core view shares with the other cores."""
        return self.last_served_by == "DRAM" and self.dram.last_row_conflict

    def access_value(self, address: int, is_write: bool = False,
                     access_type: str = "data", pc: int = 0) -> int:
        """Allocation-free access: returns the total latency of the request.

        ``access_type`` is the request-type string.  Which level served the
        request is left in :attr:`last_served_by`.

        The L1 lookup reads and writes the :class:`Cache` state in place
        (clock, stamp, dirty bit and counter cells), so an L1 hit costs this
        one call plus the prefetchers' training; a miss fills the L1 through
        :meth:`Cache._fill`.  The L2 and L3 lookups do the same, as one loop
        over the two levels of the route, and a miss in both goes to DRAM
        (``tests/test_cache_oracle.py`` checks the whole path against a
        line-object reference hierarchy).  Prefetch requests do not train
        the prefetchers, and an L3 hit trains neither; a training that
        issues nothing adds nothing.
        """
        route = self._routes.get(access_type)
        if route is None:
            route = self._route(access_type)
        requests, hits, misses, trains, lower = route
        requests[0] += 1

        l1 = self.l1
        clock = l1._access_clock = l1._access_clock + 1
        block = address // l1.line_size
        set_index = block % l1.num_sets
        way = l1._way_maps[set_index].get(block)
        if way is not None:
            hits[0] += 1
            if l1._lru:
                l1._meta[set_index][way] = clock
            else:
                l1._meta[set_index][way] = -l1._age[set_index]
            if is_write:
                l1._dirty[set_index][way] = True
            self.last_served_by = "L1"
            if trains:
                if self.l1_prefetcher is not None:
                    issued = self.l1_prefetcher.train(address, pc)
                    if issued:
                        self._c_l1_prefetches[0] += issued
                if self.l2_prefetcher is not None:
                    issued = self.l2_prefetcher.train(address, pc)
                    if issued:
                        self._c_l2_prefetches[0] += issued
            return l1.latency
        misses[0] += 1
        l1._fill(set_index, block, is_write, access_type)

        latency = l1.latency
        for cache, level_hits, level_misses, served_by, prefetcher in lower:
            latency += cache.latency
            block = address // cache.line_size
            set_index = block % cache.num_sets
            way = cache._way_maps[set_index].get(block)
            if way is not None:
                level_hits[0] += 1
                if cache._lru:
                    clock = cache._access_clock = cache._access_clock + 1
                    cache._meta[set_index][way] = clock
                else:
                    cache._meta[set_index][way] = -cache._age[set_index]
                if is_write:
                    cache._dirty[set_index][way] = True
                self.last_served_by = served_by
                if prefetcher is not None:
                    issued = prefetcher.train(address, pc)
                    if issued:
                        self._c_l2_prefetches[0] += issued
                return latency
            level_misses[0] += 1
            if cache._lru:
                cache._access_clock += 1
            cache._fill(set_index, block, is_write, access_type)

        latency += self.dram.access_value(address, access_type)
        self.last_served_by = "DRAM"
        if trains and self.l2_prefetcher is not None:
            issued = self.l2_prefetcher.train(address, pc)
            if issued:
                self._c_l2_prefetches[0] += issued
        return latency

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Nested counter snapshot for every level of the hierarchy."""
        return {
            "hierarchy": self.counters.as_dict(),
            "l1": self.l1.stats(),
            "l2": self.l2.stats(),
            "l3": self.l3.stats(),
            "dram": self.dram.stats(),
        }
