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
from repro.memhier.cache import SRRIP_INSERT_RRPV, SRRIP_MAX_RRPV, Cache
from repro.memhier.dram import DRAMModel
from repro.memhier.prefetcher import Prefetcher, build_prefetcher


#: A prefetcher a request trains and the hierarchy's ``l1_prefetches`` or
#: ``l2_prefetches`` cell that counts what it issues.
_Training = Tuple[Prefetcher, List[int]]

#: One cache level of a request type's route, as :func:`_level` builds it:
#: the cache's latency, geometry, per-set containers and policy, its
#: counter cells for the type, the name :attr:`MemoryHierarchy.
#: last_served_by` gives a hit there, and the prefetchers such a hit trains.
_Level = Tuple[Cache, int, int, int, List[Dict[int, int]], List[List[int]],
               List[List[Optional[int]]], List[List[Optional[str]]], List[int], bool,
               List[int], List[int], List[int], List[int], str, Tuple[_Training, ...]]

#: A request type's ``requests_<type>`` cell, its L1, L2 and L3 levels and
#: the prefetchers a DRAM access trains, built on its first access.
_Route = Tuple[List[int], Tuple[_Level, _Level, _Level], Tuple[_Training, ...]]


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
        #: request-type string -> its :data:`_Route`; one lookup per
        #: access.  ``requests`` is the sum of the ``requests_<type>``
        #: counters, written when they are read.
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
        # A prefetch trains nothing; an L1 hit trains both prefetchers, an L2
        # hit or a DRAM access the L2 one, an L3 hit none.
        l1_training = l2_training = ()
        if access_type != "prefetch" and self.l1_prefetcher is not None:
            l1_training = ((self.l1_prefetcher, self._c_l1_prefetches),)
        if access_type != "prefetch" and self.l2_prefetcher is not None:
            l2_training = ((self.l2_prefetcher, self._c_l2_prefetches),)
        levels = (_level(self.l1, access_type, "L1", l1_training + l2_training),
                  _level(self.l2, access_type, "L2", l2_training),
                  _level(self.l3, access_type, "L3", ()))
        route = self._routes[access_type] = (
            self.counters.hot("requests_" + access_type, part_of=("requests",)),
            levels, l2_training)
        return route

    def access_value(self, address: int, is_write: bool = False,
                     access_type: str = "data", pc: int = 0) -> int:
        """Allocation-free access: returns the total latency of the request.

        ``access_type`` is the request-type string.  Which level served the
        request is left in :attr:`last_served_by`.  A write costs what a
        read does (no writeback is modelled), so ``is_write`` changes
        nothing.

        One loop walks the route's L1, L2 and L3 levels and reads and
        writes each :class:`Cache`'s state in place: a hit stamps the line
        and stops; a miss picks the victim and fills the line as
        :meth:`Cache._fill` would, then goes on to the next level, and a
        miss in all three goes to DRAM (``tests/test_cache_oracle.py``
        checks the whole path against a line-object reference hierarchy).
        Then each prefetcher the serving level trains gets one
        :meth:`Prefetcher.train` call.
        """
        route = self._routes.get(access_type)
        if route is None:
            route = self._route(access_type)
        requests, levels, dram_training = route
        requests[0] += 1
        latency = 0
        for (cache, level_latency, line_size, num_sets, way_maps, metas, blocks_by_set,
             types_by_set, ages, lru, hits, misses, evictions, pollution, served_by,
             training) in levels:
            latency += level_latency
            block = address // line_size
            set_index = block % num_sets
            way_map = way_maps[set_index]
            way = way_map.get(block)
            meta = metas[set_index]
            if lru:
                clock = cache._access_clock = cache._access_clock + 1
            if way is not None:
                hits[0] += 1
                meta[way] = clock if lru else -ages[set_index]
                break
            misses[0] += 1
            blocks = blocks_by_set[set_index]
            types = types_by_set[set_index]
            way = len(way_map)
            if way == cache.associativity:
                if lru:
                    oldest = meta[0]
                    way = 0
                    for other in cache._later_ways:
                        if meta[other] < oldest:
                            oldest = meta[other]
                            way = other
                else:
                    top = cache._tops[set_index]
                    try:
                        way = meta.index(top, cache._victims[set_index] + 1)
                    except ValueError:
                        top = cache._tops[set_index] = max(meta)
                        ages[set_index] = SRRIP_MAX_RRPV - top
                        way = meta.index(top)
                    cache._victims[set_index] = way
                del way_map[blocks[way]]
                cache._removals += 1
                evictions[0] += 1
                if types[way] != access_type:
                    pollution[0] += 1
            way_map[block] = way
            blocks[way] = block
            types[way] = access_type
            meta[way] = clock if lru else SRRIP_INSERT_RRPV - ages[set_index]
        else:
            latency += self.dram.access_value(address, access_type)
            served_by = "DRAM"
            training = dram_training
        self.last_served_by = served_by
        for prefetcher, issued_cell in training:
            issued = prefetcher.train(address, pc)
            if issued:
                issued_cell[0] += issued
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


def _level(cache: Cache, access_type: str, served_by: str,
           training: Tuple[_Training, ...]) -> _Level:
    """``cache``'s step of ``access_type``'s route (see :data:`_Level`)."""
    return (cache, cache.latency, cache.line_size, cache.num_sets, cache._way_maps,
            cache._meta, cache._blocks, cache._types, cache._age, cache._lru,
            *cache._cells_for(access_type), cache._c_evictions,
            cache._pollution_cell(access_type), served_by, training)
