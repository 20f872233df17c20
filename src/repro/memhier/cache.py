"""Set-associative cache model with LRU and SRRIP replacement.

The cache is a tag store only: the simulator never stores data values, it
only needs hit/miss behaviour and latency.  Each cache level tracks hits,
misses, evictions and fills per request type (application data, page-table
walk, kernel/MimicOS data), which the experiments use to quantify the cache
pollution caused by OS routines and page-table accesses.

Demand accesses, with their victim choice and fill, are written out in
:meth:`repro.memhier.memory_system.MemoryHierarchy.access_value`, one loop
over the levels; :meth:`Cache.fill` is the prefetchers' way in.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import CacheConfig
from repro.common.stats import Counter

#: SRRIP re-reference prediction values: the eviction threshold and the
#: value a fill inserts (a hit stores 0).
SRRIP_MAX_RRPV = 3
SRRIP_INSERT_RRPV = 2


class Cache:
    """A single set-associative cache level.

    Parameters come from :class:`repro.common.config.CacheConfig`.  The
    replacement policy is either true LRU or SRRIP (re-reference interval
    prediction, the paper's L2/L3 policy).

    State is a handful of plain lists per set, each indexed by way, so
    building a cache allocates a few containers per set instead of one
    object per line:

    * ``_way_maps[s]``: block -> way of the valid lines (the hit probe),
      where a block is ``address // line_size``;
    * ``_blocks[s]``: the block held by each way, ``None`` when invalid;
    * ``_types[s]``: the request class that filled each way;
    * ``_meta[s]``: the replacement state, the LRU stamp or the SRRIP
      RRPV minus the set's age offset ``_age[s]`` (aging every line is
      one add to the offset).

    No line ever leaves except by eviction, so the valid ways of a set are
    always its first ``len(_way_maps[s])``.  The containers are built once:
    :class:`repro.memhier.memory_system.MemoryHierarchy` binds them into
    its routes.  No writeback is modelled, so there are no dirty bits.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.name = config.name
        self.latency = config.latency
        self.line_size = config.line_size
        self.num_sets = config.sets
        self.associativity = config.associativity
        self.replacement = config.replacement
        self._lru = config.replacement == "lru"
        sets, ways = range(self.num_sets), self.associativity
        self._way_maps: List[Dict[int, int]] = [{} for _ in sets]
        self._blocks: List[List[Optional[int]]] = [[None] * ways for _ in sets]
        self._types: List[List[Optional[str]]] = [[None] * ways for _ in sets]
        self._meta: List[List[int]] = [[0] * ways for _ in sets]
        self._age: List[int] = [0] * self.num_sets
        #: SRRIP: per set, the way the last victim choice took and the
        #: maximum stored value it found there (None: choose by a full scan).
        self._victims: List[int] = [0] * self.num_sets
        self._tops: List[Optional[int]] = [None] * self.num_sets
        #: LRU: the ways an oldest-stamp scan compares with way 0.
        self._later_ways = tuple(range(1, ways))
        self._access_clock = 0
        self.counters = Counter()
        self._pollution_cells: Dict[str, List[int]] = {}
        self._c_evictions = self.counters.hot("evictions")
        self._c_prefetch_fills = self.counters.hot("fills_prefetch")
        #: Lines that have left the cache (evictions): while it stands
        #: still, every line present earlier still is.
        self._removals = 0

    def _cells_for(self, request_type: str) -> Tuple[List[int], List[int]]:
        """The ``hits_<type>`` and ``misses_<type>`` cells (a route binds
        them once); ``accesses_<type>`` is their sum, written when the
        counters are read."""
        accesses = ("accesses_" + request_type,)
        return (self.counters.hot("hits_" + request_type, part_of=accesses),
                self.counters.hot("misses_" + request_type, part_of=accesses))

    # ------------------------------------------------------------------ #
    # Prefetch fills (demand accesses and their fills are
    # MemoryHierarchy.access_value, which updates the state in place)
    # ------------------------------------------------------------------ #
    def fill(self, address: int) -> None:
        """Insert a line without counting it as a demand access (prefetch fill)."""
        block = address // self.line_size
        set_index = block % self.num_sets
        if block not in self._way_maps[set_index]:
            self._c_prefetch_fills[0] += 1
            self._fill(set_index, block, "prefetch")

    def _fill(self, set_index: int, block: int, request_type: str) -> None:
        """Put ``block`` in the first invalid way of its set, or in the way
        the replacement policy evicts when the set is full.

        LRU evicts the first way with the oldest stamp.  SRRIP ages every
        line until one reaches the maximum RRPV and evicts the first such
        line: one offset update and a first-max, the *aging epoch's*
        ``top``.  Until the next victim choice, every hit or fill stores a
        value below ``top`` (the age is unchanged and neither stores the
        maximum RRPV), and no way before the victim ``v`` held ``top``.  So
        while a way still holds ``top``, the next victim is the first one
        after ``v``, found without a scan of the set, and the age stays;
        only when none is left does a new epoch scan.

        :meth:`MemoryHierarchy.access_value` writes out the same steps for
        a demand miss: the two must change together.
        """
        way_map = self._way_maps[set_index]
        blocks = self._blocks[set_index]
        meta = self._meta[set_index]
        types = self._types[set_index]
        way = len(way_map)
        if way == self.associativity:
            if self._lru:
                # Stamps, not repro.common.lru: fills reuse the clock, so
                # ties go by way order.
                oldest = meta[0]
                way = 0
                for other in self._later_ways:
                    if meta[other] < oldest:
                        oldest = meta[other]
                        way = other
            else:
                top = self._tops[set_index]
                try:
                    way = meta.index(top, self._victims[set_index] + 1)
                except ValueError:
                    top = self._tops[set_index] = max(meta)
                    self._age[set_index] = SRRIP_MAX_RRPV - top
                    way = meta.index(top)
                self._victims[set_index] = way
            del way_map[blocks[way]]
            self._removals += 1
            self._c_evictions[0] += 1
            if types[way] != request_type:
                # A fill from one request class displaced another class's data:
                # this is the cache-pollution effect the paper highlights.
                self._pollution_cell(request_type)[0] += 1
        way_map[block] = way
        blocks[way] = block
        types[way] = request_type
        if self._lru:
            meta[way] = self._access_clock
        else:
            meta[way] = SRRIP_INSERT_RRPV - self._age[set_index]

    def _pollution_cell(self, request_type: str) -> List[int]:
        """The ``pollution_evictions_by_<type>`` cell, made on first use."""
        cell = self._pollution_cells.get(request_type)
        if cell is None:
            cell = self._pollution_cells[request_type] = \
                self.counters.hot("pollution_evictions_by_" + request_type)
        return cell

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def misses(self) -> int:
        """Demand misses over all request classes."""
        return sum(count for name, count in self.counters.as_dict().items()
                   if name.startswith("misses_"))

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
