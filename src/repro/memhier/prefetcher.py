"""Hardware data prefetchers attached to cache levels.

Two prefetchers from Table 4 are modelled: an IP-stride prefetcher on the L1
data cache and a stream prefetcher on the L2.  Each prefetcher is attached
to the cache it fills: one :meth:`Prefetcher.train` call per demand access
updates its table and issues the prefetch fills itself.  Prefetches charge
no latency (prefetch traffic still perturbs cache contents and DRAM
row-buffer state, which is the effect the row-buffer-conflict experiments
care about).

A candidate counts as issued whether or not its line is already present;
candidates below address 0 are dropped uncounted.  The candidates are
walked over a tuple of distances built once (1 .. degree, in strides or
lines), and a present line is skipped with an inline way-map test, so only
lines that are really missing pay for a
:meth:`repro.memhier.cache.Cache.fill`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import PrefetcherConfig
from repro.memhier.cache import Cache


class Prefetcher:
    """Interface: train on a demand access and fill the attached cache."""

    def __init__(self, config: PrefetcherConfig, cache: Cache):
        self.degree = config.degree
        self.table_entries = config.table_entries
        self.cache = cache
        #: 1 .. degree: the candidates' distances, in strides or lines.
        self._ahead = tuple(range(1, config.degree + 1))

    def train(self, address: int, pc: int) -> int:
        """Observe one demand access, fill missing candidate lines into the
        attached cache and return the number of candidates issued."""
        raise NotImplementedError


class IPStridePrefetcher(Prefetcher):
    """Classic instruction-pointer-indexed stride prefetcher.

    Tracks the last address and stride per load PC; after two accesses with a
    stable stride, prefetches ``degree`` strides ahead.
    """

    def __init__(self, config: PrefetcherConfig, cache: Cache):
        super().__init__(config, cache)
        #: pc -> [last_address, stride, confidence] (a list, not a dict: the
        #: training path runs once per demand access at every cache level).
        self._table: Dict[int, List[int]] = {}

    def train(self, address: int, pc: int) -> int:
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_entries:
                # Evict the oldest entry (FIFO over insertion order).
                self._table.pop(next(iter(self._table)))
            self._table[pc] = [address, 0, 0]
            return 0
        stride = address - entry[0]
        issued = 0
        if stride != 0 and stride == entry[1]:
            confidence = entry[2] + 1
            if confidence > 3:
                confidence = 3
            entry[2] = confidence
            if confidence >= 2:
                cache = self.cache
                way_maps, sets, line_size = cache._way_maps, cache.num_sets, cache.line_size
                for ahead in self._ahead:
                    candidate = address + stride * ahead
                    if candidate < 0:
                        break   # a descending run: the rest are below zero too
                    issued += 1
                    block = candidate // line_size
                    if block not in way_maps[block % sets]:
                        cache.fill(candidate)
        else:
            entry[2] = 0
        entry[1] = stride
        entry[0] = address
        return issued


class StreamPrefetcher(Prefetcher):
    """Next-line stream prefetcher with simple stream detection.

    Tracks active streams by 4 KB region; once two sequential line accesses
    are seen in a region, prefetches the next ``degree`` lines.

    A call for the same line as the call before it changes no stream and
    issues ascending candidates, as that call did unless its stream
    descended.  If no line has left the cache since those candidates were
    probed (``Cache._removals`` stands still), all of them are still
    present, so the call returns the previous count unprobed.
    """

    REGION_SIZE = 4096

    def __init__(self, config: PrefetcherConfig, cache: Cache):
        super().__init__(config, cache)
        if self.REGION_SIZE % cache.line_size:
            raise ValueError(f"{cache.line_size}-byte lines do not tile "
                             f"{self.REGION_SIZE}-byte stream regions")
        #: region -> [last_line, trained] (list entries; see IPStridePrefetcher).
        self._streams: Dict[int, List[int]] = {}
        self._behind = tuple(-ahead for ahead in self._ahead)
        #: The previous call's line and issue count, and the cache's
        #: removal count before that call probed.
        self._last_line = -1
        self._last_issued = 0
        self._last_removals = -1

    def train(self, address: int, pc: int) -> int:
        cache = self.cache
        line = address // cache.line_size
        removals = cache._removals
        if line == self._last_line and removals == self._last_removals:
            return self._last_issued
        self._last_line = line
        self._last_removals = removals
        region = address // self.REGION_SIZE
        stream = self._streams.get(region)
        if stream is None:
            if len(self._streams) >= self.table_entries:
                self._streams.pop(next(iter(self._streams)))
            self._streams[region] = [line, 0]
            self._last_issued = 0
            return 0
        delta = line - stream[0]
        if delta == 1 or delta == -1:
            trained = stream[1] + 1
            stream[1] = 3 if trained > 3 else trained
        stream[0] = line
        issued = 0
        if stream[1] >= 1:
            if delta >= 0:
                offsets = self._ahead
            else:
                offsets = self._behind
                self._last_line = -1   # a repeat of this line ascends instead
            way_maps, sets, line_size = cache._way_maps, cache.num_sets, cache.line_size
            for offset in offsets:
                block = line + offset
                if block < 0:
                    break   # a descending stream: the rest are below zero too
                issued += 1
                if block not in way_maps[block % sets]:
                    cache.fill(block * line_size)
        self._last_issued = issued
        return issued


def build_prefetcher(config: Optional[PrefetcherConfig], cache: Cache) -> Optional[Prefetcher]:
    """The prefetcher a :class:`PrefetcherConfig` attaches to ``cache``, or
    None for no prefetching."""
    if config is None or config.kind == "none":
        return None
    if config.kind == "ip_stride":
        return IPStridePrefetcher(config, cache)
    if config.kind == "stream":
        return StreamPrefetcher(config, cache)
    raise ValueError(f"unknown prefetcher kind: {config.kind}")
