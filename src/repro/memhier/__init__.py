"""Memory-hierarchy substrate: caches, prefetchers and the DRAM model.

These models stand in for the cache and main-memory models of Sniper /
ChampSim / Ramulator2 in the original artifact.  They are trace-driven and
latency-producing: each access returns the number of core cycles it took and
updates hit/miss/row-buffer statistics that the experiments aggregate.
"""

from repro.memhier.cache import Cache
from repro.memhier.dram import DRAMModel
from repro.memhier.memory_system import MemoryHierarchy
from repro.memhier.prefetcher import IPStridePrefetcher, StreamPrefetcher, build_prefetcher

__all__ = [
    "Cache",
    "DRAMModel",
    "MemoryHierarchy",
    "IPStridePrefetcher",
    "StreamPrefetcher",
    "build_prefetcher",
]
