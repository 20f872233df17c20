"""Tests for the cache, prefetcher, DRAM and memory-hierarchy models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig, DRAMConfig, PrefetcherConfig
from repro.common.lru import LRU
from repro.memhier.cache import Cache
from repro.memhier.dram import DRAMModel
from repro.memhier.memory_system import MemoryHierarchy
from repro.memhier.prefetcher import (
    IPStridePrefetcher,
    StreamPrefetcher,
    build_prefetcher,
)
from tests.test_cache_oracle import access_bool, cached


def small_cache(replacement="lru", size=4096, assoc=4, latency=2) -> Cache:
    return Cache(CacheConfig("test", size_bytes=size, associativity=assoc,
                             latency=latency, replacement=replacement))


class TestCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        first = access_bool(cache, 0x1000)
        second = access_bool(cache, 0x1000)
        assert not first and second
        assert cache.counters.get("hits_data") == 1
        assert cache.misses() == 1

    def test_same_line_different_offsets_hit(self):
        cache = small_cache()
        access_bool(cache, 0x1000)
        assert access_bool(cache, 0x1010)

    def test_lru_eviction_order(self):
        cache = small_cache(size=4 * 64, assoc=4)  # one set of 4 ways
        for index in range(4):
            access_bool(cache, index * 64 * cache.num_sets)
        access_bool(cache, 0)  # refresh line 0
        access_bool(cache, 5 * 64 * cache.num_sets)  # evicts the LRU (line 1)
        assert cached(cache, 0)
        assert not cached(cache, 1 * 64 * cache.num_sets)

    def test_lru_stamp_tie_breaks_by_way_order(self):
        """A prefetch fill does not advance the clock, so it can share a
        stamp with a demand line; the tie then goes to the lower way, not
        to the least recently touched line.  This is why the cache keeps
        stamps instead of the recency-ordered LRU the TLBs use."""
        cache = small_cache(size=4 * 64, assoc=4)  # one set of 4 ways
        a, x, y, z, b, e = (index * 64 for index in range(6))
        for line in (a, x, y, z):
            access_bool(cache, line)
        cache.fill(b)         # prefetch into way 0: evicts a, takes z's stamp
        access_bool(cache, x)
        access_bool(cache, y)
        assert cache._blocks[0][0] == b // 64 and cache._blocks[0][3] == z // 64
        stamps = cache._meta[0]
        assert stamps[0] == stamps[3]   # b and z tie

        # Pure recency would evict z: it was touched before b was filled.
        recency = LRU(4)
        for line in (a, x, y, z):
            recency.put(line, None)
        recency.pop(a)        # b's fill evicts the least recent line
        recency.put(b, None)
        recency.move_to_end(x)
        recency.move_to_end(y)
        assert next(iter(recency)) == z

        access_bool(cache, e)
        assert not cached(cache, b)   # the tie went to the lower way
        assert cached(cache, z)

    def test_srrip_eviction(self):
        cache = small_cache(replacement="srrip", size=4 * 64, assoc=4)
        for index in range(8):
            access_bool(cache, index * 64 * cache.num_sets)
        assert cache.counters.get("evictions") == 4

    def test_fill_does_not_count_as_demand(self):
        cache = small_cache()
        cache.fill(0x3000)
        assert cache.counters.get("accesses_data") == 0
        assert cached(cache, 0x3000)

    def test_pollution_attribution(self):
        cache = small_cache(size=1 * 64, assoc=1)
        access_bool(cache, 0, request_type="data")
        access_bool(cache, 64 * cache.num_sets, request_type="ptw")
        assert cache.counters.get("pollution_evictions_by_ptw") == 1

    def test_miss_rate(self):
        cache = small_cache()
        access_bool(cache, 0)
        access_bool(cache, 0)
        assert cache.misses() / cache.counters.get("accesses_data") == pytest.approx(0.5)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_never_exceeds_capacity_property(self, addresses):
        cache = small_cache(size=16 * 64, assoc=4)
        for address in addresses:
            access_bool(cache, address)
        resident = sum(1 for blocks in cache._blocks for block in blocks
                       if block is not None)
        assert resident == sum(len(way_map) for way_map in cache._way_maps)
        assert resident <= 16
        assert cache.counters.get("hits_data") + cache.misses() == len(addresses)


class TestPrefetchers:
    """Each prefetcher trains on a demand access and fills its own cache;
    ``train`` returns the candidates issued, present lines included."""

    def test_null_prefetcher(self):
        cache = small_cache()
        assert build_prefetcher(None, cache) is None
        assert build_prefetcher(PrefetcherConfig("none"), cache) is None

    def test_ip_stride_detects_stride(self):
        cache = small_cache()
        prefetcher = IPStridePrefetcher(PrefetcherConfig("ip_stride", degree=2), cache)
        pc = 0x400
        assert prefetcher.train(0x1000, pc) == 0
        assert prefetcher.train(0x1040, pc) == 0
        assert prefetcher.train(0x1080, pc) == 0
        assert prefetcher.train(0x10C0, pc) == 2
        assert cached(cache, 0x1100) and cached(cache, 0x1140)
        assert cache.counters.get("fills_prefetch") == 2
        assert cache.counters.get("accesses_data") == 0
        # 0x1140 is already present: it counts as issued but is not refilled.
        assert prefetcher.train(0x1100, pc) == 2
        assert cached(cache, 0x1180)
        assert cache.counters.get("fills_prefetch") == 3

    def test_ip_stride_resets_on_irregular_pattern(self):
        cache = small_cache()
        prefetcher = IPStridePrefetcher(PrefetcherConfig("ip_stride", degree=1), cache)
        pc = 0x400
        prefetcher.train(0x1000, pc)
        prefetcher.train(0x1040, pc)
        assert prefetcher.train(0x9000, pc) == 0
        assert cache.counters.get("fills_prefetch") == 0

    def test_stream_prefetcher_trains_within_region(self):
        cache = small_cache()
        prefetcher = StreamPrefetcher(PrefetcherConfig("stream", degree=2), cache)
        assert prefetcher.train(0x2000, 0) == 0
        assert prefetcher.train(0x2040, 0) == 2
        assert cached(cache, 0x2080) and cached(cache, 0x20C0)
        assert cache.counters.get("fills_prefetch") == 2

    def test_stream_repeat_after_an_eviction_refills(self):
        cache = small_cache(size=4 * 64, assoc=1)    # four sets of one way
        prefetcher = StreamPrefetcher(PrefetcherConfig("stream", degree=1), cache)
        prefetcher.train(0x2000, 0)
        assert prefetcher.train(0x2040, 0) == 1      # fills line 0x2080
        access_bool(cache, 0x2080 + 4 * 64)     # evicts it from its set
        assert not cached(cache, 0x2080)
        assert prefetcher.train(0x2040, 0) == 1
        assert cached(cache, 0x2080)

    def test_stream_repeat_after_a_descent_issues_ascending(self):
        """A descending call issues the lines below; repeating its line is a
        delta of 0, which issues the lines above."""
        cache = small_cache()
        prefetcher = StreamPrefetcher(PrefetcherConfig("stream", degree=1), cache)
        prefetcher.train(0x2080, 0)
        assert prefetcher.train(0x2040, 0) == 1      # descending: fills 0x2000
        assert cached(cache, 0x2000) and not cached(cache, 0x2080)
        assert prefetcher.train(0x2040, 0) == 1      # ascending: fills 0x2080
        assert cached(cache, 0x2080)

    @pytest.mark.parametrize("kind, addresses", [
        ("ip_stride", (0x100, 0xC0, 0x80, 0x40)),   # candidates 0x0 and -0x40
        ("stream", (0x80, 0x40)),                    # candidate lines 0 and -1
    ])
    def test_negative_candidate_near_zero_is_dropped_uncounted(self, kind, addresses):
        cache = small_cache()
        prefetcher = build_prefetcher(PrefetcherConfig(kind, degree=2), cache)
        issued = [prefetcher.train(address, 0x400) for address in addresses]
        assert issued[-1] == 1
        assert cached(cache, 0x0)
        assert cache.counters.get("fills_prefetch") == 1

    def test_build_prefetcher_factory(self):
        cache = small_cache()
        stride = build_prefetcher(PrefetcherConfig("ip_stride"), cache)
        stream = build_prefetcher(PrefetcherConfig("stream"), cache)
        assert isinstance(stride, IPStridePrefetcher) and stride.cache is cache
        assert isinstance(stream, StreamPrefetcher) and stream.cache is cache
        with pytest.raises(ValueError):
            build_prefetcher(PrefetcherConfig("magic"), cache)


class TestDRAM:
    def make(self, policy="open") -> DRAMModel:
        return DRAMModel(DRAMConfig(capacity_bytes=1 << 30, channels=2, ranks_per_channel=1,
                                    banks_per_rank=4, page_policy=policy))

    def test_row_hit_after_first_access(self):
        dram = self.make()
        first = dram.access_value(0x1000)
        second = dram.access_value(0x1000)
        assert dram.counters.get("row_hits") == 1
        assert second == dram.config.row_hit_latency < first

    def test_row_conflict_latency_is_highest(self):
        dram = self.make()
        base = 0x0
        conflicting = dram.config.row_size_bytes * dram.num_channels * dram.banks_per_channel * 8
        dram.access_value(base)
        latency = dram.access_value(conflicting)
        # Same bank, different row -> conflict.
        assert dram.counters.get("row_conflicts") == 1
        assert latency == dram.config.row_conflict_latency

    def test_closed_page_policy_never_hits(self):
        dram = self.make(policy="closed")
        dram.access_value(0x1000)
        dram.access_value(0x1000)
        assert dram.counters.get("row_hits") == 0

    def test_conflict_attribution_by_request_type(self):
        dram = self.make()
        stride = dram.config.row_size_bytes * dram.num_channels * dram.banks_per_channel * 4
        dram.access_value(0x0, request_type="data")
        dram.access_value(stride, request_type="ptw")
        assert dram.counters.get("row_conflicts_caused_by_ptw") == 1
        assert dram.translation_row_conflicts() == 1

    def test_hit_and_access_counts(self):
        dram = self.make()
        dram.access_value(0)
        dram.access_value(0)
        assert (dram.counters.get("row_hits"), dram.counters.get("accesses")) == (1, 2)

    def test_channel_interleaving(self):
        """Consecutive lines alternate channels: with one bank per channel,
        the line one row further on in channel 0 conflicts with line 0, and
        its neighbour, in channel 1, does not."""
        dram = DRAMModel(DRAMConfig(capacity_bytes=1 << 30, channels=2, ranks_per_channel=1,
                                    banks_per_rank=1))
        span = dram.config.row_size_bytes * dram.num_channels
        dram.access_value(0)
        dram.access_value(span + 64)
        assert dram.counters.get("row_conflicts") == 0
        dram.access_value(span)
        assert dram.counters.get("row_conflicts") == 1


class TestMemoryHierarchy:
    def build(self) -> MemoryHierarchy:
        return MemoryHierarchy(
            l1_config=CacheConfig("L1", 4 * 1024, 4, 2),
            l2_config=CacheConfig("L2", 16 * 1024, 4, 8),
            l3_config=CacheConfig("L3", 64 * 1024, 8, 20),
            dram_config=DRAMConfig(capacity_bytes=1 << 30),
        )

    def test_first_access_goes_to_dram(self):
        hierarchy = self.build()
        hierarchy.access_value(0x12345)
        assert hierarchy.last_served_by == "DRAM"

    def test_second_access_hits_l1(self):
        hierarchy = self.build()
        hierarchy.access_value(0x12345)
        latency = hierarchy.access_value(0x12345)
        assert hierarchy.last_served_by == "L1"
        assert latency == hierarchy.l1.latency

    def test_latency_accumulates_down_the_hierarchy(self):
        hierarchy = self.build()
        latency = hierarchy.access_value(0x777000)
        expected_minimum = (hierarchy.l1.latency + hierarchy.l2.latency
                            + hierarchy.l3.latency)
        assert latency > expected_minimum

    def test_request_type_tracking(self):
        hierarchy = self.build()
        hierarchy.access_value(0x1000, access_type="ptw")
        assert hierarchy.counters.get("requests_ptw") == 1

    def test_stats_structure(self):
        hierarchy = self.build()
        hierarchy.access_value(0x1)
        stats = hierarchy.stats()
        assert set(stats) == {"hierarchy", "l1", "l2", "l3", "dram"}

    def test_access_value_stays_a_class_method(self):
        """The per-layer tracer wraps ``vars(MemoryHierarchy)["access_value"]``:
        a bound closure stored on the instance would hide the layer."""
        hierarchy = self.build()
        hierarchy.access_value(0x1000)
        assert "access_value" in vars(MemoryHierarchy)
        assert "access_value" not in vars(hierarchy)

    def test_write_costs_what_a_read_does(self):
        reads, writes = self.build(), self.build()
        addresses = [line * 4096 + 64 * (line % 3) for line in range(40)] * 2
        for address in addresses:
            assert reads.access_value(address) == writes.access_value(address, True)
            assert reads.last_served_by == writes.last_served_by
        assert reads.stats() == writes.stats()

    @staticmethod
    def one_line_levels(replacement) -> MemoryHierarchy:
        """Every level one set of one way, so every miss evicts."""
        return MemoryHierarchy(
            *(CacheConfig(name, 64, 1, latency, replacement=replacement)
              for name, latency in (("L1", 2), ("L2", 5), ("L3", 11))),
            dram_config=DRAMConfig(capacity_bytes=1 << 30))

    @pytest.mark.parametrize("replacement", ["lru", "srrip"])
    def test_demand_eviction_is_counted_at_every_level(self, replacement):
        hierarchy = self.one_line_levels(replacement)
        hierarchy.access_value(0x0, access_type="data")
        hierarchy.access_value(0x40, access_type="kernel")
        assert hierarchy.last_served_by == "DRAM"
        for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            assert cache._removals == 1
            assert cache.counters.get("evictions") == 1
            assert cache.counters.get("pollution_evictions_by_kernel") == 1
            assert cached(cache, 0x40) and not cached(cache, 0x0)
        hierarchy.access_value(0x80, access_type="kernel")   # same class: no pollution
        for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            assert cache.counters.get("evictions") == 2
            assert cache.counters.get("pollution_evictions_by_kernel") == 1

    @pytest.mark.parametrize("level", ["L1", "L2", "L3"])
    def test_lru_demand_miss_breaks_a_stamp_tie_by_way_order(self, level):
        """The demand-miss victim loop at each level: a prefetch fill into
        the level's full set evicts ``a`` and shares ``z``'s stamp (fills do
        not advance the clock); once ``x`` and ``y`` are touched again, the
        next miss must evict the lower way, ``b``, not ``z``.  The levels
        above have one way, so every access here reaches ``level``."""
        configs = {name: CacheConfig(name, (4 if name == level else 1) * 64,
                                     4 if name == level else 1, latency)
                   for name, latency in (("L1", 2), ("L2", 5), ("L3", 11))}
        hierarchy = MemoryHierarchy(configs["L1"], configs["L2"], configs["L3"],
                                    DRAMConfig(capacity_bytes=1 << 30))
        cache = {"L1": hierarchy.l1, "L2": hierarchy.l2, "L3": hierarchy.l3}[level]
        a, x, y, z, b, e = (index * 64 for index in range(6))
        for line in (a, x, y, z):
            hierarchy.access_value(line)
        cache.fill(b)
        assert cache._blocks[0] == [b // 64, x // 64, y // 64, z // 64]
        for line in (x, y):
            hierarchy.access_value(line)
            assert hierarchy.last_served_by == level
        hierarchy.access_value(e)
        assert not cached(cache, b) and cached(cache, z)

    def test_from_system_config(self, system_config):
        hierarchy = MemoryHierarchy.from_system_config(system_config)
        assert hierarchy.l1.config.size_bytes == system_config.l1d_cache.size_bytes

    def test_per_core_view_builds_only_its_l1(self, system_config, monkeypatch):
        shared = MemoryHierarchy.from_system_config(system_config)
        built = []
        build_cache = Cache.__init__

        def counting_cache(cache, config):
            built.append(config.name)
            build_cache(cache, config)

        def no_dram(dram, config):
            raise AssertionError("a per-core view must not build a DRAM model")

        monkeypatch.setattr(Cache, "__init__", counting_cache)
        monkeypatch.setattr(DRAMModel, "__init__", no_dram)
        view = MemoryHierarchy.per_core_view(shared, system_config)
        assert built == [system_config.l1d_cache.name]
        assert view.l2 is shared.l2 and view.l3 is shared.l3 and view.dram is shared.dram
        assert view.l2_prefetcher is shared.l2_prefetcher
        assert view.l1 is not shared.l1
        assert view.l1_prefetcher is not shared.l1_prefetcher
        assert view.l1_prefetcher.cache is view.l1
