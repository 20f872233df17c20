"""Tests for the hash-based page tables: HDC, the chained HT and elastic cuckoo."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.cuckoo import BUCKET_SIZE, ElasticCuckooPageTable
from repro.pagetables.hashchain import ChainedHashPageTable
from repro.pagetables.hashing import bucket_index, mix64
from repro.pagetables.hdc import OpenAddressingHashPageTable
from tests.conftest import FlatMemory


class TestHashing:
    def test_mix64_deterministic(self):
        assert mix64(12345) == mix64(12345)
        assert mix64(12345, salt=1) != mix64(12345, salt=2)

    def test_bucket_index_in_range(self):
        for key in range(100):
            assert 0 <= bucket_index(key, 17) < 17

    def test_bucket_index_rejects_empty_table(self):
        with pytest.raises(ValueError):
            bucket_index(1, 0)


ALL_HASH_TABLES = [
    pytest.param(lambda: OpenAddressingHashPageTable(table_size_bytes=1 << 20), id="hdc"),
    pytest.param(lambda: ChainedHashPageTable(table_size_bytes=1 << 20), id="ht"),
    pytest.param(lambda: ElasticCuckooPageTable(initial_buckets_per_way=512), id="ech"),
]


@pytest.mark.parametrize("factory", ALL_HASH_TABLES)
class TestHashTableCommonBehaviour:
    def test_insert_lookup_roundtrip(self, factory):
        table = factory()
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K)
        assert table.lookup(0x7F00_0000_0000) == (0x10_0000, PAGE_SIZE_4K)

    def test_walk_finds_installed_mapping(self, factory):
        table = factory()
        memory = FlatMemory()
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K)
        result = table.walk(0x7F00_0000_0000 + 100, memory)
        assert result.found
        assert result.physical_base == 0x10_0000
        assert result.memory_accesses >= 1

    def test_walk_miss(self, factory):
        table = factory()
        result = table.walk(0x1234_5000, FlatMemory())
        assert not result.found

    def test_remove(self, factory):
        table = factory()
        table.insert(0x6000_0000, 0x40_0000, PAGE_SIZE_4K)
        assert table.remove(0x6000_0000)
        assert table.lookup(0x6000_0000) is None
        assert not table.walk(0x6000_0000, FlatMemory()).found

    def test_huge_page_support(self, factory):
        table = factory()
        table.insert(0x4000_0000, 0x800_0000, PAGE_SIZE_2M)
        assert table.lookup(0x4000_0000 + 0x12345) == (0x800_0000, PAGE_SIZE_2M)
        result = table.walk(0x4000_0000 + 0x12345, FlatMemory())
        assert result.found and result.page_size == PAGE_SIZE_2M

    def test_insert_records_kernel_work(self, factory):
        table = factory()
        trace = KernelRoutineTrace("fault")
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K, trace)
        assert trace.ops, "hash PT insert should record kernel work"

    def test_no_pt_frames_allocated_per_insert(self, factory):
        table = factory()
        before = table.frame_allocator(None)
        for index in range(50):
            table.insert(0x7F00_0000_0000 + index * PAGE_SIZE_4K, index * PAGE_SIZE_4K,
                         PAGE_SIZE_4K)
        after = table.frame_allocator(None)
        # The bump allocator only moved by the two probe calls made here, not
        # by the 50 insertions: hash PTs allocate their tables up front.
        assert after - before == PAGE_SIZE_4K

    @given(st.sets(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=50))
    @settings(max_examples=15, deadline=None)
    def test_many_mappings_stay_consistent_property(self, factory, page_numbers):
        table = factory()
        memory = FlatMemory()
        expected = {}
        for index, vpn in enumerate(sorted(page_numbers)):
            virtual = 0x7F00_0000_0000 + vpn * PAGE_SIZE_4K
            physical = 0x20_0000_0000 + index * PAGE_SIZE_4K
            table.insert(virtual, physical, PAGE_SIZE_4K)
            expected[virtual] = physical
        for virtual, physical in expected.items():
            assert table.lookup(virtual) == (physical, PAGE_SIZE_4K)
            walk = table.walk(virtual, memory)
            assert walk.found and walk.physical_base == physical


class TestHDCSpecifics:
    def test_single_access_walk_in_common_case(self):
        table = OpenAddressingHashPageTable(table_size_bytes=1 << 22)
        memory = FlatMemory()
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K)
        result = table.walk(0x7F00_0000_0000, memory)
        assert result.memory_accesses == 1

    def test_collisions_extend_probe_sequence(self):
        table = OpenAddressingHashPageTable(table_size_bytes=64 * 4)  # 4 buckets
        for index in range(4):
            # Addresses in distinct clusters so each insert needs its own bucket.
            table.insert(0x7F00_0000_0000 + index * PAGE_SIZE_4K * 8,
                         index * PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert table.counters.get("insert_probes") >= 4

    def test_clustered_pages_share_a_bucket(self):
        table = OpenAddressingHashPageTable(table_size_bytes=1 << 20)
        base = 0x7F00_0000_0000
        for index in range(8):
            table.insert(base + index * PAGE_SIZE_4K, index * PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert len(table._buckets) == 1
        walk = table.walk(base + 3 * PAGE_SIZE_4K, FlatMemory())
        assert walk.found and walk.memory_accesses == 1


class TestChainedHashSpecifics:
    #: Pages this far apart fall into different 8-PTE clusters.
    CLUSTER_STRIDE = PAGE_SIZE_4K * 8

    def test_chain_length_grows_with_collisions(self):
        table = ChainedHashPageTable(table_size_bytes=64 * 2)  # 2 buckets
        for index in range(6):
            table.insert(0x7F00_0000_0000 + index * self.CLUSTER_STRIDE,
                         index * PAGE_SIZE_4K, PAGE_SIZE_4K)
        # Each insert counts the length of its chain: 6 alone in a chain
        # would count 6, and any split of 6 keys over 2 chains counts >= 12.
        assert table.counters.get("chain_length_total") >= 12

    def test_chained_walk_costs_grow_with_chain_position(self):
        table = ChainedHashPageTable(table_size_bytes=64 * 1)  # single bucket
        memory = FlatMemory()
        addresses = [0x7F00_0000_0000 + index * self.CLUSTER_STRIDE for index in range(4)]
        for index, address in enumerate(addresses):
            table.insert(address, index * PAGE_SIZE_4K, PAGE_SIZE_4K)
        first = table.walk(addresses[0], memory)
        last = table.walk(addresses[-1], memory)
        assert last.memory_accesses > first.memory_accesses

    def test_clustered_pages_share_a_chain_entry(self):
        table = ChainedHashPageTable(table_size_bytes=1 << 20)
        memory = FlatMemory()
        base = 0x7F00_0000_0000
        for index in range(8):  # one 8-PTE cluster
            table.insert(base + index * PAGE_SIZE_4K, index * PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert table.counters.get("chain_length_total") == 8  # one entry, every time
        walk = table.walk(base + 7 * PAGE_SIZE_4K, memory)
        assert walk.found and walk.memory_accesses == 1


class TestElasticCuckooSpecifics:
    def test_parallel_probe_traffic(self):
        table = ElasticCuckooPageTable(ways=4, initial_buckets_per_way=512)
        memory = FlatMemory()
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K)
        result = table.walk(0x7F00_0000_0000, memory)
        # All four nests are probed even though latency is the max of them.
        assert result.memory_accesses == 4
        assert result.latency <= memory.latency + table.cwc_latency

    def test_elastic_resize_on_pressure(self):
        table = ElasticCuckooPageTable(ways=2, initial_buckets_per_way=4)
        for index in range(64):
            table.insert(0x7F00_0000_0000 + index * PAGE_SIZE_4K, index * PAGE_SIZE_4K,
                         PAGE_SIZE_4K)
        assert table.counters.get("elastic_resizes") >= 1
        # Every mapping must still be reachable after resizes.
        for index in range(64):
            virtual = 0x7F00_0000_0000 + index * PAGE_SIZE_4K
            assert table.lookup(virtual) == (index * PAGE_SIZE_4K, PAGE_SIZE_4K)

    def test_occupancy_counts_inserts(self):
        table = ElasticCuckooPageTable(initial_buckets_per_way=128)
        assert PAGE_SIZE_4K not in table._tables
        table.insert(0x7F00_0000_0000, 0, PAGE_SIZE_4K)
        assert table._tables[PAGE_SIZE_4K].occupancy == 1

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_resizes_keep_every_mapping_walkable(self, seed):
        """An elastic resize re-places every key through the relocation
        loop and moves the grown table to a fresh range: every page still
        walks, occupancy counts every mapping, and the 4 KB and 2 MB
        tables' bucket ranges stay disjoint."""
        table = ElasticCuckooPageTable(ways=2, initial_buckets_per_way=1)
        pages = [page * PAGE_SIZE_4K for page in random.Random(seed).sample(range(1 << 20), 300)]
        huge = [(1 << 40) + index * PAGE_SIZE_2M for index in range(4)]
        # The 2 MB table is laid out right after the first 4 KB one.
        table.insert(pages[0], pages[0], PAGE_SIZE_4K)
        for virtual in huge:
            table.insert(virtual, virtual, PAGE_SIZE_2M)
        for virtual in pages[1:]:
            table.insert(virtual, virtual, PAGE_SIZE_4K)
        assert table.counters.get("elastic_resizes") > 0
        memory = FlatMemory()
        for virtual in pages + huge:
            assert table.walk(virtual, memory).found, hex(virtual)
        tables = table._tables.values()
        assert sum(nests.occupancy for nests in tables) == len(pages) + len(huge)
        assert all(nests.occupancy == sum(map(len, nests.nests)) for nests in tables)
        ranges = sorted((nests.base_address,
                         nests.base_address + nests.ways * nests.buckets_per_way * BUCKET_SIZE)
                        for nests in tables)
        assert all(end <= start for (_, end), (start, _) in zip(ranges, ranges[1:])), ranges

    def test_walk_of_an_empty_table_counts_zero_accesses(self):
        """No nest is built yet, so the walk reads nothing, and
        ``walk_memory_accesses`` is still present, at 0."""
        table = ElasticCuckooPageTable()
        result = table.walk(0x7F00_0000_0000, FlatMemory())
        assert not result.found and result.memory_accesses == 0
        assert table.stats() == {"walks": 1, "walk_faults": 1, "walk_memory_accesses": 0}
