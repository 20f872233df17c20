"""Tests for the radix page table, page-walk caches and the shared base class."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import PageTableBase
from repro.pagetables.radix import PageWalkCache, RadixPageTable


class TestPageWalkCache:
    def test_miss_then_hit(self):
        pwc = PageWalkCache("PWC", coverage_shift=21)
        assert not pwc.lookup(0x4000_0000)
        pwc.fill(0x4000_0000)
        assert pwc.lookup(0x4000_0000)

    def test_coverage_granularity(self):
        pwc = PageWalkCache("PWC", coverage_shift=21)
        pwc.fill(0x4000_0000)
        assert pwc.lookup(0x4000_0000 + PAGE_SIZE_4K)       # same 2 MB region
        assert not pwc.lookup(0x4000_0000 + PAGE_SIZE_2M)   # next region

    def test_lru_eviction_within_set(self):
        pwc = PageWalkCache("PWC", entries=4, associativity=4, coverage_shift=21)
        for index in range(5):
            pwc.fill(index * PAGE_SIZE_2M * pwc.num_sets)
        hits = sum(pwc.lookup(index * PAGE_SIZE_2M * pwc.num_sets) for index in range(5))
        assert hits == 4

    def test_invalidate(self):
        pwc = PageWalkCache("PWC", coverage_shift=21)
        pwc.fill(0x1000)
        pwc.invalidate(0x1000)
        assert not pwc.lookup(0x1000)

    def test_hit_rate(self):
        pwc = PageWalkCache("PWC")
        pwc.lookup(0)
        pwc.fill(0)
        pwc.lookup(0)
        assert (pwc.counters.get("hits"), pwc.counters.get("misses")) == (1, 1)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PageWalkCache("PWC", entries=10, associativity=4)


class TestRadixPageTable:
    def test_insert_and_functional_lookup(self):
        table = RadixPageTable()
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K)
        assert table.lookup(0x7F00_0000_0000) == (0x10_0000, PAGE_SIZE_4K)
        assert table.lookup(0x7F00_0000_0123) == (0x10_0000, PAGE_SIZE_4K)
        assert table.translate_functional(0x7F00_0000_0123) == 0x10_0123

    def test_lookup_missing(self):
        assert RadixPageTable().lookup(0x1234_0000) is None

    def test_walk_finds_mapping_with_four_accesses(self, flat_memory):
        table = RadixPageTable(enable_pwcs=False)
        table.insert(0x5555_0000, 0x20_0000, PAGE_SIZE_4K)
        result = table.walk(0x5555_0000, flat_memory)
        assert result.found
        assert result.memory_accesses == 4
        assert result.physical_base == 0x20_0000

    def test_walk_miss_reports_fault(self, flat_memory):
        table = RadixPageTable()
        result = table.walk(0x1234_5000, flat_memory)
        assert not result.found

    def test_huge_page_walk_terminates_early(self, flat_memory):
        table = RadixPageTable(enable_pwcs=False)
        table.insert(0x4000_0000, 0x800_0000, PAGE_SIZE_2M)
        result = table.walk(0x4000_0000 + 0x1234, flat_memory)
        assert result.found
        assert result.page_size == PAGE_SIZE_2M
        assert result.memory_accesses == 3

    def test_gigabyte_page_walk(self, flat_memory):
        table = RadixPageTable(enable_pwcs=False)
        table.insert(0x40_0000_0000, 0x1_0000_0000, PAGE_SIZE_1G)
        result = table.walk(0x40_0000_0000 + 123456, flat_memory)
        assert result.found
        assert result.page_size == PAGE_SIZE_1G
        assert result.memory_accesses == 2

    def test_pwc_reduces_walk_accesses(self, flat_memory):
        table = RadixPageTable()
        table.insert(0x7F00_0000_0000, 0x30_0000, PAGE_SIZE_4K)
        first = table.walk(0x7F00_0000_0000, flat_memory)
        second = table.walk(0x7F00_0000_0000 + PAGE_SIZE_4K, flat_memory)
        # The second walk shares PGD/PUD/PMD with the first, so the PMD-level
        # PWC lets it skip to the leaf access.
        assert second.memory_accesses < first.memory_accesses
        assert second.memory_accesses == 1

    def test_remove(self, flat_memory):
        table = RadixPageTable()
        table.insert(0x6000_0000, 0x40_0000, PAGE_SIZE_4K)
        assert table.remove(0x6000_0000)
        assert table.lookup(0x6000_0000) is None
        assert not table.walk(0x6000_0000, flat_memory).found
        assert not table.remove(0x6000_0000)

    def test_pt_frame_allocation_counted(self):
        table = RadixPageTable()
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K)
        assert table.counters.get("pt_frames_allocated") == 3  # PUD, PMD, PTE nodes
        table.insert(0x7F00_0000_1000, 0x11_0000, PAGE_SIZE_4K)
        assert table.counters.get("pt_frames_allocated") == 3  # shares all interior nodes

    def test_insert_records_kernel_work(self):
        table = RadixPageTable()
        trace = KernelRoutineTrace("fault")
        table.insert(0x7F00_0000_0000, 0x10_0000, PAGE_SIZE_4K, trace)
        assert "radix_pt_update" in [op.name for op in trace.ops]
        assert sum(len(op.memory_touches) for op in trace.ops) >= 4

    def test_unsupported_page_size_rejected(self):
        with pytest.raises(ValueError):
            RadixPageTable().insert(0, 0, 8192)

    def test_mapped_accounting(self):
        table = RadixPageTable()
        table.insert(0x1000_0000, 0x1000, PAGE_SIZE_4K)
        table.insert(0x4000_0000, 0x200000, PAGE_SIZE_2M)
        assert len(table._mappings) == 2
        sizes = sorted(mapping.page_size for mapping in table._mappings.values())
        assert sizes == [PAGE_SIZE_4K, PAGE_SIZE_2M]

    @given(st.sets(st.integers(min_value=0, max_value=1 << 22), min_size=1, max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_insert_lookup_walk_agree_property(self, page_numbers):
        from tests.conftest import FlatMemory
        flat_memory = FlatMemory()
        table = RadixPageTable()
        mappings = {}
        for index, vpn in enumerate(sorted(page_numbers)):
            virtual = 0x7F00_0000_0000 + vpn * PAGE_SIZE_4K
            physical = 0x10_0000_0000 + index * PAGE_SIZE_4K
            table.insert(virtual, physical, PAGE_SIZE_4K)
            mappings[virtual] = physical
        for virtual, physical in mappings.items():
            assert table.lookup(virtual) == (physical, PAGE_SIZE_4K)
            walk = table.walk(virtual, flat_memory)
            assert walk.found and walk.physical_base == physical


def split_vpn_radix(virtual_address):
    """Reference split of a virtual address into its four 9-bit table
    indices, PGD first (x86-64 four-level paging)."""
    return [virtual_address >> shift & 511 for shift in (39, 30, 21, 12)]


def pte_reads(table, virtual_address):
    """The PTE addresses one PWC-less walk of ``virtual_address`` reads."""
    from tests.conftest import FlatMemory
    memory = FlatMemory()
    assert table.walk(virtual_address, memory).found
    assert not any(is_write for _, is_write in memory.accesses)
    return [address for address, _ in memory.accesses]


class TestRadixIndexing:
    """Each level of a walk reads the PTE its 9-bit index selects in a 4 KB
    node: the reference split names the entry, the node frame holds it."""

    @pytest.mark.parametrize("virtual_address, indices", [
        (0, [0, 0, 0, 0]),
        (1 << 39, [1, 0, 0, 0]),
        (3 << 39 | 5 << 30 | 7 << 21 | 9 << 12 | 0x123, [3, 5, 7, 9]),
        ((1 << 48) - 1, [511, 511, 511, 511]),
    ])
    def test_walk_reads_the_pte_at_each_level_index(self, virtual_address, indices):
        assert split_vpn_radix(virtual_address) == indices
        table = RadixPageTable(enable_pwcs=False)
        table.insert(virtual_address & ~(PAGE_SIZE_4K - 1), 0x10_0000, PAGE_SIZE_4K)
        reads = pte_reads(table, virtual_address)
        assert [address % PAGE_SIZE_4K for address in reads] == [8 * i for i in indices]
        assert len({address // PAGE_SIZE_4K for address in reads}) == 4

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    @settings(max_examples=50, deadline=None)
    def test_walk_pte_offsets_match_the_split_property(self, virtual_address):
        table = RadixPageTable(enable_pwcs=False)
        table.insert(virtual_address & ~(PAGE_SIZE_4K - 1), 0x10_0000, PAGE_SIZE_4K)
        reads = pte_reads(table, virtual_address)
        indices = split_vpn_radix(virtual_address)
        assert all(0 <= index < 512 for index in indices)
        assert [address % PAGE_SIZE_4K for address in reads] == [8 * i for i in indices]

    @pytest.mark.parametrize("page_size, levels", [(PAGE_SIZE_2M, 3), (PAGE_SIZE_1G, 2)])
    def test_huge_walk_stops_at_its_leaf_index(self, page_size, levels):
        virtual_address = 0x7F12_3456_789A
        table = RadixPageTable(enable_pwcs=False)
        table.insert(virtual_address & ~(page_size - 1), 0x4000_0000, page_size)
        reads = pte_reads(table, virtual_address)
        assert [address % PAGE_SIZE_4K for address in reads] == [
            8 * i for i in split_vpn_radix(virtual_address)[:levels]]

    @pytest.mark.parametrize("page_size", [PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G])
    def test_insert_writes_the_ptes_the_walk_reads(self, page_size):
        """Into an empty table, an insert writes one PTE per level it
        creates, ending with the leaf: exactly the entries the walk reads."""
        virtual_address = 0x7F12_4000_0000
        table = RadixPageTable(enable_pwcs=False)
        trace = KernelRoutineTrace("fault")
        table.insert(virtual_address, 0x4000_0000, page_size, trace)
        touches = [touch for op in trace.ops for touch in op.memory_touches]
        assert all(is_write for _, is_write in touches)
        assert [address for address, _ in touches] == pte_reads(table, virtual_address)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_addresses_that_differ_at_one_level_share_the_nodes_above_it(self, level):
        """Two pages whose indices differ only at ``level`` read the same
        PTEs above it, two entries of one node at it, and separate nodes
        below it."""
        first = 0x7F12_3456_7000
        index = split_vpn_radix(first)[level]
        shift = (39, 30, 21, 12)[level]
        second = first - (index << shift) + ((index + 1) % 512 << shift)
        assert [a == b for a, b in zip(split_vpn_radix(first), split_vpn_radix(second))] == [
            depth != level for depth in range(4)]
        table = RadixPageTable(enable_pwcs=False)
        table.insert(first, 0x10_0000, PAGE_SIZE_4K)
        table.insert(second, 0x11_0000, PAGE_SIZE_4K)
        reads_first, reads_second = pte_reads(table, first), pte_reads(table, second)
        assert reads_first[:level] == reads_second[:level]
        assert reads_first[level] != reads_second[level]
        assert reads_first[level] // PAGE_SIZE_4K == reads_second[level] // PAGE_SIZE_4K
        for a, b in zip(reads_first[level + 1:], reads_second[level + 1:]):
            assert a // PAGE_SIZE_4K != b // PAGE_SIZE_4K
