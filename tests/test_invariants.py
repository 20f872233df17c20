"""The translation check, and the stale-translation defects it found.

Two families:

* the check — :func:`repro.validation.invariants.check_translations` is
  clean on healthy runs, names a stale TLB or nested-TLB entry (core,
  structure, address, cached and live translation), accepts a smaller
  entry under a live huge mapping but not a larger one, and leaves a
  checked run's statistics exactly those of an unchecked one;
* the defects — each shootdown the check showed missing: an RMM range torn
  down by removing one of its pages, a guest huge page whose combined
  translations the TLBs hold as 4 KB pieces; and each page the check found
  translated twice: a huge-page fault over a region that already holds a
  small mapping, and an RMM eager range grown over a live range or a
  mapped page.
"""

import pytest

from repro.common.addresses import MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import PageTableConfig, VirtualizationConfig
from repro.core.virtuoso import Virtuoso
from repro.mimicos.kernel import MimicOS
from repro.mimicos.thp import LinuxTHPPolicy
from repro.mmu.mmu import MMU
from repro.pagetables.radix import RadixPageTable
from repro.validation.invariants import (
    TranslationIncoherence,
    check_after_faults,
    check_mmu,
    check_translations,
)
from repro.workloads import GUPSWorkload
from tests.conftest import (
    assert_report_digest,
    report_digest,
    tiny_mimicos_config,
    tiny_system_config,
)
from tests.test_tlb_mmu import make_hierarchy, make_memory


def gups():
    return GUPSWorkload(footprint_bytes=4 * MB, memory_operations=1200, seed=5)


def warm_system(config=None):
    """A system with one process faulted in and its TLBs warm; returns
    (system, process, the touched addresses)."""
    system = Virtuoso(config or tiny_system_config(), seed=7)
    process = system.create_process("app")
    vma = system.kernel.mmap(process, 1 * MB)
    system.activate_process(process)
    addresses = [vma.start + index * PAGE_SIZE_4K for index in range(4)]
    for address in addresses:
        system.mmu.access_data(address)
    return system, process, addresses


class TestCheck:
    def test_clean_after_a_run(self):
        system = Virtuoso(tiny_system_config(), seed=7)
        system.run(gups())
        assert check_translations(system) > 0

    def test_checked_run_simulates_exactly_what_an_unchecked_one_does(self):
        unchecked = Virtuoso(tiny_system_config(), seed=7).run(gups())
        system = Virtuoso(tiny_system_config(), seed=7)
        check_after_faults(system)
        assert_report_digest(system.run(gups()), report_digest(unchecked))

    def test_unmap_without_shootdown_is_named(self):
        system, process, addresses = warm_system()
        table = process.page_table
        mapping = table.lookup(addresses[1])
        table.remove(addresses[1])
        with pytest.raises(TranslationIncoherence) as caught:
            check_translations(system)
        violation = caught.value
        assert violation.core == 0
        assert violation.structure in ("l1d_4k", "l1d_2m", "l2")
        assert violation.virtual_address == addresses[1] - addresses[1] % mapping[1]
        assert violation.cached == mapping and violation.live is None
        assert violation.as_dict()["live"] is None

    def test_remap_without_shootdown_is_named_with_both_translations(self):
        system = Virtuoso(tiny_system_config(), seed=7)
        process = system.create_process("app")
        system.activate_process(process)
        table = process.page_table
        table.insert(0x4000_0000, 0x10_0000, PAGE_SIZE_4K)
        system.mmu.access_data(0x4000_0000)
        table.insert(0x4000_0000, 0x20_0000, PAGE_SIZE_4K)
        with pytest.raises(TranslationIncoherence, match="0x100000") as caught:
            check_translations(system)
        assert caught.value.cached == (0x10_0000, PAGE_SIZE_4K)
        assert caught.value.live == (0x20_0000, PAGE_SIZE_4K)

    def test_entry_may_be_smaller_but_not_larger_than_the_mapping(self):
        mmu = MMU(make_hierarchy(), make_memory())
        table = RadixPageTable()
        mmu.set_context(1, table)
        table.insert(0x20_0000, 0x40_0000, PAGE_SIZE_2M)
        mmu.tlbs.fill(0x20_3000, 0x40_3000, PAGE_SIZE_4K)
        assert check_mmu(mmu) == 2          # the L1 and L2 copies
        table.remove(0x20_0000)
        table.insert(0x20_0000, 0x40_0000, PAGE_SIZE_4K)
        mmu.tlbs.flush()
        mmu.tlbs.fill(0x20_0000, 0x40_0000, PAGE_SIZE_2M)
        with pytest.raises(TranslationIncoherence) as caught:
            check_mmu(mmu)
        assert caught.value.cached == (0x40_0000, PAGE_SIZE_2M)
        assert caught.value.live == (0x40_0000, PAGE_SIZE_4K)

    def test_nested_entries_are_checked_through_both_dimensions(self):
        config = tiny_system_config().with_virtualization(VirtualizationConfig(
            enabled=True, guest_memory_bytes=128 * MB, nested_tlb_entries=256))
        system, process, addresses = warm_system(config)
        assert check_translations(system) > 0
        # Remap the host frame behind the first page, telling nobody.
        vm = system.vm
        mapping = process.page_table.lookup(addresses[0])
        guest_physical = mapping[0] + addresses[0] % mapping[1]
        host_table = vm.host_process.page_table
        host_virtual = vm.guest_physical_to_host_virtual(guest_physical)
        host_table.remove(host_virtual)
        system.mmu.tlbs.flush()
        with pytest.raises(TranslationIncoherence) as caught:
            check_translations(system)
        assert caught.value.structure == "nested_tlb"
        assert caught.value.live is None


class TestShootdownsTheCheckFoundMissing:
    def test_removing_a_page_of_an_rmm_range_shoots_the_range_down(self):
        """RMM maps a whole eager-paging block as one range; removing one
        page of it drops the range, so the TLB entries of every other page
        it translated must go too."""
        config = tiny_system_config().with_page_table(PageTableConfig(kind="rmm"))
        system, process, addresses = warm_system(config)
        table = process.page_table
        assert table.covering_range(addresses[3]) is not None
        hits = system.mmu.counters.get("tlb_hits")
        system.mmu.access_data(addresses[3])
        assert system.mmu.counters.get("tlb_hits") == hits + 1
        table.remove(addresses[0])
        system.kernel.tlb_shootdown(process.pid, addresses[0])
        assert table.lookup(addresses[3]) is None
        check_translations(system)
        _, _, page_fault, _, _ = system.mmu.access_data(addresses[3])
        assert page_fault

    def test_rmm_eager_range_stops_at_the_next_live_range(self):
        """Two ranges over one page would translate it to two frames: the
        walk answers from whichever range the RLB holds, the functional
        lookup from the oldest."""
        kernel = MimicOS(tiny_mimicos_config(), PageTableConfig(kind="rmm"))
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 1 * MB)
        table = process.page_table
        later = vma.start + 16 * PAGE_SIZE_4K
        kernel.handle_page_fault(process.pid, later)
        kernel.handle_page_fault(process.pid, vma.start)
        first = table.covering_range(vma.start)
        assert first.virtual_end == later
        assert table.covering_range(later).virtual_start == later

    def test_rmm_eager_range_stops_before_a_mapped_page(self):
        """A page swapped back in is mapped on its own, outside any range;
        a later range must not cover it with a second frame."""
        kernel = MimicOS(tiny_mimicos_config(), PageTableConfig(kind="rmm"))
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 1 * MB)
        table = process.page_table
        swapped_in = vma.start + 5 * PAGE_SIZE_4K
        table.insert(swapped_in, 0x30_0000, PAGE_SIZE_4K)
        kernel.handle_page_fault(process.pid, vma.start)
        assert table.covering_range(vma.start).virtual_end <= swapped_in
        assert table.covering_range(swapped_in) is None
        assert table.lookup(swapped_in) == (0x30_0000, PAGE_SIZE_4K)

    def test_guest_huge_page_shootdown_drops_its_4k_combined_pieces(self):
        """A guest 2 MB page backed by 4 KB host pages is cached as 4 KB
        combined translations; a guest reclaim shoots down the whole page."""
        config = tiny_system_config()
        config = config.with_mimicos(tiny_mimicos_config(thp_policy="never"))
        config = config.with_virtualization(VirtualizationConfig(
            enabled=True, guest_memory_bytes=128 * MB, nested_tlb_entries=256,
            guest_swap_size_bytes=16 * MB))
        system = Virtuoso(config, seed=7)
        process = system.create_process("guest-app")
        vma = system.kernel.mmap(process, 4 * MB)
        system.activate_process(process)
        base = vma.start - vma.start % PAGE_SIZE_2M + PAGE_SIZE_2M
        pieces = [base + index * PAGE_SIZE_4K for index in range(3)]
        for address in pieces:
            system.mmu.access_data(address)
        assert process.page_table.lookup(base)[1] == PAGE_SIZE_2M
        # Served by the 4 KB L1 TLB: the combined translation is 4 KB.
        hits = system.tlbs.l1d_4k.counters.get("hits")
        system.mmu.access_data(pieces[2])
        assert system.tlbs.l1d_4k.counters.get("hits") == hits + 1
        assert system.kernel.reclaim_cold_pages(1) == 1
        check_translations(system)
        _, _, page_fault, _, _ = system.mmu.access_data(pieces[2])
        assert page_fault

    def test_huge_page_fault_never_covers_a_live_small_mapping(self):
        """Like Linux's pmd_none test: a fault in a 2 MB region that already
        holds a 4 KB mapping (a page swapped back in, say) maps 4 KB."""
        kernel = MimicOS(tiny_mimicos_config(), PageTableConfig(kind="radix"))
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 8 * MB)
        region = vma.start - vma.start % PAGE_SIZE_2M + PAGE_SIZE_2M
        process.page_table.insert(region + 0x5000, 0x30_0000, PAGE_SIZE_4K)
        result = kernel.handle_page_fault(process.pid, region)
        assert result.page_size == PAGE_SIZE_4K
        assert process.page_table.lookup(region + 0x5000) == (0x30_0000, PAGE_SIZE_4K)
        assert process.page_table.lookup(region)[1] == PAGE_SIZE_4K
        # An empty region still gets its huge page.
        result = kernel.handle_page_fault(process.pid, region + PAGE_SIZE_2M)
        assert result.page_size == PAGE_SIZE_2M

    def test_shootdown_carries_the_size_of_the_unmapped_page(self):
        kernel = MimicOS(tiny_mimicos_config(), PageTableConfig(kind="radix"))
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 8 * MB)
        region = vma.start - vma.start % PAGE_SIZE_2M + PAGE_SIZE_2M
        assert kernel.handle_page_fault(process.pid, region + 0x3000).page_size == PAGE_SIZE_2M
        heard = []
        kernel.register_tlb_listener(lambda *shootdown: heard.append(shootdown))
        kernel.munmap(process, vma)
        assert heard == [(process.pid, region, PAGE_SIZE_2M)]

    def test_thp_policy_reads_the_region_from_the_page_table(self):
        kernel = MimicOS(tiny_mimicos_config(), PageTableConfig(kind="radix"))
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 4 * MB)
        region = vma.start - vma.start % PAGE_SIZE_2M + PAGE_SIZE_2M
        policy = LinuxTHPPolicy(kernel.buddy, kernel.config)
        table = process.page_table
        assert policy.on_anonymous_fault(process.pid, region, vma,
                                         page_table=table).page_size == PAGE_SIZE_2M
        table.insert(region + PAGE_SIZE_2M - PAGE_SIZE_4K, 0x30_0000, PAGE_SIZE_4K)
        small = policy.on_anonymous_fault(process.pid, region, vma, page_table=table)
        assert small.page_size == PAGE_SIZE_4K and small.notify_khugepaged
