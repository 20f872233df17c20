"""End-to-end tests for virtualized execution as a first-class mode.

Four families:

* construction and coupling — the virtualized system wires a guest MimicOS
  over the hypervisor, rejects a guest or host page table no nested walk
  can use as a dimension, routes application faults through the guest and
  guest-RAM backing faults through the hypervisor, and injects *both*
  kernels' instruction streams into the faulting core;
* recorded reports — virtualized runs reproduce the report digests
  recorded when a per-object reference engine still ran beside the batch
  engine, on one core and on the multi-core orchestrator;
* hypervisor-remap staleness regression — after the hypervisor swaps out a
  frame backing guest RAM, the next guest access must fault and re-walk
  (host swap-in) instead of translating through the stale nested-TLB / TLB
  entries, and the translation check must see the stale entries when the
  two-level shootdown wiring (``MMU.invalidate_nested_translations``) is
  removed;
* 2-D accounting — the guest and host walk dimensions are attributed
  separately, and every walk's latency is its guest share plus its host
  share.
"""

from dataclasses import replace

import pytest

from repro.common.addresses import MB, PAGE_SIZE_4K, align_down, page_number
from repro.common.config import PageTableConfig, VirtualizationConfig
from repro.core.virtuoso import Virtuoso
from repro.mmu.mmu import MMU
from repro.pagetables.factory import nested_capable_kinds
from repro.validation.invariants import TranslationIncoherence, check_translations
from repro.workloads.multiproc import GuestMixWorkload, virtualized_guests
from tests.conftest import assert_report_digest, tiny_system_config

#: Report digests recorded when a per-object reference engine still ran
#: beside the batch engine (both engines produced them).
SINGLE_CORE_DIGEST = "a79c129b7360def3c454d844158315685ea0d8086381e95e73f1411a90ceb52e"
MULTICORE_DIGEST = "9dc35ece1010aa3cf9a0a02775410ee7652d0465fe32e4732fbffec43694c4a0"


def virtualized_config(**virt_overrides):
    defaults = dict(enabled=True, guest_memory_bytes=128 * MB,
                    nested_tlb_entries=256)
    defaults.update(virt_overrides)
    config = tiny_system_config()
    return config.with_virtualization(VirtualizationConfig(**defaults))


class TestVirtualizedConstruction:
    def test_two_kernels_and_nested_unit_wired(self):
        system = Virtuoso(virtualized_config(), seed=7)
        assert system.vm is not None
        assert system.kernel is system.vm.guest
        assert system.hypervisor is system.vm.host
        process = system.create_process("guest-app")
        assert process.pid in system.vm.guest.processes
        assert system.mmu.nested_unit is not None

    def test_virtualization_requires_imitation_mode(self):
        config = virtualized_config()
        config = config.with_simulation(replace(config.simulation,
                                                os_mode="emulation"))
        with pytest.raises(ValueError, match="imitation"):
            Virtuoso(config, seed=7)

    @pytest.mark.parametrize("kind", ["midgard", "vbi"])
    def test_intermediate_address_host_table_is_rejected(self, kind):
        """Midgard and VBI replace the TLBs, so no nested walk can use
        them as its host (extended) page table."""
        config = virtualized_config().with_page_table(PageTableConfig(kind=kind))
        with pytest.raises(ValueError, match="host dimension"):
            Virtuoso(config, seed=7)

    @pytest.mark.parametrize("kind", ["midgard", "vbi"])
    def test_intermediate_address_guest_table_is_rejected(self, kind):
        """A Midgard or VBI guest table would take the intermediate path
        and skip the host dimension altogether."""
        config = virtualized_config(guest_page_table=PageTableConfig(kind=kind))
        with pytest.raises(ValueError, match="guest dimension"):
            Virtuoso(config, seed=7)

    @pytest.mark.parametrize("kind", nested_capable_kinds())
    def test_nested_capable_host_table_is_accepted(self, kind):
        """Every design a nested walk can use serves as the host dimension:
        the run takes guest and hypervisor faults and its translations
        stay coherent."""
        config = virtualized_config().with_page_table(PageTableConfig(kind=kind))
        system = Virtuoso(config, seed=7)
        assert system.hypervisor.page_table_config.kind == kind
        system.run(GuestMixWorkload(footprint_bytes=1 * MB, hot_operations=100, seed=3))
        assert system.vm.counters.get("hypervisor_backing_faults") > 0
        assert check_translations(system) > 0

    @pytest.mark.parametrize("kind", nested_capable_kinds())
    def test_nested_capable_guest_table_is_accepted(self, kind):
        """Every design a nested walk can use serves as the guest dimension,
        and the walk still reaches the host dimension."""
        config = virtualized_config(guest_page_table=PageTableConfig(kind=kind))
        system = Virtuoso(config, seed=7)
        assert system.kernel.page_table_config.kind == kind
        system.run(GuestMixWorkload(footprint_bytes=1 * MB, hot_operations=100, seed=3))
        assert system.vm.counters.get("hypervisor_backing_faults") > 0
        assert check_translations(system) > 0

    def test_both_kernel_streams_injected_into_core(self):
        system = Virtuoso(virtualized_config(), seed=7)
        report = system.run(GuestMixWorkload(footprint_bytes=1 * MB,
                                             hot_operations=200, seed=3))
        coupling = system.coupling.counters.as_dict()
        assert coupling.get("page_faults", 0) > 0
        assert coupling.get("hypervisor_faults", 0) > 0
        # The injected streams executed on the core (guest + hypervisor).
        assert report.kernel_instructions > 0
        assert system.vm.counters.get("hypervisor_backing_faults") > 0
        assert report.details["virtualization"]["vm"]["guest_page_faults"] > 0

    def test_report_details_carry_hypervisor_section(self):
        system = Virtuoso(virtualized_config(), seed=7)
        report = system.run(GuestMixWorkload(footprint_bytes=1 * MB,
                                             hot_operations=100, seed=3))
        virt = report.details["virtualization"]
        assert "vm" in virt and "hypervisor" in virt
        assert "nested" in report.details["mmu"]


class TestVirtualizedEngineInvariance:
    def test_single_core_bit_identical(self):
        system = Virtuoso(virtualized_config(), seed=7)
        report = system.run(GuestMixWorkload(footprint_bytes=2 * MB,
                                             hot_operations=600, seed=3))
        assert_report_digest(report, SINGLE_CORE_DIGEST)
        # The in-place L1 data-TLB hit served combined translations.
        assert system.mmu.fast_hits > 0

    def test_multicore_bit_identical(self):
        system = Virtuoso(virtualized_config(), num_cores=2, seed=7)
        result = system.run_tasks(virtualized_guests(count=2, footprint_bytes=1 * MB,
                                                     hot_operations=300, seed=3))
        assert_report_digest(result.merged, MULTICORE_DIGEST)


def _hypervisor_swap_out_backing(system: Virtuoso, process, address: int) -> int:
    """Do exactly what host kswapd reclaim does to the frame backing
    ``address``: swap out every 4 KB slot, unmap it in the host page table
    and broadcast the host TLB shootdown (which is what triggers the nested
    invalidation).  Returns the number of 4 KB pages swapped."""
    vm, host = system.vm, system.hypervisor
    mapping = process.page_table.lookup(address)
    assert mapping is not None
    guest_physical = mapping[0] + (address - align_down(address, mapping[1]))
    host_virtual = vm.guest_physical_to_host_virtual(guest_physical)
    host_table = vm.host_process.page_table
    host_mapping = host_table.lookup(host_virtual)
    assert host_mapping is not None
    base = align_down(host_virtual, host_mapping[1])
    pages = host_mapping[1] // PAGE_SIZE_4K
    for index in range(pages):
        host.swap.swap_out(vm.host_process.pid, page_number(base) + index)
    host_table.remove(base)
    host.tlb_shootdown(vm.host_process.pid, base)
    return pages


class TestHypervisorRemapStalenessRegression:
    """A host remap must invalidate combined translations."""

    def run(self):
        system = Virtuoso(virtualized_config(), seed=7)
        process = system.create_process("guest-app")
        vma = system.kernel.mmap(process, 1 * MB)
        system.activate_process(process)
        address = vma.start + 0x1000

        access = system.mmu.access_data_fast
        assert access(address)[2]  # page fault: fault both levels in
        access(address)
        access(address)
        assert system.mmu.fast_hits == 2

        swapped = _hypervisor_swap_out_backing(system, process, address)
        assert swapped > 0

        _, _, page_fault, _, _ = access(address)
        return system, page_fault

    def test_next_access_refaults(self):
        system, page_fault = self.run()
        # The guest translation is intact, so the re-fault is an EPT
        # violation resolved purely by the hypervisor: a host swap-in.
        assert page_fault, (
            "access after hypervisor remap translated through a stale "
            "combined mapping instead of re-faulting")
        assert system.vm.counters.get("ept_violations") == 1
        assert system.hypervisor.swap.counters.get("swap_ins") >= 1
        assert system.mmu.counters.get("nested_shootdowns") == 1
        check_translations(system)

    def test_stale_translation_survives_if_wiring_removed(self, monkeypatch):
        """Documents the failure mode: without the nested shootdown the next
        access silently translates through the stale combined mapping (this
        is exactly what the regression test above would catch)."""
        monkeypatch.setattr(MMU, "invalidate_nested_translations",
                            lambda self: None)
        system, page_fault = self.run()
        assert not page_fault
        assert system.hypervisor.swap.counters.get("swap_ins") == 0
        with pytest.raises(TranslationIncoherence, match="cached as"):
            check_translations(system)


class TestTwoDimensionalAccounting:
    """Satellite: guest vs host walk latency is attributed, not conflated."""

    def test_guest_and_host_dimensions_sum_to_ptw_total(self):
        system = Virtuoso(virtualized_config(), seed=7)
        system.run(GuestMixWorkload(footprint_bytes=1 * MB,
                                    hot_operations=300, seed=3))
        mmu = system.mmu
        nested_stats = mmu.nested_unit.stats()
        hits = nested_stats.get("nested_tlb_hits", 0)
        hit_latency = mmu.nested_unit.nested_tlb.latency
        guest_total = mmu.guest_ptw_latency_stats.total
        host_total = mmu.host_ptw_latency_stats.total
        assert guest_total > 0 and host_total > 0
        # Every walk's latency is exactly its guest share + host share,
        # except nested-TLB hits which walk neither dimension.
        assert mmu.ptw_latency_stats.total == pytest.approx(
            guest_total + host_total + hits * hit_latency)
