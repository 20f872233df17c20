"""Tests for virtualised execution: guest MimicOS on a hypervisor MimicOS."""

import pytest

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.config import PageTableConfig
from repro.mimicos.hypervisor import VirtualMachine
from repro.mimicos.kernel import MimicOS
from tests.conftest import FlatMemory, tiny_mimicos_config


@pytest.fixture
def host():
    return MimicOS(tiny_mimicos_config(), PageTableConfig())


@pytest.fixture
def vm(host):
    return VirtualMachine(host, guest_memory_bytes=128 * MB, name="vm0")


class TestVirtualMachine:
    def test_guest_ram_backed_by_host_vma(self, host, vm):
        assert vm.guest_ram_vma.size == 128 * MB
        assert vm.host_process.pid in host.processes

    def test_guest_fault_allocates_guest_and_host_frames(self, vm):
        process = vm.create_guest_process("guest-app")
        vma = vm.guest.mmap(process, 8 * MB)
        result = vm.handle_guest_page_fault(process.pid, vma.start)
        assert not result.segfault
        assert process.page_table.lookup(vma.start) is not None
        # The guest-physical frame must be backed by a host translation.
        host_virtual = vm.guest_physical_to_host_virtual(result.guest.physical_base)
        assert vm.host_process.page_table.lookup(host_virtual) is not None
        assert vm.counters.get("hypervisor_backing_faults") >= 1

    def test_second_fault_on_backed_frame_skips_hypervisor(self, vm):
        process = vm.create_guest_process()
        vma = vm.guest.mmap(process, 8 * MB)
        first = vm.handle_guest_page_fault(process.pid, vma.start)
        backing_faults = vm.counters.get("hypervisor_backing_faults")
        # A fault on a different guest page of the same (already backed)
        # guest-physical huge frame requires no new hypervisor work.
        second_address = vma.start + first.guest.page_size // 2
        if process.page_table.lookup(second_address) is None:
            vm.handle_guest_page_fault(process.pid, second_address)
        assert vm.counters.get("hypervisor_backing_faults") >= backing_faults

    def test_guest_segfault_propagates(self, vm):
        process = vm.create_guest_process()
        result = vm.handle_guest_page_fault(process.pid, 0xDEAD_0000)
        assert result.segfault
        assert result.host is None

    def test_nested_fault_combines_both_kernels_work(self, vm):
        process = vm.create_guest_process()
        vma = vm.guest.mmap(process, 8 * MB)
        result = vm.handle_guest_page_fault(process.pid, vma.start)
        assert sum(op.work_units for op in result.guest.trace.ops) > 0
        assert result.host is not None
        assert sum(op.work_units for op in result.host.trace.ops) > 0
        assert result.total_disk_latency_cycles >= 0

    def test_nested_translation_unit_resolves_guest_virtual(self, vm):
        process = vm.create_guest_process()
        vma = vm.guest.mmap(process, 8 * MB)
        vm.handle_guest_page_fault(process.pid, vma.start)
        unit = vm.nested_translation_unit(process)
        walk = unit.walk(vma.start, FlatMemory())
        assert walk.found
        assert walk.memory_accesses > 0

    def test_nested_unit_for_is_memoised_per_process_and_core(self, vm):
        process = vm.create_guest_process()
        unit_a = vm.nested_unit_for(process, core_index=0)
        unit_b = vm.nested_unit_for(process, core_index=1)
        assert unit_a is not unit_b                      # per-core hardware
        assert vm.nested_unit_for(process, core_index=0) is unit_a

    def test_backing_fault_targets_the_faulting_offset(self, vm):
        """A 2 MB guest frame backed at 4 KB granularity must be backed under
        the faulting address, not just the frame base."""
        process = vm.create_guest_process()
        vma = vm.guest.mmap(process, 8 * MB)
        address = vma.start + 0x5000
        result = vm.handle_guest_page_fault(process.pid, address)
        assert not result.segfault
        mapping = process.page_table.lookup(address)
        guest_physical = mapping[0] + address % mapping[1]
        host_virtual = vm.guest_physical_to_host_virtual(guest_physical)
        assert vm.host_process.page_table.lookup(host_virtual) is not None

    def test_ept_violation_skips_the_guest_kernel(self, vm):
        """Guest translation intact + backing missing = EPT violation: only
        the hypervisor's fault runs, the guest trace carries no work."""
        process = vm.create_guest_process()
        vma = vm.guest.mmap(process, 8 * MB)
        vm.handle_guest_page_fault(process.pid, vma.start)
        guest_faults = vm.guest.counters.get("page_fault_requests")

        # Remove the backing under the mapped guest page.
        mapping = process.page_table.lookup(vma.start)
        host_virtual = vm.guest_physical_to_host_virtual(mapping[0])
        host_table = vm.host_process.page_table
        host_mapping = host_table.lookup(host_virtual)
        from repro.common.addresses import align_down
        host_table.remove(align_down(host_virtual, host_mapping[1]))

        result = vm.handle_guest_page_fault(process.pid, vma.start)
        assert not result.segfault
        assert result.host is not None
        assert sum(op.work_units for op in result.guest.trace.ops) == 0   # no guest kernel work
        assert vm.counters.get("ept_violations") == 1
        assert vm.guest.counters.get("page_fault_requests") == guest_faults
        assert host_table.lookup(host_virtual) is not None  # re-backed

    def test_host_shootdown_of_guest_ram_flushes_nested_units(self, vm):
        process = vm.create_guest_process()
        vma = vm.guest.mmap(process, 8 * MB)
        vm.handle_guest_page_fault(process.pid, vma.start)
        unit = vm.nested_unit_for(process)
        from tests.conftest import FlatMemory
        unit.walk(vma.start, FlatMemory())
        assert len(unit.nested_tlb._store) > 0

        fired = []
        vm.register_nested_invalidation_listener(fired.append)
        # A shootdown for an unrelated host process must be ignored.
        vm.host.tlb_shootdown(vm.host_process.pid + 999, vm.guest_ram_vma.start)
        assert not fired and len(unit.nested_tlb._store) > 0
        # A shootdown inside the guest-RAM VMA flushes and notifies.
        vm.host.tlb_shootdown(vm.host_process.pid, vm.guest_ram_vma.start)
        assert fired == [vm.guest_ram_vma.start]
        assert len(unit.nested_tlb._store) == 0
        assert vm.counters.get("nested_shootdowns") == 1

    def test_from_virtualization_config(self, host):
        from repro.common.config import PageTableConfig, VirtualizationConfig
        from repro.mimicos.hypervisor import VirtualMachine

        config = VirtualizationConfig(enabled=True, guest_memory_bytes=128 * MB,
                                      guest_page_table=PageTableConfig(kind="ech"),
                                      guest_thp_policy="never",
                                      nested_tlb_entries=32)
        vm = VirtualMachine.from_virtualization_config(host, config, name="cfg-vm")
        assert vm.guest.config.physical_memory_bytes == 128 * MB
        assert vm.guest.config.thp_policy == "never"
        assert vm.guest.page_table_config.kind == "ech"
        assert vm.nested_tlb_entries == 32

    def test_two_vms_share_the_host(self, host):
        first = VirtualMachine(host, guest_memory_bytes=128 * MB, name="vm1")
        second = VirtualMachine(host, guest_memory_bytes=128 * MB, name="vm2")
        process_a = first.create_guest_process()
        process_b = second.create_guest_process()
        vma_a = first.guest.mmap(process_a, 4 * MB)
        vma_b = second.guest.mmap(process_b, 4 * MB)
        result_a = first.handle_guest_page_fault(process_a.pid, vma_a.start)
        result_b = second.handle_guest_page_fault(process_b.pid, vma_b.start)
        assert not result_a.segfault and not result_b.segfault
        assert len(host.processes) >= 2
