"""Tests for the page-fault handler and the MimicOS kernel as a whole."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.common.addresses import MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import PageTableConfig, SSDConfig
from repro.mimicos.hypervisor import VirtualMachine
from repro.mimicos.kernel import MimicOS
from repro.mimicos.vma import VMAKind
from repro.pagetables.radix import RadixPageTable
from tests.test_prefault import RANGE_BACKENDS
from repro.storage.ssd import SSDModel
from tests.conftest import tiny_mimicos_config


def make_kernel(thp_policy="linux", pt_kind="radix", ssd=False, **overrides):
    config = tiny_mimicos_config(thp_policy=thp_policy, **overrides)
    ssd_model = SSDModel(SSDConfig()) if ssd else None
    return MimicOS(config, PageTableConfig(kind=pt_kind), ssd=ssd_model)


class TestPageFaultHandling:
    def test_anonymous_fault_installs_translation(self):
        kernel = make_kernel()
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 8 * MB)
        result = kernel.handle_page_fault(process.pid, vma.start)
        assert not result.segfault
        assert process.page_table.lookup(vma.start) is not None
        assert result.page_size in (PAGE_SIZE_4K, PAGE_SIZE_2M)

    def test_fault_outside_any_vma_is_segfault(self):
        kernel = make_kernel()
        process = kernel.create_process("app")
        result = kernel.handle_page_fault(process.pid, 0x1234_5678)
        assert result.segfault
        assert "deliver_sigsegv" in [op.name for op in result.trace.ops]

    def test_unknown_pid_rejected(self):
        kernel = make_kernel()
        with pytest.raises(KeyError):
            kernel.handle_page_fault(999, 0x1000)

    def test_thp_enabled_uses_huge_pages(self):
        kernel = make_kernel(thp_policy="linux")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 8 * MB)
        result = kernel.handle_page_fault(process.pid, vma.start)
        assert result.page_size == PAGE_SIZE_2M

    def test_bd_policy_uses_small_pages(self):
        kernel = make_kernel(thp_policy="bd")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 8 * MB)
        result = kernel.handle_page_fault(process.pid, vma.start)
        assert result.page_size == PAGE_SIZE_4K

    def test_fault_trace_contains_fig6_steps(self):
        kernel = make_kernel(thp_policy="bd")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 1 * MB)
        result = kernel.handle_page_fault(process.pid, vma.start)
        names = [op.name for op in result.trace.ops]
        assert "fault_entry" in names
        assert "find_vma" in names
        assert "buddy_alloc" in names
        assert "zero_page" in names
        assert "fault_return" in names

    def test_huge_fault_has_larger_trace_than_small_fault(self):
        kernel_small = make_kernel(thp_policy="bd")
        kernel_huge = make_kernel(thp_policy="linux")
        process_small = kernel_small.create_process("a")
        process_huge = kernel_huge.create_process("b")
        vma_small = kernel_small.mmap(process_small, 8 * MB)
        vma_huge = kernel_huge.mmap(process_huge, 8 * MB)
        small = kernel_small.handle_page_fault(process_small.pid, vma_small.start)
        huge = kernel_huge.handle_page_fault(process_huge.pid, vma_huge.start)
        work = [sum(op.work_units for op in result.trace.ops) for result in (small, huge)]
        assert work[1] > work[0] * 10

    def test_hugetlb_vma_served_from_pool(self):
        kernel = make_kernel(hugetlbfs_reserved_bytes=8 * MB)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 4 * MB, kind=VMAKind.HUGETLB)
        result = kernel.handle_page_fault(process.pid, vma.start)
        assert result.page_size == PAGE_SIZE_2M
        assert kernel.hugetlbfs.counters.get("allocations") == 1

    def test_file_backed_fault_hits_prepopulated_page_cache(self):
        kernel = make_kernel()
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 2 * MB, kind=VMAKind.FILE_BACKED,
                          populate_page_cache=True)
        result = kernel.handle_page_fault(process.pid, vma.start)
        assert not result.is_major
        assert result.disk_latency_cycles == 0

    def test_file_backed_fault_misses_page_cache_and_goes_to_disk(self):
        kernel = make_kernel(ssd=True)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 2 * MB, kind=VMAKind.FILE_BACKED)
        result = kernel.handle_page_fault(process.pid, vma.start)
        assert result.is_major
        assert result.disk_latency_cycles > 0

    def test_repeated_faults_cover_the_vma(self):
        kernel = make_kernel(thp_policy="bd")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 64 * PAGE_SIZE_4K)
        for index in range(16):
            kernel.handle_page_fault(process.pid, vma.start + index * PAGE_SIZE_4K)
        assert len(process.page_table._mappings) == 16

    def test_fault_counters(self):
        kernel = make_kernel(thp_policy="bd")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 1 * MB)
        kernel.handle_page_fault(process.pid, vma.start)
        stats = kernel.stats()
        assert stats["fault_handler"]["page_faults"] == 1
        assert stats["kernel"]["page_fault_requests"] == 1


class TestSwapReclaim:
    def test_memory_pressure_triggers_swapping(self):
        kernel = make_kernel(thp_policy="linux", physical_memory_bytes=128 * MB,
                             swap_size_bytes=32 * MB, swap_threshold=0.30, ssd=True)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 96 * MB)
        swapped = 0
        for index in range(0, 96 * MB // PAGE_SIZE_2M):
            result = kernel.handle_page_fault(process.pid, vma.start + index * PAGE_SIZE_2M)
            swapped += result.swapped_out_pages
            if swapped:
                break
        # The huge-page faults cross the 30 % threshold well before the VMA is
        # fully touched, so reclaim must have swapped something out.
        assert swapped > 0
        # Reclaim swaps out until usage is 5 % under the threshold, unless
        # it runs out of swap slots or of resident pages other than the one
        # the fault just mapped.
        out_of_slots = kernel.swap.free_slots == 0
        only_the_faulting_page_left = len(kernel._resident) <= 1
        assert (kernel.buddy.usage <= kernel.config.swap_threshold - 0.05
                or out_of_slots or only_the_faulting_page_left)
        assert kernel.swap.counters.get("swap_outs") > 0

    def test_swapped_page_faults_back_in(self):
        kernel = make_kernel(thp_policy="linux", physical_memory_bytes=128 * MB,
                             swap_size_bytes=64 * MB, swap_threshold=0.25, ssd=True)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 80 * MB)
        for index in range(0, 80 * MB // PAGE_SIZE_2M):
            kernel.handle_page_fault(process.pid, vma.start + index * PAGE_SIZE_2M)
            if kernel.swap.counters.get("swap_outs") > 0:
                break
        assert kernel.swap.counters.get("swap_outs") > 0
        # Fault one of the swapped pages back in.
        swapped_key = next(iter(kernel.swap._slots))
        swapped_vpn = swapped_key[1]
        result = kernel.handle_page_fault(process.pid, swapped_vpn * PAGE_SIZE_4K)
        assert result.is_major
        assert kernel.swap.counters.get("swap_ins") == 1


class TestKernelConfiguration:
    def test_create_process_builds_configured_page_table(self):
        kernel = make_kernel(pt_kind="ech")
        process = kernel.create_process("app")
        assert process.page_table.kind == "ech"

    def test_mmap_registers_midgard_vmas(self):
        kernel = make_kernel(pt_kind="midgard")
        process = kernel.create_process("app")
        kernel.mmap(process, 4 * MB)
        assert process.page_table.counters.get("registered_vmas") == 1

    def test_utopia_reserves_restseg_memory(self):
        config = tiny_mimicos_config()
        radix_kernel = MimicOS(config, PageTableConfig(kind="radix"))
        utopia_kernel = MimicOS(config, PageTableConfig(kind="utopia",
                                                        restseg_size_bytes=32 * MB))
        assert utopia_kernel.buddy.total_bytes < radix_kernel.buddy.total_bytes

    def test_fragment_memory_reaches_target(self):
        kernel = make_kernel()
        achieved = kernel.fragment_memory(0.6)
        assert achieved <= 0.65

    def test_munmap_releases_mappings(self):
        kernel = make_kernel(thp_policy="bd")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 16 * PAGE_SIZE_4K)
        for index in range(4):
            kernel.handle_page_fault(process.pid, vma.start + index * PAGE_SIZE_4K)
        removed = kernel.munmap(process, vma)
        assert removed == 4
        assert len(process.page_table._mappings) == 0

    def test_stats_cover_all_modules(self):
        kernel = make_kernel()
        stats = kernel.stats()
        for module in ("kernel", "fault_handler", "buddy", "thp", "page_cache", "swap"):
            assert module in stats


# ---------------------------------------------------------------------- #
# Recorded fault traces, pinned op by op
# ---------------------------------------------------------------------- #
#: Per scenario, the sha256 of every recorded fault trace's ops, in fault
#: order.  Rebuild it only after a deliberate change of the kernel work a
#: fault records:
#:   PYTHONPATH=src python -c "from tests.test_fault_kernel import
#:   write_fault_trace_record; write_fault_trace_record()"
FAULT_TRACE_RECORD = Path(__file__).with_name("fault_trace_record.json")


def trace_sha256(trace) -> str:
    """sha256 over a trace's ops: ``(name, work_units, memory_touches)``."""
    ops = [(op.name, op.work_units, op.memory_touches) for op in trace.ops]
    return hashlib.sha256(repr(ops).encode("utf-8")).hexdigest()


def _fault_unmapped(kernel, process, addresses):
    """Fault every address the page table does not map yet; yield each
    ``(address, trace)``."""
    for address in addresses:
        if process.page_table.lookup(address) is None:
            result = kernel.handle_page_fault(process.pid, address)
            assert not result.segfault
            yield address, result.trace


def _backend_faults(pt_kind):
    """Anonymous 4 KB faults at seeded pages of an 8 MB VMA, then faults
    on an unpopulated file-backed VMA (page-cache misses)."""
    kernel = make_kernel(thp_policy="bd", pt_kind=pt_kind)
    process = kernel.create_process("app")
    anonymous = kernel.mmap(process, 8 * MB)
    file_backed = kernel.mmap(process, 256 * PAGE_SIZE_4K, kind=VMAKind.FILE_BACKED)
    rng = random.Random(24)
    pages = rng.sample(range(8 * MB // PAGE_SIZE_4K), 24)
    addresses = [anonymous.start + page * PAGE_SIZE_4K for page in pages]
    addresses += [file_backed.start + page * PAGE_SIZE_4K for page in (0, 1, 17, 200)]
    yield from _fault_unmapped(kernel, process, addresses)


def _thp_khugepaged_faults():
    """Linux THP over a VMA whose first 2 MB region does not fit: 4 KB
    faults hint that region to khugepaged, which collapses it once 64 pages
    are present; the aligned regions take 2 MB faults."""
    kernel = MimicOS(tiny_mimicos_config(thp_policy="linux"), PageTableConfig(kind="radix"),
                     khugepaged_interval_faults=16)
    process = kernel.create_process("app")
    vma = kernel.mmap(process, 6 * MB, fixed_address=0x7F00_0010_0000)
    addresses = [vma.start + index * PAGE_SIZE_4K for index in range(70)]
    addresses += [vma.start + MB, vma.start + 3 * MB + PAGE_SIZE_4K]
    yield from _fault_unmapped(kernel, process, addresses)
    assert kernel.khugepaged.counters.get("regions_collapsed") >= 1


def _swap_pressure_faults():
    """2 MB faults past the swap threshold, then swap-ins of swapped pages."""
    kernel = make_kernel(thp_policy="linux", physical_memory_bytes=128 * MB,
                         swap_size_bytes=32 * MB, swap_threshold=0.30, ssd=True)
    process = kernel.create_process("app")
    vma = kernel.mmap(process, 96 * MB)
    yield from _fault_unmapped(kernel, process,
                               [vma.start + index * PAGE_SIZE_2M for index in range(24)])
    swapped = sorted(vpn for pid, vpn in kernel.swap._slots if pid == process.pid)
    assert swapped
    yield from _fault_unmapped(kernel, process,
                               [vpn * PAGE_SIZE_4K for vpn in swapped[:6]])


def _virtualized_faults():
    """Guest faults on a VM; each yields the guest and the host trace."""
    host = MimicOS(tiny_mimicos_config(), PageTableConfig())
    vm = VirtualMachine(host, guest_memory_bytes=128 * MB, name="vm0")
    process = vm.create_guest_process("guest-app")
    vma = vm.guest.mmap(process, 8 * MB)
    rng = random.Random(25)
    for page in rng.sample(range(8 * MB // PAGE_SIZE_4K), 24):
        address = vma.start + page * PAGE_SIZE_4K
        if process.page_table.lookup(address) is None:
            result = vm.handle_guest_page_fault(process.pid, address)
            assert not result.segfault
            yield address, result.guest.trace
            if result.host is not None:
                yield address, result.host.trace


TRACE_SCENARIOS = {
    "radix": lambda: _backend_faults("radix"),
    **{kind: (lambda kind=kind: _backend_faults(kind)) for kind in RANGE_BACKENDS},
    "thp-linux-khugepaged": _thp_khugepaged_faults,
    "swap-pressure": _swap_pressure_faults,
    "virtualized": _virtualized_faults,
}


def fault_trace_digests(scenario):
    """``[(faulting address, trace sha256, op names)]`` of one scenario."""
    return [(address, trace_sha256(trace), [op.name for op in trace.ops])
            for address, trace in TRACE_SCENARIOS[scenario]()]


def first_trace_mismatch(scenario, recorded):
    """Describe the first fault trace that differs from ``recorded``, or None."""
    current = fault_trace_digests(scenario)
    for index, (address, digest, names) in enumerate(current):
        if index >= len(recorded):
            return f"{scenario}: fault {index} at {address:#x} was not recorded"
        if digest != recorded[index]:
            return (f"{scenario}: fault {index} at {address:#x} recorded different ops "
                    f"(now {names})")
    if len(current) != len(recorded):
        return f"{scenario}: {len(recorded) - len(current)} recorded faults did not happen"
    return None


def write_fault_trace_record() -> None:
    record = {scenario: [digest for _, digest, _ in fault_trace_digests(scenario)]
              for scenario in TRACE_SCENARIOS}
    FAULT_TRACE_RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


class TestRecordedFaultTraces:
    @pytest.mark.parametrize("scenario", sorted(TRACE_SCENARIOS))
    def test_fault_traces_match_record(self, scenario):
        recorded = json.loads(FAULT_TRACE_RECORD.read_text())[scenario]
        assert first_trace_mismatch(scenario, recorded) is None

    def test_skipped_radix_pte_touch_is_caught(self, monkeypatch):
        """Break: the radix insert loses its leaf PTE touch."""
        original = RadixPageTable._insert_structure

        def skip_pte_touch(self, virtual_base, physical_base, page_size, trace):
            original(self, virtual_base, physical_base, page_size, trace)
            if trace is not None and trace.recording:
                update = [op for op in trace.ops if op.name == "radix_pt_update"][-1]
                update.memory_touches.pop()

        recorded = json.loads(FAULT_TRACE_RECORD.read_text())["radix"]
        monkeypatch.setattr(RadixPageTable, "_insert_structure", skip_pte_touch)
        mismatch = first_trace_mismatch("radix", recorded)
        assert mismatch is not None and mismatch.startswith("radix: fault 0 ")
        assert "radix_pt_update" in mismatch
