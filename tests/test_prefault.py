"""Trace-free prefault: same simulated state, no recorded kernel work.

``Virtuoso.prefault`` runs its faults with a :class:`DiscardedTrace`.  These
tests prefault the same workload twice -- once through the recording
default of ``handle_page_fault`` and once through ``prefault`` -- and
require every piece of kernel state, and the report of the run that
follows, to be identical.  They also pin the discarded trace's contract and
the live-size-only functional page-table lookup.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import replace

import pytest

from repro.common.addresses import (
    MB,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    align_down,
)
from repro.common.config import PageTableConfig
from repro.common.stats import Counter
from repro.core.virtuoso import Virtuoso
from repro.mimicos.buddy import BuddyAllocator
from repro.mimicos.ops import DiscardedTrace, KernelRoutineTrace
from repro.mimicos.swap import SwapSubsystem
from repro.pagetables.base import PageTableBase
from repro.workloads import GraphWorkload, GUPSWorkload
from tests.conftest import report_digest, tiny_system_config
from tests.test_virtualized_engine import virtualized_config

RANGE_BACKENDS = ("utopia", "rmm", "midgard", "direct_segment", "vbi")


def recording_prefault(system, process, addresses) -> int:
    """The pre-``DiscardedTrace`` prefault: every fault records its trace."""
    handler = (system.vm.handle_guest_page_fault if system.vm is not None
               else system.kernel.handle_page_fault)
    faults = 0
    for address in addresses:
        if process.page_table.lookup(address) is None:
            result = handler(process.pid, address)
            assert not result.segfault
            trace = result.guest.trace if system.vm is not None else result.trace
            assert trace.recording and trace.ops
            faults += 1
    system.counters.add("prefaulted_pages", faults)
    return faults


def discarded_prefault(system, process, addresses) -> int:
    return system.prefault(process, addresses)


def kernel_state(kernel) -> dict:
    """Every piece of kernel state a prefault fault can write."""
    buddy = kernel.buddy
    return {
        "mappings": {pid: [(base, m.physical_base, m.page_size)
                           for base, m in process.page_table._mappings.items()]
                     for pid, process in kernel.processes.items()
                     if process.page_table is not None},
        "page_tables": {pid: process.page_table.stats()
                        for pid, process in kernel.processes.items()
                        if process.page_table is not None},
        "free_lists": {order: list(blocks) for order, blocks in buddy._free_lists.items()},
        "allocated": list(buddy._allocated.items()),
        "free_bytes": buddy._free_bytes,
        "stats": kernel.stats(),
        "resident": list(kernel._resident.items()),
        "regions": list(kernel.kernel_space._regions.items()),
        "next_offset": kernel.kernel_space._next_offset,
    }


def system_state(system) -> list:
    kernels = [system.kernel] + ([system.hypervisor] if system.hypervisor else [])
    return [kernel_state(kernel) for kernel in kernels]


def gups():
    return GUPSWorkload(footprint_bytes=4 * MB, memory_operations=1500,
                        prefault=True, seed=5)


def bfs():
    return GraphWorkload("BFS", footprint_bytes=4 * MB, memory_operations=1500,
                         prefault=True, seed=6)


def single_core(config, make_workload, prefault):
    """Map, prefault with ``prefault``, then run; return (state, digest)."""
    system = Virtuoso(config, seed=11)
    workload = make_workload()
    process = system.map_workload(workload)
    assert prefault(system, process, workload.prefault_addresses(process)) > 0
    state = system_state(system)
    report = system.run(workload, process, setup=False)
    return state, report_digest(report)


def two_core(prefault):
    system = Virtuoso(tiny_system_config(), num_cores=2, seed=11)
    workloads = [gups(), bfs()]
    processes = []
    for workload in workloads:
        process = system.create_process(workload.name)
        workload.setup(system.kernel, process)
        assert prefault(system, process, workload.prefault_addresses(process)) > 0
        processes.append(process)
    state = system_state(system)
    result = system.run_tasks(workloads, processes=processes, setup=False)
    return state, [report_digest(report) for report in result.core_reports]


SINGLE_CORE_CASES = {
    "radix": (lambda: tiny_system_config(), gups),
    "radix-bfs": (lambda: tiny_system_config(), bfs),
    **{kind: (lambda kind=kind: tiny_system_config().with_page_table(
        PageTableConfig(kind=kind)), gups) for kind in RANGE_BACKENDS},
    "virtualized": (lambda: virtualized_config(), gups),
}


class TestPrefaultStateIdentity:
    @pytest.mark.parametrize("case", sorted(SINGLE_CORE_CASES))
    def test_discarded_prefault_leaves_recording_state(self, case):
        make_config, make_workload = SINGLE_CORE_CASES[case]
        recorded = single_core(make_config(), make_workload, recording_prefault)
        discarded = single_core(make_config(), make_workload, discarded_prefault)
        assert discarded[0] == recorded[0]
        assert discarded[1] == recorded[1]

    def test_two_core_discarded_prefault_leaves_recording_state(self):
        recorded = two_core(recording_prefault)
        discarded = two_core(discarded_prefault)
        assert discarded[0] == recorded[0]
        assert discarded[1] == recorded[1]

    def test_prefault_counts_and_rejects_segfaults(self, virtuoso):
        workload = gups()
        process = virtuoso.map_workload(workload)
        faults = virtuoso.prefault(process, workload.prefault_addresses(process))
        assert virtuoso.counters.get("prefaulted_pages") == faults > 0
        with pytest.raises(RuntimeError, match="segfaulted"):
            virtuoso.prefault(process, [0x10])


class TestDiscardedTrace:
    def test_fault_records_no_ops(self, kernel):
        process = kernel.create_process("p")
        vma = kernel.mmap(process, 4 * MB)
        trace = DiscardedTrace("prefault")
        for offset in range(0, 4 * MB, 64 * PAGE_SIZE_4K):
            result = kernel.handle_page_fault(process.pid, vma.start + offset, trace=trace)
            assert not result.segfault
            assert result.trace is trace
        assert trace.ops == []
        assert not trace.recording

    def test_shared_op_never_changes(self):
        trace = DiscardedTrace("t")
        op = trace.new_op("a", work_units=5)
        op.work_units += 7
        op.touch(0x1000, is_write=True)
        assert trace.new_op("b") is op
        assert op.work_units == 0 and op.memory_touches == []
        assert trace.ops == []

    def test_extend_keeps_only_disk_latency(self):
        callee = KernelRoutineTrace("callee", disk_latency_cycles=300)
        callee.new_op("x", work_units=4).touch(0x40)
        trace = DiscardedTrace("t")
        trace.extend(callee)
        assert trace.ops == [] and trace.disk_latency_cycles == 300


class _BareTable(PageTableBase):
    """The functional store alone: no structure, no update cost."""

    kind = "bare"

    def _insert_structure(self, virtual_base, physical_base, page_size, trace):
        pass


def three_probe_lookup(table: PageTableBase, virtual_address: int):
    """The lookup before it consulted ``_size_counts``: probe every size."""
    for page_size in PageTableBase.SUPPORTED_PAGE_SIZES:
        mapping = table._mappings.get(align_down(virtual_address, page_size))
        if mapping is not None and mapping.page_size == page_size:
            return mapping
    return None


class TestFindMapping:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_find_mapping_matches_three_probe_loop(self, seed):
        rng = random.Random(seed)
        table = _BareTable()
        sizes = (PAGE_SIZE_4K,) * 6 + (PAGE_SIZE_2M,) * 3 + (PAGE_SIZE_1G,)
        span = 4 * PAGE_SIZE_1G
        for _ in range(600):
            address = rng.randrange(span)
            if rng.random() < 0.7:
                page_size = rng.choice(sizes)
                table.insert(address, rng.randrange(span), page_size)
            else:
                table.remove(address)
            for probe in [address] + [rng.randrange(span) for _ in range(8)]:
                assert table._find_mapping(probe) is three_probe_lookup(table, probe)
        assert set(table._size_counts) <= set(PageTableBase.SUPPORTED_PAGE_SIZES)


# ---------------------------------------------------------------------- #
# Sensitivity: breaks the state identity check must catch
# ---------------------------------------------------------------------- #
def _drop_discarded_trace(method):
    """``method`` as if it got no trace whenever its trace records nothing:
    whatever it does only for a trace (reserving a kernel-address region)
    then happens only under a recording trace."""
    signature = inspect.signature(method)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        trace = bound.arguments.get("trace")
        if trace is not None and not trace.recording:
            bound.arguments["trace"] = None
        return method(*bound.args, **bound.kwargs)
    return wrapper


def restart_counters(counters: Counter) -> None:
    """Zero every count of ``counters``, hot cells included, as if nothing
    had been counted yet."""
    counters._counts.clear()
    for cell in counters._hot.values():
        cell[0] = 0


def fragmented_state(prefault):
    """Prefault 16 pages into a fragmented kernel whose buddy counters
    restart at the prefault: its 4 KB faults take free 4 KB blocks, so no
    allocation splits and the ``splits`` key holds 0."""
    config = tiny_system_config()
    config = config.with_mimicos(replace(config.mimicos, fragmentation_target=0.5,
                                         thp_policy="never"))
    system = Virtuoso(config, seed=11)
    workload = GUPSWorkload(footprint_bytes=16 * PAGE_SIZE_4K, memory_operations=10,
                            prefault=True, seed=5)
    process = system.map_workload(workload)
    restart_counters(system.kernel.buddy.counters)
    assert prefault(system, process, workload.prefault_addresses(process)) > 0
    return system_state(system)


class TestPrefaultIdentitySensitivity:
    """Each break changes only the discarded prefault; ``kernel_state``
    must then differ from the recording prefault's."""

    def test_clean_fragmented_case_is_identical(self):
        recorded = fragmented_state(recording_prefault)
        assert recorded == fragmented_state(discarded_prefault)
        buddy = recorded[0]["stats"]["buddy"]
        assert buddy["allocations"] > 0 and buddy["splits"] == 0

    def test_buddy_reserving_only_when_recording_is_caught(self, monkeypatch):
        recorded = single_core(tiny_system_config(), gups, recording_prefault)
        monkeypatch.setattr(BuddyAllocator, "allocate",
                            _drop_discarded_trace(BuddyAllocator.allocate))
        monkeypatch.setattr(BuddyAllocator, "free", _drop_discarded_trace(BuddyAllocator.free))
        discarded = single_core(tiny_system_config(), gups, discarded_prefault)
        assert discarded[0] != recorded[0]
        regions = [name for name, _ in discarded[0][0]["regions"]]
        assert "buddy_free_lists" not in regions

    def test_swap_lookup_skipping_its_reservation_is_caught(self, monkeypatch):
        recorded = single_core(tiny_system_config(), gups, recording_prefault)
        monkeypatch.setattr(SwapSubsystem, "lookup_swap_cache",
                            _drop_discarded_trace(SwapSubsystem.lookup_swap_cache))
        discarded = single_core(tiny_system_config(), gups, discarded_prefault)
        assert discarded[0] != recorded[0]
        regions = [name for name, _ in discarded[0][0]["regions"]]
        assert "swap_map" not in regions

    def test_buddy_dropping_the_zero_splits_key_is_caught(self, monkeypatch):
        recorded = fragmented_state(recording_prefault)
        hot = Counter.hot
        monkeypatch.setattr(Counter, "hot",
                            lambda self, name, zero_with=None: hot(self, name))
        discarded = fragmented_state(discarded_prefault)
        assert discarded != recorded
        assert "splits" not in discarded[0]["stats"]["buddy"]
