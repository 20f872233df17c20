"""Tests for instructions, instrumentation, the core model and couplings."""

import pytest

from repro.common.addresses import MB, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import CoreConfig, PageTableConfig, SimulationConfig
from repro.common.kernelops import KernelOp, KernelRoutineTrace
from repro.core.cpu import CoreModel
from repro.core.instructions import (
    OP_ALU,
    OP_LOAD,
    OP_MAGIC,
    OP_REP,
    OP_STORE,
    OP_TOUCHES,
    InstructionBatch,
    KernelInstructionBatch,
)
from repro.core.instrumentation import InstrumentationTool
from repro.core.modes import (
    EmulationCoupling,
    FixedLatencyPageTable,
    FullSystemCoupling,
    ImitationCoupling,
    ReferenceCoupling,
    build_coupling,
)
from repro.memhier.memory_system import MemoryHierarchy
from repro.mimicos.hypervisor import VirtualMachine
from repro.mimicos.kernel import MimicOS
from repro.mmu.mmu import MMU
from repro.mmu.tlb import TLBHierarchy
from repro.pagetables.radix import RadixPageTable
from tests.conftest import FlatMemory, tiny_mimicos_config, tiny_system_config


class TestInstructions:
    def test_batch_accounting(self):
        batch = InstructionBatch([OP_ALU, OP_LOAD, OP_STORE], [0, 0, 0], [None, 0x0, 0x40])
        assert len(batch) == 3
        assert batch.kinds == [OP_ALU, OP_LOAD, OP_STORE]
        assert batch.addresses == [None, 0x0, 0x40]

    def test_kernel_batch_counts_instructions_not_records(self):
        batch = kernel_batch((OP_ALU, None, 1), (OP_LOAD, 0x40, 1), (OP_ALU, None, 7),
                             (OP_STORE, 0x80, 1))
        assert (len(batch), len(batch.kinds)) == (4, 4)
        assert batch.kinds == [OP_ALU, OP_TOUCHES, OP_REP, OP_TOUCHES]
        assert batch.values == [1, ([(0x40, False)], 0), 7, ([(0x80, True)], 0)]
        assert batch.pcs == [0, 0, 0, 0]

    @pytest.mark.parametrize("op", [OP_ALU, OP_MAGIC, OP_REP])
    def test_kernel_batch_rejects_operand_on_non_memory_op(self, op):
        batch = KernelInstructionBatch("k")
        with pytest.raises(ValueError, match="malformed"):
            batch.append(op, 0, 0x40)
        assert (len(batch), batch.kinds) == (0, [])

    @pytest.mark.parametrize("op", [OP_LOAD, OP_STORE])
    def test_kernel_batch_rejects_memory_op_without_operand(self, op):
        batch = KernelInstructionBatch("k")
        with pytest.raises(ValueError, match="malformed"):
            batch.append(op, 0)
        assert (len(batch), batch.kinds) == (0, [])

    @pytest.mark.parametrize("op, address", [(OP_LOAD, 0x40), (OP_STORE, 0x40),
                                             (OP_MAGIC, None)])
    def test_kernel_batch_rejects_repeat_on_non_compute_op(self, op, address):
        batch = KernelInstructionBatch("k")
        with pytest.raises(ValueError, match="compute-only"):
            batch.append(op, 0, address, repeat=4)
        assert (len(batch), batch.kinds) == (0, [])


class TestKernelTrace:
    def test_trace_accumulates_ops(self):
        trace = KernelRoutineTrace("do_page_fault")
        op = trace.new_op("buddy_alloc", work_units=3)
        op.touch(0x1000, is_write=True)
        assert trace.ops == [op]
        assert op.work_units == 3
        assert op.memory_touches == [(0x1000, True)]

    def test_extend_inlines_callee(self):
        outer = KernelRoutineTrace("outer")
        inner = KernelRoutineTrace("inner")
        inner.new_op("child", work_units=2)
        inner.disk_latency_cycles = 50
        outer.extend(inner)
        assert [(op.name, op.work_units) for op in outer.ops] == [("child", 2)]
        assert outer.disk_latency_cycles == 50


class TestInstrumentation:
    def test_instruction_count_scales_with_work(self):
        tool = InstrumentationTool()
        small = KernelRoutineTrace("f")
        small.new_op("buddy_alloc", work_units=1)
        large = KernelRoutineTrace("f")
        large.new_op("buddy_alloc", work_units=50)
        assert len(tool.expand_batch(large)) > len(tool.expand_batch(small))

    def test_memory_touches_become_memory_instructions(self):
        tool = InstrumentationTool()
        trace = KernelRoutineTrace("f")
        op = trace.new_op("pt_update", work_units=2)
        op.touch(0x1000, is_write=True)
        op.touch(0x2000, is_write=False)
        batch = tool.expand_batch(trace)
        records = [(kind, value, pc) for kind, value, pc
                   in zip(batch.kinds, batch.values, batch.pcs) if kind == OP_TOUCHES]
        assert records == [(OP_TOUCHES, ([(0x1000, True), (0x2000, False)], 3),
                            tool.KERNEL_PC_BASE)]

    def test_bulk_zeroing_stays_compact_but_expensive(self):
        tool = InstrumentationTool()
        trace = KernelRoutineTrace("f")
        op = trace.new_op("zero_page", work_units=32768)
        op.touch(0x1000, is_write=True)
        batch = tool.expand_batch(trace)
        assert len(batch) < 100
        assert OP_REP in batch.kinds
        assert any(repeat >= 32768 for kind, repeat in zip(batch.kinds, batch.values)
                   if kind == OP_REP)

    def test_pathological_op_capped(self):
        tool = InstrumentationTool()
        trace = KernelRoutineTrace("f")
        trace.new_op("ech_resize", work_units=10 ** 6)
        batch = tool.expand_batch(trace)
        assert len(batch) <= tool.MAX_COMPUTE_PER_OP + 10

    def test_full_system_factor_inflates_streams(self):
        trace = KernelRoutineTrace("f")
        trace.new_op("buddy_alloc", work_units=10)
        normal = InstrumentationTool().expand_batch(trace)
        inflated = InstrumentationTool(full_system_factor=3.0).expand_batch(trace)
        assert len(inflated) > len(normal)

    def test_memory_overhead_factors(self):
        assert InstrumentationTool("online").host_memory_overhead_factor() > \
            InstrumentationTool("offline").host_memory_overhead_factor()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            InstrumentationTool("telepathy")


def build_core(config=None):
    system = tiny_system_config()
    memory = MemoryHierarchy.from_system_config(system)
    tlbs = TLBHierarchy(system.l1i_tlb, system.l1d_tlb_4k, system.l1d_tlb_2m, system.l2_tlb)
    mmu = MMU(tlbs, memory)
    table = RadixPageTable()
    mmu.set_context(1, table)
    core = CoreModel(config or CoreConfig(), mmu, memory)
    return core, mmu, table, memory


def execute_one(core, op, address=None):
    """Execute one application instruction; returns the cycles it consumed."""
    batch = InstructionBatch([op], [0], [address])
    before = core.cycles
    assert core.execute_batch(batch) == 1
    return core.cycles - before


def kernel_batch(*instructions):
    """A kernel batch from (op, address, repeat) triples, one record each."""
    batch = KernelInstructionBatch("k")
    for op, address, repeat in instructions:
        batch.append(op, 0, address, repeat=repeat)
    return batch


class TestCoreModel:
    def test_non_memory_instruction_costs_base_cpi(self):
        core, _, _, _ = build_core()
        consumed = execute_one(core, OP_ALU)
        assert consumed == pytest.approx(core.config.base_cpi)
        assert core.instructions == 1

    def test_memory_instruction_adds_stalls(self):
        core, _, table, _ = build_core()
        table.insert(0x1000, 0xA000, PAGE_SIZE_4K)
        consumed = execute_one(core, OP_LOAD, 0x1000)
        assert consumed > core.config.base_cpi
        assert core.breakdown.translation_cycles > 0

    def test_ipc_decreases_with_memory_intensity(self):
        compute_core, _, _, _ = build_core()
        for _ in range(200):
            execute_one(compute_core, OP_ALU)
        memory_core, _, table, _ = build_core()
        for index in range(200):
            address = 0x1000 + index * PAGE_SIZE_4K
            table.insert(address, 0xA000 + index * PAGE_SIZE_4K, PAGE_SIZE_4K)
            execute_one(memory_core, OP_LOAD, address)
        assert memory_core.ipc < compute_core.ipc

    def test_kernel_batch_does_not_advance_core_cycles(self):
        core, _, _, _ = build_core()
        consumed = core.execute_kernel_batch(kernel_batch(*[(OP_ALU, None, 1)] * 10))
        assert consumed > 0
        assert core.cycles == 0
        assert (core.kernel_instructions, core.instructions) == (10, 0)

    def test_kernel_memory_accesses_pollute_caches(self):
        core, _, _, memory = build_core()
        core.execute_kernel_batch(kernel_batch((OP_STORE, 0x9000, 1)))
        assert memory.counters.get("requests_kernel_zero") == 1

    def test_repeat_instruction_charges_per_iteration(self):
        core, _, _, _ = build_core()
        consumed = core.execute_kernel_batch(kernel_batch((OP_ALU, None, 1000)))
        assert consumed >= 1000

    def test_page_fault_latency_charged_once(self):
        core, mmu, table, _ = build_core()

        def fault(pid, vaddr):
            table.insert(vaddr, 0xC000, PAGE_SIZE_4K)
            return 700, True

        mmu.set_fault_callback(fault)
        execute_one(core, OP_LOAD, 0x3000)
        assert core.breakdown.fault_cycles == pytest.approx(700)
        assert core.cycles > 700


def build_kernel_and_core(os_mode="imitation", thp_policy="linux"):
    kernel = MimicOS(tiny_mimicos_config(thp_policy=thp_policy), PageTableConfig())
    core, mmu, table, memory = build_core()
    simulation = SimulationConfig(os_mode=os_mode)
    coupling = build_coupling(simulation, kernel, core)
    return kernel, core, coupling


def record_streams(monkeypatch, coupling):
    """Record the length of every batch ``coupling`` expands and the opcodes
    of every batch its core executes."""
    expanded, executed = [], []
    expand = type(coupling.instrumentation).expand_batch
    execute = type(coupling.core).execute_kernel_batch

    def expand_batch(trace):
        batch = expand(coupling.instrumentation, trace)
        expanded.append(len(batch))
        return batch

    def execute_kernel_batch(batch):
        executed.append(list(batch.kinds))
        return execute(coupling.core, batch)

    monkeypatch.setattr(coupling.instrumentation, "expand_batch", expand_batch)
    monkeypatch.setattr(coupling.core, "execute_kernel_batch", execute_kernel_batch)
    return expanded, executed


class TestCouplings:
    def test_build_coupling_factory(self):
        kernel, core, _ = build_kernel_and_core()
        assert isinstance(build_coupling(SimulationConfig(os_mode="imitation"), kernel, core),
                          ImitationCoupling)
        assert isinstance(build_coupling(SimulationConfig(os_mode="emulation"), kernel, core),
                          EmulationCoupling)
        assert isinstance(build_coupling(SimulationConfig(os_mode="full_system"), kernel, core),
                          FullSystemCoupling)
        assert isinstance(build_coupling(SimulationConfig(os_mode="reference"), kernel, core),
                          ReferenceCoupling)
        with pytest.raises(ValueError):
            build_coupling(SimulationConfig(os_mode="psychic"), kernel, core)

    def test_imitation_injects_kernel_instructions(self):
        kernel, core, coupling = build_kernel_and_core("imitation")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 4 * MB)
        latency, handled = coupling.handle_page_fault(process.pid, vma.start)
        assert handled
        assert latency > 0
        assert core.kernel_instructions > 0
        assert coupling.kernel_instructions_injected() > 0
        assert coupling.fault_latency.count == 1

    def test_fault_dispatch_counts_channel_traffic(self, monkeypatch):
        """A handled fault, then a virtualised fault that also takes a
        hypervisor fault: every request is answered, every kernel trace
        is one stream, ``instructions`` counts the expanded streams without
        their terminators, and each executed stream ends in one MAGIC."""
        kernel, core, imitation = build_kernel_and_core("imitation")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 4 * MB)
        host = MimicOS(tiny_mimicos_config(), PageTableConfig())
        vm = VirtualMachine(host, guest_memory_bytes=128 * MB, name="vm0")
        guest = vm.create_guest_process("guest-app")
        guest_vma = vm.guest.mmap(guest, 4 * MB)
        virtualized = build_coupling(SimulationConfig(), vm.guest, core, vm=vm)
        for coupling, pid, address, traces in ((imitation, process.pid, vma.start, 1),
                                               (virtualized, guest.pid, guest_vma.start, 2)):
            expanded, executed = record_streams(monkeypatch, coupling)
            assert coupling.handle_page_fault(pid, address)[1]
            assert coupling.stats()["functional_channel"] == {"requests": 1, "responses": 1}
            assert coupling.stats()["instruction_channel"] == {
                "streams": traces, "instructions": sum(expanded)}
            assert len(expanded) == len(executed) == traces
            assert all(kinds.count(OP_MAGIC) == 1 and kinds[-1] == OP_MAGIC
                       for kinds in executed)
        assert virtualized.counters.get("hypervisor_faults") == 1

    def test_emulation_charges_fixed_latency_without_injection(self):
        kernel, core, coupling = build_kernel_and_core("emulation")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 4 * MB)
        latency, handled = coupling.handle_page_fault(process.pid, vma.start)
        assert handled
        assert latency == coupling.simulation_config.fixed_page_fault_latency
        assert core.kernel_instructions == 0

    def test_emulation_latency_is_constant_across_faults(self):
        kernel, core, coupling = build_kernel_and_core("emulation")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 16 * MB)
        latencies = {coupling.handle_page_fault(process.pid,
                                                vma.start + index * PAGE_SIZE_2M)[0]
                     for index in range(4)}
        assert len(latencies) == 1

    def test_imitation_latency_varies_across_faults(self):
        kernel, core, coupling = build_kernel_and_core("imitation", thp_policy="linux")
        process = kernel.create_process("app")
        huge_vma = kernel.mmap(process, 8 * MB)
        small_vma = kernel.mmap(process, 64 * 1024)
        huge_latency, _ = coupling.handle_page_fault(process.pid, huge_vma.start)
        small_latency, _ = coupling.handle_page_fault(process.pid, small_vma.start)
        assert huge_latency > small_latency * 5

    def test_full_system_is_slower_than_imitation(self):
        kernel_a, core_a, imitation = build_kernel_and_core("imitation")
        kernel_b, core_b, full_system = build_kernel_and_core("full_system")
        process_a = kernel_a.create_process("a")
        process_b = kernel_b.create_process("b")
        vma_a = kernel_a.mmap(process_a, 4 * MB)
        vma_b = kernel_b.mmap(process_b, 4 * MB)
        imitation.handle_page_fault(process_a.pid, vma_a.start)
        full_system.handle_page_fault(process_b.pid, vma_b.start)
        assert core_b.kernel_instructions > core_a.kernel_instructions

    def test_segfault_reported_as_unhandled(self):
        kernel, core, coupling = build_kernel_and_core("imitation")
        process = kernel.create_process("app")
        _, handled = coupling.handle_page_fault(process.pid, 0xDEAD_0000)
        assert not handled

    def test_reference_adds_noise_but_stays_positive(self):
        kernel, core, coupling = build_kernel_and_core("reference")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 16 * MB)
        latencies = [coupling.handle_page_fault(process.pid, vma.start + i * PAGE_SIZE_2M)[0]
                     for i in range(4)]
        assert all(latency > 0 for latency in latencies)
        assert len(set(latencies)) > 1


class TestChannelCounters:
    """The coupling's channel counters: one request and one response per
    fault, one stream per injected kernel trace, terminators excluded."""

    MODES = ["imitation", "emulation", "full_system", "reference"]

    @pytest.mark.parametrize("os_mode", MODES)
    def test_no_channel_traffic_before_the_first_fault(self, os_mode):
        _, _, coupling = build_kernel_and_core(os_mode)
        stats = coupling.stats()
        assert (stats["functional_channel"], stats["instruction_channel"]) == ({}, {})
        assert coupling.kernel_instructions_injected() == 0

    @pytest.mark.parametrize("os_mode", MODES)
    def test_every_fault_is_one_request_answered_by_one_response(self, os_mode):
        kernel, core, coupling = build_kernel_and_core(os_mode)
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 16 * MB)
        faults = 5
        for index in range(faults):
            assert coupling.handle_page_fault(process.pid, vma.start + index * PAGE_SIZE_2M)[1]
        stats = coupling.stats()
        assert list(stats["functional_channel"].items()) == [
            ("requests", faults), ("responses", faults)]
        injected = coupling.kernel_instructions_injected()
        if os_mode == "emulation":
            assert stats["instruction_channel"] == {}
            assert injected == core.kernel_instructions == 0
        else:
            assert list(stats["instruction_channel"].items()) == [
                ("streams", faults), ("instructions", injected)]
            # The core executed every counted instruction plus one MAGIC
            # terminator per stream, which the channel does not count.
            assert core.kernel_instructions == injected > 0
            assert core.counters.get("magic_instructions") == faults

    @pytest.mark.parametrize("clock, expected", [(None, 0), (lambda: 12345.7, 12345)])
    def test_kernel_sees_the_coupling_clock(self, monkeypatch, clock, expected):
        kernel, core, coupling = build_kernel_and_core("imitation")
        process = kernel.create_process("app")
        vma = kernel.mmap(process, 4 * MB)
        if clock is not None:
            coupling.set_clock(clock)
        seen = []
        handle = kernel.handle_page_fault

        def handle_page_fault(pid, virtual_address, now_cycles):
            seen.append(now_cycles)
            return handle(pid, virtual_address, now_cycles=now_cycles)

        monkeypatch.setattr(kernel, "handle_page_fault", handle_page_fault)
        coupling.handle_page_fault(process.pid, vma.start)
        assert seen == [expected]


class TestFixedLatencyPageTable:
    def test_walk_has_constant_latency_and_no_traffic(self):
        inner = RadixPageTable()
        inner.insert(0x1000, 0xA000, PAGE_SIZE_4K)
        wrapper = FixedLatencyPageTable(inner, fixed_latency=50)
        memory = FlatMemory()
        result = wrapper.walk(0x1000, memory)
        assert result.found
        assert result.latency == 50
        assert result.memory_accesses == 0
        assert memory.accesses == []

    def test_software_interface_delegates(self):
        inner = RadixPageTable()
        wrapper = FixedLatencyPageTable(inner, fixed_latency=50)
        wrapper.insert(0x2000, 0xB000, PAGE_SIZE_4K)
        assert inner.lookup(0x2000) == (0xB000, PAGE_SIZE_4K)
        assert wrapper.lookup(0x2000) == (0xB000, PAGE_SIZE_4K)
        assert wrapper.remove(0x2000)
        assert inner.lookup(0x2000) is None

    def test_walk_miss(self):
        wrapper = FixedLatencyPageTable(RadixPageTable(), fixed_latency=50)
        assert not wrapper.walk(0x5000, FlatMemory()).found
