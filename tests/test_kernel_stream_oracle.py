"""Differential oracle for the run-length kernel instruction stream.

``ReferenceKernelBatch``, ``ReferenceInstrumentation`` and
``reference_execute`` are the per-instruction kernel stream the run-length
records replaced: one ``kinds``/``pcs``/``addresses`` slot per dynamic
instruction (compute slots carry a PC and a ``None`` operand, with
branches sprinkled through each run at a fixed interval), a side list of
``OP_REP`` repeat counts, and an executor that charges every slot on its
own.  Hypothesis drives it and :meth:`repro.core.instrumentation.
InstrumentationTool.expand_batch` plus :meth:`repro.core.cpu.CoreModel.
execute_kernel_batch` with the same MimicOS routine traces, each batch
ended by the MAGIC terminator the OS coupling appends, and every
observable must agree exactly: the cycles each batch consumed, the
stream's length before its terminator, ``kernel_cycles``, the core's
counters, ``instructions_generated``, the memory hierarchy's ``stats()``
and the
``(kind, PC, address)`` sequence of the memory operations.  That sequence
is read where the operations execute, at :meth:`MemoryHierarchy.
access_value <repro.memhier.memory_system.MemoryHierarchy.access_value>`,
not from the batch records, so it checks what runs whatever the record
layout.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.config import CoreConfig
from repro.common.kernelops import KernelOp, KernelRoutineTrace
from repro.common.stats import Counter
from repro.core.cpu import CoreModel
from repro.core.instructions import (
    OP_ALU,
    OP_BRANCH,
    OP_LOAD,
    OP_MAGIC,
    OP_REP,
    OP_STORE,
    OP_TOUCHES,
)
from repro.core.instrumentation import (
    _DEFAULT_MIX,
    _OPERATION_MIXES,
    InstrumentationTool,
)
from repro.memhier.memory_system import MemoryHierarchy
from repro.mmu.mmu import MMU
from repro.mmu.tlb import TLBHierarchy
from tests.conftest import tiny_system_config


# --------------------------------------------------------------------------- #
# Reference model: one slot per instruction
# --------------------------------------------------------------------------- #
class ReferenceKernelBatch:
    """``KernelInstructionBatch`` as parallel per-instruction arrays."""

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self.kinds: List[int] = []
        self.pcs: List[int] = []
        self.addresses: List[Optional[int]] = []
        self.rep_values: List[int] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def append(self, op: int, pc: int, address: Optional[int] = None,
               repeat: int = 1) -> None:
        if repeat > 1:
            assert address is None, "repeat counts are compute-only"
            self.kinds.append(OP_REP)
            self.rep_values.append(repeat)
        else:
            self.kinds.append(op)
        self.pcs.append(pc)
        self.addresses.append(address)


class ReferenceInstrumentation:
    """``InstrumentationTool``'s expansion, one instruction at a time."""

    KERNEL_PC_BASE = InstrumentationTool.KERNEL_PC_BASE
    MAX_COMPUTE_PER_OP = InstrumentationTool.MAX_COMPUTE_PER_OP
    _BULK_OPERATIONS = {"zero_page"}

    def __init__(self, full_system_factor: float = 1.0):
        self.full_system_factor = full_system_factor
        self.counters = Counter()

    def expand_batch(self, trace: KernelRoutineTrace) -> ReferenceKernelBatch:
        batch = ReferenceKernelBatch(name=trace.routine)
        pc = self.KERNEL_PC_BASE
        for op in trace.ops:
            pc = self._expand_op(op, batch, pc)
        self.counters.add("routines_instrumented")
        self.counters.add("instructions_generated", len(batch))
        return batch

    def _expand_op(self, op: KernelOp, batch: ReferenceKernelBatch, pc: int) -> int:
        if op.name in self._BULK_OPERATIONS:
            return self._expand_bulk_op(op, batch, pc)
        mix = _OPERATION_MIXES.get(op.name, _DEFAULT_MIX)
        alu_count = int(round(mix.fixed_overhead
                              + op.work_units * mix.alu_per_work_unit
                              * self.full_system_factor))
        branch_count = int(round(op.work_units * mix.branch_per_work_unit
                                 * self.full_system_factor))
        bulk_remainder = 0
        if alu_count + branch_count > self.MAX_COMPUTE_PER_OP:
            bulk_remainder = alu_count + branch_count - self.MAX_COMPUTE_PER_OP
            scale = self.MAX_COMPUTE_PER_OP / (alu_count + branch_count)
            alu_count = int(alu_count * scale)
            branch_count = int(branch_count * scale)

        memory_touches = op.memory_touches
        total_compute = alu_count + branch_count
        touches = len(memory_touches)
        compute_per_touch = total_compute // (touches + 1) if touches else total_compute

        emitted_compute = 0
        for address, is_write in memory_touches:
            emitted_compute += self._emit_compute(batch, pc, compute_per_touch,
                                                  branch_count, alu_count, emitted_compute)
            batch.append(OP_STORE if is_write else OP_LOAD, pc, address)
            pc += 4
        remaining = total_compute - emitted_compute
        self._emit_compute(batch, pc, remaining, branch_count, alu_count, emitted_compute)
        if bulk_remainder > 0:
            batch.append(OP_ALU, pc, repeat=bulk_remainder)
        return pc + 4 * max(0, remaining)

    def _expand_bulk_op(self, op: KernelOp, batch: ReferenceKernelBatch, pc: int) -> int:
        touches = op.memory_touches
        count = len(touches)
        if count:
            batch.kinds += [OP_STORE if is_write else OP_LOAD for _, is_write in touches]
            batch.pcs += range(pc, pc + 4 * count, 4)
            batch.addresses += [address for address, _ in touches]
            pc += 4 * count
        repeat = max(1, int(op.work_units * self.full_system_factor))
        batch.append(OP_ALU, pc, repeat=repeat)
        return pc + 4

    def _emit_compute(self, batch: ReferenceKernelBatch, pc: int, count: int,
                      branch_count: int, alu_count: int, already_emitted: int) -> int:
        if count <= 0:
            return 0
        # A branch lands wherever (already_emitted + index) % interval == 0.
        total = alu_count + branch_count
        branch_active = branch_count > 0 and total > 0
        kinds_block = [OP_ALU] * count
        if branch_active:
            interval = max(1, total // max(1, branch_count))
            first = (-already_emitted) % interval
            if first < count:
                branch_slots = len(range(first, count, interval))
                kinds_block[first::interval] = [OP_BRANCH] * branch_slots
        batch.kinds += kinds_block
        batch.pcs += range(pc, pc + 4 * count, 4)
        batch.addresses += [None] * count
        return count


def reference_execute(core: CoreModel, batch: ReferenceKernelBatch) -> float:
    """``CoreModel.execute_kernel_batch``, charging every slot on its own."""
    base_cpi = core.config.base_cpi
    exposed_fraction = 1.0 - core.config.mlp_factor
    memory = core.memory
    rep_iter = iter(batch.rep_values)
    consumed_total = 0.0
    kernel_cycles = core.breakdown.kernel_cycles
    magic_count = 0
    for op, pc, address in zip(batch.kinds, batch.pcs, batch.addresses):
        if address is None:
            if op <= OP_BRANCH:
                consumed_total += base_cpi
                kernel_cycles += base_cpi
                continue
            if op == OP_MAGIC:
                magic_count += 1
                continue
            if op == OP_REP:
                consumed = float(next(rep_iter))
                consumed_total += consumed
                kernel_cycles += consumed
                continue
            consumed_total += base_cpi
            kernel_cycles += base_cpi
            continue
        consumed = base_cpi
        if op == OP_LOAD or op == OP_STORE:
            is_write = op == OP_STORE
            latency = memory.access_value(address, is_write,
                                          "kernel_zero" if is_write else "kernel", pc)
            if not is_write:
                served_by = memory.last_served_by
                if served_by != "L1" and served_by != "none":
                    exposed = latency - 4
                    if exposed > 0:
                        consumed += exposed * exposed_fraction
        consumed_total += consumed
        kernel_cycles += consumed
    kernel_count = len(batch.kinds) - magic_count
    core.kernel_instructions += kernel_count
    core.breakdown.kernel_cycles = kernel_cycles
    core._c_kernel_instructions[0] += kernel_count
    if magic_count:
        core._c_magic_instructions[0] += magic_count
    return consumed_total


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def build_core() -> CoreModel:
    system = tiny_system_config()
    memory = MemoryHierarchy.from_system_config(system)
    tlbs = TLBHierarchy(system.l1i_tlb, system.l1d_tlb_4k, system.l1d_tlb_2m, system.l2_tlb)
    return CoreModel(CoreConfig(), MMU(tlbs, memory), memory)


def observe(core: CoreModel, length: int, tool, consumed: float,
            memory_ops) -> Dict[str, object]:
    return {"consumed": consumed,
            "kernel_cycles": core.breakdown.kernel_cycles,
            "kernel_instructions": core.kernel_instructions,
            "core": core.counters.as_dict(),
            "length": length,
            "instrumentation": tool.counters.as_dict(),
            "memory": core.memory.stats(),
            "memory_ops": memory_ops}


def record_memory_ops(memory: MemoryHierarchy) -> List[Tuple[int, int, int]]:
    """Record every ``access_value`` call on ``memory`` as ``(kind, pc,
    address)``, in order, into the returned list."""
    memory_ops: List[Tuple[int, int, int]] = []
    access_value = memory.access_value

    def recording(address, is_write=False, access_type="data", pc=0):
        memory_ops.append((OP_STORE if is_write else OP_LOAD, pc, address))
        return access_value(address, is_write, access_type, pc)

    memory.access_value = recording
    return memory_ops


def run_side(tool, execute, traces) -> List[Dict[str, object]]:
    core = build_core()
    memory_ops = record_memory_ops(core.memory)
    steps = []
    for trace in traces:
        batch = tool.expand_batch(trace)
        length = len(batch)
        batch.append(OP_MAGIC, 0)
        consumed = execute(core, batch)
        steps.append(observe(core, length, tool, consumed, list(memory_ops)))
        memory_ops.clear()
    return steps


def divergence(traces, full_system_factor: float = 1.0):
    """First batch on which the run-length stream and the reference differ,
    as ``(batch index, field, got, want)``, or None."""
    got = run_side(InstrumentationTool(full_system_factor=full_system_factor),
                   CoreModel.execute_kernel_batch, traces)
    want = run_side(ReferenceInstrumentation(full_system_factor), reference_execute, traces)
    for index, (got_step, want_step) in enumerate(zip(got, want)):
        for field, value in want_step.items():
            if got_step[field] != value:
                return index, field, got_step[field], value
    return None


def make_trace(ops) -> KernelRoutineTrace:
    trace = KernelRoutineTrace("do_page_fault")
    for name, work_units, touches in ops:
        op = trace.new_op(name, work_units=work_units)
        for address, is_write in touches:
            op.touch(address, is_write=is_write)
    return trace


KERNEL_BASE = 0xFFFF_8880_0000_0000
#: Work units up to past the cap (``buddy_alloc`` crosses it near 1640).
WORK = st.one_of(st.integers(min_value=0, max_value=40),
                 st.integers(min_value=0, max_value=3000))
TOUCHES = st.lists(st.tuples(st.integers(min_value=0, max_value=1023).map(
    lambda line: KERNEL_BASE + line * 64), st.booleans()), max_size=40)
OP_NAMES = st.sampled_from(sorted(_OPERATION_MIXES) + ["pt_update"])
OPS = st.one_of(st.tuples(OP_NAMES, WORK, TOUCHES),
                st.tuples(st.just("zero_page"),
                          st.integers(min_value=0, max_value=70000), TOUCHES))
TRACES = st.lists(st.lists(OPS, max_size=6).map(make_trace), min_size=1, max_size=4)


@given(traces=TRACES, factor=st.sampled_from([1.0, 2.4]))
@settings(max_examples=120, deadline=None)
def test_run_length_stream_matches_per_instruction_reference(traces, factor):
    assert divergence(traces, factor) is None


# --------------------------------------------------------------------------- #
# Sensitivity: each plausible slip must fail the oracle
# --------------------------------------------------------------------------- #
#: A fault-shaped trace: compute runs before every touch, a zero_page REP
#: and an op past the cap.
SENSITIVE_TRACES = [make_trace([
    ("fault_entry", 6, [(KERNEL_BASE, False)]),
    ("buddy_alloc", 24, [(KERNEL_BASE + 64 * line, line % 2 == 0) for line in range(1, 6)]),
    ("zero_page", 4096, [(KERNEL_BASE + 4096 + 64 * line, True) for line in range(4)]),
    ("swap_out", 2000, [(KERNEL_BASE + 8192, False)]),
    ("fault_return", 2, []),
])] * 3


def _charge_runs_by_multiply(execute):
    """Charge each compute run as one ``n * base_cpi`` addition."""
    def patched(self, batch):
        cpi = self.config.base_cpi
        batch.values = [value * cpi if kind == OP_ALU else value
                        for kind, value in zip(batch.kinds, batch.values)]
        batch.kinds = [OP_REP if kind == OP_ALU else kind for kind in batch.kinds]
        return execute(self, batch)
    return patched


def _advance_pc_per_run(expand_batch):
    """Move every touch record one PC slot further per compute run before it."""
    def patched(self, trace):
        batch = expand_batch(self, trace)
        shift = 0
        for index, (kind, value) in enumerate(zip(batch.kinds, batch.values)):
            if kind == OP_ALU:
                shift += 4
            elif kind == OP_TOUCHES:
                batch.pcs[index] += shift
                if value[1]:
                    shift += 4
        return batch
    return patched


def _count_rep_repeats(expand_batch):
    """Count a REP record as its repeat count in ``len(batch)``."""
    def patched(self, trace):
        batch = expand_batch(self, trace)
        batch.instructions += sum(value - 1 for kind, value in zip(batch.kinds, batch.values)
                                  if kind == OP_REP)
        return batch
    return patched


def test_oracle_catches_charging_a_run_as_one_multiply(monkeypatch):
    assert divergence(SENSITIVE_TRACES) is None
    monkeypatch.setattr(CoreModel, "execute_kernel_batch",
                        _charge_runs_by_multiply(CoreModel.execute_kernel_batch))
    found = divergence(SENSITIVE_TRACES)
    assert found is not None and found[1] == "consumed"


def test_oracle_catches_a_pc_slot_per_compute_run(monkeypatch):
    assert divergence(SENSITIVE_TRACES) is None
    monkeypatch.setattr(InstrumentationTool, "expand_batch",
                        _advance_pc_per_run(InstrumentationTool.expand_batch))
    found = divergence(SENSITIVE_TRACES)
    assert found is not None and found[1] in ("memory", "memory_ops")


def test_oracle_catches_counting_rep_repeats_as_instructions(monkeypatch):
    assert divergence(SENSITIVE_TRACES) is None
    monkeypatch.setattr(InstrumentationTool, "expand_batch",
                        _count_rep_repeats(InstrumentationTool.expand_batch))
    found = divergence(SENSITIVE_TRACES)
    assert found is not None and found[1] in ("kernel_instructions", "core", "length",
                                              "instrumentation")
