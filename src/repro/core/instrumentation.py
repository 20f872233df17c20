"""The binary-instrumentation stand-in: kernel traces -> instruction streams.

The original Virtuoso runs MimicOS under Intel Pin / DynamoRIO and streams
the disassembled instructions of each executed routine into the simulator.
Here MimicOS routines record *what they did* as
:class:`~repro.mimicos.ops.KernelOp` records, and this module expands those
records into instruction streams with the same two properties the real
instrumentation provides:

* the **instruction count scales with the work performed** (free-list scans,
  page-table levels updated, bytes zeroed), so OS latency is variable and
  workload-dependent rather than a fixed constant; and
* the **memory operands are the kernel data structures actually touched**,
  so executing the stream pollutes the caches and contends for DRAM exactly
  where the real handler would.

Three instrumentation modes mirror the integration choices of Fig. 11:
``online`` (Pin-style, higher host-memory overhead), ``offline``
(pre-generated traces, low overhead) and ``reuse_emulation`` (gem5-style
reuse of the existing emulation frontend).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.stats import Counter
from repro.core.instructions import (
    OP_ALU,
    OP_LOAD,
    OP_STORE,
    KernelInstructionBatch,
)
from repro.mimicos.ops import KernelOp, KernelRoutineTrace


@dataclass(frozen=True)
class InstructionMix:
    """How one kernel operation class expands into instructions."""

    alu_per_work_unit: float = 2.0
    branch_per_work_unit: float = 0.5
    fixed_overhead: int = 4


#: Per-operation instruction mixes.  Operations not listed use the default.
_DEFAULT_MIX = InstructionMix()
_OPERATION_MIXES: Dict[str, InstructionMix] = {
    "fault_entry": InstructionMix(alu_per_work_unit=1.5, branch_per_work_unit=0.5,
                                  fixed_overhead=20),
    "fault_return": InstructionMix(alu_per_work_unit=1.0, branch_per_work_unit=0.3,
                                   fixed_overhead=12),
    "find_vma": InstructionMix(alu_per_work_unit=3.0, branch_per_work_unit=1.5,
                               fixed_overhead=8),
    "buddy_alloc": InstructionMix(alu_per_work_unit=4.0, branch_per_work_unit=1.0,
                                  fixed_overhead=10),
    "buddy_free": InstructionMix(alu_per_work_unit=3.0, branch_per_work_unit=1.0,
                                 fixed_overhead=8),
    "zero_page": InstructionMix(alu_per_work_unit=1.0, branch_per_work_unit=0.05,
                                fixed_overhead=6),
    "khugepaged_copy": InstructionMix(alu_per_work_unit=1.0, branch_per_work_unit=0.1,
                                      fixed_overhead=16),
    "thp_promote_region": InstructionMix(alu_per_work_unit=2.0, branch_per_work_unit=0.4,
                                         fixed_overhead=48),
    "swap_out": InstructionMix(alu_per_work_unit=6.0, branch_per_work_unit=1.5,
                               fixed_overhead=32),
    "swap_in": InstructionMix(alu_per_work_unit=6.0, branch_per_work_unit=1.5,
                              fixed_overhead=32),
    "deliver_sigsegv": InstructionMix(alu_per_work_unit=2.0, branch_per_work_unit=0.5,
                                      fixed_overhead=64),
}


class InstrumentationTool:
    """Expands kernel routine traces into injectable instruction streams."""

    #: Synthetic PC base for kernel instructions (distinct from user PCs).
    KERNEL_PC_BASE = 0xFFFF_FFFF_8100_0000
    #: Compute per kernel op charged at the base CPI; the rest is one REP
    #: instruction charged a cycle per repeat.  It no longer bounds stream
    #: size (a run is one record); the digests depend on that charging.
    MAX_COMPUTE_PER_OP = 8192

    def __init__(self, mode: str = "online", full_system_factor: float = 1.0):
        if mode not in ("online", "offline", "reuse_emulation"):
            raise ValueError(f"unknown instrumentation mode: {mode}")
        self.mode = mode
        #: Multiplier applied to every routine's instruction count; the
        #: full-system coupling uses > 1 to model simulating the whole kernel.
        self.full_system_factor = full_system_factor
        self.counters = Counter()

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def expand_batch(self, trace: KernelRoutineTrace) -> KernelInstructionBatch:
        """Expand one kernel routine trace into a run-length batch (see
        :class:`~repro.core.instructions.KernelInstructionBatch`), executed
        as-is by :meth:`CoreModel.execute_kernel_batch
        <repro.core.cpu.CoreModel.execute_kernel_batch>`.
        """
        batch = KernelInstructionBatch(name=trace.routine)
        pc = self.KERNEL_PC_BASE
        for op in trace.ops:
            pc = self._expand_op(op, batch, pc)
        self.counters.add("routines_instrumented")
        self.counters.add("instructions_generated", len(batch))
        return batch

    #: Operations expanded as bulk (rep-prefixed) work: the sampled memory
    #: touches are emitted normally and the compute cost is carried by a
    #: single repeat-counted instruction, charged one cycle per repeat.
    _BULK_OPERATIONS = {"zero_page"}

    def _expand_op(self, op: KernelOp, batch: KernelInstructionBatch, pc: int) -> int:
        """Append one op's records and return the next op's PC: touch ``i``
        gets PC ``pc + 4 * i``, and of the compute runs only the one after
        the last touch advances the next op's start."""
        if op.name in self._BULK_OPERATIONS:
            return self._expand_bulk_op(op, batch, pc)
        mix = _OPERATION_MIXES.get(op.name, _DEFAULT_MIX)
        alu_count = int(round(mix.fixed_overhead
                              + op.work_units * mix.alu_per_work_unit
                              * self.full_system_factor))
        branch_count = int(round(op.work_units * mix.branch_per_work_unit
                                 * self.full_system_factor))
        # Past the cap, the op's remaining compute is one repeat-counted
        # instruction below, charged a cycle per repeat.
        bulk_remainder = 0
        if alu_count + branch_count > self.MAX_COMPUTE_PER_OP:
            bulk_remainder = alu_count + branch_count - self.MAX_COMPUTE_PER_OP
            scale = self.MAX_COMPUTE_PER_OP / (alu_count + branch_count)
            alu_count = int(alu_count * scale)
            branch_count = int(branch_count * scale)

        # Interleave compute runs with the memory accesses so the injected
        # stream looks like real kernel code rather than a burst.
        total_compute = alu_count + branch_count
        touches = op.memory_touches
        run = max(0, total_compute // (len(touches) + 1)) if touches else 0
        pc = self._emit_touches(batch, touches, pc, run)
        remaining = total_compute - run * len(touches)
        self._emit_compute(batch, remaining)
        if bulk_remainder > 0:
            batch.append(OP_ALU, pc, repeat=bulk_remainder)
        return pc + 4 * max(0, remaining)

    def _expand_bulk_op(self, op: KernelOp, batch: KernelInstructionBatch, pc: int) -> int:
        """Expand a bulk operation (page zeroing) into touches + one rep instruction."""
        pc = self._emit_touches(batch, op.memory_touches, pc, 0)
        batch.append(OP_ALU, pc, repeat=max(1, int(op.work_units * self.full_system_factor)))
        return pc + 4

    @staticmethod
    def _emit_touches(batch: KernelInstructionBatch, touches, pc: int, run: int) -> int:
        """Append each touch at the next PC slot, after a compute run of
        ``run`` instructions (none if zero); returns the next PC."""
        kinds, values, pcs = batch.kinds, batch.values, batch.pcs
        for address, is_write in touches:
            if run:
                kinds.append(OP_ALU)
                values.append(run)
                pcs.append(0)
            kinds.append(OP_STORE if is_write else OP_LOAD)
            values.append(address)
            pcs.append(pc)
            pc += 4
        batch.instructions += len(touches) * (run + 1)
        return pc

    @staticmethod
    def _emit_compute(batch: KernelInstructionBatch, count: int) -> None:
        """Append one run of ``count`` compute instructions (none if zero)."""
        if count > 0:
            batch.kinds.append(OP_ALU)
            batch.values.append(count)
            batch.pcs.append(0)
            batch.instructions += count

    # ------------------------------------------------------------------ #
    # Host-cost accounting (used by the Fig. 11 overhead model)
    # ------------------------------------------------------------------ #
    def host_memory_overhead_factor(self) -> float:
        """Relative host memory consumption of this instrumentation mode.

        Matches the paper's observation: online binary instrumentation
        roughly doubles the simulator's memory footprint, offline trace
        generation and reuse of an emulation frontend cost almost nothing.
        """
        if self.mode == "online":
            return 2.1
        if self.mode == "offline":
            return 1.02
        return 1.05

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
