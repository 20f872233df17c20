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
from functools import lru_cache
from typing import Dict, Tuple

from repro.common.stats import Counter
from repro.core.instructions import (
    OP_ALU,
    OP_REP,
    OP_TOUCHES,
    KernelInstructionBatch,
)
from repro.mimicos.ops import KernelRoutineTrace


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
    #: Operations expanded as bulk (rep-prefixed) work: the sampled memory
    #: touches are emitted normally and the compute cost is carried by a
    #: single repeat-counted instruction, charged one cycle per repeat.
    _BULK_OPERATIONS = frozenset({"zero_page"})

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

        Each op gives at most three records, in this order: its touches
        (each after a compute run), the rest of its compute, and its bulk
        (rep-prefixed) remainder.  Touch ``i`` of an op gets PC ``pc + 4 *
        i``, and the PC after the last touch advances by one slot per
        instruction of the rest of the compute (by one slot for a bulk op).
        """
        batch = KernelInstructionBatch(name=trace.routine)
        kinds, values, pcs = batch.kinds, batch.values, batch.pcs
        factor = self.full_system_factor
        pc = self.KERNEL_PC_BASE
        instructions = 0
        for op in trace.ops:
            touches = op.memory_touches
            count = len(touches)
            run, compute, repeat, advance = _op_plan(op.name, op.work_units, count, factor)
            if count:
                kinds.append(OP_TOUCHES)
                values.append((touches, run))
                pcs.append(pc)
                pc += 4 * count
                instructions += count * (run + 1)
            if compute:
                kinds.append(OP_ALU)
                values.append(compute)
                pcs.append(0)
                instructions += compute
            if repeat:
                # A repeat of one is a plain compute run of one.
                kinds.append(OP_REP if repeat > 1 else OP_ALU)
                values.append(repeat)
                pcs.append(0)
                instructions += 1
            pc += advance
        batch.instructions = instructions
        self.counters.add("routines_instrumented")
        self.counters.add("instructions_generated", instructions)
        return batch

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


@lru_cache(maxsize=4096)
def _op_plan(name: str, work_units: int, touches: int,
             factor: float) -> Tuple[int, int, int, int]:
    """How an op named ``name`` with ``touches`` memory touches expands:
    ``(run, compute, repeat, advance)``, the compute run before each
    touch, the compute run after the last touch (0: none), the repeat
    count of the bulk instruction (0: none) and the PC slots, in bytes,
    that the op's end advances past its last touch.

    Past :attr:`InstrumentationTool.MAX_COMPUTE_PER_OP`, an op's remaining
    compute is one repeat-counted instruction, charged a cycle per repeat.
    Bulk operations (page zeroing) carry all their compute that way.
    """
    if name in InstrumentationTool._BULK_OPERATIONS:
        return 0, 0, max(1, int(work_units * factor)), 4
    mix = _OPERATION_MIXES.get(name, _DEFAULT_MIX)
    alu_count = int(round(mix.fixed_overhead + work_units * mix.alu_per_work_unit * factor))
    branch_count = int(round(work_units * mix.branch_per_work_unit * factor))
    cap = InstrumentationTool.MAX_COMPUTE_PER_OP
    bulk_remainder = 0
    if alu_count + branch_count > cap:
        bulk_remainder = alu_count + branch_count - cap
        scale = cap / (alu_count + branch_count)
        alu_count = int(alu_count * scale)
        branch_count = int(branch_count * scale)
    # Interleave compute runs with the memory accesses so the injected
    # stream looks like real kernel code rather than a burst.
    total_compute = alu_count + branch_count
    run = max(0, total_compute // (touches + 1)) if touches else 0
    compute = max(0, total_compute - run * touches)
    return run, compute, bulk_remainder, 4 * compute
