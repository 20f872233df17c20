"""Instruction representation shared by workload traces and kernel streams.

The simulator is trace-driven: both the application frontends and the
instrumentation tool produce instruction sequences.  An instruction is
deliberately minimal — a kind, an optional memory operand and the PC —
because the core model only needs enough to charge issue slots and memory
latency.  Sequences travel as parallel arrays:

* :class:`InstructionBatch` — parallel arrays of opcodes, PCs and memory
  addresses for application instructions.  Batches avoid one object
  allocation per dynamic instruction, which dominates host time at
  figure-scale instruction budgets; :meth:`CoreModel.execute_batch
  <repro.core.cpu.CoreModel.execute_batch>` consumes them directly.
  Generators without an array-native override yield :class:`Instruction`
  objects that :meth:`Workload.instruction_batches
  <repro.workloads.base.Workload.instruction_batches>` packs into batches.
* :class:`KernelInstructionBatch` — the kernel-path analogue: the same
  parallel arrays plus the kernel-only ``repeats`` column (``rep``-prefixed
  bulk work such as page zeroing) and MAGIC stream terminators.
  :meth:`CoreModel.execute_kernel_batch
  <repro.core.cpu.CoreModel.execute_kernel_batch>` consumes them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional


class InstructionKind(str, Enum):
    """Coarse instruction classes the core model distinguishes."""

    ALU = "alu"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"
    #: Magic/synchronisation instruction (e.g. the xchg-based signal Sniper
    #: uses); zero architectural work, used to switch instruction streams.
    MAGIC = "magic"


#: Integer opcodes used by the array-backed batches (cheaper than enum
#: members in the hot loop).  Application batches only ever contain the
#: first four; ``OP_MAGIC`` (the stream terminator) and ``OP_REP`` (a
#: repeat-counted bulk ALU instruction, e.g. ``rep stos`` page zeroing)
#: appear in kernel batches only and never carry a memory operand.
OP_ALU = 0
OP_BRANCH = 1
OP_LOAD = 2
OP_STORE = 3
OP_MAGIC = 4
OP_REP = 5

KIND_TO_OP = {
    InstructionKind.ALU: OP_ALU,
    InstructionKind.BRANCH: OP_BRANCH,
    InstructionKind.LOAD: OP_LOAD,
    InstructionKind.STORE: OP_STORE,
    InstructionKind.MAGIC: OP_MAGIC,
}
OP_TO_KIND = {op: kind for kind, op in KIND_TO_OP.items()}


@dataclass(slots=True)
class Instruction:
    """One dynamic application instruction (object-generator workloads)."""

    kind: InstructionKind
    pc: int = 0
    #: Virtual address of the memory operand (None for non-memory work).
    memory_address: Optional[int] = None

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.kind in (InstructionKind.LOAD, InstructionKind.STORE)

    @property
    def is_write(self) -> bool:
        """True for stores."""
        return self.kind == InstructionKind.STORE


class InstructionBatch:
    """An application instruction chunk stored as parallel arrays.

    ``kinds[i]`` is one of the ``OP_*`` opcodes, ``pcs[i]`` the program
    counter and ``addresses[i]`` the memory operand (``None`` for non-memory
    instructions).  Batches carry application instructions only; kernel
    streams use :class:`KernelInstructionBatch`, which additionally encodes
    ``repeat``/MAGIC metadata.
    """

    __slots__ = ("kinds", "pcs", "addresses")

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.pcs: List[int] = []
        self.addresses: List[Optional[int]] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def append(self, op: int, pc: int, address: Optional[int] = None) -> None:
        """Add one instruction given its integer opcode."""
        self.kinds.append(op)
        self.pcs.append(pc)
        self.addresses.append(address)

    def append_instruction(self, instruction: Instruction) -> None:
        """Add one :class:`Instruction` object (compatibility packing path)."""
        self.kinds.append(KIND_TO_OP[instruction.kind])
        self.pcs.append(instruction.pc)
        self.addresses.append(instruction.memory_address)

    def iter_instructions(self) -> Iterator[Instruction]:
        """Yield equivalent :class:`Instruction` objects (test/debug helper)."""
        for op, pc, address in zip(self.kinds, self.pcs, self.addresses):
            yield Instruction(kind=OP_TO_KIND[op], pc=pc, memory_address=address)

    @property
    def memory_instructions(self) -> int:
        """Number of loads and stores in the batch."""
        return sum(1 for op, address in zip(self.kinds, self.addresses)
                   if address is not None and op >= OP_LOAD)


class KernelInstructionBatch:
    """A MimicOS instruction stream stored as parallel arrays.

    The kernel analogue of :class:`InstructionBatch`: ``kinds[i]`` is an
    ``OP_*`` opcode (including ``OP_MAGIC`` terminators), ``pcs[i]`` the
    synthetic kernel PC and ``addresses[i]`` the kernel-space memory operand
    (``None`` for compute/magic slots).  Rep-prefixed bulk compute
    instructions are stored as ``OP_REP`` opcodes whose repetition counts
    live, in emission order, in the side list ``rep_values`` — keeping the
    executor's common case (plain compute, repeat 1) free of a repeats
    column.
    """

    __slots__ = ("name", "kinds", "pcs", "addresses", "rep_values")

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
        """Add one kernel instruction given its integer opcode.

        A ``repeat`` greater than one turns the instruction into an
        ``OP_REP`` bulk-compute record; only operand-less ALU work may carry
        a repeat count (the instrumentation never repeats memory accesses).
        """
        if repeat > 1:
            assert address is None, "repeat counts are compute-only"
            self.kinds.append(OP_REP)
            self.rep_values.append(repeat)
        else:
            self.kinds.append(op)
        self.pcs.append(pc)
        self.addresses.append(address)

    @property
    def memory_instructions(self) -> int:
        """Number of loads and stores in the batch."""
        return sum(1 for op, address in zip(self.kinds, self.addresses)
                   if address is not None and (op == OP_LOAD or op == OP_STORE))
