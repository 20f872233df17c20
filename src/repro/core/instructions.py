"""Instruction representation shared by workload traces and kernel streams.

The simulator is trace-driven: both the application frontends and the
instrumentation tool produce sequences of :class:`Instruction` records.  An
instruction is deliberately minimal — a kind, an optional memory operand and
the PC — because the core model only needs enough to charge issue slots and
memory latency.

Three stream representations coexist:

* :class:`InstructionStream` — a list of :class:`Instruction` objects, the
  compatibility representation used by the legacy engine and by tests that
  inspect per-instruction metadata (``repeat``, ``is_kernel``, MAGIC).
* :class:`InstructionBatch` — parallel arrays of opcodes, PCs and memory
  addresses, used by the application fast path.  Batches avoid one object
  allocation per dynamic instruction, which dominates host time at
  figure-scale instruction budgets; :meth:`CoreModel.execute_batch
  <repro.core.cpu.CoreModel.execute_batch>` consumes them directly.
* :class:`KernelInstructionBatch` — the kernel-path analogue: the same
  parallel arrays plus the kernel-only ``repeats`` column (``rep``-prefixed
  bulk work such as page zeroing) and MAGIC stream terminators.
  :meth:`CoreModel.execute_kernel_batch
  <repro.core.cpu.CoreModel.execute_kernel_batch>` consumes them directly;
  :meth:`KernelInstructionBatch.to_stream` materialises the equivalent
  :class:`InstructionStream` on demand for legacy-engine and test code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, List, Optional


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
    """One dynamic instruction."""

    kind: InstructionKind
    pc: int = 0
    #: Virtual address for application instructions; physical (kernel-space)
    #: address for injected MimicOS instructions.
    memory_address: Optional[int] = None
    is_kernel: bool = False
    #: Repeat count for string/bulk operations (``rep stos``-style page
    #: zeroing): the core charges one cycle per repetition but the stream
    #: stays compact.
    repeat: int = 1

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.kind in (InstructionKind.LOAD, InstructionKind.STORE)

    @property
    def is_write(self) -> bool:
        """True for stores."""
        return self.kind == InstructionKind.STORE


@dataclass(slots=True)
class InstructionStream:
    """An ordered sequence of instructions with a few convenience accessors."""

    name: str = "stream"
    instructions: List[Instruction] = field(default_factory=list)

    def append(self, instruction: Instruction) -> None:
        """Add one instruction to the stream."""
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Add many instructions."""
        self.instructions.extend(instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def memory_instructions(self) -> int:
        """Number of loads and stores in the stream."""
        return sum(1 for instruction in self.instructions if instruction.is_memory)


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

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction]) -> "InstructionBatch":
        """Pack an instruction iterable into one batch."""
        batch = cls()
        append = batch.append_instruction
        for instruction in instructions:
            append(instruction)
        return batch

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
    column.  Every instruction is implicitly ``is_kernel=True``.
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

    def iter_instructions(self) -> Iterator[Instruction]:
        """Yield equivalent :class:`Instruction` objects (compatibility view)."""
        rep_iter = iter(self.rep_values)
        for op, pc, address in zip(self.kinds, self.pcs, self.addresses):
            if op == OP_REP:
                yield Instruction(kind=InstructionKind.ALU, pc=pc,
                                  memory_address=address, is_kernel=True,
                                  repeat=next(rep_iter))
            else:
                yield Instruction(kind=OP_TO_KIND[op], pc=pc, memory_address=address,
                                  is_kernel=True)

    def to_stream(self) -> InstructionStream:
        """Materialise the batch as an :class:`InstructionStream`.

        The conversion is performed only when a consumer actually needs
        per-instruction objects (the legacy engine, tests, debug dumps); the
        batch engine executes the arrays directly and never pays for it.
        """
        stream = InstructionStream(name=self.name)
        stream.instructions = list(self.iter_instructions())
        return stream

    @property
    def memory_instructions(self) -> int:
        """Number of loads and stores in the batch."""
        return sum(1 for op, address in zip(self.kinds, self.addresses)
                   if address is not None and (op == OP_LOAD or op == OP_STORE))
