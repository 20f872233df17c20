"""Instruction representation shared by workload traces and kernel streams.

The simulator is trace-driven: both the workloads and the instrumentation
tool produce instruction sequences.  An instruction is
deliberately minimal — a kind, an optional memory operand and the PC —
because the core model only needs enough to charge issue slots and memory
latency.  Sequences travel as parallel arrays:

* :class:`InstructionBatch` — parallel arrays of opcodes, PCs and memory
  addresses for application instructions.  Batches avoid one object
  allocation per dynamic instruction, which dominates host time at
  figure-scale instruction budgets; :meth:`CoreModel.execute_batch
  <repro.core.cpu.CoreModel.execute_batch>` consumes them directly, and
  every workload's :meth:`Workload.instruction_batches
  <repro.workloads.base.Workload.instruction_batches>` builds them
  directly.  There is no per-instruction object: code that needs one
  instruction reads index ``i`` of the three arrays.
* :class:`KernelInstructionBatch` — the kernel-path analogue as run-length
  records: one per kernel op's memory touches (with the compute run
  before each touch), one per run of plain compute, one per
  ``rep``-prefixed bulk instruction (page zeroing) and MAGIC terminators.
  :meth:`CoreModel.execute_kernel_batch
  <repro.core.cpu.CoreModel.execute_kernel_batch>` walks the records.
"""

from __future__ import annotations

from typing import List, Optional


#: Integer opcodes used by the array-backed batches.  Application batches
#: only ever contain the first four; ``OP_MAGIC`` (the stream terminator) and ``OP_REP`` (a
#: repeat-counted bulk ALU instruction, e.g. ``rep stos`` page zeroing)
#: appear in kernel batches only and never carry a memory operand.
#: ``OP_TOUCHES`` is a kernel-batch record kind, not an instruction: the
#: loads and stores of one kernel op (see :class:`KernelInstructionBatch`).
OP_ALU = 0
OP_BRANCH = 1
OP_LOAD = 2
OP_STORE = 3
OP_MAGIC = 4
OP_REP = 5
OP_TOUCHES = 6


class InstructionBatch:
    """An application instruction chunk stored as parallel arrays.

    ``kinds[i]`` is one of the ``OP_*`` opcodes, ``pcs[i]`` the program
    counter and ``addresses[i]`` the memory operand (``None`` for non-memory
    instructions).  Batches carry application instructions only; kernel
    streams use :class:`KernelInstructionBatch`, which additionally encodes
    ``repeat``/MAGIC metadata.
    """

    __slots__ = ("kinds", "pcs", "addresses")

    def __init__(self, kinds: Optional[List[int]] = None, pcs: Optional[List[int]] = None,
                 addresses: Optional[List[Optional[int]]] = None) -> None:
        """An empty batch, or one that takes ownership of the given arrays."""
        self.kinds: List[int] = [] if kinds is None else kinds
        self.pcs: List[int] = [] if pcs is None else pcs
        self.addresses: List[Optional[int]] = [] if addresses is None else addresses

    def __len__(self) -> int:
        return len(self.kinds)


class KernelInstructionBatch:
    """A MimicOS instruction stream stored as run-length records.

    Most kernel instructions are plain compute, which needs no PC or
    operand, so the stream keeps one record per *run* of them, and one
    record for all the loads and stores of a kernel op.  Records sit in
    program order in parallel lists; ``kinds[i]`` says what ``values[i]``
    holds:

    * ``OP_TOUCHES`` -- ``(touches, run)``: the op's ``(address,
      is_write)`` list (the op's own ``memory_touches``, shared, not
      copied) and the length of the compute run before *each* touch;
      ``pcs[i]`` is the first touch's PC and touch ``k`` has PC ``pcs[i]
      + 4 * k``, the PC the prefetchers train on (0 in every other
      record).  A write is a ``kernel_zero`` store, a read a ``kernel``
      load;
    * ``OP_ALU`` -- the length of a run of ALU/branch instructions;
    * ``OP_REP`` -- the repeat count of one rep-prefixed bulk instruction;
    * ``OP_MAGIC`` -- nothing; it terminates the stream.

    ``len(batch)`` counts instructions, not records: a touch record counts
    its touches and their runs, a run its length, a REP or MAGIC record
    one.
    """

    __slots__ = ("name", "kinds", "values", "pcs", "instructions")

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self.kinds: List[int] = []
        self.values: List[object] = []
        self.pcs: List[int] = []
        self.instructions = 0

    def __len__(self) -> int:
        return self.instructions

    def append(self, op: int, pc: int, address: Optional[int] = None,
               repeat: int = 1) -> None:
        """Add one kernel instruction given its integer opcode.

        Exactly the loads and stores carry an ``address``, and each becomes
        a one-touch ``OP_TOUCHES`` record with no compute run; a
        ``repeat`` above one makes an ALU/branch instruction an ``OP_REP``
        record.  Anything else raises ``ValueError``.
        """
        is_memory = op == OP_LOAD or op == OP_STORE
        if is_memory != (address is not None) or not OP_ALU <= op <= OP_MAGIC:
            raise ValueError(f"malformed kernel instruction {op} with operand {address!r}")
        if repeat != 1 and op > OP_BRANCH:
            raise ValueError(f"repeat counts are compute-only, not for opcode {op}")
        if op <= OP_BRANCH:
            op, value, pc = (OP_REP, repeat, 0) if repeat > 1 else (OP_ALU, 1, 0)
        elif is_memory:
            op, value = OP_TOUCHES, ([(address, op == OP_STORE)], 0)
        else:
            value, pc = 0, 0
        self.kinds.append(op)
        self.values.append(value)
        self.pcs.append(pc)
        self.instructions += 1
