"""Image-processing kernels: 3D matrix transposition, Hadamard product, 2D sum.

These are the paper's short-running image/array workloads.  They are
allocation-light compared to the FaaS functions but still short enough that
their first-touch faults are visible, and their access patterns differ
usefully: the 3D transposition strides badly (page-granular jumps), the
Hadamard product streams three arrays, and the 2D sum is a single reduction
stream.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.core.instructions import Instruction, InstructionKind
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import SHORT_RUNNING, Workload


class MatrixTranspose3DWorkload(Workload):
    """3D matrix transposition: page-striding reads, sequential writes."""

    category = SHORT_RUNNING

    def __init__(self, name: str = "3D-Transp", footprint_bytes: int = 16 * MB,
                 memory_operations: int = 12_000, seed: int = 61):
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.memory_operations = memory_operations
        self.seed = seed
        self._input_vma = None
        self._output_vma = None

    def setup(self, kernel: MimicOS, process: Process) -> None:
        half = self.footprint_bytes // 2
        self._input_vma = kernel.mmap(process, half, kind=VMAKind.ANONYMOUS,
                                      name=f"{self.name}-in")
        self._output_vma = kernel.mmap(process, half, kind=VMAKind.ANONYMOUS,
                                       name=f"{self.name}-out")

    def instructions(self, process: Process) -> Iterator[Instruction]:
        input_vma, output_vma = self._input_vma, self._output_vma

        def stream() -> Iterator[Instruction]:
            plane_stride = PAGE_SIZE_4K * 4  # jumping across planes of the 3-D array
            read_offset = 0
            write_offset = 0
            for index in range(self.memory_operations // 2):
                yield Instruction(kind=InstructionKind.ALU, pc=0x430000)
                yield Instruction(kind=InstructionKind.LOAD, pc=0x430010,
                                  memory_address=input_vma.start + read_offset)
                read_offset = (read_offset + plane_stride) % (input_vma.size - 64)
                yield Instruction(kind=InstructionKind.ALU, pc=0x430020)
                yield Instruction(kind=InstructionKind.STORE, pc=0x430030,
                                  memory_address=output_vma.start + write_offset)
                write_offset = (write_offset + 64) % (output_vma.size - 64)

        return stream()


class HadamardWorkload(Workload):
    """3D Hadamard (element-wise) product: three sequential streams."""

    category = SHORT_RUNNING

    def __init__(self, name: str = "Hadamard", footprint_bytes: int = 18 * MB,
                 memory_operations: int = 12_000, seed: int = 67):
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.memory_operations = memory_operations
        self.seed = seed
        self._vmas: List = []

    def setup(self, kernel: MimicOS, process: Process) -> None:
        third = self.footprint_bytes // 3
        self._vmas = [kernel.mmap(process, third, kind=VMAKind.ANONYMOUS,
                                  name=f"{self.name}-{label}")
                      for label in ("a", "b", "out")]

    def instructions(self, process: Process) -> Iterator[Instruction]:
        a, b, out = self._vmas

        def stream() -> Iterator[Instruction]:
            offset = 0
            for index in range(self.memory_operations // 3):
                yield Instruction(kind=InstructionKind.LOAD, pc=0x440000,
                                  memory_address=a.start + offset)
                yield Instruction(kind=InstructionKind.LOAD, pc=0x440010,
                                  memory_address=b.start + offset)
                yield Instruction(kind=InstructionKind.ALU, pc=0x440020)
                yield Instruction(kind=InstructionKind.STORE, pc=0x440030,
                                  memory_address=out.start + offset)
                offset = (offset + 64) % (min(a.size, b.size, out.size) - 64)

        return stream()


class MatrixSum2DWorkload(Workload):
    """2D matrix sum: a single sequential reduction stream."""

    category = SHORT_RUNNING

    def __init__(self, name: str = "2D-Sum", footprint_bytes: int = 12 * MB,
                 memory_operations: int = 10_000, seed: int = 71):
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.memory_operations = memory_operations
        self.seed = seed
        self._vma = None

    def setup(self, kernel: MimicOS, process: Process) -> None:
        self._vma = kernel.mmap(process, self.footprint_bytes, kind=VMAKind.ANONYMOUS,
                                name=f"{self.name}-matrix")

    def instructions(self, process: Process) -> Iterator[Instruction]:
        vma = self._vma

        def stream() -> Iterator[Instruction]:
            offset = 0
            for index in range(self.memory_operations):
                yield Instruction(kind=InstructionKind.LOAD, pc=0x450000,
                                  memory_address=vma.start + offset)
                yield Instruction(kind=InstructionKind.ALU, pc=0x450010)
                offset = (offset + 64) % (vma.size - 64)

        return stream()
