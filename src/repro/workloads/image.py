"""Image-processing kernels: 3D matrix transposition, Hadamard product, 2D sum.

These are the paper's short-running image/array workloads.  They are
allocation-light compared to the FaaS functions but still short enough that
their first-touch faults are visible, and their access patterns differ
usefully: the 3D transposition strides badly (page-granular jumps), the
Hadamard product streams three arrays, and the 2D sum is a single reduction
stream.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.core.instructions import OP_ALU, OP_LOAD, OP_STORE, InstructionBatch
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import SHORT_RUNNING, Workload, cut_batches


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

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        input_start, input_span = self._input_vma.start, self._input_vma.size - 64
        output_start, output_span = self._output_vma.start, self._output_vma.size - 64
        plane_stride = PAGE_SIZE_4K * 4  # jumping across planes of the 3-D array
        kinds: List[int] = []
        pcs: List[int] = []
        operands: List[Optional[int]] = []
        read_offset = 0
        write_offset = 0
        for _ in range(self.memory_operations // 2):
            kinds += (OP_ALU, OP_LOAD, OP_ALU, OP_STORE)
            pcs += (0x430000, 0x430010, 0x430020, 0x430030)
            operands += (None, input_start + read_offset, None, output_start + write_offset)
            read_offset = (read_offset + plane_stride) % input_span
            write_offset = (write_offset + 64) % output_span
            if len(kinds) >= batch_size:
                yield from cut_batches(kinds, pcs, operands, batch_size)
        yield from cut_batches(kinds, pcs, operands, batch_size, final=True)


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

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        a, b, out = self._vmas
        span = min(a.size, b.size, out.size) - 64
        kinds: List[int] = []
        pcs: List[int] = []
        operands: List[Optional[int]] = []
        offset = 0
        for _ in range(self.memory_operations // 3):
            kinds += (OP_LOAD, OP_LOAD, OP_ALU, OP_STORE)
            pcs += (0x440000, 0x440010, 0x440020, 0x440030)
            operands += (a.start + offset, b.start + offset, None, out.start + offset)
            offset = (offset + 64) % span
            if len(kinds) >= batch_size:
                yield from cut_batches(kinds, pcs, operands, batch_size)
        yield from cut_batches(kinds, pcs, operands, batch_size, final=True)


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

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        start, span = self._vma.start, self._vma.size - 64
        kinds: List[int] = []
        pcs: List[int] = []
        operands: List[Optional[int]] = []
        offset = 0
        for _ in range(self.memory_operations):
            kinds += (OP_LOAD, OP_ALU)
            pcs += (0x450000, 0x450010)
            operands += (start + offset, None)
            offset = (offset + 64) % span
            if len(kinds) >= batch_size:
                yield from cut_batches(kinds, pcs, operands, batch_size)
        yield from cut_batches(kinds, pcs, operands, batch_size, final=True)
