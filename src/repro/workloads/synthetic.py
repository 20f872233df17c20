"""Synthetic access-pattern workloads: the building blocks of the suite.

``randacc`` (the GUPS-style random-access kernel the paper uses as its
worst case for page-fault frequency), sequential streaming, strided access
and pointer chasing.  The higher-level suites (graph, HPC, LLM) compose
these patterns with realistic VMA layouts.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.common.addresses import MB
from repro.common.rng import DeterministicRNG
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import LONG_RUNNING, StreamBuilder, Workload


class RandomAccessWorkload(Workload):
    """GUPS-style uniform random accesses over one large anonymous VMA.

    This is the paper's ``randacc``: the highest page-faults-per-kilo-
    instruction workload (every access can touch a new page) and, once the
    address space is warm, a TLB-hostile access pattern.
    """

    category = LONG_RUNNING

    def __init__(self, name: str = "RND", footprint_bytes: int = 64 * MB,
                 memory_operations: int = 20_000, compute_per_memory: int = 2,
                 write_fraction: float = 0.25, prefault: bool = False, seed: int = 1):
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.memory_operations = memory_operations
        self.compute_per_memory = compute_per_memory
        self.write_fraction = write_fraction
        self.prefault = prefault
        self.seed = seed
        self._vma = None

    def setup(self, kernel: MimicOS, process: Process) -> None:
        self._vma = kernel.mmap(process, self.footprint_bytes, kind=VMAKind.ANONYMOUS,
                                name=f"{self.name}-heap")

    def _address_list(self) -> List[int]:
        rng = DeterministicRNG(self.seed)
        vma = self._vma
        start = vma.start
        return [start + draw
                for draw in rng.randint_list(0, vma.size - 64, self.memory_operations)]

    def _builder(self) -> StreamBuilder:
        return StreamBuilder(DeterministicRNG(self.seed).fork(1),
                             self.compute_per_memory, self.write_fraction)

    def instruction_batches(self, process: Process, batch_size: int = 4096):
        return self._builder().emit_batches(self._address_list(), batch_size=batch_size)


class SequentialWorkload(Workload):
    """Streaming sequential access over one VMA (prefetcher- and TLB-friendly)."""

    category = LONG_RUNNING

    def __init__(self, name: str = "STREAM", footprint_bytes: int = 32 * MB,
                 memory_operations: int = 20_000, stride: int = 64,
                 compute_per_memory: int = 2, prefault: bool = False, seed: int = 2):
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.memory_operations = memory_operations
        self.stride = stride
        self.compute_per_memory = compute_per_memory
        self.prefault = prefault
        self.seed = seed
        self._vma = None

    def setup(self, kernel: MimicOS, process: Process) -> None:
        self._vma = kernel.mmap(process, self.footprint_bytes, kind=VMAKind.ANONYMOUS,
                                name=f"{self.name}-heap")

    def _address_stream(self) -> Iterator[int]:
        vma = self._vma
        start = vma.start
        stride = self.stride
        span = vma.size - 64
        offset = 0
        for _ in range(self.memory_operations):
            yield start + offset
            offset = (offset + stride) % span

    def _builder(self) -> StreamBuilder:
        return StreamBuilder(DeterministicRNG(self.seed), self.compute_per_memory,
                             write_fraction=0.2)

    def instruction_batches(self, process: Process, batch_size: int = 4096):
        return self._builder().emit_batches(self._address_stream(), batch_size=batch_size)
