"""HPC workloads: XSBench-like cross-section lookup and GUPS random access.

XSBench performs random lookups into large nuclide-grid tables (binary
search over sorted energy grids followed by gathers), which makes it
translation-bound like the graph kernels but with a different mix of
sequential and random accesses.  GUPS (``randacc``) is re-exported from the
synthetic module because the paper treats it as a first-class workload.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.addresses import MB
from repro.common.rng import DeterministicRNG
from repro.core.instructions import OP_ALU, OP_BRANCH, OP_LOAD, InstructionBatch
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import LONG_RUNNING, Workload, cut_batches
from repro.workloads.synthetic import RandomAccessWorkload


class XSBenchWorkload(Workload):
    """Monte-Carlo neutron-transport macroscopic cross-section lookups."""

    category = LONG_RUNNING

    def __init__(self, name: str = "XS", footprint_bytes: int = 96 * MB,
                 lookups: int = 4_000, gridpoints_per_lookup: int = 5,
                 prefault: bool = True, seed: int = 23):
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.lookups = lookups
        self.gridpoints_per_lookup = gridpoints_per_lookup
        self.prefault = prefault
        self.seed = seed
        self._grid_vma = None
        self._index_vma = None

    def setup(self, kernel: MimicOS, process: Process) -> None:
        grid_bytes = (self.footprint_bytes * 3) // 4
        index_bytes = self.footprint_bytes - grid_bytes
        self._grid_vma = kernel.mmap(process, grid_bytes, kind=VMAKind.ANONYMOUS,
                                     name=f"{self.name}-nuclide-grid")
        self._index_vma = kernel.mmap(process, index_bytes, kind=VMAKind.ANONYMOUS,
                                      name=f"{self.name}-energy-index")

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        rng = DeterministicRNG(self.seed)
        random, randint = rng.random, rng.randint
        grid, index = self._grid_vma, self._index_vma
        grid_start, index_start = grid.start, index.start
        index_slots = max(1, (index.size - 64) // 64)
        last_grid_slot = max(1, (grid.size - 64) // 64) - 1
        gathers = self.gridpoints_per_lookup

        # Binary search over the energy index: log2(slots) dependent loads,
        # each after an address computation, at a fixed step schedule.
        probes = max(4, index_slots.bit_length())
        steps = []
        step = max(1, index_slots // 4)
        for _ in range(probes):
            steps.append(step)
            step = max(1, step // 2)
        # Every lookup has the same opcodes and PCs: the probes, a gather
        # of the cross-section data for a handful of nuclides, a branch.
        lookup_kinds = [OP_ALU, OP_LOAD] * (probes + gathers) + [OP_BRANCH]
        lookup_pcs: List[int] = []
        for probe in range(probes):
            lookup_pcs += (0x410000 + probe * 4, 0x410100 + probe * 4)
        for gather in range(gathers):
            lookup_pcs += (0x411000 + gather * 4, 0x411100 + gather * 4)
        lookup_pcs.append(0x412000)

        kinds: List[int] = []
        pcs: List[int] = []
        operands: List[Optional[int]] = []
        append = operands.append
        for _ in range(self.lookups):
            kinds += lookup_kinds
            pcs += lookup_pcs
            position = index_slots // 2
            for step in steps:
                append(None)
                append(index_start + position * 64)
                position = ((position + step) % index_slots if random() < 0.5
                            else abs(position - step) % index_slots)
            for _ in range(gathers):
                append(None)
                append(grid_start + randint(0, last_grid_slot) * 64)
            append(None)
            if len(kinds) >= batch_size:
                yield from cut_batches(kinds, pcs, operands, batch_size)
        yield from cut_batches(kinds, pcs, operands, batch_size, final=True)


class GUPSWorkload(RandomAccessWorkload):
    """The HPCC RandomAccess (GUPS) benchmark: alias of the random-access kernel."""

    def __init__(self, footprint_bytes: int = 64 * MB, memory_operations: int = 20_000,
                 prefault: bool = False, seed: int = 29):
        super().__init__(name="RND", footprint_bytes=footprint_bytes,
                         memory_operations=memory_operations,
                         write_fraction=0.5, prefault=prefault, seed=seed)
