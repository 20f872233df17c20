"""Microbenchmarks used by the methodology studies (Figs. 3, 11 and 12).

* :class:`IntensitySweepWorkload` — a parameterised workload whose memory
  intensity (footprint and fraction of random accesses) can be swept, used
  to reproduce the PTW-latency variability of Fig. 3 (the 53 stress-ng-like
  configurations).
* :class:`KernelFractionMicrobenchmark` — keeps the total number of
  *application* instructions constant while varying the page-fault rate, so
  the fraction of instructions executed by MimicOS varies; this is the
  microbenchmark behind Fig. 12's simulation-time correlation.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.rng import DeterministicRNG
from repro.core.instructions import (
    OP_ALU,
    OP_LOAD,
    OP_STORE,
    InstructionBatch,
)
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import LONG_RUNNING, SHORT_RUNNING, Workload


class IntensitySweepWorkload(Workload):
    """Configurable memory intensity: footprint plus random-access fraction."""

    category = LONG_RUNNING

    def __init__(self, intensity: float, name: str = "", footprint_bytes: int = 0,
                 memory_operations: int = 12_000, prefault: bool = True, seed: int = 91):
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        self.intensity = intensity
        self.name = name or f"stress-{int(intensity * 100):03d}"
        self.footprint_bytes = footprint_bytes or int(4 * MB + intensity * 120 * MB)
        self.memory_operations = memory_operations
        self.prefault = prefault
        self.seed = seed
        self._vma = None

    def setup(self, kernel: MimicOS, process: Process) -> None:
        self._vma = kernel.mmap(process, self.footprint_bytes, kind=VMAKind.ANONYMOUS,
                                name=f"{self.name}-heap")

    def _draw_accesses(self) -> Tuple[List[int], List[bool]]:
        """Run the (inherently serial) RNG/address recurrence once.

        The draw order is fraction draw, conditional random-target draw,
        write draw, per operation.
        """
        rng = DeterministicRNG(self.seed)
        rng_random = rng.random
        rng_randint = rng.randint
        start = self._vma.start
        span = self._vma.size - 64
        random_fraction = 0.1 + 0.85 * self.intensity
        sequential_offset = 0
        addresses: List[int] = []
        writes: List[bool] = []
        for _ in range(self.memory_operations):
            if rng_random() < random_fraction:
                addresses.append(start + rng_randint(0, span))
            else:
                addresses.append(start + sequential_offset)
                sequential_offset = (sequential_offset + 64) % span
            writes.append(rng_random() < 0.3)
        return addresses, writes

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        compute = max(1, int(6 - 4 * self.intensity))
        compute_pcs = [0x470000 + c * 4 for c in range(compute)]
        addresses, write_flags = self._draw_accesses()
        batch = InstructionBatch()
        kinds, pcs, operands = batch.kinds, batch.pcs, batch.addresses
        count = 0
        for index in range(self.memory_operations):
            for pc in compute_pcs:
                kinds.append(OP_ALU)
                pcs.append(pc)
                operands.append(None)
            kinds.append(OP_STORE if write_flags[index] else OP_LOAD)
            pcs.append(0x471000 + (index % 16) * 4)
            operands.append(addresses[index])
            count += compute + 1
            if count >= batch_size:
                yield batch
                batch = InstructionBatch()
                kinds, pcs, operands = batch.kinds, batch.pcs, batch.addresses
                count = 0
        if count:
            yield batch


class KernelFractionMicrobenchmark(Workload):
    """Constant application instruction count, variable page-fault rate.

    ``fault_every_n_pages`` controls how often the workload steps onto a
    fresh (never-touched) page: stepping every access maximises the number
    of MimicOS instructions injected per application instruction; stepping
    rarely minimises it.  Total application instructions stay constant, so
    sweeping this knob sweeps the x-axis of Fig. 12.
    """

    category = SHORT_RUNNING

    def __init__(self, fresh_page_fraction: float, name: str = "",
                 memory_operations: int = 6_000, footprint_bytes: int = 64 * MB,
                 seed: int = 97):
        if not 0.0 <= fresh_page_fraction <= 1.0:
            raise ValueError("fresh_page_fraction must be in [0, 1]")
        self.fresh_page_fraction = fresh_page_fraction
        self.name = name or f"kfrac-{int(fresh_page_fraction * 100):03d}"
        self.memory_operations = memory_operations
        self.footprint_bytes = footprint_bytes
        self.seed = seed
        self._vma = None

    def setup(self, kernel: MimicOS, process: Process) -> None:
        self._vma = kernel.mmap(process, self.footprint_bytes, kind=VMAKind.ANONYMOUS,
                                name=f"{self.name}-heap")

    def _store_addresses(self) -> List[int]:
        """The serial fresh-page walk (one RNG draw per operation)."""
        rng = DeterministicRNG(self.seed)
        vma = self._vma
        fresh_page_fraction = self.fresh_page_fraction
        fresh_page_index = 0
        warm_base = vma.start
        total_pages = vma.size // PAGE_SIZE_4K
        addresses: List[int] = []
        draws = rng.random_list(self.memory_operations)
        for index in range(self.memory_operations):
            if draws[index] < fresh_page_fraction and fresh_page_index < total_pages - 1:
                fresh_page_index += 1
                addresses.append(vma.start + fresh_page_index * PAGE_SIZE_4K)
            else:
                addresses.append(warm_base + (index % 8) * 64)
        return addresses

    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        addresses = self._store_addresses()
        batch = InstructionBatch()
        kinds, pcs, operands = batch.kinds, batch.pcs, batch.addresses
        count = 0
        for index in range(self.memory_operations):
            kinds.append(OP_ALU)
            pcs.append(0x480000)
            operands.append(None)
            kinds.append(OP_ALU)
            pcs.append(0x480004)
            operands.append(None)
            kinds.append(OP_STORE)
            pcs.append(0x481000)
            operands.append(addresses[index])
            count += 3
            if count >= batch_size:
                yield batch
                batch = InstructionBatch()
                kinds, pcs, operands = batch.kinds, batch.pcs, batch.addresses
                count = 0
        if count:
            yield batch
