"""Multi-process scenario builders for co-scheduled runs.

A *scenario* is a list of fresh workloads meant to be co-scheduled by
:meth:`Virtuoso.run_tasks <repro.core.virtuoso.Virtuoso.run_tasks>` — one
process per entry —
chosen so the co-runners stress a specific shared resource:

* :func:`contention_pair` — two GUPS-style random-access processes whose
  combined footprint exceeds the shared LLC, so they evict each other's
  lines and conflict in the DRAM row buffers (the classic multi-programmed
  interference setup, and the ``multicore_contention`` KIPS scenario);
* :func:`virtualized_guests` — guest processes for a *virtualised* system
  (``SystemConfig.virtualization.enabled``): each co-runner cold-faults its
  footprint (guest handler + hypervisor backing fault per page) and then
  hammers the warm region with random accesses (2-D translation and
  nested-TLB territory).

Builders return *fresh* workload objects (workloads keep per-run VMA and
RNG state) and derive each co-runner's seed deterministically from the base
seed, so scenarios are exactly reproducible.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.rng import DeterministicRNG
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import (
    StreamBuilder,
    Workload,
    cold_hot_addresses,
    span_mapped_addresses,
)
from repro.workloads.hpc import GUPSWorkload


def contention_pair(footprint_bytes: int = 8 * MB,
                    memory_operations: int = 5000,
                    prefault: bool = True,
                    seed: int = 1) -> List[Workload]:
    """Two GUPS processes contending on the shared LLC and DRAM."""
    return [
        GUPSWorkload(footprint_bytes=footprint_bytes,
                     memory_operations=memory_operations,
                     prefault=prefault, seed=seed),
        GUPSWorkload(footprint_bytes=footprint_bytes,
                     memory_operations=memory_operations,
                     prefault=prefault, seed=seed + 101),
    ]


class GuestMixWorkload(Workload):
    """Cold-fault-then-hot-random guest workload for virtualised systems.

    Phase 1 touches every page of the footprint once (in a virtualised
    system each touch drives the guest fault handler and, for unbacked
    guest-physical frames, a hypervisor backing fault); phase 2 performs
    random accesses over the now-warm region, exercising the 2-D translation
    path — nested walks, nested-TLB hits and L1 TLB hits on combined
    translations.
    Addresses come from :func:`~repro.workloads.base.cold_hot_addresses`.

    ``vma_bytes`` splits the footprint into several contiguous small VMAs
    (an allocator-arena layout): with each VMA smaller than 2 MB the guest's
    linux THP policy serves every cold fault with a 4 KB page and hints
    khugepaged, so the guest later *collapses* the touched regions into
    2 MB mappings mid-run — the guest-side remap whose two-level shootdown
    (TLB + nested TLB) the virtualised parity axis exists to check.
    """

    category = "long_running"

    def __init__(self, name: str = "GuestMix", footprint_bytes: int = 4 * MB,
                 hot_operations: int = 3000, compute_per_memory: int = 2,
                 write_fraction: float = 0.3, cold_stride: int = PAGE_SIZE_4K,
                 vma_bytes: int = 0, interleave_regions: int = 1,
                 mix_per_cold: int = 0, seed: int = 5):
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.hot_operations = hot_operations
        self.compute_per_memory = compute_per_memory
        self.write_fraction = write_fraction
        self.cold_stride = cold_stride
        self.vma_bytes = vma_bytes
        self.interleave_regions = interleave_regions
        self.mix_per_cold = mix_per_cold
        self.seed = seed
        self._vmas = []

    def setup(self, kernel: MimicOS, process: Process) -> None:
        self._vmas = []
        if self.vma_bytes and self.vma_bytes < self.footprint_bytes:
            remaining = self.footprint_bytes
            index = 0
            while remaining > 0:
                size = min(self.vma_bytes, remaining)
                self._vmas.append(kernel.mmap(process, size, kind=VMAKind.ANONYMOUS,
                                              name=f"{self.name}-arena{index}"))
                remaining -= size
                index += 1
        else:
            self._vmas.append(kernel.mmap(process, self.footprint_bytes,
                                          kind=VMAKind.ANONYMOUS,
                                          name=f"{self.name}-guest-heap"))

    def _address_list(self) -> List[int]:
        vmas = self._vmas
        regions = max(1, self.interleave_regions)
        kwargs = dict(
            cold_touches=self.footprint_bytes // self.cold_stride,
            cold_stride=self.cold_stride,
            hot_operations=self.hot_operations,
            hot_span=self.footprint_bytes,
            rng=DeterministicRNG(self.seed),
            interleave_regions=regions,
            region_bytes=self.footprint_bytes // regions,
            mix_per_cold=self.mix_per_cold,
        )
        if len(vmas) == 1:
            return cold_hot_addresses(vmas[0].start, **kwargs)
        # Arena layout: the VMAs carry guard gaps between them, so linear
        # footprint offsets are mapped through the arena table.
        offsets = cold_hot_addresses(0, **kwargs)
        return span_mapped_addresses(offsets, [vma.start for vma in vmas],
                                     self.vma_bytes)

    def _builder(self) -> StreamBuilder:
        return StreamBuilder(DeterministicRNG(self.seed).fork(1),
                             self.compute_per_memory, self.write_fraction)

    def instruction_batches(self, process: Process, batch_size: int = 4096):
        return self._builder().emit_batches(self._address_list(),
                                            batch_size=batch_size)


def virtualized_guests(count: int = 2, footprint_bytes: int = 4 * MB,
                       hot_operations: int = 3000, seed: int = 1) -> List[Workload]:
    """``count`` guest processes for a virtualised (multi-)core system."""
    return [
        GuestMixWorkload(name=f"GuestMix{index}", footprint_bytes=footprint_bytes,
                         hot_operations=hot_operations, seed=seed + 101 * index)
        for index in range(count)
    ]


#: Scenario name -> builder, for harnesses that select by name.
MULTIPROCESS_SCENARIOS: Dict[str, Callable[..., List[Workload]]] = {
    "contention_pair": contention_pair,
    "virtualized_guests": virtualized_guests,
}


def build_multiprocess_scenario(name: str, **kwargs) -> List[Workload]:
    """Instantiate the multi-process scenario registered under ``name``."""
    builder = MULTIPROCESS_SCENARIOS.get(name)
    if builder is None:
        raise KeyError(f"unknown multi-process scenario {name!r}; "
                       f"known: {sorted(MULTIPROCESS_SCENARIOS)}")
    return builder(**kwargs)
