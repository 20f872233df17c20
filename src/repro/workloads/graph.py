"""GraphBIG-like graph-analytics workloads (BC, BFS, CC, GC, KC, PR, SSSP, TC).

Graph analytics is the paper's canonical long-running, translation-bound
workload class: huge footprints, power-law (Zipf) vertex popularity and
irregular neighbour accesses that defeat both the TLB and the prefetchers.
Each kernel here composes the same ingredients with a kernel-specific mix:

* an **edge scan** component (sequential over the CSR edge array),
* a **vertex gather** component (random, Zipf-distributed accesses into the
  vertex property array — the TLB-hostile part), and
* a **frontier/property update** component (writes to a second property
  array).

``BC`` additionally allocates the many small auxiliary VMAs the paper
observes in Fig. 18 (one huge VMA plus ~147 small ones), which is what makes
it the Midgard frontend outlier of Fig. 17.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.common.addresses import KB, MB, PAGE_SIZE_4K
from repro.common.rng import DeterministicRNG
from repro.core.instructions import OP_ALU, OP_BRANCH, OP_LOAD, OP_STORE, InstructionBatch
from repro.mimicos.kernel import MimicOS
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind
from repro.workloads.base import LONG_RUNNING, Workload, cut_batches


@dataclass(frozen=True)
class GraphKernelProfile:
    """Per-kernel access mix."""

    #: Fraction of memory accesses that are random vertex gathers.
    gather_fraction: float
    #: Fraction of memory accesses that are property writes.
    write_fraction: float
    #: Zipf skew of vertex popularity (higher = more reuse, fewer TLB misses).
    zipf_skew: float
    #: Compute instructions per memory access.
    compute_per_memory: int


#: Profiles loosely derived from the kernels' algorithmic structure.
GRAPH_KERNEL_PROFILES: Dict[str, GraphKernelProfile] = {
    "BC": GraphKernelProfile(gather_fraction=0.55, write_fraction=0.20, zipf_skew=0.6,
                             compute_per_memory=3),
    "BFS": GraphKernelProfile(gather_fraction=0.60, write_fraction=0.15, zipf_skew=0.7,
                              compute_per_memory=2),
    "CC": GraphKernelProfile(gather_fraction=0.55, write_fraction=0.25, zipf_skew=0.8,
                             compute_per_memory=2),
    "GC": GraphKernelProfile(gather_fraction=0.50, write_fraction=0.30, zipf_skew=0.7,
                             compute_per_memory=3),
    "KC": GraphKernelProfile(gather_fraction=0.50, write_fraction=0.25, zipf_skew=0.9,
                             compute_per_memory=2),
    "PR": GraphKernelProfile(gather_fraction=0.65, write_fraction=0.20, zipf_skew=0.9,
                             compute_per_memory=3),
    "SSSP": GraphKernelProfile(gather_fraction=0.70, write_fraction=0.15, zipf_skew=0.5,
                               compute_per_memory=2),
    "TC": GraphKernelProfile(gather_fraction=0.75, write_fraction=0.05, zipf_skew=0.6,
                             compute_per_memory=4),
}

#: The workload names used in the paper's figures (SP == SSSP, KCORE == KC).
GRAPH_KERNELS = tuple(GRAPH_KERNEL_PROFILES)


class GraphWorkload(Workload):
    """One GraphBIG-style kernel over a synthetic power-law graph."""

    category = LONG_RUNNING

    def __init__(self, kernel_name: str = "BFS", footprint_bytes: int = 96 * MB,
                 memory_operations: int = 25_000, prefault: bool = True, seed: int = 11,
                 small_vma_count: Optional[int] = None):
        kernel_name = kernel_name.upper()
        aliases = {"SP": "SSSP", "KCORE": "KC"}
        kernel_name = aliases.get(kernel_name, kernel_name)
        if kernel_name not in GRAPH_KERNEL_PROFILES:
            raise ValueError(f"unknown graph kernel {kernel_name!r}; "
                             f"known: {sorted(GRAPH_KERNEL_PROFILES)}")
        self.name = kernel_name
        self.profile = GRAPH_KERNEL_PROFILES[kernel_name]
        self.footprint_bytes = footprint_bytes
        self.memory_operations = memory_operations
        self.prefault = prefault
        self.seed = seed
        # BC creates many small auxiliary VMAs (Fig. 18); others only a handful.
        if small_vma_count is None:
            small_vma_count = 147 if kernel_name == "BC" else 12
        self.small_vma_count = small_vma_count
        self._vertex_vma = None
        self._edge_vma = None
        self._property_vma = None
        self._small_vmas: List = []

    # ------------------------------------------------------------------ #
    # Address-space layout
    # ------------------------------------------------------------------ #
    def setup(self, kernel: MimicOS, process: Process) -> None:
        rng = DeterministicRNG(self.seed)
        vertex_bytes = self.footprint_bytes // 2
        edge_bytes = self.footprint_bytes // 4
        property_bytes = self.footprint_bytes // 4

        self._vertex_vma = kernel.mmap(process, vertex_bytes, kind=VMAKind.ANONYMOUS,
                                       name=f"{self.name}-vertices")
        self._edge_vma = kernel.mmap(process, edge_bytes, kind=VMAKind.ANONYMOUS,
                                     name=f"{self.name}-edges")
        self._property_vma = kernel.mmap(process, property_bytes, kind=VMAKind.ANONYMOUS,
                                         name=f"{self.name}-properties")
        self._small_vmas = []
        for index in range(self.small_vma_count):
            # Sizes spread across the Fig. 18 buckets: 4 KB up to ~1 GB-scaled.
            size = PAGE_SIZE_4K << (rng.zipf_index(10, skew=1.2))
            size = min(size, 4 * MB)
            self._small_vmas.append(
                kernel.mmap(process, size, kind=VMAKind.ANONYMOUS,
                            name=f"{self.name}-aux-{index}"))

    # ------------------------------------------------------------------ #
    # Instruction stream
    # ------------------------------------------------------------------ #
    def instruction_batches(self, process: Process,
                            batch_size: int = 4096) -> Iterator[InstructionBatch]:
        rng = DeterministicRNG(self.seed + 1)
        random, randint = rng.random, rng.randint
        profile = self.profile
        skew = profile.zipf_skew
        gather_fraction = profile.gather_fraction
        write_bound = gather_fraction + profile.write_fraction
        vertex_vma, edge_vma, property_vma = self._vertex_vma, self._edge_vma, self._property_vma
        small_vmas = self._small_vmas
        vertex_start, edge_start = vertex_vma.start, edge_vma.start
        property_start = property_vma.start
        vertex_slots = max(1, (vertex_vma.size - 64) // 64)
        property_slots = max(1, (property_vma.size - 64) // 64)
        vertex_slot = rng.zipf_sampler(vertex_slots, skew)
        property_slot = rng.zipf_sampler(property_slots, skew)
        edge_span = edge_vma.size - 64
        last_small = len(small_vmas) - 1

        # BC touches its many small auxiliary VMAs constantly (per-source
        # bookkeeping structures), which is what overwhelms Midgard's VMA
        # lookaside buffers in the paper's Fig. 17; the other kernels only
        # touch theirs occasionally.
        aux_bound = 1.0 - (0.25 if self.name == "BC" else 0.02)

        # Each operation: compute_per_memory non-memory instructions (a
        # branch first), then one memory access.
        compute_per_memory = profile.compute_per_memory
        compute_kinds = [OP_BRANCH if compute == 0 else OP_ALU
                         for compute in range(compute_per_memory)]
        compute_pcs = [[0x401000 + slot * 4] * compute_per_memory for slot in range(64)]
        no_operands = [None] * compute_per_memory

        kinds: List[int] = []
        pcs: List[int] = []
        operands: List[Optional[int]] = []
        kinds_append, pcs_append, operands_append = kinds.append, pcs.append, operands.append
        edge_offset = 0
        for index in range(self.memory_operations):
            draw = random()
            kinds += compute_kinds
            pcs += compute_pcs[index % 64]
            operands += no_operands
            if draw < gather_fraction:
                # Random (Zipf) vertex gather: the TLB-hostile component.
                kinds_append(OP_LOAD)
                pcs_append(0x402000 + (index % 16) * 4)
                operands_append(vertex_start + vertex_slot() * 64)
            elif draw < write_bound:
                kinds_append(OP_STORE)
                pcs_append(0x403000 + (index % 16) * 4)
                operands_append(property_start + property_slot() * 64)
            elif small_vmas and draw > aux_bound:
                # Metadata accesses into the small auxiliary VMAs.
                vma = small_vmas[randint(0, last_small)]
                kinds_append(OP_LOAD)
                pcs_append(0x405000)
                operands_append(vma.start + randint(0, max(0, vma.size - 64)))
            else:
                # Sequential edge scan.
                kinds_append(OP_LOAD)
                pcs_append(0x404000 + (index % 8) * 4)
                operands_append(edge_start + edge_offset)
                edge_offset = (edge_offset + 64) % edge_span
            if len(kinds) >= batch_size:
                yield from cut_batches(kinds, pcs, operands, batch_size)
        yield from cut_batches(kinds, pcs, operands, batch_size, final=True)
