"""Midgard: an intermediate address space between virtual and physical.

Midgard (Gupta et al., ISCA 2021) translates in two steps:

* **Frontend (VA -> MA)**: translation at *VMA granularity* into a single
  intermediate (Midgard) address space.  The hardware has two VMA lookaside
  buffers (a 64-entry L1 VLB and a 16-entry range-based L2 VLB); a miss in
  both walks the per-process VMA B+-tree in memory.  Because programs
  usually have few, large VMAs, the frontend is cheap — except for
  workloads with many small VMAs (the BC outlier of Fig. 17/18).
* **Backend (MA -> PA)**: performed only when an access misses in the
  (Midgard-addressed) cache hierarchy, using a deeper radix tree over the
  intermediate space (6 levels in Table 4), typically at 2 MB granularity.

The MMU model treats Midgard specially (``replaces_tlbs``): it performs the
frontend translation before the data access and charges the backend only
when the data access reaches DRAM.  There is no single-step ``walk``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addresses import GB, PAGE_SIZE_2M, PAGE_SIZE_4K, align_down, align_up
from repro.common.lru import RangeCache
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import MemoryInterface, PageTableBase, TranslationMapping

#: Bytes per VMA B+-tree node / backend radix node entry.
NODE_SIZE = 64


@dataclass
class _VMARange:
    """Frontend mapping of one VMA into the Midgard address space."""

    virtual_start: int
    virtual_end: int
    midgard_start: int

    def contains(self, virtual_address: int) -> bool:
        return self.virtual_start <= virtual_address < self.virtual_end

    def translate(self, virtual_address: int) -> int:
        return self.midgard_start + (virtual_address - self.virtual_start)


class MidgardTranslation(PageTableBase):
    """Midgard two-level translation: VMA frontend + deep radix backend."""

    kind = "midgard"
    replaces_tlbs = True

    #: Granularity of backend (MA -> PA) mappings.
    BACKEND_PAGE_SIZE = PAGE_SIZE_2M

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 l1_vlb_entries: int = 64, l1_vlb_latency: int = 1,
                 l2_vlb_entries: int = 16, l2_vlb_latency: int = 4,
                 backend_levels: int = 6,
                 vma_tree_base: Optional[int] = None,
                 backend_table_base: Optional[int] = None):
        super().__init__(frame_allocator)
        self._c_frontend_translations = self.counters.hot("frontend_translations")
        self._c_backend_translations = self.counters.hot("backend_translations")
        self.l1_vlb = RangeCache(l1_vlb_entries, l1_vlb_latency)
        self.l2_vlb = RangeCache(l2_vlb_entries, l2_vlb_latency)
        self.backend_levels = backend_levels
        self.vma_tree_base = (vma_tree_base if vma_tree_base is not None
                              else self.frame_allocator(None))
        self.backend_table_base = (backend_table_base if backend_table_base is not None
                                   else self.frame_allocator(None))
        self._vma_ranges: List[_VMARange] = []
        self._next_midgard_address = 1 * GB
        #: midgard 2 MB page base -> physical 2 MB base.
        self._backend: Dict[int, int] = {}
        #: Latency accounting of Fig. 17.
        self.frontend_cycles = 0
        self.backend_cycles = 0

    # ------------------------------------------------------------------ #
    # OS-side registration
    # ------------------------------------------------------------------ #
    def register_vma(self, virtual_start: int, virtual_end: int,
                     trace: Optional[KernelRoutineTrace] = None) -> _VMARange:
        """Assign a Midgard range to a new VMA (called by MimicOS at mmap time)."""
        existing = self._find_vma_range(virtual_start)
        if existing is not None:
            return existing
        size = align_up(virtual_end - virtual_start, PAGE_SIZE_4K)
        entry = _VMARange(virtual_start=virtual_start, virtual_end=virtual_end,
                          midgard_start=self._next_midgard_address)
        self._next_midgard_address = align_up(self._next_midgard_address + size,
                                              self.BACKEND_PAGE_SIZE)
        self._vma_ranges.append(entry)
        self.counters.add("registered_vmas")
        if trace is not None and trace.recording:
            op = trace.new_op("midgard_vma_register", work_units=8)
            op.touch(self._vma_node_address(len(self._vma_ranges)), is_write=True)
        return entry

    def _find_vma_range(self, virtual_address: int) -> Optional[_VMARange]:
        for entry in self._vma_ranges:
            if entry.contains(virtual_address):
                return entry
        return None

    # ------------------------------------------------------------------ #
    # Structure updates (backend mappings)
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        vma_range = self._find_vma_range(virtual_base)
        if vma_range is None:
            vma_range = self.register_vma(virtual_base, virtual_base + max(page_size, PAGE_SIZE_2M),
                                          trace)
        midgard_address = vma_range.translate(virtual_base)
        backend_base = align_down(midgard_address, self.BACKEND_PAGE_SIZE)
        physical_backend_base = align_down(physical_base, self.BACKEND_PAGE_SIZE)
        self._backend[backend_base] = physical_backend_base
        if trace is not None and trace.recording:
            op = trace.new_op("midgard_backend_update", work_units=self.backend_levels)
            op.touch(self._backend_node_address(backend_base, self.backend_levels - 1),
                     is_write=True)

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        vma_range = self._find_vma_range(mapping.virtual_base)
        if vma_range is not None:
            midgard_address = vma_range.translate(mapping.virtual_base)
            self._backend.pop(align_down(midgard_address, self.BACKEND_PAGE_SIZE), None)
        if trace is not None and trace.recording:
            trace.new_op("midgard_remove", work_units=2)

    # ------------------------------------------------------------------ #
    # Hardware translation
    # ------------------------------------------------------------------ #
    def translate_frontend(self, virtual_address: int,
                           memory: MemoryInterface) -> Tuple[Optional[int], int, int]:
        """VA -> MA.  Returns (midgard address or None, latency, memory accesses)."""
        latency = self.l1_vlb.latency
        accesses = 0
        entry = self.l1_vlb.lookup(virtual_address)
        if entry is None:
            latency += self.l2_vlb.latency
            entry = self.l2_vlb.lookup(virtual_address)
            if entry is None:
                # Walk the VMA B+-tree in memory.
                entry = self._find_vma_range(virtual_address)
                depth = max(1, (max(1, len(self._vma_ranges)).bit_length() + 2) // 3)
                for level in range(depth):
                    latency += memory.access_value(self._vma_node_address(level), False,
                                                   "translation")
                    accesses += 1
                if entry is not None:
                    self.l2_vlb.fill(entry)
                    self.l1_vlb.fill(entry)
            else:
                self.l1_vlb.fill(entry)
        self.frontend_cycles += latency
        self._c_frontend_translations[0] += 1
        if entry is None:
            return None, latency, accesses
        return entry.translate(virtual_address), latency, accesses

    def translate_backend(self, midgard_address: int,
                          memory: MemoryInterface) -> Tuple[Optional[int], int, int]:
        """MA -> PA via the deep backend radix tree (charged only on LLC misses)."""
        backend_base = align_down(midgard_address, self.BACKEND_PAGE_SIZE)
        latency = 0
        accesses = 0
        for level in range(self.backend_levels):
            latency += memory.access_value(self._backend_node_address(backend_base, level),
                                           False, "ptw")
            accesses += 1
            if level >= 2 and backend_base in self._backend:
                # Upper levels resolved; huge backend pages terminate early.
                break
        self.backend_cycles += latency
        self._c_backend_translations[0] += 1
        physical_backend = self._backend.get(backend_base)
        if physical_backend is None:
            return None, latency, accesses
        return physical_backend + (midgard_address - backend_base), latency, accesses

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #
    def _vma_node_address(self, level: int) -> int:
        return self.vma_tree_base + level * NODE_SIZE

    def _backend_node_address(self, backend_base: int, level: int) -> int:
        return (self.backend_table_base
                + ((backend_base >> 21) * self.backend_levels + level) * NODE_SIZE)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def latency_breakdown(self) -> Dict[str, int]:
        """Frontend/backend translation cycles (the Fig. 17 metric)."""
        return {"frontend": self.frontend_cycles, "backend": self.backend_cycles}
