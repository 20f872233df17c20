"""The Virtual Block Interface (VBI): memory-side address translation.

VBI (Hajinazar et al., ISCA 2020) replaces per-process virtual address
spaces with globally visible, variable-sized *virtual blocks*.  Processes
address memory with (block id, offset); translation to physical addresses is
performed by the memory controller only when an access actually reaches
memory, using per-block translation structures whose granularity matches the
block size.  Consequently, accesses served by the cache hierarchy need no
translation at all.

The model mirrors that behaviour: the frontend cost is a (cheap) block-table
lookup kept in a small cache, and the memory-side translation cost is only
charged when the MMU reports that the data access reached DRAM (the same
special-casing the MMU applies to Midgard).  There is no single-step
``walk``: the MMU composes the two steps itself.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_2M, align_down
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import MemoryInterface, PageTableBase, TranslationMapping

#: Bytes per block-translation-table entry.
ENTRY_SIZE = 64


class VirtualBlockInterface(PageTableBase):
    """VBI: block-granularity, memory-side translation."""

    kind = "vbi"
    replaces_tlbs = True

    #: Translation granularity inside a block.
    BLOCK_PAGE_SIZE = PAGE_SIZE_2M

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 block_size_bytes: int = 1 << 30, block_table_latency: int = 1,
                 block_table_base: Optional[int] = None):
        super().__init__(frame_allocator)
        self._c_frontend_translations = self.counters.hot("frontend_translations")
        self._c_backend_translations = self.counters.hot("backend_translations")
        self.block_size_bytes = block_size_bytes
        self.block_table_latency = block_table_latency
        self.block_table_base = (block_table_base if block_table_base is not None
                                 else self.frame_allocator(None))
        #: block-relative 2 MB page base -> physical 2 MB base.
        self._block_mappings: Dict[int, int] = {}
        self.frontend_cycles = 0
        self.backend_cycles = 0

    # ------------------------------------------------------------------ #
    # Structure updates
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        block_page = align_down(virtual_base, self.BLOCK_PAGE_SIZE)
        self._block_mappings[block_page] = align_down(physical_base, self.BLOCK_PAGE_SIZE)
        if trace is not None and trace.recording:
            op = trace.new_op("vbi_block_table_update", work_units=2)
            op.touch(self._entry_address(block_page), is_write=True)

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        self._block_mappings.pop(align_down(mapping.virtual_base, self.BLOCK_PAGE_SIZE), None)
        if trace is not None and trace.recording:
            trace.new_op("vbi_remove", work_units=1)

    # ------------------------------------------------------------------ #
    # Hardware translation
    # ------------------------------------------------------------------ #
    def translate_frontend(self, virtual_address: int,
                           memory: MemoryInterface) -> Tuple[Optional[int], int, int]:
        """Block-id resolution: a fixed, cheap cost (block ids live in pointers)."""
        self.frontend_cycles += self.block_table_latency
        self._c_frontend_translations[0] += 1
        return virtual_address, self.block_table_latency, 0

    def translate_backend(self, intermediate_address: int,
                          memory: MemoryInterface) -> Tuple[Optional[int], int, int]:
        """Memory-side translation: one block-translation-table read."""
        block_page = align_down(intermediate_address, self.BLOCK_PAGE_SIZE)
        latency = memory.access_value(self._entry_address(block_page), False, "ptw")
        self.backend_cycles += latency
        self._c_backend_translations[0] += 1
        physical_base = self._block_mappings.get(block_page)
        if physical_base is None:
            return None, latency, 1
        return physical_base + (intermediate_address - block_page), latency, 1

    def _entry_address(self, block_page: int) -> int:
        return self.block_table_base + (block_page >> 21) * ENTRY_SIZE

    def latency_breakdown(self) -> Dict[str, int]:
        """Frontend/backend translation cycles."""
        return {"frontend": self.frontend_cycles, "backend": self.backend_cycles}
