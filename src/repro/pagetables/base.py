"""Common interface of every translation structure.

Two actors use a page table:

* **MimicOS** (software) inserts and removes mappings on page faults,
  recording the kernel work each update costs into a
  :class:`~repro.mimicos.ops.KernelRoutineTrace`.
* **The MMU model** (hardware) walks the structure on TLB misses; every
  probe of translation metadata is issued through the simulated memory
  hierarchy's ``access_value`` with the ``"ptw"`` or ``"translation"``
  request type, so page-table accesses contend for cache capacity and DRAM
  row buffers like any other access.  A walk returns a :class:`WalkResult`:
  whether it found a mapping, its latency and memory accesses, and the
  mapping's physical base and page size.  Schemes that split translation
  (Midgard, VBI) keep their own frontend/backend cycle totals
  (``latency_breakdown``).

Some schemes (Utopia, RMM eager paging) also take over *physical frame
allocation* from the THP policy; they advertise this with
``overrides_allocation`` and implement :meth:`PageTableBase.allocate_for_fault`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addresses import (
    FALLBACK_FRAME_BASE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.common.stats import Counter
from repro.common.kernelops import KernelRoutineTrace


@dataclass
class TranslationMapping:
    """A single installed translation."""

    virtual_base: int
    physical_base: int
    page_size: int

    def translate(self, virtual_address: int) -> int:
        """Physical address for ``virtual_address`` (must lie inside this mapping)."""
        return self.physical_base + (virtual_address - self.virtual_base)


@dataclass(slots=True)
class WalkResult:
    """Outcome of a hardware walk of the translation structure."""

    found: bool
    latency: int
    memory_accesses: int
    physical_base: int = 0
    page_size: int = PAGE_SIZE_4K


@dataclass
class FaultAllocation:
    """Physical frame chosen by a scheme that overrides allocation (Utopia, RMM)."""

    address: int
    page_size: int
    zeroing_bytes: int = 0
    #: Pages the scheme had to evict to make room (forces swap-outs, Fig. 20).
    evicted_pages: List[Tuple[int, int]] = field(default_factory=list)
    #: True when the scheme fell back to its flexible/conventional path.
    fallback: bool = False


class MemoryInterface:
    """Minimal protocol the walker needs: ``access_value(addr, is_write,
    type)`` with the request type a string (``"ptw"`` or ``"translation"``),
    returning the access's latency.

    :class:`repro.memhier.memory_system.MemoryHierarchy` satisfies it; tests
    can pass a stub that returns a constant latency.
    """

    def access_value(self, address: int, is_write: bool = False,
                     access_type: str = "data", pc: int = 0) -> int:
        raise NotImplementedError


class _BumpFrameAllocator:
    """Fallback allocator of page-table frames for standalone use in tests.

    Frames are handed out from :data:`~repro.common.addresses
    .FALLBACK_FRAME_BASE` upward, a region deliberately above any simulated
    physical memory; ``physical_memory_bytes`` (when known, e.g. through the
    page-table factory) is asserted against at construction so a fallback
    frame can never alias a real physical range.
    """

    def __init__(self, base: int = FALLBACK_FRAME_BASE,
                 physical_memory_bytes: Optional[int] = None):
        if physical_memory_bytes is not None and base < physical_memory_bytes:
            raise ValueError(
                f"fallback frame base {base:#x} lies inside physical memory "
                f"({physical_memory_bytes:#x} bytes): fallback page-table "
                f"frames would alias real frames")
        self._next = base

    def __call__(self, trace: Optional[KernelRoutineTrace] = None) -> int:
        address = self._next
        self._next += PAGE_SIZE_4K
        return address


class PageTableBase:
    """Base class of every translation structure."""

    kind = "base"
    #: True if the scheme takes over physical frame allocation on faults.
    overrides_allocation = False
    #: True if the scheme replaces the TLB hierarchy with its own lookaside
    #: structures (Midgard); the MMU then calls :meth:`walk` directly.
    replaces_tlbs = False

    SUPPORTED_PAGE_SIZES = (PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G)

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None):
        self.frame_allocator = frame_allocator or _BumpFrameAllocator()
        self.counters = Counter()
        self._c_insertions = self.counters.hot("insertions")
        #: Hot cells of the hardware walk's counters, shared by every
        #: walker.  A walker that counts its memory accesses on every walk,
        #: possibly 0, registers ``walk_memory_accesses`` with ``zero_with``
        #: so the key is present at 0 as ``add(name, 0)`` made it.
        self._c_walks = self.counters.hot("walks")
        self._c_walk_hits = self.counters.hot("walk_hits")
        self._c_walk_faults = self.counters.hot("walk_faults")
        self._c_walk_memory_accesses = self.counters.hot("walk_memory_accesses")
        #: Functional mapping store: virtual page base -> TranslationMapping.
        self._mappings: Dict[int, TranslationMapping] = {}
        #: Live mapping count per page size; lets walkers probe only page
        #: sizes that still have at least one installed mapping (and stop
        #: probing a size once its last mapping is removed).
        self._size_counts: Dict[int, int] = {}
        #: ``(virtual address, size) -> None``: the owning kernel's TLB
        #: shootdown for this address space.  A structure whose removal
        #: unmaps more than the removed mapping (RMM's ranges) announces the
        #: extra extent through it.
        self.shootdown: Optional[Callable[[int, int], None]] = None

    # ------------------------------------------------------------------ #
    # Software (MimicOS) interface
    # ------------------------------------------------------------------ #
    def insert(self, virtual_address: int, physical_address: int, page_size: int,
               trace: Optional[KernelRoutineTrace] = None) -> None:
        """Install a mapping; subclasses add structure-specific update work."""
        if page_size not in self.SUPPORTED_PAGE_SIZES:
            raise ValueError(f"unsupported page size {page_size}")
        # Every supported size is a power of two: ``& -size`` aligns down.
        virtual_base = virtual_address & -page_size
        physical_base = physical_address & -page_size
        size_counts = self._size_counts
        previous = self._mappings.get(virtual_base)
        if previous is not None:
            remaining = size_counts.get(previous.page_size, 0) - 1
            if remaining > 0:
                size_counts[previous.page_size] = remaining
            else:
                size_counts.pop(previous.page_size, None)
        self._mappings[virtual_base] = TranslationMapping(virtual_base, physical_base, page_size)
        size_counts[page_size] = size_counts.get(page_size, 0) + 1
        self._c_insertions[0] += 1
        self._insert_structure(virtual_base, physical_base, page_size, trace)

    def remove(self, virtual_address: int,
               trace: Optional[KernelRoutineTrace] = None) -> bool:
        """Remove the mapping covering ``virtual_address``; returns True if found."""
        mapping = self._find_mapping(virtual_address)
        if mapping is None:
            return False
        del self._mappings[mapping.virtual_base]
        remaining = self._size_counts.get(mapping.page_size, 0) - 1
        if remaining > 0:
            self._size_counts[mapping.page_size] = remaining
        else:
            self._size_counts.pop(mapping.page_size, None)
        self.counters.add("removals")
        self._remove_structure(mapping, trace)
        return True

    def lookup(self, virtual_address: int) -> Optional[Tuple[int, int]]:
        """Functional lookup: (physical base, page size) or None.

        Used by MimicOS (khugepaged, swap daemon) — never by the hardware
        walker, which must pay for memory accesses via :meth:`walk`.
        """
        mapping = self._find_mapping(virtual_address)
        if mapping is None:
            return None
        return mapping.physical_base, mapping.page_size

    def translate_functional(self, virtual_address: int) -> Optional[int]:
        """Full functional translation to a physical address (or None)."""
        mapping = self._find_mapping(virtual_address)
        if mapping is None:
            return None
        return mapping.translate(virtual_address)

    def maps_any(self, start: int, size: int) -> bool:
        """True if a live mapping overlaps the ``size`` bytes at ``start``."""
        for page_size in self.active_page_sizes():
            first = start - start % page_size
            for base in range(first, start + size, page_size):
                mapping = self._mappings.get(base)
                if mapping is not None and mapping.page_size == page_size:
                    return True
        return False

    def active_page_sizes(self) -> Tuple[int, ...]:
        """Page sizes with at least one live mapping, largest first."""
        return tuple(sorted(self._size_counts, reverse=True))

    def _find_mapping(self, virtual_address: int) -> Optional[TranslationMapping]:
        # Only insert() and remove() write _mappings and both keep
        # _size_counts in step, so a size with no live mapping cannot match.
        size_counts = self._size_counts
        for page_size in self.SUPPORTED_PAGE_SIZES:
            if page_size in size_counts:
                mapping = self._mappings.get(virtual_address & -page_size)
                if mapping is not None and mapping.page_size == page_size:
                    return mapping
        return None

    # ------------------------------------------------------------------ #
    # Hardware (MMU) interface
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """Hardware walk; must issue its metadata accesses through ``memory``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Optional allocation override (Utopia, RMM)
    # ------------------------------------------------------------------ #
    def allocate_for_fault(self, pid: int, virtual_address: int, vma,
                           buddy, trace: Optional[KernelRoutineTrace] = None) -> FaultAllocation:
        """Choose the physical frame for a fault (only if ``overrides_allocation``)."""
        raise NotImplementedError(f"{self.kind} does not override allocation")

    # ------------------------------------------------------------------ #
    # Structure-specific hooks
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        raise NotImplementedError

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        """Default removal cost: one metadata write."""
        if trace is not None and trace.recording:
            trace.new_op(f"{self.kind}_pt_remove", work_units=2)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
