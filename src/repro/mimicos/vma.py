"""Virtual memory areas (VMAs) and the per-process VMA manager.

A VMA is a contiguous range of virtual addresses with uniform backing
(anonymous memory, a file, DAX persistent memory or hugetlbfs).  The page
fault handler's first step (Fig. 6, step "Find Virtual Memory Area") is a
lookup in this structure, and the Midgard case study (Fig. 17/18) is driven
by the number and sizes of VMAs a workload creates — so the manager exposes
both an efficient lookup and the size histogram of Fig. 18.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.addresses import GB, KB, MB, PAGE_SIZE_2M, PAGE_SIZE_4K, align_up
from repro.mimicos.ops import KernelOp, KernelRoutineTrace


class VMAKind(str, Enum):
    """Backing type of a virtual memory area."""

    ANONYMOUS = "anonymous"
    FILE_BACKED = "file_backed"
    DAX = "dax"
    HUGETLB = "hugetlb"


@dataclass
class VirtualMemoryArea:
    """One contiguous virtual address range with uniform backing."""

    start: int
    end: int  # exclusive
    kind: VMAKind = VMAKind.ANONYMOUS
    allow_1g_pages: bool = False
    name: str = ""
    #: True once the VMA has been registered with hugetlbfs (explicit request).
    hugetlb_reserved: bool = False

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"VMA end ({self.end:#x}) must be greater than start ({self.start:#x})")

    @property
    def size(self) -> int:
        """Length of the VMA in bytes."""
        return self.end - self.start

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this VMA."""
        return self.start <= address < self.end

    @property
    def is_anonymous(self) -> bool:
        """True for anonymous (heap/stack/mmap MAP_ANONYMOUS) memory."""
        return self.kind == VMAKind.ANONYMOUS

    @property
    def is_file_backed(self) -> bool:
        """True for file-backed memory (page-cache path on faults)."""
        return self.kind in (VMAKind.FILE_BACKED, VMAKind.DAX)


#: Histogram buckets of Fig. 18 (VMA size -> bucket label), ordered.
VMA_SIZE_BUCKETS: Tuple[Tuple[int, str], ...] = (
    (4 * KB, "4KB"),
    (128 * KB, "<128KB"),
    (256 * KB, "<256KB"),
    (512 * KB, "<512KB"),
    (1 * MB, "<1MB"),
    (8 * MB, "<8MB"),
    (16 * MB, "<16MB"),
    (32 * MB, "<32MB"),
    (1 * GB, "<1GB"),
)


def vma_size_bucket(size: int) -> str:
    """Bucket label of Fig. 18 for a VMA of ``size`` bytes."""
    for limit, label in VMA_SIZE_BUCKETS:
        if size <= limit:
            return label
    return ">1GB"


#: Deterministic pseudo-address of the VMA tree's root node; a lookup
#: touches one 64-byte node per tree level below it.
_VMA_TREE_BASE = 0xFFFF_8800_0000_0000


class VMANotFoundError(RuntimeError):
    """Raised when a faulting address belongs to no VMA (a segfault)."""


class VMAManager:
    """The per-process collection of VMAs, kept sorted for O(log n) lookup."""

    #: Where anonymous mmap regions start when the caller does not fix an address.
    MMAP_BASE = 0x7F00_0000_0000

    def __init__(self):
        self._starts: List[int] = []
        self._vmas: Dict[int, VirtualMemoryArea] = {}
        self._next_mmap_address = self.MMAP_BASE

    # ------------------------------------------------------------------ #
    # Mapping / unmapping
    # ------------------------------------------------------------------ #
    def mmap(self, size: int, kind: VMAKind = VMAKind.ANONYMOUS,
             fixed_address: Optional[int] = None, allow_1g_pages: bool = False,
             name: str = "") -> VirtualMemoryArea:
        """Create a new VMA of ``size`` bytes and return it.

        Without a fixed address the area is placed at the next free slot in
        the mmap region, mimicking the kernel's top-down mmap placement (the
        exact placement policy does not matter; contiguity of the virtual
        range does, for the range-translation case studies).
        """
        if size <= 0:
            raise ValueError("mmap size must be positive")
        size = align_up(size, PAGE_SIZE_4K)
        if fixed_address is not None:
            start = fixed_address
        else:
            start = self._next_mmap_address
            if size >= PAGE_SIZE_2M:
                # Large anonymous mappings are THP-aligned, as in modern Linux,
                # so transparent huge pages can back them from the first byte.
                start = align_up(start, PAGE_SIZE_2M)
            self._next_mmap_address = align_up(start + size + PAGE_SIZE_4K, PAGE_SIZE_4K)
        vma = VirtualMemoryArea(start=start, end=start + size, kind=kind,
                                allow_1g_pages=allow_1g_pages, name=name)
        self._insert(vma)
        return vma

    def munmap(self, vma: VirtualMemoryArea) -> None:
        """Remove a VMA."""
        if vma.start not in self._vmas or self._vmas[vma.start] is not vma:
            raise ValueError(f"VMA at {vma.start:#x} is not registered")
        del self._vmas[vma.start]
        index = bisect_right(self._starts, vma.start) - 1
        self._starts.pop(index)

    def _insert(self, vma: VirtualMemoryArea) -> None:
        overlapping = self.find(vma.start) or self.find(vma.end - 1)
        if overlapping is not None:
            raise ValueError(f"new VMA {vma} overlaps existing {overlapping}")
        insort(self._starts, vma.start)
        self._vmas[vma.start] = vma

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def find(self, address: int) -> Optional[VirtualMemoryArea]:
        """Return the VMA containing ``address``, or None."""
        index = bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        vma = self._vmas[self._starts[index]]
        return vma if vma.contains(address) else None

    def find_or_fault(self, address: int,
                      trace: Optional[KernelRoutineTrace] = None) -> VirtualMemoryArea:
        """The page-fault handler's VMA lookup; records the rb-tree walk work."""
        starts = self._starts
        if trace is not None and trace.recording:
            depth = max(1, len(starts).bit_length())
            op = trace.new_op("find_vma", work_units=depth)
            op.memory_touches = [(_VMA_TREE_BASE + level * 64, False) for level in range(depth)]
        index = bisect_right(starts, address) - 1
        if index >= 0:
            vma = self._vmas[starts[index]]
            if address < vma.end:
                return vma
        raise VMANotFoundError(f"address {address:#x} is not mapped by any VMA")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterable[VirtualMemoryArea]:
        for start in self._starts:
            yield self._vmas[start]

    def size_histogram(self) -> Dict[str, int]:
        """VMA-count histogram over the Fig. 18 size buckets."""
        histogram: Dict[str, int] = {label: 0 for _, label in VMA_SIZE_BUCKETS}
        histogram[">1GB"] = 0
        for vma in self:
            histogram[vma_size_bucket(vma.size)] += 1
        return histogram

    def largest(self) -> Optional[VirtualMemoryArea]:
        """The largest VMA (the '77 GB VMA' of the BC workload in Fig. 18)."""
        vmas = list(self)
        if not vmas:
            return None
        return max(vmas, key=lambda vma: vma.size)
