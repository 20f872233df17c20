"""The x86-64 4-level radix page table with page-walk caches.

This is the ``Radix`` baseline of the paper's case studies: a 4-level tree
(PGD -> PUD -> PMD -> PTE) of 4 KB nodes with 512 eight-byte entries each,
walked by the hardware page-table walker with the help of three page-walk
caches (PWCs) that cache partial translations for the upper levels.  Huge
pages terminate the walk early: a 2 MB page is a leaf in the PMD level and a
1 GB page a leaf in the PUD level.

Inserting a 4 KB mapping may need up to three new page-table frames (from
the slab allocator) plus the leaf write — the reason the paper's Fig. 15
shows higher minor-fault latency for Radix than for the hash-based designs,
which allocate their tables in bulk up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.lru import LRU
from repro.common.stats import Counter
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import MemoryInterface, PageTableBase, TranslationMapping, WalkResult

#: Bytes per page-table entry.
PTE_SIZE = 8
#: Entries per 4 KB page-table node.
ENTRIES_PER_NODE = 512
#: Right shift of each level's index in a virtual address, root (PGD) first
#: (9 bits per level above the 4 KB page offset), and the mask of one index.
_INDEX_SHIFTS = (39, 30, 21, 12)
_INDEX_MASK = ENTRIES_PER_NODE - 1
#: Per page size: the index shifts of the interior levels above its leaf,
#: and the shift of its leaf index (a 2 MB page is a PMD leaf, 1 GB a PUD leaf).
_UPPER_SHIFTS = {PAGE_SIZE_4K: (39, 30, 21), PAGE_SIZE_2M: (39, 30), PAGE_SIZE_1G: (39,)}
_LEAF_SHIFT = {PAGE_SIZE_4K: 12, PAGE_SIZE_2M: 21, PAGE_SIZE_1G: 30}


class PageWalkCache:
    """A small set-associative cache of partial translations for one tree level.

    A hit at coverage level ``skip_levels`` lets the walker skip that many
    upper-level memory accesses.  Keys are the virtual-address bits above the
    level's coverage (e.g. the PMD-level PWC is tagged with ``va >> 21``).
    """

    def __init__(self, name: str, entries: int = 32, associativity: int = 4,
                 latency: int = 2, coverage_shift: int = 21):
        if entries % associativity != 0:
            raise ValueError("PWC entries must be a multiple of associativity")
        self.name = name
        self.latency = latency
        self.coverage_shift = coverage_shift
        self.num_sets = entries // associativity
        self.associativity = associativity
        self._sets: List[LRU] = [LRU(associativity) for _ in range(self.num_sets)]
        self.counters = Counter()
        self._c_hits = self.counters.hot("hits")
        self._c_misses = self.counters.hot("misses")

    def lookup(self, virtual_address: int) -> bool:
        """True on hit (the walker may skip the covered levels)."""
        tag = virtual_address >> self.coverage_shift
        entries = self._sets[tag % self.num_sets]
        if tag in entries:
            entries.move_to_end(tag)
            self._c_hits[0] += 1
            return True
        self._c_misses[0] += 1
        return False

    def fill(self, virtual_address: int) -> None:
        """Insert the partial translation for ``virtual_address``; a cached
        one becomes the most recently used."""
        tag = virtual_address >> self.coverage_shift
        entries = self._sets[tag % self.num_sets]
        if tag in entries:
            entries.move_to_end(tag)
        else:
            entries.put(tag, True)

    def invalidate(self, virtual_address: int) -> None:
        """Drop the entry covering ``virtual_address`` if present."""
        tag = virtual_address >> self.coverage_shift
        self._sets[tag % self.num_sets].pop(tag, None)


@dataclass
class _RadixNode:
    """One 4 KB node of the radix tree."""

    physical_base: int
    #: index -> child node (interior) — leaves live in ``leaf_entries``.
    children: Dict[int, "_RadixNode"] = field(default_factory=dict)
    #: index -> (physical base, page size) for leaf entries at this level.
    leaf_entries: Dict[int, Tuple[int, int]] = field(default_factory=dict)


class RadixPageTable(PageTableBase):
    """x86-64 4-level radix page table with three page-walk caches."""

    kind = "radix"

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 pwc_entries: int = 32, pwc_associativity: int = 4, pwc_latency: int = 2,
                 enable_pwcs: bool = True):
        super().__init__(frame_allocator)
        self._root = _RadixNode(physical_base=self.frame_allocator(None))
        self.enable_pwcs = enable_pwcs
        # Three PWCs as in Table 4: covering PMD (skip 3), PUD (skip 2), PGD (skip 1).
        self.pwc_pmd = PageWalkCache("PWC-PMD", pwc_entries, pwc_associativity,
                                     pwc_latency, coverage_shift=21)
        self.pwc_pud = PageWalkCache("PWC-PUD", pwc_entries, pwc_associativity,
                                     pwc_latency, coverage_shift=30)
        self.pwc_pgd = PageWalkCache("PWC-PGD", pwc_entries, pwc_associativity,
                                     pwc_latency, coverage_shift=39)
        #: Page-table frames allocated (root excluded).
        self._c_pt_frames = self.counters.hot("pt_frames_allocated")

    # ------------------------------------------------------------------ #
    # Software updates
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        upper_shifts = _UPPER_SHIFTS[page_size]
        op = (trace.new_op("radix_pt_update", work_units=len(upper_shifts) + 1)
              if trace is not None and trace.recording else None)

        node = self._root
        for shift in upper_shifts:
            index = virtual_base >> shift & _INDEX_MASK
            child = node.children.get(index)
            if child is None:
                # The frame allocator gets the trace even when it records
                # nothing: the slab and buddy reserve their regions there.
                child = _RadixNode(physical_base=self.frame_allocator(trace))
                node.children[index] = child
                self._c_pt_frames[0] += 1
                if op is not None:
                    op.work_units += 4
                    op.touch(node.physical_base + index * PTE_SIZE, is_write=True)
            elif op is not None:
                op.touch(node.physical_base + index * PTE_SIZE, is_write=False)
            node = child

        leaf_index = virtual_base >> _LEAF_SHIFT[page_size] & _INDEX_MASK
        node.leaf_entries[leaf_index] = (physical_base, page_size)
        if op is not None:
            op.touch(node.physical_base + leaf_index * PTE_SIZE, is_write=True)

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        virtual_base = mapping.virtual_base
        upper_shifts = _UPPER_SHIFTS[mapping.page_size]
        node = self._root
        for shift in upper_shifts:
            node = node.children.get(virtual_base >> shift & _INDEX_MASK)
            if node is None:
                return
        leaf_index = virtual_base >> _LEAF_SHIFT[mapping.page_size] & _INDEX_MASK
        node.leaf_entries.pop(leaf_index, None)
        for pwc in (self.pwc_pmd, self.pwc_pud, self.pwc_pgd):
            pwc.invalidate(virtual_base)
        if trace is not None and trace.recording:
            op = trace.new_op("radix_pt_remove", work_units=len(upper_shifts) + 1)
            op.touch(node.physical_base + leaf_index * PTE_SIZE, is_write=True)

    # ------------------------------------------------------------------ #
    # Hardware walk
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """Walk the tree, consulting the PWCs to skip upper levels."""
        self._c_walks[0] += 1
        latency = 0
        start_depth = 0
        if self.enable_pwcs:
            if self.pwc_pmd.lookup(virtual_address):
                start_depth, latency = 3, self.pwc_pmd.latency
            elif self.pwc_pud.lookup(virtual_address):
                start_depth, latency = 2, self.pwc_pud.latency
            elif self.pwc_pgd.lookup(virtual_address):
                start_depth, latency = 1, self.pwc_pgd.latency
            else:
                latency = self.pwc_pmd.latency  # all PWCs probed in parallel

        # Re-descend functionally to the node where the walk resumes.
        node = self._root
        depth = 0
        while depth < start_depth:
            child = node.children.get(virtual_address >> _INDEX_SHIFTS[depth] & _INDEX_MASK)
            if child is None:
                break
            node = child
            depth += 1

        accesses = 0
        while depth < 4:
            index = virtual_address >> _INDEX_SHIFTS[depth] & _INDEX_MASK
            latency += memory.access_value(node.physical_base + index * PTE_SIZE, False, "ptw")
            accesses += 1
            leaf = node.leaf_entries.get(index)
            if leaf is not None:
                if self.enable_pwcs:
                    self._fill_pwcs(virtual_address, depth + 1)
                self._c_walk_hits[0] += 1
                self._c_walk_memory_accesses[0] += accesses
                return WalkResult(True, latency, accesses, leaf[0], leaf[1])
            node = node.children.get(index)
            if node is None:
                break
            depth += 1

        # A missing child, or all four levels descended without a leaf: fault.
        self._c_walk_faults[0] += 1
        self._c_walk_memory_accesses[0] += accesses
        return WalkResult(False, latency, accesses)

    def _fill_pwcs(self, virtual_address: int, resolved_depth: int) -> None:
        if resolved_depth >= 2:
            self.pwc_pgd.fill(virtual_address)
        if resolved_depth >= 3:
            self.pwc_pud.fill(virtual_address)
        if resolved_depth >= 4:
            self.pwc_pmd.fill(virtual_address)

