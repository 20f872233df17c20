"""Utopia: hybrid restrictive/flexible virtual-to-physical address mapping.

Utopia (Kanellopoulos et al., MICRO 2023) splits physical memory into:

* **RestSegs** — large set-associative segments with a *restrictive*
  hash-based virtual-to-physical mapping.  A page's physical location inside
  a RestSeg is determined by hashing its VPN to a set; translation only
  needs to read the set's virtual tags (the RestSeg Walker, RSW), and
  allocation is a lightweight scan of the set's ways — the reason Utopia
  shows the lowest page-fault latencies in Fig. 16.
* **A FlexSeg** — the rest of memory, managed conventionally (buddy
  allocator + radix page table) for pages that conflict in their RestSeg set.

Two small hardware caches accelerate translation: the SF (set filter) cache
that answers "is this page in a RestSeg?" and the TAR cache that caches
recently used virtual tags.

The trade-offs the paper studies emerge naturally from this model: a larger
RestSeg spreads the tag metadata over a larger region (worse locality, higher
translation latency — Fig. 19), and RestSegs covering most of memory leave a
tiny FlexSeg, so set conflicts force swap-outs even though free memory
exists (Fig. 20).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K, align_down
from repro.common.lru import LRU
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import (
    FaultAllocation,
    MemoryInterface,
    PageTableBase,
    TranslationMapping,
    WalkResult,
)
from repro.pagetables.hashing import bucket_index
from repro.pagetables.radix import RadixPageTable

#: Bytes per virtual tag stored in the RestSeg tag array.
TAG_SIZE = 8


class _SmallCache:
    """A tiny fully-associative LRU cache used for the SF and TAR caches."""

    def __init__(self, entries: int, latency: int):
        self.latency = latency
        self._store = LRU(entries)
        self.hits = 0
        self.misses = 0

    def lookup(self, key: int) -> bool:
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, key: int) -> None:
        self._store.put(key, True)


@dataclass
class _RestSeg:
    """One restrictive segment: a set-associative region of physical memory."""

    name: str
    base_address: int
    size_bytes: int
    page_size: int
    associativity: int
    tag_array_base: int
    #: set index -> {way -> (pid, virtual base)}
    sets: Dict[int, Dict[int, Tuple[int, int]]] = field(default_factory=dict)

    @property
    def num_sets(self) -> int:
        return max(1, self.size_bytes // (self.page_size * self.associativity))

    def set_of(self, pid: int, virtual_base: int) -> int:
        return bucket_index((pid << 48) ^ (virtual_base // self.page_size), self.num_sets)

    def frame_address(self, set_index: int, way: int) -> int:
        return self.base_address + (set_index * self.associativity + way) * self.page_size

    def tag_address(self, set_index: int, way: int) -> int:
        return self.tag_array_base + (set_index * self.associativity + way) * TAG_SIZE


class UtopiaTranslation(PageTableBase):
    """Utopia's hybrid restrictive (RestSeg) + flexible (radix) translation."""

    kind = "utopia"
    overrides_allocation = True

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 restseg_size_bytes: int = 8 << 30,
                 restseg_associativity: int = 16,
                 restseg_page_sizes: Tuple[int, ...] = (PAGE_SIZE_4K, PAGE_SIZE_2M),
                 restseg_base_address: int = 0,
                 tar_cache_latency: int = 2, sf_cache_latency: int = 2,
                 flexseg_page_table: Optional[RadixPageTable] = None):
        super().__init__(frame_allocator)
        self.restseg_size_bytes = restseg_size_bytes
        self.flexseg = flexseg_page_table or RadixPageTable(self.frame_allocator)
        self.tar_cache = _SmallCache(entries=128, latency=tar_cache_latency)
        self.sf_cache = _SmallCache(entries=128, latency=sf_cache_latency)
        self._restsegs: List[_RestSeg] = []
        next_base = restseg_base_address
        for index, page_size in enumerate(restseg_page_sizes):
            tag_array_base = self.frame_allocator(None)
            seg = _RestSeg(name=f"RestSeg-{page_size >> 10}KB", base_address=next_base,
                           size_bytes=restseg_size_bytes, page_size=page_size,
                           associativity=restseg_associativity,
                           tag_array_base=tag_array_base)
            self._restsegs.append(seg)
            next_base += restseg_size_bytes
        #: Segment indices, smallest page size first (the fault path's order).
        self._segment_order = sorted(range(len(self._restsegs)),
                                     key=lambda i: self._restsegs[i].page_size)
        #: (pid, virtual base) -> (segment index, set, way) for RestSeg-resident pages.
        self._restseg_residency: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        #: physical frame address -> (pid, virtual base), the reverse index.
        self._frame_to_key: Dict[int, Tuple[int, int]] = {}
        self._c_restseg_allocations = self.counters.hot("restseg_allocations")
        self._c_flexseg_insertions = self.counters.hot("flexseg_insertions")
        self._c_restseg_walks = self.counters.hot("restseg_walks")
        self._c_flexseg_walks = self.counters.hot("flexseg_walks")
        # Every RestSeg walk counts its memory accesses, 0 on a TAR hit.
        self.counters.hot("walk_memory_accesses", zero_with="restseg_walks")

    # ------------------------------------------------------------------ #
    # Allocation override (the OS side of Utopia)
    # ------------------------------------------------------------------ #
    def allocate_for_fault(self, pid: int, virtual_address: int, vma,
                           buddy, trace: Optional[KernelRoutineTrace] = None) -> FaultAllocation:
        """Try to place the page in a RestSeg set; fall back to the FlexSeg.

        When both the RestSeg set and the FlexSeg are exhausted, a page is
        evicted from the RestSeg set and returned in ``evicted_pages`` so the
        kernel can swap it out (the Fig. 20 behaviour).
        """
        # Prefer the 4 KB RestSeg for ordinary faults (the 2 MB RestSeg is
        # used by the THP-style huge allocations when the VMA is large).
        segment_order = self._segment_order
        for seg_index in segment_order:
            seg = self._restsegs[seg_index]
            if seg.page_size != PAGE_SIZE_4K:
                continue
            virtual_base = align_down(virtual_address, seg.page_size)
            set_index = seg.set_of(pid, virtual_base)
            ways = seg.sets.setdefault(set_index, {})
            op = (trace.new_op("utopia_restseg_alloc", work_units=4)
                  if trace is not None and trace.recording else None)
            if op is not None:
                # The set's virtual tags fit in one or two cache lines; the
                # scan reads those lines, not one word per way.
                tag_lines = max(1, (seg.associativity * TAG_SIZE) // 64)
                for line in range(tag_lines):
                    op.touch(seg.tag_address(set_index, 0) + line * 64, is_write=False)
            free_way = next((w for w in range(seg.associativity) if w not in ways), None)
            if free_way is not None:
                ways[free_way] = (pid, virtual_base)
                self._restseg_residency[(pid, virtual_base)] = (seg_index, set_index, free_way)
                self._frame_to_key[seg.frame_address(set_index, free_way)] = (pid, virtual_base)
                self._c_restseg_allocations[0] += 1
                if op is not None:
                    op.touch(seg.tag_address(set_index, free_way), is_write=True)
                zeroing = seg.page_size if getattr(vma, "is_anonymous", True) else 0
                return FaultAllocation(address=seg.frame_address(set_index, free_way),
                                       page_size=seg.page_size,
                                       zeroing_bytes=zeroing)
            self.counters.add("restseg_set_conflicts")

        # RestSeg set conflict: try the FlexSeg (conventional buddy allocation),
        # keeping a small reserve so kernel metadata (page-table frames) can
        # still be allocated once the FlexSeg is nearly exhausted.
        flexseg_reserve = 2 << 20
        zeroing = PAGE_SIZE_4K if getattr(vma, "is_anonymous", True) else 0
        if buddy.free_bytes > flexseg_reserve:
            try:
                result = buddy.allocate(0, trace)
                self.counters.add("flexseg_allocations")
                return FaultAllocation(address=result.address, page_size=PAGE_SIZE_4K,
                                       zeroing_bytes=zeroing, fallback=True)
            except Exception:
                pass

        # FlexSeg exhausted: evict the LRU-ish occupant of the conflicting set
        # (the paper's pathological case that inflates swapping in Fig. 20).
        seg_index = segment_order[0]
        seg = self._restsegs[seg_index]
        virtual_base = align_down(virtual_address, seg.page_size)
        set_index = seg.set_of(pid, virtual_base)
        ways = seg.sets.setdefault(set_index, {})
        victim_way = min(ways) if ways else 0
        evicted = ways.pop(victim_way, None)
        evicted_pages = []
        if evicted is not None:
            self._restseg_residency.pop(evicted, None)
            evicted_pages.append(evicted)
            self.counters.add("restseg_evictions")
        ways[victim_way] = (pid, virtual_base)
        self._restseg_residency[(pid, virtual_base)] = (seg_index, set_index, victim_way)
        self._frame_to_key[seg.frame_address(set_index, victim_way)] = (pid, virtual_base)
        if trace is not None:
            trace.new_op("utopia_restseg_evict", work_units=16)
        return FaultAllocation(address=seg.frame_address(set_index, victim_way),
                               page_size=seg.page_size, zeroing_bytes=zeroing,
                               evicted_pages=evicted_pages)

    # ------------------------------------------------------------------ #
    # Structure updates
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        # RestSeg-resident pages were already recorded at allocation time; any
        # page whose frame lies outside every RestSeg belongs to the FlexSeg
        # and needs a conventional radix entry.
        if not self._frame_in_restseg(physical_base):
            self.flexseg.insert(virtual_base, physical_base, page_size, trace)
            self._c_flexseg_insertions[0] += 1
        elif trace is not None and trace.recording:
            op = trace.new_op("utopia_tag_update", work_units=2)
            op.touch(self._restsegs[0].tag_array_base, is_write=True)

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        if self._frame_in_restseg(mapping.physical_base):
            key = self._frame_to_key.get(mapping.physical_base)
            # The eviction path reassigns a frame to its new occupant
            # *before* the kernel removes the victim's mapping, so only
            # clean the reverse index when it still describes the mapping
            # being removed — otherwise this remove would tear down the new
            # occupant's residency record.
            if key is not None and key[1] == mapping.virtual_base:
                del self._frame_to_key[mapping.physical_base]
                location = self._restseg_residency.pop(key, None)
                if location is not None:
                    seg_index, set_index, way = location
                    ways = self._restsegs[seg_index].sets.get(set_index, {})
                    if ways.get(way) == key:
                        del ways[way]
        else:
            self.flexseg.remove(mapping.virtual_base, trace)
        if trace is not None and trace.recording:
            trace.new_op("utopia_remove", work_units=2)

    def _frame_in_restseg(self, physical_address: int) -> bool:
        for seg in self._restsegs:
            if seg.base_address <= physical_address < seg.base_address + seg.size_bytes:
                return True
        return False

    # ------------------------------------------------------------------ #
    # Hardware walk
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """SF-cache probe, then RestSeg tag read (RSW) or FlexSeg radix walk."""
        self._c_walks[0] += 1
        latency = self.sf_cache.latency
        accesses = 0

        mapping = self._find_mapping(virtual_address)
        in_restseg = (mapping is not None
                      and self._frame_in_restseg(mapping.physical_base))

        vpn = virtual_address >> 12
        self.sf_cache.lookup(vpn)
        self.sf_cache.fill(vpn)

        if in_restseg:
            # RSW: read the virtual tags of the set unless the TAR cache hits.
            seg_index, set_index, way = self._restseg_residency.get(
                self._residency_key(virtual_address, mapping), (0, 0, 0))
            seg = self._restsegs[seg_index]
            if self.tar_cache.lookup(vpn):
                latency += self.tar_cache.latency
            else:
                latency += self.tar_cache.latency
                # Tags of the whole set are read (they fit in one or two lines).
                tag_lines = max(1, (seg.associativity * TAG_SIZE) // 64)
                for line in range(tag_lines):
                    latency += memory.access_value(seg.tag_address(set_index, 0) + line * 64,
                                                   False, "translation")
                    accesses += 1
                self.tar_cache.fill(vpn)
            self._c_restseg_walks[0] += 1
            self._c_walk_hits[0] += 1
            self._c_walk_memory_accesses[0] += accesses
            return WalkResult(found=True, latency=latency, memory_accesses=accesses,
                              physical_base=mapping.physical_base,
                              page_size=mapping.page_size)

        # FlexSeg path: conventional radix walk.
        self._c_flexseg_walks[0] += 1
        radix_result = self.flexseg.walk(virtual_address, memory)
        radix_result.latency += latency
        radix_result.memory_accesses += accesses
        if radix_result.found:
            self._c_walk_hits[0] += 1
        else:
            # The mapping may exist functionally (e.g. RestSeg residency known
            # to the OS but not yet inserted); report what the base class knows.
            if mapping is not None:
                radix_result.found = True
                radix_result.physical_base = mapping.physical_base
                radix_result.page_size = mapping.page_size
                self._c_walk_hits[0] += 1
            else:
                self._c_walk_faults[0] += 1
        return radix_result

    def _residency_key(self, virtual_address: int, mapping: TranslationMapping) -> Tuple[int, int]:
        key = self._frame_to_key.get(mapping.physical_base)
        if key is not None:
            return key
        return (0, align_down(virtual_address, PAGE_SIZE_4K))

