"""Slab allocator for fixed-size kernel objects (page-table frames, VMAs).

MimicOS uses the slab allocator exactly where Linux does in the page-fault
path of Fig. 6: allocating 4 KB page-table frames and small kernel objects.
Each cache draws 4 KB slabs from the buddy allocator and carves them into
objects; object allocation from a partially-full slab is cheap, refilling a
cache from the buddy allocator is the expensive path — which is how the
variable cost of page-table frame allocation arises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.stats import Counter
from repro.mimicos.buddy import BuddyAllocator
from repro.mimicos.ops import KernelRoutineTrace


@dataclass
class _Slab:
    """One backing page carved into equal objects."""

    base_address: int
    object_size: int
    free_objects: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        objects_per_slab = PAGE_SIZE_4K // self.object_size
        self.free_objects = [self.base_address + i * self.object_size
                             for i in range(objects_per_slab)]


class SlabCache:
    """A cache of equal-size kernel objects (e.g. 4 KB page-table frames)."""

    def __init__(self, name: str, object_size: int, buddy: BuddyAllocator):
        if object_size <= 0 or object_size > PAGE_SIZE_4K:
            raise ValueError("slab object size must be in (0, 4096]")
        self.name = name
        self.object_size = object_size
        self.buddy = buddy
        self._partial: List[_Slab] = []
        self._object_to_slab: Dict[int, _Slab] = {}
        self.counters = Counter()

    def allocate(self, trace: Optional[KernelRoutineTrace] = None) -> int:
        """Allocate one object, refilling from the buddy allocator if needed."""
        op = (trace.new_op(f"slab_alloc_{self.name}", work_units=1)
              if trace is not None and trace.recording else None)
        if not self._partial:
            # Slow path: grab a fresh slab page from the buddy allocator.
            self.counters.add("slab_refills")
            result = self.buddy.allocate(0, trace)
            self._partial.append(_Slab(result.address, self.object_size))
            if op is not None:
                op.work_units += 4
        slab = self._partial[-1]
        address = slab.free_objects.pop()
        self._object_to_slab[address] = slab
        if not slab.free_objects:
            self._partial.pop()
        self.counters.add("allocations")
        if op is not None:
            op.touch(address, is_write=True)
        return address

    def free(self, address: int, trace: Optional[KernelRoutineTrace] = None) -> None:
        """Return an object to its slab (slabs are never released to the buddy)."""
        slab = self._object_to_slab.pop(address, None)
        if slab is None:
            raise ValueError(f"object {address:#x} was not allocated from slab cache {self.name}")
        was_full = not slab.free_objects
        slab.free_objects.append(address)
        if was_full:
            self._partial.append(slab)
        self.counters.add("frees")
        if trace is not None and trace.recording:
            op = trace.new_op(f"slab_free_{self.name}", work_units=1)
            op.touch(address, is_write=True)

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()


class SlabAllocator:
    """The collection of named slab caches MimicOS uses."""

    def __init__(self, buddy: BuddyAllocator):
        self.buddy = buddy
        self._caches: Dict[str, SlabCache] = {}

    def cache(self, name: str, object_size: int) -> SlabCache:
        """Return (creating on first use) the cache for ``name`` objects."""
        existing = self._caches.get(name)
        if existing is not None:
            if existing.object_size != object_size:
                raise ValueError(
                    f"slab cache {name} already exists with object size "
                    f"{existing.object_size}, requested {object_size}")
            return existing
        cache = SlabCache(name, object_size, self.buddy)
        self._caches[name] = cache
        return cache

    def allocate_pt_frame(self, trace: Optional[KernelRoutineTrace] = None) -> int:
        """Allocate a 4 KB page-table frame (the hottest slab in the fault path)."""
        return self.cache("pt_frame", PAGE_SIZE_4K).allocate(trace)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-cache counter snapshot."""
        return {name: cache.stats() for name, cache in self._caches.items()}
