"""Memory-fragmentation controller.

The case studies in §7.4-§7.6 sweep the level of physical-memory
fragmentation, defined as the fraction of 2 MB blocks that remain free.
Real systems become fragmented by long uptimes and mixed allocation
patterns; the controller produces an equivalent state synthetically by
pinning 4 KB pages spread across the physical address space until the
target fraction of free 2 MB blocks is reached — the same methodology used
by prior VM papers (and by the Virtuoso artifact's fragmentation tool).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter
from repro.mimicos.buddy import ORDER_2M, BuddyAllocator, OutOfMemoryError


class FragmentationController:
    """Drives the buddy allocator to a target fraction of free 2 MB blocks."""

    def __init__(self, buddy: BuddyAllocator, rng: Optional[DeterministicRNG] = None):
        self.buddy = buddy
        # lint-allow: R6 fixed fallback is model identity — callers pass a config-derived rng; the bare default must stay byte-stable or BENCH digests churn
        self.rng = rng or DeterministicRNG(seed=7)
        self._pinned: List[int] = []
        self.counters = Counter()

    def fragment_to(self, target_free_fraction: float, max_steps: int = 2_000_000) -> float:
        """Pin 2 MB blocks until at most ``target_free_fraction`` of them are free.

        Returns the achieved fraction.  Fragmentation of 1.0 means fully
        unfragmented (every 2 MB slot free); 0.05 means only 5 % of the slots
        can still back a transparent huge page.  Pinning whole blocks (rather
        than scattering 4 KB pages) reaches the target in a bounded number of
        steps while producing the same experimental effect: the huge-page
        allocator's free lists are drained to the target level, and 4 KB
        allocations remain plentiful inside the still-free slots.
        """
        if not 0.0 <= target_free_fraction <= 1.0:
            raise ValueError("target fraction must be in [0, 1]")

        steps = 0
        while (self.buddy.fraction_free_huge_blocks(ORDER_2M) > target_free_fraction
               and steps < max_steps):
            steps += 1
            try:
                pinned = self.buddy.splinter(ORDER_2M)
            except OutOfMemoryError:
                break
            self._pinned.append(pinned)
            self.counters.add("pinned_pages")
        return self.buddy.fraction_free_huge_blocks(ORDER_2M)
