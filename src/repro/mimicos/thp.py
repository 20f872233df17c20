"""Transparent-huge-page (THP) allocation policies.

The paper's second use case (Fig. 16) compares physical-memory allocation
policies: a plain buddy allocator serving only 4 KB pages (``BD``), a
Linux-like THP policy that opportunistically allocates 2 MB pages on fault
and relies on khugepaged to collapse later, and two reservation-based THP
policies (conservative ``CR-THP`` and aggressive ``AR-THP``) that reserve a
2 MB physical region on the first 4 KB fault and promote it to a huge page
once a utilisation threshold is crossed.

A policy's job on an anonymous minor fault is to decide the physical page
(and size) backing the faulting address and to record the work that decision
costs — zeroing, reservation bookkeeping, promotion copies — because that
work is exactly what differentiates the latency distributions in Figs. 2
and 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K, align_down
from repro.common.config import MimicOSConfig
from repro.common.stats import Counter
from repro.mimicos.buddy import ORDER_2M, BuddyAllocator, OutOfMemoryError
from repro.mimicos.ops import KernelRoutineTrace
from repro.mimicos.vma import VirtualMemoryArea


@dataclass
class THPAllocation:
    """What a THP policy decided for one anonymous fault."""

    address: int
    page_size: int
    zeroing_bytes: int = 0
    #: Number of already-mapped 4 KB pages copied/remapped during a promotion.
    promoted_small_pages: int = 0
    #: Base virtual address of the 2 MB region promoted by this fault (if any).
    promoted_region_va: Optional[int] = None
    #: True if the policy wants khugepaged to look at this VMA later.
    notify_khugepaged: bool = False
    #: True if the policy attempted a huge allocation and had to fall back.
    fallback: bool = False


class THPPolicyBase:
    """Interface of a THP allocation policy."""

    name = "base"

    def __init__(self, buddy: BuddyAllocator, config: MimicOSConfig):
        self.buddy = buddy
        self.config = config
        self.counters = Counter()
        self._c_small_allocations = self.counters.hot("small_allocations")

    def on_anonymous_fault(self, pid: int, vaddr: int, vma: VirtualMemoryArea,
                           trace: Optional[KernelRoutineTrace] = None,
                           page_table=None) -> THPAllocation:
        """Decide the backing page for a 4 KB anonymous fault at ``vaddr``
        in the address space ``page_table`` translates."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _allocate_small(self, trace: Optional[KernelRoutineTrace],
                        zero: bool = True) -> THPAllocation:
        result = self.buddy.allocate(0, trace)
        self._c_small_allocations[0] += 1
        return THPAllocation(address=result.address, page_size=PAGE_SIZE_4K,
                             zeroing_bytes=PAGE_SIZE_4K if zero else 0)

    def _try_allocate_huge(self, trace: Optional[KernelRoutineTrace]) -> Optional[int]:
        if not self.buddy.has_block(ORDER_2M):
            return None
        try:
            result = self.buddy.allocate(ORDER_2M, trace)
        except OutOfMemoryError:
            return None
        self.counters.add("huge_allocations")
        return result.address

    def _region_fits_vma(self, vaddr: int, vma: VirtualMemoryArea) -> bool:
        region_start = align_down(vaddr, PAGE_SIZE_2M)
        return region_start >= vma.start and region_start + PAGE_SIZE_2M <= vma.end

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()


class BuddyOnlyPolicy(THPPolicyBase):
    """``BD``: the baseline buddy allocator that only hands out 4 KB pages."""

    name = "bd"

    def on_anonymous_fault(self, pid: int, vaddr: int, vma: VirtualMemoryArea,
                           trace: Optional[KernelRoutineTrace] = None,
                           page_table=None) -> THPAllocation:
        return self._allocate_small(trace)


class NeverTHPPolicy(BuddyOnlyPolicy):
    """THP disabled (``never``): identical behaviour to ``BD``."""

    name = "never"


class LinuxTHPPolicy(THPPolicyBase):
    """Linux-like THP: allocate a 2 MB page on fault when cheaply possible.

    A huge page is used when the faulting 2 MB-aligned region lies entirely
    inside the VMA, nothing in it is mapped yet, and the buddy allocator has
    a free 2 MB block; otherwise a 4 KB page is allocated and khugepaged is
    asked to collapse the region later.  Huge-page faults pay 2 MB of
    zeroing — the long tail of Fig. 2's THP-enabled distribution.
    """

    name = "linux"

    def on_anonymous_fault(self, pid: int, vaddr: int, vma: VirtualMemoryArea,
                           trace: Optional[KernelRoutineTrace] = None,
                           page_table=None) -> THPAllocation:
        # Like Linux's pmd_none test: a huge page never goes over live
        # smaller mappings (a swapped-in page, say), which would leave both
        # translations in the table.  The buddy is asked first, so a
        # fragmented run, which gets no huge page anyway, skips the probe.
        if self._region_fits_vma(vaddr, vma) and not (
                page_table is not None and self.buddy.has_block(ORDER_2M)
                and page_table.maps_any(align_down(vaddr, PAGE_SIZE_2M), PAGE_SIZE_2M)):
            huge = self._try_allocate_huge(trace)
            if huge is not None:
                self.counters.add("thp_faults")
                return THPAllocation(address=huge, page_size=PAGE_SIZE_2M,
                                     zeroing_bytes=PAGE_SIZE_2M)
            # Fallback: the kernel tried (and failed) to get a huge page.
            self.counters.add("thp_fallbacks")
            if trace is not None:
                trace.new_op("thp_fallback_compaction_attempt", work_units=32)
            allocation = self._allocate_small(trace)
            allocation.fallback = True
            allocation.notify_khugepaged = True
            return allocation
        allocation = self._allocate_small(trace)
        allocation.notify_khugepaged = True
        return allocation


@dataclass
class _Reservation:
    """A reserved-but-not-yet-promoted 2 MB physical region."""

    physical_base: int
    touched_offsets: Set[int] = field(default_factory=set)
    promoted: bool = False


class ReservationTHPPolicy(THPPolicyBase):
    """Reservation-based THP (Navarro et al.), conservative or aggressive.

    On the first fault in a 2 MB-aligned virtual region the policy reserves a
    whole 2 MB physical block but maps only the faulting 4 KB page (at the
    matching offset inside the block, so a later promotion needs no copy of
    pages already placed there).  Once the fraction of touched 4 KB pages in
    the region exceeds ``promote_threshold`` the region is promoted to a
    single 2 MB mapping; the promotion zeroes the untouched remainder and
    rewrites the page table, which is where the > 1000x tail latency of
    Fig. 16 comes from.
    """

    name = "reservation"

    def __init__(self, buddy: BuddyAllocator, config: MimicOSConfig,
                 promote_threshold: float):
        super().__init__(buddy, config)
        if not 0.0 < promote_threshold <= 1.0:
            raise ValueError("promotion threshold must be in (0, 1]")
        self.promote_threshold = promote_threshold
        #: (pid, region base VA) -> reservation
        self._reservations: Dict[Tuple[int, int], _Reservation] = {}

    def on_anonymous_fault(self, pid: int, vaddr: int, vma: VirtualMemoryArea,
                           trace: Optional[KernelRoutineTrace] = None,
                           page_table=None) -> THPAllocation:
        region_va = align_down(vaddr, PAGE_SIZE_2M)
        offset = (vaddr - region_va) // PAGE_SIZE_4K

        if not self._region_fits_vma(vaddr, vma):
            return self._allocate_small(trace)

        key = (pid, region_va)
        reservation = self._reservations.get(key)
        if reservation is None:
            physical_base = self._try_allocate_huge(trace)
            if physical_base is None:
                self.counters.add("reservation_failures")
                allocation = self._allocate_small(trace)
                allocation.fallback = True
                return allocation
            reservation = _Reservation(physical_base=physical_base)
            self._reservations[key] = reservation
            self.counters.add("reservations")
            if trace is not None and trace.recording:
                op = trace.new_op("thp_reserve_region", work_units=16)
                op.touch(self._reservation_table_address(region_va), is_write=True)

        if reservation.promoted:
            # The region is already a huge page; this fault should not happen
            # for the same region again, but be robust and just return it.
            return THPAllocation(address=reservation.physical_base,
                                 page_size=PAGE_SIZE_2M, zeroing_bytes=0)

        reservation.touched_offsets.add(offset)
        utilisation = len(reservation.touched_offsets) / (PAGE_SIZE_2M // PAGE_SIZE_4K)

        if utilisation > self.promote_threshold:
            reservation.promoted = True
            promoted_pages = len(reservation.touched_offsets)
            untouched = (PAGE_SIZE_2M // PAGE_SIZE_4K) - promoted_pages
            self.counters.add("promotions")
            if trace is not None and trace.recording:
                op = trace.new_op("thp_promote_region", work_units=64 + promoted_pages * 4)
                for touched in sorted(reservation.touched_offsets):
                    op.touch(reservation.physical_base + touched * PAGE_SIZE_4K, is_write=True)
            return THPAllocation(address=reservation.physical_base,
                                 page_size=PAGE_SIZE_2M,
                                 zeroing_bytes=untouched * PAGE_SIZE_4K,
                                 promoted_small_pages=promoted_pages,
                                 promoted_region_va=region_va)

        self.counters.add("reserved_small_faults")
        return THPAllocation(address=reservation.physical_base + offset * PAGE_SIZE_4K,
                             page_size=PAGE_SIZE_4K, zeroing_bytes=PAGE_SIZE_4K)

    def _reservation_table_address(self, region_va: int) -> int:
        return 0xFFFF_8C00_0000_0000 + (region_va >> 21) * 64


class ConservativeReservationTHP(ReservationTHPPolicy):
    """``CR-THP``: promote once more than 50 % of the region is touched."""

    name = "cr_thp"

    def __init__(self, buddy: BuddyAllocator, config: MimicOSConfig):
        super().__init__(buddy, config, promote_threshold=0.5)


class AggressiveReservationTHP(ReservationTHPPolicy):
    """``AR-THP``: promote once more than 10 % of the region is touched."""

    name = "ar_thp"

    def __init__(self, buddy: BuddyAllocator, config: MimicOSConfig):
        super().__init__(buddy, config, promote_threshold=0.1)


_POLICY_CLASSES = {
    "bd": BuddyOnlyPolicy,
    "never": NeverTHPPolicy,
    "linux": LinuxTHPPolicy,
    "cr_thp": ConservativeReservationTHP,
    "ar_thp": AggressiveReservationTHP,
}


def build_thp_policy(name: str, buddy: BuddyAllocator,
                     config: MimicOSConfig) -> THPPolicyBase:
    """Factory mapping a policy name from :class:`MimicOSConfig` to an instance."""
    policy_class = _POLICY_CLASSES.get(name)
    if policy_class is None:
        raise ValueError(f"unknown THP policy: {name!r} "
                         f"(known: {sorted(_POLICY_CLASSES)})")
    return policy_class(buddy, config)
