"""Swap subsystem: swap cache, swap file and reclaim accounting.

MimicOS swaps anonymous pages to an SSD-backed swap file when physical
memory usage crosses the configured threshold (Table 4: 4 GB swap, 90 %
threshold).  The swap subsystem also serves Use Case 4 (Fig. 20), where
Utopia's restrictive mapping forces swap-outs even when free memory exists
because a RestSeg set overflows.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.stats import Counter
from repro.mimicos.ops import KernelAddressSpace, KernelRoutineTrace
from repro.storage.ssd import SSDModel


#: Size and entry size of the ``swap_map`` kernel region.
_SWAP_MAP_BYTES = 1 << 20
_SWAP_MAP_ENTRY = 8
#: Base of the swap map when no kernel address space is wired up.
_FALLBACK_SWAP_MAP = 0xFFFF_8A00_0000_0000


class SwapFullError(RuntimeError):
    """Raised when the swap file has no free slots left."""


class SwapSubsystem:
    """Swap cache + swap file with SSD-backed latency.

    Keys are ``(pid, virtual page number)``; a swapped-out page occupies one
    4 KB slot in the swap file.  All latencies are returned in core cycles
    so the fault handler can add them to the fault's disk component.
    """

    def __init__(self, swap_size_bytes: int, ssd: Optional[SSDModel] = None,
                 kernel_space: Optional[KernelAddressSpace] = None):
        if swap_size_bytes < 0:
            raise ValueError("swap size cannot be negative")
        self.capacity_slots = swap_size_bytes // PAGE_SIZE_4K
        self.ssd = ssd
        self.kernel_space = kernel_space
        #: Base of the ``swap_map`` region (see :meth:`_reserve_swap_map`).
        self._swap_map_base: Optional[int] = None
        #: (pid, vpn) -> swap slot index
        self._slots: Dict[Tuple[int, int], int] = {}
        self._free_slot = 0
        self._recycled_slots: list = []
        self.counters = Counter()
        self._c_lookups = self.counters.hot("swap_cache_lookups")
        #: Total cycles spent performing swap I/O (the Fig. 20 metric).
        self.swap_cycles = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def free_slots(self) -> int:
        """Number of free swap slots."""
        return self.capacity_slots - len(self._slots)

    # ------------------------------------------------------------------ #
    # Swap out / in
    # ------------------------------------------------------------------ #
    def swap_out(self, pid: int, vpn: int, now_cycles: int = 0,
                 trace: Optional[KernelRoutineTrace] = None) -> int:
        """Write one page to the swap file; returns the I/O latency in cycles."""
        if self.free_slots <= 0:
            self.counters.add("swap_full")
            raise SwapFullError("swap file is full")
        if self._recycled_slots:
            slot = self._recycled_slots.pop()
        else:
            slot = self._free_slot
            self._free_slot += 1
        self._slots[(pid, vpn)] = slot
        self.counters.add("swap_outs")

        latency = 0
        if self.ssd is not None:
            latency = self.ssd.write(slot, now_cycles).latency_cycles
        self.swap_cycles += latency

        if trace is not None:
            if trace.recording:
                trace.new_op("swap_out", work_units=8).touch(self._swap_map_address(slot),
                                                             is_write=True)
            elif self._swap_map_base is None:
                self._reserve_swap_map()
        return latency

    def swap_in(self, pid: int, vpn: int, now_cycles: int = 0,
                trace: Optional[KernelRoutineTrace] = None) -> int:
        """Read one page back from the swap file; returns the I/O latency in cycles."""
        key = (pid, vpn)
        slot = self._slots.pop(key, None)
        if slot is None:
            raise KeyError(f"page (pid={pid}, vpn={vpn:#x}) is not in swap")
        self._recycled_slots.append(slot)
        self.counters.add("swap_ins")

        latency = 0
        if self.ssd is not None:
            latency = self.ssd.read(slot, now_cycles).latency_cycles
        self.swap_cycles += latency

        if trace is not None:
            if trace.recording:
                trace.new_op("swap_in", work_units=8).touch(self._swap_map_address(slot),
                                                            is_write=False)
            elif self._swap_map_base is None:
                self._reserve_swap_map()
        return latency

    def lookup_swap_cache(self, pid: int, vpn: int,
                          trace: Optional[KernelRoutineTrace] = None) -> bool:
        """The swap-cache probe of Fig. 6 (step 6); returns True if swapped."""
        if trace is not None:
            if trace.recording:
                slot = hash((pid, vpn)) % max(1, self.capacity_slots or 1)
                trace.new_op("swap_cache_lookup", work_units=2).touch(
                    self._swap_map_address(slot), is_write=False)
            elif self._swap_map_base is None:
                self._reserve_swap_map()
        self._c_lookups[0] += 1
        return (pid, vpn) in self._slots

    def _reserve_swap_map(self) -> Optional[int]:
        """Reserve the ``swap_map`` kernel region and cache its base (None
        without a kernel address space).

        Every traced swap operation calls this, recording or not, so a
        discarded trace reserves the region at the same call.
        """
        if self._swap_map_base is None and self.kernel_space is not None:
            self._swap_map_base = self.kernel_space.region("swap_map", _SWAP_MAP_BYTES)
        return self._swap_map_base

    def _swap_map_address(self, slot: int) -> int:
        if self.kernel_space is None:
            return _FALLBACK_SWAP_MAP + slot * _SWAP_MAP_ENTRY
        return self._reserve_swap_map() + slot * _SWAP_MAP_ENTRY % _SWAP_MAP_BYTES

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot, plus the accumulated swap I/O cycles."""
        stats = self.counters.as_dict()
        stats["swap_cycles"] = self.swap_cycles
        return stats
