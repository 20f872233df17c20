"""MimicOS: the lightweight userspace kernel that ties the OS modules together.

A :class:`MimicOS` instance owns physical memory (buddy + slab allocators),
the THP policy, hugetlbfs, the page cache, the swap subsystem, khugepaged
and one page table per process.  The architectural simulator talks to it
through the functional channel (the OS coupling, :mod:`repro.core.modes`): the only
requests MimicOS receives are VM events — page faults, mmap/munmap system
calls — and its replies carry both the functional outcome (new translation)
and the :class:`~repro.mimicos.ops.KernelRoutineTrace` describing the work
performed, which the imitation layer converts into an instruction stream.

The kernel's module list is configurable (``MimicOSConfig.kernel_modules``):
a study that does not care about swapping can drop the swap module and the
corresponding work simply never appears in the traces — the "simulate only
the relevant OS routines" knob of §4.1.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.addresses import MB, PAGE_SIZE_4K, align_down, page_number
from repro.common.config import MimicOSConfig, PageTableConfig
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter, LatencyDistribution
from repro.common.weak import WeakCallback, weak_listener
from repro.mimicos.buddy import BuddyAllocator
from repro.mimicos.fault import PageFaultHandler, PageFaultResult
from repro.mimicos.fragmentation import FragmentationController
from repro.mimicos.hugetlbfs import HugeTLBFS
from repro.mimicos.khugepaged import CollapseResult, Khugepaged
from repro.mimicos.ops import KernelAddressSpace, KernelRoutineTrace
from repro.mimicos.page_cache import PageCache
from repro.mimicos.process import Process
from repro.mimicos.slab import SlabAllocator
from repro.mimicos.swap import SwapSubsystem
from repro.mimicos.thp import build_thp_policy
from repro.mimicos.vma import VMAKind, VirtualMemoryArea
from repro.pagetables.factory import build_page_table
from repro.storage.ssd import SSDModel

#: Physical memory reserved for kernel data structures at the top of memory.
KERNEL_RESERVED_BYTES = 64 * MB


class MimicOS:
    """The lightweight userspace kernel imitating Linux memory management."""

    def __init__(self, config: MimicOSConfig,
                 page_table_config: Optional[PageTableConfig] = None,
                 ssd: Optional[SSDModel] = None,
                 khugepaged_interval_faults: int = 64,
                 rng: Optional[DeterministicRNG] = None):
        self.config = config
        self.page_table_config = page_table_config or PageTableConfig()
        # lint-allow: R6 fixed fallback is model identity — callers pass a config-derived rng; the bare default must stay byte-stable or BENCH digests churn
        self.rng = rng or DeterministicRNG(seed=11)
        self.counters = Counter()
        self._c_fault_requests = self.counters.hot("page_fault_requests")

        total = config.physical_memory_bytes
        if total <= KERNEL_RESERVED_BYTES:
            raise ValueError("physical memory too small for the kernel reservation")

        # Carve physical memory: [user memory][RestSeg reservation][kernel reservation]
        self.kernel_space = KernelAddressSpace(total - KERNEL_RESERVED_BYTES,
                                               KERNEL_RESERVED_BYTES)
        restseg_reservation = self._restseg_reservation_bytes(total)
        self._restseg_base = total - KERNEL_RESERVED_BYTES - restseg_reservation
        user_memory_bytes = self._restseg_base

        self.buddy = BuddyAllocator(user_memory_bytes, base_address=0,
                                    kernel_space=self.kernel_space)
        self.slab = SlabAllocator(self.buddy)
        self.hugetlbfs = HugeTLBFS(self.buddy, config.hugetlbfs_reserved_bytes)
        self.page_cache = PageCache(config.page_cache_size_bytes, self.kernel_space)
        self.ssd = ssd
        self.swap = SwapSubsystem(config.swap_size_bytes, ssd, self.kernel_space)
        self.thp_policy = build_thp_policy(config.thp_policy, self.buddy, config)
        #: Hardware TLB-shootdown listeners, registered by the orchestrator
        #: (one per simulated core's MMU).  Every path that unmaps or remaps
        #: a live page — reclaim swap-out, khugepaged collapse, THP
        #: promotion, munmap, restrictive-mapping eviction — must announce
        #: the page here so no core keeps a stale translation.
        self._tlb_listeners: List[Callable[[int, int], None]] = []
        # The parts below call back up into the kernel weakly, so a dropped
        # kernel is freed at once instead of waiting for the cyclic GC.
        self.khugepaged = Khugepaged(self.buddy,
                                     tlb_shootdown=WeakCallback(self.tlb_shootdown))
        self.fragmentation = FragmentationController(self.buddy, self.rng.fork(1))
        self.fault_handler = PageFaultHandler(
            buddy=self.buddy, slab=self.slab, hugetlbfs=self.hugetlbfs,
            page_cache=self.page_cache, swap=self.swap, thp_policy=self.thp_policy,
            khugepaged=self.khugepaged,
            zeroing_bytes_per_cycle=config.zeroing_bytes_per_cycle,
            tlb_shootdown=WeakCallback(self.tlb_shootdown))

        self.khugepaged_interval_faults = khugepaged_interval_faults
        self._faults_since_khugepaged = 0
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        #: Runnable pids awaiting a core (FIFO, round-robin service).
        self.run_queue: Deque[int] = deque()
        #: Resident anonymous pages in fault order, for kswapd-style reclaim:
        #: (pid, virtual base) -> (physical base, page size, frame owned by buddy)
        self._resident: "OrderedDict[Tuple[int, int], Tuple[int, int, bool]]" = OrderedDict()
        #: Per-fault latency traces are accounted by the simulator; the kernel
        #: records only functional statistics plus the page-fault count here.
        self.fault_latency = LatencyDistribution()

    # ------------------------------------------------------------------ #
    # Boot-time configuration
    # ------------------------------------------------------------------ #
    def _restseg_reservation_bytes(self, total_bytes: int) -> int:
        if self.page_table_config.kind != "utopia":
            return 0
        per_segment = min(self.page_table_config.restseg_size_bytes, total_bytes // 2)
        reservation = per_segment * 2
        # Always leave at least a quarter of the non-kernel memory to the
        # FlexSeg (buddy-managed) pool so the system can still boot.
        available = total_bytes - KERNEL_RESERVED_BYTES
        return max(0, min(reservation, (available * 3) // 4))

    def fragment_memory(self, target_free_fraction: Optional[float] = None) -> float:
        """Pre-fragment physical memory to the configured (or given) level."""
        target = (target_free_fraction if target_free_fraction is not None
                  else self.config.fragmentation_target)
        achieved = self.fragmentation.fragment_to(target)
        self.counters.add("fragmentation_runs")
        return achieved

    # ------------------------------------------------------------------ #
    # Processes and system calls
    # ------------------------------------------------------------------ #
    def create_process(self, name: str = "") -> Process:
        """Create a process with its own address space and translation structure."""
        pid = self._next_pid
        self._next_pid += 1
        process = Process(pid=pid, name=name or f"proc-{pid}")
        process.page_table = build_page_table(
            self.page_table_config,
            frame_allocator=self.slab.allocate_pt_frame,
            physical_memory_bytes=self.config.physical_memory_bytes,
            restseg_base_address=self._restseg_base)
        # A structure whose removal also unmaps what it translated beyond
        # the removed mapping (RMM's ranges) announces that extent here.
        process.page_table.shootdown = partial(WeakCallback(self.tlb_shootdown), pid)
        self.processes[pid] = process
        self.counters.add("processes_created")
        return process

    def mmap(self, process: Process, size: int, kind: VMAKind = VMAKind.ANONYMOUS,
             fixed_address: Optional[int] = None, allow_1g_pages: bool = False,
             name: str = "", populate_page_cache: bool = False) -> VirtualMemoryArea:
        """``mmap()`` system call: create a VMA (and register it with Midgard).

        ``fixed_address`` is MAP_FIXED: place the VMA at exactly that address
        (the only way a freed VA range is ever reused — the default allocator
        is bump-only).  The munmap→mmap-same-range sequence this enables is a
        classic stale-translation hazard, which is exactly why the fuzzer's
        ``remap`` kernel op uses it.
        """
        vma = process.mmap(size, kind=kind, fixed_address=fixed_address,
                           allow_1g_pages=allow_1g_pages, name=name)
        self.counters.add("mmap_calls")
        page_table = process.page_table
        if page_table is not None and hasattr(page_table, "register_vma"):
            page_table.register_vma(vma.start, vma.end)
        if populate_page_cache and vma.is_file_backed:
            self.page_cache.populate_file(vma.start >> 21, size)
        return vma

    def munmap(self, process: Process, vma: VirtualMemoryArea) -> int:
        """``munmap()``: drop the VMA and every translation inside it."""
        removed = 0
        if process.page_table is not None:
            address = vma.start
            while address < vma.end:
                mapping = process.page_table.lookup(address)
                if mapping is not None:
                    physical, size = mapping
                    process.page_table.remove(address)
                    self.tlb_shootdown(process.pid, align_down(address, size), size)
                    self._release_frame(process.pid, align_down(address, size))
                    removed += 1
                    address += size
                else:
                    address += PAGE_SIZE_4K
        process.munmap(vma)
        self.counters.add("munmap_calls")
        return removed

    # ------------------------------------------------------------------ #
    # TLB shootdowns (kernel -> hardware invalidation)
    # ------------------------------------------------------------------ #
    def register_tlb_listener(self, listener: Callable[[int, int, int], None]) -> None:
        """Register a hardware invalidation callback ``(pid, vaddr, size) -> None``.

        The orchestrator registers one listener per simulated core (its
        MMU's :meth:`~repro.mmu.mmu.MMU.invalidate_translation`); a listener
        ignores shootdowns for address spaces it is not currently running.
        A bound-method listener is held weakly and skipped once its owner is
        freed (see :mod:`repro.common.weak`).
        """
        self._tlb_listeners.append(weak_listener(listener))

    def tlb_shootdown(self, pid: int, virtual_address: int,
                      size: int = PAGE_SIZE_4K) -> None:
        """Announce that the translations of the ``size`` bytes at
        ``virtual_address`` died (the page's size when a whole mapping goes)."""
        for listener in self._tlb_listeners:
            listener(pid, virtual_address, size)

    # ------------------------------------------------------------------ #
    # Scheduling (the run queue the multi-core orchestrator drives)
    # ------------------------------------------------------------------ #
    def enqueue_runnable(self, pid: int) -> None:
        """Mark ``pid`` runnable: append it to the run queue."""
        if pid not in self.processes:
            raise KeyError(f"unknown pid {pid}")
        self.run_queue.append(pid)

    def next_runnable(self) -> Optional[Process]:
        """Pop the head of the run queue (None when empty)."""
        while self.run_queue:
            pid = self.run_queue.popleft()
            process = self.processes.get(pid)
            if process is not None:
                return process
        return None

    def context_switch(self, core_index: int, process: Process) -> bool:
        """Switch ``process`` in on ``core_index``; True if it migrated.

        Pure bookkeeping — the hardware side of the switch (MMU context,
        TLB flush) is the orchestrator's job; the kernel stamps the
        process's scheduling state and counts switches and cross-core
        migrations.
        """
        migrated = process.note_scheduled(core_index)
        self.counters.add("context_switches")
        if migrated:
            self.counters.add("process_migrations")
        return migrated

    # ------------------------------------------------------------------ #
    # Page faults
    # ------------------------------------------------------------------ #
    def handle_page_fault(self, pid: int, virtual_address: int, now_cycles: int = 0,
                          trace: Optional[KernelRoutineTrace] = None,
                          unmapped: bool = False) -> PageFaultResult:
        """Handle a page fault reported by the simulator's MMU model.

        ``trace`` receives the fault's kernel work and ``unmapped`` says the
        caller found no mapping (see :meth:`PageFaultHandler.handle`); the
        default records a fresh trace.
        """
        process = self.processes.get(pid)
        if process is None:
            raise KeyError(f"unknown pid {pid}")
        self._c_fault_requests[0] += 1

        result = self.fault_handler.handle(process, virtual_address, now_cycles, trace,
                                           unmapped)

        if not result.segfault:
            self._record_residency(pid, result)
            self._faults_since_khugepaged += 1
            if (self._faults_since_khugepaged >= self.khugepaged_interval_faults
                    and "thp" in self.config.kernel_modules
                    and self.thp_policy.name == "linux"):
                self._run_khugepaged(result.trace)
            if "swap" in self.config.kernel_modules:
                self._maybe_reclaim(now_cycles, result, pid)
        return result

    def _record_residency(self, pid: int, result: PageFaultResult) -> None:
        key = (pid, result.virtual_address & -result.page_size)
        from_buddy = result.physical_base < self.buddy.total_bytes
        self._resident[key] = (result.physical_base, result.page_size, from_buddy)
        # A re-faulted page (its stale entry survives restrictive-mapping
        # evictions, which unmap without releasing) is the *most recently*
        # used page, so it must move to the back of the reclaim order —
        # this is also what makes _maybe_reclaim's "protected entry reached
        # => queue drained" early exit sound.
        self._resident.move_to_end(key)

    def _run_khugepaged(self, trace: KernelRoutineTrace) -> None:
        self._faults_since_khugepaged = 0
        page_tables = {pid: process.page_table for pid, process in self.processes.items()}
        collapse = self.khugepaged.scan(page_tables)
        if collapse.trace is not None and collapse.trace.ops:
            trace.extend(collapse.trace)
        self.counters.add("khugepaged_runs")

    # ------------------------------------------------------------------ #
    # On-demand kernel ops (the fuzzer's injection surface)
    # ------------------------------------------------------------------ #
    def run_khugepaged(self, max_regions: Optional[int] = None) -> CollapseResult:
        """Run one khugepaged pass now, outside the fault-driven cadence.

        This is the "THP collapse" kernel op of the scenario fuzzer: it scans
        (up to ``max_regions``) hinted regions across *every* process exactly
        like the periodic pass, but charges no trace — the op is injected
        between instructions, not inside a fault, so it must not perturb any
        fault's latency accounting.  The periodic fault counter is left
        untouched so injecting a pass never shifts the background cadence.
        """
        page_tables = {pid: process.page_table
                       for pid, process in self.processes.items()}
        result = self.khugepaged.scan(page_tables, max_regions=max_regions)
        self.counters.add("khugepaged_runs")
        return result

    def reclaim_cold_pages(self, count: int, now_cycles: int = 0) -> int:
        """Forcibly swap out up to ``count`` coldest resident mappings.

        The "swap pressure" kernel op of the scenario fuzzer: a kswapd pass
        that ignores the watermark, so reclaim/swap interactions are testable
        without configuring the whole system into memory pressure.  Follows
        the same discipline as :meth:`_maybe_reclaim` — oldest first, swap
        out every 4 KB subpage, drop the translation, broadcast the shootdown,
        release the frame — and returns the number of mappings reclaimed.
        """
        trace = KernelRoutineTrace("forced_reclaim")
        reclaimed = 0
        while (reclaimed < count and self._resident
               and self.swap.free_slots > 0):
            (pid, virtual_base), (physical, size, from_buddy) = \
                self._resident.popitem(last=False)
            process = self.processes.get(pid)
            if process is None or process.page_table is None:
                continue
            mapping = process.page_table.lookup(virtual_base)
            if mapping is None:
                continue  # already unmapped behind the residency list's back
            self._swap_out_mapping(process, virtual_base, physical, size, from_buddy,
                                   mapping[1], now_cycles, trace)
            self.counters.add("forced_reclaims")
            reclaimed += 1
        return reclaimed

    def _maybe_reclaim(self, now_cycles: int, result: PageFaultResult,
                       faulting_pid: int = -1) -> None:
        """kswapd-style reclaim: swap out cold pages when memory usage is high.

        The page the current fault just installed is exempt: real kernels
        keep the faulting page locked/young during reclaim, and swapping it
        back out inside its own fault would make the handler report success
        while leaving no translation behind (the retried walk would then
        segfault — a bug the virtualised guest-RAM backing path, whose
        hypervisor runs under deliberately tight memory, actually hit).
        """
        threshold = self.config.swap_threshold
        if self.buddy.usage < threshold or self.swap.capacity_slots == 0:
            return
        target_usage = max(0.0, threshold - 0.05)
        protected = (faulting_pid, align_down(result.virtual_address, result.page_size))
        trace = result.trace
        reclaim_op_added = False
        while self.buddy.usage > target_usage and self._resident and self.swap.free_slots > 0:
            (pid, virtual_base), (physical, size, from_buddy) = self._resident.popitem(last=False)
            if (pid, virtual_base) == protected:
                # The faulting page is the newest resident entry; reaching
                # it means every other candidate is gone — keep it mapped.
                self._resident[(pid, virtual_base)] = (physical, size, from_buddy)
                break
            process = self.processes.get(pid)
            if process is None or process.page_table is None:
                continue
            mapping = process.page_table.lookup(virtual_base)
            if mapping is None:
                continue  # already unmapped (e.g. evicted by a restrictive mapping)
            if not reclaim_op_added:
                trace.new_op("kswapd_shrink_lists", work_units=64)
                reclaim_op_added = True
            swapped, latency = self._swap_out_mapping(process, virtual_base, physical, size,
                                                      from_buddy, mapping[1], now_cycles,
                                                      trace)
            result.disk_latency_cycles += latency
            trace.disk_latency_cycles += latency
            result.swapped_out_pages += swapped

    def _swap_out_mapping(self, process: Process, virtual_base: int, physical: int,
                          size: int, from_buddy: bool, live_size: int, now_cycles: int,
                          trace: KernelRoutineTrace) -> Tuple[int, int]:
        """Swap out the 4 KB subpages of one resident mapping while slots
        last, unmap it, shoot it down and release its frame; returns the
        pages swapped and their disk latency."""
        swapped = latency = 0
        for index in range(size // PAGE_SIZE_4K):
            if self.swap.free_slots <= 0:
                break
            latency += self.swap.swap_out(process.pid, page_number(virtual_base) + index,
                                          now_cycles, trace)
            swapped += 1
        process.page_table.remove(virtual_base, trace)
        # The live mapping may be larger than the residency record says
        # (khugepaged collapsed the page since): shoot all of it down.
        self.tlb_shootdown(process.pid, align_down(virtual_base, live_size), live_size)
        if from_buddy:
            self._release_frame(process.pid, virtual_base, physical)
        self.counters.add("reclaimed_pages", swapped)
        return swapped, latency

    def _release_frame(self, pid: int, virtual_base: int,
                       physical_base: Optional[int] = None) -> None:
        key = (pid, virtual_base)
        entry = self._resident.pop(key, None)
        if physical_base is None and entry is not None:
            physical_base = entry[0]
        if physical_base is None:
            return
        try:
            self.buddy.free(physical_base)
        except ValueError:
            # Frames owned by a RestSeg, hugetlbfs pool, or a THP reservation
            # block are not individually owned by the buddy allocator.
            pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Aggregated counter snapshot of every kernel module."""
        return {
            "kernel": self.counters.as_dict(),
            "fault_handler": self.fault_handler.stats(),
            "buddy": self.buddy.stats(),
            "slab": {name: stats for name, stats in self.slab.stats().items()},
            "thp": self.thp_policy.stats(),
            "khugepaged": self.khugepaged.stats(),
            "page_cache": self.page_cache.stats(),
            "swap": self.swap.stats(),
            "hugetlbfs": self.hugetlbfs.stats(),
        }
