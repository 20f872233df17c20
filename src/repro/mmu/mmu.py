"""The memory-management unit: translation plus the data access itself.

For every memory operand the core model calls :meth:`MMU.access_data_fast`.
Unless the L1 data TLB hits, it falls straight into the one translation
path, :meth:`MMU._access`: it looks up the TLB hierarchy, walks the active
translation structure on a miss (paying for the walk's memory accesses
through the shared memory hierarchy), reports page faults to the OS
through a fault callback installed by the Virtuoso orchestrator (which
runs MimicOS and injects the handler's instruction stream, returning the
fault's latency), retries the walk, and finally performs the data access.

Schemes that replace the TLBs (Midgard, VBI) follow their own path: a cheap
frontend translation before the access and a backend translation charged
only when the access reaches DRAM.

Every path returns one :data:`Access` tuple, the five values the core
model charges: translation latency, fault latency, whether the access
faulted, data latency and the level that served the data.  Everything else
an access decides (the TLB level that hit, the walk and its memory
accesses, a segfault, the physical address) shows in the counters, the
TLB contents and the memory hierarchy's statistics.

L1 data-TLB hit
---------------

:meth:`MMU.access_data_fast` writes the L1 data-TLB hit out in place, as
the memory hierarchy does for the L1 data cache: it peeks the 4 KB L1 data
TLB, then the 2 MB one, without counting anything; on a hit it applies
exactly the counters, the LRU move and the latency sample that a full
TLB lookup followed by :meth:`MMU._access` would apply, and performs the
data access.  On a miss it falls into :meth:`MMU._access`, which does not
probe the L1 data TLBs again:
:meth:`TLBHierarchy.lookup_after_l1d_miss` counts the lookup and the two
misses and goes straight to the L2 TLB.  Every translation a TLB
serves is therefore one the TLB really holds, so the kernel's shootdowns
(:meth:`MMU.invalidate_translation`) are the only thing keeping cached
translations coherent; :func:`repro.validation.invariants.check_translations`
checks that they do.  Neither a TLB lookup nor a TLB fill builds a result
object, so a translation allocates nothing beyond the walk's result, the
TLB keys and the returned tuple.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.stats import Counter, RunningStats
from repro.memhier.memory_system import MemoryHierarchy
from repro.mmu.nested import NestedTranslationUnit
from repro.mmu.tlb import TLBHierarchy
from repro.pagetables.base import PageTableBase

#: Signature of the page-fault callback: (pid, virtual address) -> (latency, handled).
FaultCallback = Callable[[int, int], Tuple[int, bool]]


#: What one access returns: (translation latency, fault latency, page
#: fault, data latency, the level that served the data or "none").
Access = Tuple[int, int, bool, int, str]


class MMU:
    """The per-core MMU model.

    Each simulated core owns one MMU, which in turn owns that core's private
    TLB hierarchy and translation context (pid + page table) — so in a
    multi-core system every core translates against its own context while
    the page tables themselves are shared kernel state.
    ``core_index`` identifies the owning core (0 in single-core systems).
    """

    def __init__(self, tlb_hierarchy: TLBHierarchy, memory: MemoryHierarchy,
                 core_index: int = 0):
        self.tlbs = tlb_hierarchy
        self.memory = memory
        self.core_index = core_index
        self.counters = Counter()
        self.ptw_latency_stats = RunningStats()
        self.translation_latency_stats = RunningStats()
        self.fault_latency_stats = RunningStats()
        #: 2-D walk attribution (virtualised mode): the guest-dimension and
        #: host-dimension shares of every nested walk's latency, so
        #: per-backend parity can tell a slow guest table from a slow host
        #: (extended) table.
        self.guest_ptw_latency_stats = RunningStats()
        self.host_ptw_latency_stats = RunningStats()

        self.pid: int = 0
        self.page_table: Optional[PageTableBase] = None
        self.fault_callback: Optional[FaultCallback] = None
        self.nested_unit: Optional[NestedTranslationUnit] = None

        # Hot counter cells (folded transparently on every Counter read).
        self._c_data_accesses = self.counters.hot("data_accesses")
        self._c_tlb_hits = self.counters.hot("tlb_hits")
        self._c_tlb_misses = self.counters.hot("tlb_misses")
        self._c_page_walks = self.counters.hot("page_walks")
        self._c_ptw_memory_accesses = self.counters.hot("ptw_memory_accesses")
        self._c_data_accesses_intermediate = self.counters.hot("data_accesses_intermediate")

        # The L1 data TLBs the in-place hit peeks: (page size, sets, set
        # count, hit in the 2 MB TLB) in probe order, 4 KB TLB first.
        self._l1d_4k = tlb_hierarchy.l1d_4k
        self._l1d_2m = tlb_hierarchy.l1d_2m
        self._l1_latency = tlb_hierarchy.l1d_4k.latency
        self._l1d_probes = tuple((page_size, tlb._sets, tlb.num_sets, tlb is self._l1d_2m)
                                 for tlb in (self._l1d_4k, self._l1d_2m)
                                 for page_size in tlb.page_sizes)


    # ------------------------------------------------------------------ #
    # Context management
    # ------------------------------------------------------------------ #
    def set_context(self, pid: int, page_table: PageTableBase,
                    flush_tlbs: bool = False) -> None:
        """Switch the MMU to another process's address space."""
        self.pid = pid
        self.page_table = page_table
        if flush_tlbs:
            self.tlbs.flush()
            # Without VPID/EPT tagging a context switch also loses the
            # combined (guest-virtual -> host-physical) translations.
            if self.nested_unit is not None:
                self.nested_unit.flush()

    def migrate_in(self, pid: int, page_table: PageTableBase) -> None:
        """Context-switch for a process migrating onto this core.

        Identical to ``set_context(..., flush_tlbs=True)``; it exists to make
        the migration semantics explicit: a process that last ran on another
        core must never observe this core's stale TLB contents (this model
        has no cross-core shootdowns, so a resident translation here may
        predate unmaps performed while the process ran elsewhere).
        """
        self.set_context(pid, page_table, flush_tlbs=True)

    def set_fault_callback(self, callback: FaultCallback) -> None:
        """Install the OS page-fault entry point (wired up by Virtuoso)."""
        self.fault_callback = callback

    def invalidate_translation(self, pid: int, virtual_address: int,
                               size: int = PAGE_SIZE_4K) -> None:
        """Kernel-initiated TLB shootdown of the ``size`` bytes of ``pid``'s
        address space at ``virtual_address``: one page, or an RMM range.

        Called (through :meth:`repro.mimicos.kernel.MimicOS.tlb_shootdown`)
        whenever the kernel unmaps or remaps a page outside the normal
        fill path — swap-out reclaim, khugepaged collapse, THP promotion,
        munmap, restrictive-mapping evictions — so no stale translation
        survives in this core's TLBs.  Like a real IPI shootdown, only cores
        currently running ``pid``'s address space act (context switches flush
        the TLBs, so other address spaces cannot be resident here).  Every
        entry overlapping the extent goes: a combined translation of a guest
        huge page backed by smaller host pages is held as several smaller
        entries.
        """
        if pid != self.pid:
            return
        self.tlbs.invalidate(virtual_address, size)
        if self.nested_unit is not None:
            # A guest-side remap also kills the combined translation the
            # nested TLB caches for this guest-virtual page.
            self.nested_unit.invalidate(virtual_address, size)

    def on_nested_shootdown(self, host_virtual: int) -> None:
        """The VM's nested-shootdown listener: whichever host page moved,
        every combined translation is suspect, so this drops them all."""
        self.invalidate_nested_translations()

    def invalidate_nested_translations(self) -> None:
        """Host-side (EPT) remap shootdown for this core.

        Called when the hypervisor remaps a frame backing guest RAM (host
        swap-out, restrictive-mapping eviction, host khugepaged collapse):
        the guest-physical -> host-physical dimension changed without naming
        any guest-virtual address, so every *combined* translation this core
        holds is suspect — the nested TLB and the L1/L2 TLBs (filled with
        host-physical bases by nested walks) are all dropped, exactly as an
        INVEPT-triggered combined-mapping flush behaves on real hardware.
        No-op on cores not running a virtualised context.
        """
        if self.nested_unit is None:
            return
        self.nested_unit.flush()
        self.tlbs.flush()
        self.counters.add("nested_shootdowns")

    def set_nested_unit(self, nested_unit: Optional[NestedTranslationUnit]) -> None:
        """Enable two-dimensional translation through ``nested_unit``."""
        self.nested_unit = nested_unit

    # ------------------------------------------------------------------ #
    # Main access path
    # ------------------------------------------------------------------ #
    def access_data_fast(self, virtual_address: int, is_write: bool = False,
                         pc: int = 0) -> Access:
        """Translate ``virtual_address`` and perform the data access.

        Returns the :data:`Access` tuple the core model charges.
        """
        page_table = self.page_table
        if page_table is None:
            raise RuntimeError("MMU has no page table; call set_context() first")
        self._c_data_accesses[0] += 1
        if page_table.replaces_tlbs:
            return self._access_intermediate_scheme(virtual_address, is_write, pc)
        # The L1 data-TLB hit, written out: what TLBHierarchy.lookup and
        # _access do for it, and nothing is counted until an entry is found.
        for page_size, sets, num_sets, in_2m_tlb in self._l1d_probes:
            vpn = virtual_address // page_size
            key = (vpn, page_size)
            entries = sets[vpn % num_sets]
            entry = entries.get(key)
            if entry is None:
                continue
            entries.move_to_end(key)
            l1_4k = self._l1d_4k
            l1_4k._c_lookups[0] += 1
            if in_2m_tlb:
                l1_4k._c_misses[0] += 1
                l1_2m = self._l1d_2m
                l1_2m._c_lookups[0] += 1
                l1_2m._c_hits[0] += 1
            else:
                l1_4k._c_hits[0] += 1
            self.tlbs._c_data_lookups[0] += 1
            self._c_tlb_hits[0] += 1
            latency = self._l1_latency
            self.translation_latency_stats.add(latency)

            physical_base, page_size = entry
            memory = self.memory
            data_latency = memory.access_value(physical_base + virtual_address % page_size,
                                               is_write, "data", pc)
            return latency, 0, False, data_latency, memory.last_served_by
        return self._access(virtual_address, is_write, pc)

    #: The same function under its older name.  ``perfbench/tracer.py``
    #: wraps both names through ``vars(MMU)[name]``, and the benchmark's
    #: files change only with the benchmark itself.
    access_data = access_data_fast

    @property
    def fast_hits(self) -> int:
        """L1 data-TLB hits: the accesses the in-place hit of
        :meth:`access_data_fast` served (diagnostics for host profiling)."""
        return self._l1d_4k.counters.get("hits") + self._l1d_2m.counters.get("hits")

    # ------------------------------------------------------------------ #
    # Conventional (TLB + walk) translation
    # ------------------------------------------------------------------ #
    def _access(self, virtual_address: int, is_write: bool, pc: int) -> Access:
        """The translation path: TLBs, walk and faults, then the access itself.

        An access arrives here only after :meth:`access_data_fast` found
        neither L1 data TLB holding it, so its lookup starts at the L2 TLB
        (:meth:`TLBHierarchy.lookup_after_l1d_miss` counts the two L1
        misses).  The outcome stays in locals: the fault callback runs
        MimicOS, which may use the MMU again.
        """
        tlbs = self.tlbs
        entry = tlbs.lookup_after_l1d_miss(virtual_address)
        latency = tlbs.last_latency
        page_fault = False
        fault_latency = 0
        if entry is not None:
            physical_base, page_size = entry
            self._c_tlb_hits[0] += 1
        else:
            self._c_tlb_misses[0] += 1
            walk = self._walk(virtual_address)
            latency += walk.latency
            if not walk.found:
                page_fault = True
                fault_latency, handled = self._raise_page_fault(virtual_address)
                latency += fault_latency
                if handled:
                    walk = self._walk(virtual_address)
                    latency += walk.latency
                if not walk.found:
                    self.counters.add("segfaults")
                    self.translation_latency_stats.add(latency)
                    return latency, fault_latency, True, 0, "none"
            physical_base = walk.physical_base
            page_size = walk.page_size
            tlbs.fill(virtual_address, physical_base, page_size)
        self.translation_latency_stats.add(latency)

        memory = self.memory
        data_latency = memory.access_value(physical_base + virtual_address % page_size,
                                           is_write, "data", pc)
        return latency, fault_latency, page_fault, data_latency, memory.last_served_by

    # ------------------------------------------------------------------ #
    # Walks and faults
    # ------------------------------------------------------------------ #
    def _walk(self, virtual_address: int):
        if self.nested_unit is not None:
            nested = self.nested_unit.walk(virtual_address, self.memory)
            self._c_page_walks[0] += 1
            self._c_ptw_memory_accesses[0] += nested.memory_accesses
            self.ptw_latency_stats.add(nested.latency)
            # Attribute the two dimensions separately (a nested-TLB hit
            # walked neither table, so both shares are zero).
            self.guest_ptw_latency_stats.add(nested.guest_latency)
            self.host_ptw_latency_stats.add(nested.host_latency)
            return nested
        walk = self.page_table.walk(virtual_address, self.memory)
        self._c_page_walks[0] += 1
        self._c_ptw_memory_accesses[0] += walk.memory_accesses
        self.ptw_latency_stats.add(walk.latency)
        return walk

    def _raise_page_fault(self, virtual_address: int) -> Tuple[int, bool]:
        self.counters.add("page_faults")
        if self.fault_callback is None:
            return 0, False
        latency, handled = self.fault_callback(self.pid, virtual_address)
        self.fault_latency_stats.add(latency)
        return latency, handled

    # ------------------------------------------------------------------ #
    # Intermediate-address schemes (Midgard, VBI)
    # ------------------------------------------------------------------ #
    def _access_intermediate_scheme(self, virtual_address: int, is_write: bool,
                                    pc: int) -> Access:
        page_table = self.page_table
        memory = self.memory
        intermediate, latency, _ = page_table.translate_frontend(virtual_address, memory)
        functional = page_table.translate_functional(virtual_address)
        page_fault = False
        fault_latency = 0
        if intermediate is None or functional is None:
            page_fault = True
            fault_latency, handled = self._raise_page_fault(virtual_address)
            latency += fault_latency
            if not handled:
                return latency, fault_latency, True, 0, "none"
            intermediate, frontend_latency, _ = page_table.translate_frontend(virtual_address,
                                                                              memory)
            latency += frontend_latency
            functional = page_table.translate_functional(virtual_address)
            if functional is None:
                return latency, fault_latency, True, 0, "none"
        self.translation_latency_stats.add(latency)

        # The caches are indexed with the intermediate address in Midgard/VBI;
        # using the functional physical address as a proxy preserves hit/miss
        # behaviour because the mapping is one-to-one.
        data_latency = memory.access_value(functional, is_write, "data", pc)
        served_by = memory.last_served_by
        if served_by == "DRAM" and intermediate is not None:
            _, backend_latency, _ = page_table.translate_backend(intermediate, memory)
            self._c_page_walks[0] += 1
            self.ptw_latency_stats.add(backend_latency)
            latency += backend_latency

        self._c_data_accesses_intermediate[0] += 1
        return latency, fault_latency, page_fault, data_latency, served_by

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def average_ptw_latency(self) -> float:
        """Mean page-table-walk latency in cycles (Fig. 3 / Fig. 10 metric)."""
        return self.ptw_latency_stats.mean

    def total_ptw_latency(self) -> float:
        """Total cycles spent walking (Fig. 13 metric)."""
        return self.ptw_latency_stats.total

    def total_translation_latency(self) -> float:
        """Total translation cycles including TLB, walks and faults."""
        return self.translation_latency_stats.total

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus latency summaries."""
        stats: Dict[str, object] = {
            "counters": self.counters.as_dict(),
            "tlbs": self.tlbs.stats(),
            "avg_ptw_latency": self.average_ptw_latency(),
            "total_ptw_latency": self.total_ptw_latency(),
            "avg_translation_latency": self.translation_latency_stats.mean,
            "page_table": self.page_table.stats() if self.page_table is not None else {},
        }
        if self.nested_unit is not None:
            # 2-D attribution: which dimension of the nested walk cost what.
            stats["nested"] = {
                "unit": self.nested_unit.stats(),
                "total_guest_ptw_latency": self.guest_ptw_latency_stats.total,
                "total_host_ptw_latency": self.host_ptw_latency_stats.total,
                "avg_guest_ptw_latency": self.guest_ptw_latency_stats.mean,
                "avg_host_ptw_latency": self.host_ptw_latency_stats.mean,
            }
        return stats
