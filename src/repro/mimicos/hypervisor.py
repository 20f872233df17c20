"""Virtualised execution: a guest MimicOS running on a hypervisor MimicOS.

Virtuoso supports simulating virtual machines (§6.1) by spawning *two*
MimicOS instances: one imitating the guest OS and one imitating the
hypervisor (KVM-like).  Guest "physical" memory is just a region of the
host's virtual address space, so every guest frame is backed by a host frame
obtained through a host page fault, and address translation becomes
two-dimensional: guest-virtual -> guest-physical via the guest page table,
guest-physical -> host-physical via the host (nested/extended) page table.
The hardware side of that 2-D walk is modelled by
:class:`repro.mmu.nested.NestedTranslationUnit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_4K, align_down
from repro.common.config import MimicOSConfig, PageTableConfig, VirtualizationConfig
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter
from repro.common.weak import weak_listener
from repro.mimicos.fault import PageFaultResult
from repro.mimicos.kernel import MimicOS
from repro.mimicos.ops import KernelRoutineTrace
from repro.mimicos.process import Process
from repro.mimicos.vma import VMAKind, VirtualMemoryArea
from repro.mmu.nested import NestedTranslationUnit
from repro.pagetables.factory import nested_capable_kinds


@dataclass
class NestedFaultResult:
    """Outcome of a guest page fault, including any hypervisor work it caused."""

    guest: PageFaultResult
    host: Optional[PageFaultResult] = None

    @property
    def segfault(self) -> bool:
        """True if either level failed to resolve the fault."""
        if self.guest.segfault:
            return True
        return self.host is not None and self.host.segfault

    @property
    def total_disk_latency_cycles(self) -> int:
        """Disk latency accumulated at both levels."""
        total = self.guest.disk_latency_cycles
        if self.host is not None:
            total += self.host.disk_latency_cycles
        return total


class VirtualMachine:
    """A guest MimicOS whose physical memory is backed by a host MimicOS.

    The guest kernel manages a *guest-physical* address space whose size is
    the VM's configured memory; the hypervisor backs it lazily, exactly like
    KVM backs guest RAM with anonymous host memory: the first guest fault
    that touches a guest-physical frame triggers a host fault that allocates
    the backing host frame (a nested, two-level fault — the case §6.1
    describes).  Both page tables must be designs a nested walk can use as
    a dimension (:func:`~repro.pagetables.factory.nested_capable_kinds`).
    """

    def __init__(self, host: MimicOS, guest_memory_bytes: int,
                 guest_config: Optional[MimicOSConfig] = None,
                 guest_page_table_config: Optional[PageTableConfig] = None,
                 name: str = "vm",
                 nested_tlb_entries: int = 64,
                 rng: Optional[DeterministicRNG] = None):
        guest_page_table_config = guest_page_table_config or PageTableConfig()
        capable = nested_capable_kinds()
        for side, kind in (("host", host.page_table_config.kind),
                           ("guest", guest_page_table_config.kind)):
            if kind not in capable:
                raise ValueError(f"a {kind!r} page table cannot be the {side} dimension "
                                 f"of a nested walk; use one of {capable}")
        self.host = host
        self.name = name
        self.nested_tlb_entries = nested_tlb_entries
        self.counters = Counter()

        guest_config = guest_config or MimicOSConfig(
            physical_memory_bytes=guest_memory_bytes,
            thp_policy="linux",
            swap_size_bytes=0,
            page_cache_size_bytes=min(guest_memory_bytes // 8, 64 << 20),
            fragmentation_target=1.0,
        )
        self.guest = MimicOS(guest_config, guest_page_table_config, rng=rng)

        # The hypervisor process that owns the guest's RAM backing.
        self.host_process: Process = host.create_process(f"{name}-vmm")
        self.guest_ram_vma: VirtualMemoryArea = host.mmap(
            self.host_process, guest_memory_bytes, kind=VMAKind.ANONYMOUS,
            name=f"{name}-guest-ram")

        #: Per-(pid, core) nested translation units, memoised so nested-TLB
        #: hardware state survives across faults on the same core.
        self._nested_units: Dict[Tuple[int, int], NestedTranslationUnit] = {}
        #: Engine-registered callbacks ``(host_virtual) -> None`` fired when
        #: the hypervisor remaps a frame backing guest RAM (the nested /
        #: combined-mapping shootdown of the two-level TLB protocol).
        self._nested_listeners: List[Callable[[int], None]] = []
        # Every host-side unmap/remap already announces itself through the
        # host kernel's TLB-shootdown broadcast (swap-out reclaim, Utopia
        # evictions, khugepaged collapse, THP promotion, munmap); hooking it
        # is what keeps the nested TLBs coherent with the extended table.
        host.register_tlb_listener(self._on_host_shootdown)

    @classmethod
    def from_virtualization_config(cls, host: MimicOS, config: VirtualizationConfig,
                                   name: str = "vm",
                                   rng: Optional[DeterministicRNG] = None) -> "VirtualMachine":
        """Build a VM as described by a :class:`VirtualizationConfig`."""
        guest_memory = config.guest_memory_bytes
        guest_config = MimicOSConfig(
            physical_memory_bytes=guest_memory,
            thp_policy=config.guest_thp_policy,
            swap_size_bytes=config.guest_swap_size_bytes,
            page_cache_size_bytes=min(guest_memory // 8, 64 << 20),
            fragmentation_target=1.0,
        )
        return cls(host, guest_memory, guest_config=guest_config,
                   guest_page_table_config=config.guest_page_table, name=name,
                   nested_tlb_entries=config.nested_tlb_entries, rng=rng)

    # ------------------------------------------------------------------ #
    # Guest-side API
    # ------------------------------------------------------------------ #
    def create_guest_process(self, name: str = "") -> Process:
        """Create a process inside the guest OS."""
        return self.guest.create_process(name or f"{self.name}-app")

    def handle_guest_page_fault(self, pid: int, guest_virtual: int, now_cycles: int = 0,
                                trace: Optional[KernelRoutineTrace] = None,
                                unmapped: bool = False) -> NestedFaultResult:
        """Handle a guest fault, propagating to the hypervisor when needed.

        Two shapes, mirroring hardware virtualisation:

        * guest translation missing — the guest kernel resolves the fault
          against guest-physical memory; if the chosen guest-physical frame
          is not yet backed by host memory, the hypervisor takes a (host)
          page fault on the guest-RAM mapping and allocates the backing
          frame.  Both traces are returned so the simulator can inject the
          instruction streams of both kernels.
        * guest translation intact but host backing missing (an EPT
          violation: the hypervisor reclaimed or never populated the backing
          for this offset) — the guest kernel is *not* involved; only the
          hypervisor's fault runs, re-backing the page (a swap-in when host
          reclaim pushed it out).

        ``trace``, when given, receives the kernel work of both the guest
        and the host fault (e.g. a ``DiscardedTrace`` when pre-faulting);
        by default each fault records its own trace.  ``unmapped`` says the
        caller found no guest translation (see
        :meth:`~repro.mimicos.fault.PageFaultHandler.handle`).  A table looked
        up here is not looked up again by the kernel whose fault follows.
        """
        self.counters.add("guest_page_faults")
        process = self.guest.processes.get(pid)
        mapping = (process.page_table.lookup(guest_virtual)
                   if not unmapped and process is not None and process.page_table is not None
                   else None)
        if mapping is not None:
            return self._handle_ept_violation(guest_virtual, mapping, now_cycles, trace)

        guest_result = self.guest.handle_page_fault(pid, guest_virtual, now_cycles, trace,
                                                    unmapped=True)
        if guest_result.segfault:
            return NestedFaultResult(guest=guest_result)

        host_result = None
        # Back the host page under the *faulting offset* of whatever guest
        # frame now maps the address.  Two traps lurk here: (i) when the
        # hypervisor backs a 2 MB guest frame with 4 KB host frames (memory
        # pressure, fragmentation), backing only the frame base would leave
        # the faulting address itself unbacked; (ii) the guest fault can
        # trigger khugepaged collapse, which *replaces* the just-allocated
        # frame with a fresh 2 MB one — so the post-handling page table, not
        # the fault result, names the frame the retried walk will reach.
        # Other offsets stay lazy; they surface later as EPT violations.
        mapping = process.page_table.lookup(guest_virtual)
        if mapping is not None:
            guest_physical = mapping[0] + (guest_virtual % mapping[1])
        else:
            guest_physical = (guest_result.physical_base
                              + (guest_virtual % guest_result.page_size))
        host_virtual = self.guest_physical_to_host_virtual(guest_physical)
        if self.host_process.page_table.lookup(host_virtual) is None:
            self.counters.add("hypervisor_backing_faults")
            host_result = self.host.handle_page_fault(self.host_process.pid, host_virtual,
                                                      now_cycles, trace, unmapped=True)
        return NestedFaultResult(guest=guest_result, host=host_result)

    def _handle_ept_violation(self, guest_virtual: int, mapping: Tuple[int, int],
                              now_cycles: int,
                              trace: Optional[KernelRoutineTrace] = None
                              ) -> NestedFaultResult:
        """Back (or re-back) the host page under an intact guest translation.

        The guest-side result is a synthetic no-work record (an EPT
        violation VM-exits straight into the hypervisor; no guest kernel
        code runs), carrying the existing guest translation back to the
        coupling.
        """
        self.counters.add("ept_violations")
        guest_base, page_size = mapping
        guest_physical = guest_base + (guest_virtual % page_size)
        guest_result = PageFaultResult(virtual_address=guest_virtual,
                                       physical_base=guest_base,
                                       page_size=page_size,
                                       trace=KernelRoutineTrace("ept_violation"))
        host_virtual = self.guest_physical_to_host_virtual(guest_physical)
        host_result = None
        if self.host_process.page_table.lookup(host_virtual) is None:
            self.counters.add("hypervisor_backing_faults")
            host_result = self.host.handle_page_fault(self.host_process.pid, host_virtual,
                                                      now_cycles, trace, unmapped=True)
        return NestedFaultResult(guest=guest_result, host=host_result)

    # ------------------------------------------------------------------ #
    # Address-space plumbing
    # ------------------------------------------------------------------ #
    def guest_physical_to_host_virtual(self, guest_physical: int) -> int:
        """Map a guest-physical address into the hypervisor's guest-RAM VMA."""
        return _host_virtual(self.guest_ram_vma, guest_physical)

    def nested_translation_unit(self, guest_process: Process) -> NestedTranslationUnit:
        """Build the 2-D translation unit for ``guest_process`` (guest PT + EPT).

        The host's page table for the VMM process plays the role of the
        extended/nested page table: it maps guest-physical frames (offsets in
        the guest-RAM VMA) to host-physical frames.
        """
        return NestedTranslationUnit(guest_process.page_table,
                                     _HostBackingPageTable(self),
                                     nested_tlb_entries=self.nested_tlb_entries)

    def nested_unit_for(self, guest_process: Process,
                        core_index: int = 0) -> NestedTranslationUnit:
        """The memoised per-(process, core) 2-D unit the orchestrators install.

        The nested TLB is per-core hardware, so each simulated core gets its
        own unit; memoisation keeps that hardware state alive across
        repeated context switches onto the same core (the orchestrators
        still flush it on every switch-in, matching the untagged-TLB
        semantics of the rest of the model).
        """
        key = (guest_process.pid, core_index)
        unit = self._nested_units.get(key)
        if unit is None:
            unit = self.nested_translation_unit(guest_process)
            self._nested_units[key] = unit
        return unit

    # ------------------------------------------------------------------ #
    # Two-level shootdowns (hypervisor remap -> nested invalidation)
    # ------------------------------------------------------------------ #
    def register_nested_invalidation_listener(self,
                                              listener: Callable[[int], None]) -> None:
        """Register a ``(host_virtual) -> None`` nested-shootdown callback.

        The orchestrator registers one per simulated core (its MMU's
        :meth:`~repro.mmu.mmu.MMU.on_nested_shootdown`), fired
        whenever the hypervisor remaps a frame backing this VM's guest RAM.
        A bound-method listener is held weakly, like a TLB listener.
        """
        self._nested_listeners.append(weak_listener(listener))

    def _on_host_shootdown(self, pid: int, host_virtual: int,
                           size: int = PAGE_SIZE_4K) -> None:
        """Host kernel remapped a page; propagate if it backs guest RAM.

        Only shootdowns of the VMM process's guest-RAM mapping matter: they
        change the guest-physical -> host-physical dimension, so every
        combined (guest-virtual -> host-physical) translation cached by a
        nested TLB or an L1/L2 TLB may be stale.
        The memoised nested units are flushed here (covers units not
        currently installed on any core); the registered listeners flush the
        per-core TLB state on top.
        """
        if pid != self.host_process.pid:
            return
        vma = self.guest_ram_vma
        if not (vma.start < host_virtual + size and host_virtual < vma.end):
            return
        self.counters.add("nested_shootdowns")
        for unit in self._nested_units.values():
            unit.flush()
        for listener in self._nested_listeners:
            listener(host_virtual)

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()


def _host_virtual(guest_ram_vma: VirtualMemoryArea, guest_physical: int) -> int:
    offset = guest_physical % guest_ram_vma.size
    return guest_ram_vma.start + align_down(offset, PAGE_SIZE_4K)


class _HostBackingPageTable:
    """Adapter presenting the hypervisor's backing as a guest-physical -> host table.

    The nested walker hands it guest-physical addresses; it rebases them into
    the guest-RAM VMA and walks the hypervisor's real page table.  It keeps
    the VMA and the table, not the VM that owns it, so it closes no cycle.
    """

    replaces_tlbs = False
    overrides_allocation = False

    def __init__(self, vm: VirtualMachine):
        self.guest_ram_vma = vm.guest_ram_vma
        self.inner = vm.host_process.page_table

    def walk(self, guest_physical: int, memory):
        return self.inner.walk(_host_virtual(self.guest_ram_vma, guest_physical), memory)

    def lookup(self, guest_physical: int):
        return self.inner.lookup(_host_virtual(self.guest_ram_vma, guest_physical))
