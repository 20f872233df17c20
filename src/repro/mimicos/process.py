"""Simulated processes: an address space plus bookkeeping.

A :class:`Process` is little more than a process id, a VMA manager and a
reference to the translation structure (page table) MimicOS maintains for
it.  The MMU model holds a pointer to the currently running process to know
which page table to walk, and the workload generators create the VMAs a
process's trace will touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.stats import Counter
from repro.mimicos.vma import VMAKind, VMAManager, VirtualMemoryArea


@dataclass
class Process:
    """One simulated process / address space."""

    pid: int
    name: str = ""
    vmas: VMAManager = field(default_factory=VMAManager)
    #: The translation structure (set by MimicOS when the process is created).
    page_table: Optional[object] = None
    counters: Counter = field(default_factory=Counter)
    #: Core this process last ran on (``None`` until first scheduled).  The
    #: multi-core orchestrator compares it against the scheduling core to
    #: detect migrations, which require a full TLB flush on the new core.
    last_core: Optional[int] = None
    #: Hot cell of the ``page_faults`` counter, bumped by the fault handler.
    fault_cell: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.fault_cell = self.counters.hot("page_faults")

    def note_scheduled(self, core_index: int) -> bool:
        """Record one scheduling-in on ``core_index``; True if it migrated.

        Called by :meth:`MimicOS.context_switch
        <repro.mimicos.kernel.MimicOS.context_switch>` when the process is
        switched onto a core.  A migration is a schedule onto a different
        core than the last one — the event after which the process must not
        observe the new core's stale TLB contents.
        """
        migrated = self.last_core is not None and self.last_core != core_index
        self.last_core = core_index
        self.counters.add("time_slices")
        if migrated:
            self.counters.add("migrations")
        return migrated

    def mmap(self, size: int, kind: VMAKind = VMAKind.ANONYMOUS,
             fixed_address: Optional[int] = None, allow_1g_pages: bool = False,
             name: str = "") -> VirtualMemoryArea:
        """Create a new mapping in this process's address space."""
        self.counters.add("mmap_calls")
        return self.vmas.mmap(size, kind=kind, fixed_address=fixed_address,
                              allow_1g_pages=allow_1g_pages, name=name)

    def munmap(self, vma: VirtualMemoryArea) -> None:
        """Remove a mapping."""
        self.counters.add("munmap_calls")
        self.vmas.munmap(vma)
