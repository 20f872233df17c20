"""Kernel-operation records: the raw material of the imitation methodology.

Every MimicOS routine appends :class:`KernelOp` records describing the work
it performed — how many 'work units' of computation (loop iterations, list
scans, page-table updates) and which kernel data addresses it touched.  The
instrumentation layer in :mod:`repro.core.instrumentation` expands these into
instruction streams that the architectural simulator executes, so the
latency, cache pollution and DRAM interference of OS routines vary with the
work actually done instead of being a fixed constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class KernelOp:
    """One primitive operation performed by a kernel routine.

    Attributes:
        name: Routine-internal operation name (e.g. ``"buddy_split"``,
            ``"zero_page"``, ``"pt_update"``); used to pick the instruction
            mix when the op is expanded into an instruction stream.
        work_units: Abstract amount of compute work (loop iterations,
            entries scanned).  Expanded to a proportional number of ALU /
            branch instructions.
        memory_touches: Kernel-space (physical) addresses read or written by
            the operation, as ``(address, is_write)`` pairs.  These become
            the memory operands of the generated instruction stream and are
            what pollutes the caches and interferes in DRAM.
    """

    name: str
    work_units: int = 1
    memory_touches: List[Tuple[int, bool]] = field(default_factory=list)

    def touch(self, address: int, is_write: bool = False) -> None:
        """Record that this operation accessed ``address``."""
        self.memory_touches.append((address, is_write))


@dataclass
class KernelRoutineTrace:
    """The complete record of one kernel routine invocation.

    A routine (e.g. ``do_page_fault``) is a sequence of :class:`KernelOp`
    records plus an optional disk-latency component (major faults / swap-ins
    are resolved by the SSD model, not by executing instructions).
    """

    #: False only for :class:`DiscardedTrace`; lets a routine skip loops
    #: whose sole effect is the ops they record.
    recording = True

    routine: str
    ops: List[KernelOp] = field(default_factory=list)
    disk_latency_cycles: int = 0

    def new_op(self, name: str, work_units: int = 1) -> KernelOp:
        """Create, append and return a new operation."""
        op = KernelOp(name=name, work_units=work_units)
        self.ops.append(op)
        return op

    def extend(self, other: "KernelRoutineTrace") -> None:
        """Inline another routine's trace (callee ops become part of this trace)."""
        self.ops.extend(other.ops)
        self.disk_latency_cycles += other.disk_latency_cycles


class _DiscardedOp(KernelOp):
    """The one shared op a :class:`DiscardedTrace` hands out.

    ``touch`` records nothing and ``work_units`` ignores assignment, so
    ``op.work_units += n`` in a routine leaves the singleton unchanged.
    The fault path does not lean on this: it checks ``trace.recording``
    and builds no op at all under a discarded trace.
    """

    @property
    def work_units(self) -> int:
        return 0

    @work_units.setter
    def work_units(self, value: int) -> None:
        pass

    def touch(self, address: int, is_write: bool = False) -> None:
        pass


_DISCARDED_OP = _DiscardedOp(name="discarded")


class DiscardedTrace(KernelRoutineTrace):
    """A trace that records no kernel work, for routines run only for their
    side effects (e.g. pre-faulting before the measured region).

    A routine given a discarded trace may skip a touch only when computing
    its address has no side effect.  A kernel-address region
    (:meth:`KernelAddressSpace.region`) is still reserved at the same call
    that would reserve it under a recording trace, so the regions keep
    their order and every later kernel address is unchanged; the owners of
    ``buddy_free_lists``, ``swap_map`` and ``page_cache_xarray`` reserve
    theirs on the first traced call and cache the base.  Only the op
    records are dropped; ``disk_latency_cycles`` still accumulates.
    """

    recording = False

    def new_op(self, name: str, work_units: int = 1) -> KernelOp:
        return _DISCARDED_OP

    def extend(self, other: KernelRoutineTrace) -> None:
        self.disk_latency_cycles += other.disk_latency_cycles


class KernelAddressSpace:
    """Allocator of pseudo-addresses for kernel data structures.

    Kernel structures (buddy free lists, the page-cache radix tree, VMA
    trees, swap maps, zero pages) live in physical memory in a real system
    and their accesses fight with application data for cache and DRAM
    resources.  MimicOS models this by giving every kernel structure a
    deterministic address region carved out of the top of physical memory.
    Each structure's owner reserves its region here on first use, keeps the
    base, and addresses entry *i* as ``base + (i * entry_size) % size``.
    """

    def __init__(self, base_address: int, size_bytes: int):
        if size_bytes <= 0:
            raise ValueError("kernel address space must have positive size")
        self.base_address = base_address
        self.size_bytes = size_bytes
        self._next_offset = 0
        self._regions: dict = {}

    def region(self, name: str, size_bytes: int) -> int:
        """Reserve (or return the existing) region ``name`` and return its base."""
        if name in self._regions:
            return self._regions[name][0]
        if self._next_offset + size_bytes > self.size_bytes:
            # Wrap around: kernel metadata regions are address *models*, not
            # storage, so overlap is acceptable once the budget is exhausted.
            self._next_offset = 0
        base = self.base_address + self._next_offset
        self._regions[name] = (base, size_bytes)
        self._next_offset += size_bytes
        return base
