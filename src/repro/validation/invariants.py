"""Translation coherence: every cached translation is the live one.

A stale translation — left behind when a mapping changes and the shootdown
never reaches the core — fails nothing where it is made; it only moves
some counter later, if it is used at all.  :func:`check_translations`
finds it where it sits: every entry of every core's L1/L2 TLBs and
nested TLB must have the physical base the core's page tables give its
virtual base now (through both dimensions for a virtualised core), and a
page size no larger than the live mapping's.
The check only reads, so a checked run simulates exactly what an
unchecked one does.  :func:`check_after_faults` runs it after every page
fault; the parity lattice and the scenario fuzzer use it.
"""

from __future__ import annotations

from types import MethodType
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.weak import WeakCallback

class TranslationIncoherence(AssertionError):
    """A cached translation that differs from the live one."""

    def __init__(self, core: int, structure: str, virtual_address: int,
                 cached: Tuple[int, int], live: Optional[Tuple[int, int]]):
        self.core, self.structure = core, structure
        self.virtual_address, self.cached, self.live = virtual_address, cached, live
        live_text = "unmapped" if live is None else f"{live[0]:#x} ({live[1]:#x} page)"
        super().__init__(f"core {core} {structure}: {virtual_address:#x} cached as "
                         f"{cached[0]:#x} ({cached[1]:#x} page), live {live_text}")

    def as_dict(self) -> Dict[str, object]:
        """The violation as JSON-able fields."""
        return {"core": self.core, "structure": self.structure,
                "virtual_address": self.virtual_address, "cached": list(self.cached),
                "live": None if self.live is None else list(self.live),
                "message": str(self)}


def _translator(mmu) -> Callable[[int], Optional[Tuple[int, int]]]:
    """The live translation of ``mmu``'s current context: its page table,
    or for a nested unit the guest table and then the host table, with the
    arithmetic of :meth:`repro.mmu.nested.NestedTranslationUnit.walk`."""
    nested = mmu.nested_unit
    if nested is None:
        guest_lookup, host_lookup = mmu.page_table.lookup, None
    else:
        guest_lookup = nested.guest_page_table.lookup
        host_lookup = nested.host_page_table.lookup

    def translate(virtual_address: int) -> Optional[Tuple[int, int]]:
        guest = guest_lookup(virtual_address)
        if guest is None:
            return None
        physical = guest[0] + virtual_address % guest[1]
        if host_lookup is None:
            return physical, guest[1]
        host = host_lookup(physical)
        if host is None:
            return None
        return host[0] + physical % host[1], guest[1] if guest[1] < host[1] else host[1]
    return translate


def _cached_entries(mmu) -> List[Tuple[str, int, int, int]]:
    """Every translation ``mmu`` caches: (structure, virtual base,
    physical base, page size)."""
    entries: List[Tuple[str, int, int, int]] = []
    for name in ("l1i", "l1d_4k", "l1d_2m", "l2"):
        entries += [(name, vpn * page_size, physical_base, page_size)
                    for sets in getattr(mmu.tlbs, name)._sets
                    for (vpn, page_size), (physical_base, _) in sets.items()]
    if mmu.nested_unit is not None:
        entries += [("nested_tlb", vpn * PAGE_SIZE_4K // page_size * page_size,
                     physical_base, page_size)
                    for vpn, (physical_base, page_size)
                    in mmu.nested_unit.nested_tlb._store.items()]
    return entries


def check_mmu(mmu) -> int:
    """Check one MMU's cached translations against its current context;
    returns the number of entries checked."""
    if mmu.page_table is None:
        return 0
    translate = _translator(mmu)
    entries = _cached_entries(mmu)
    # An L1 entry is usually in the L2 TLB too, and the nested TLB holds a
    # huge page once per 4 KB piece that walked: translate each page once.
    live_of: Dict[int, Optional[Tuple[int, int]]] = {}
    for structure, virtual_base, physical_base, page_size in entries:
        if virtual_base in live_of:
            live = live_of[virtual_base]
        else:
            live = live_of[virtual_base] = translate(virtual_base)
        if live is None or live[0] != physical_base or live[1] < page_size:
            raise TranslationIncoherence(mmu.core_index, structure, virtual_base,
                                         (physical_base, page_size), live)
    return len(entries)


def check_translations(system) -> int:
    """Check every core of ``system`` (a :class:`~repro.core.virtuoso.Virtuoso`);
    returns the number of entries checked."""
    return sum(check_mmu(unit.mmu) for unit in system.cores)


def check_after_faults(system) -> None:
    """Run :func:`check_translations` after every page fault of ``system``.

    Each MMU owns its callback, so the check holds the system weakly
    (``repro.common.weak``): a strong reference would close a cycle.
    """
    check = WeakCallback(MethodType(check_translations, system))
    for unit in system.cores:
        unit.mmu.set_fault_callback(_checked(unit.mmu.fault_callback, check))


def _checked(fault: Callable, check: Callable[[], int]) -> Callable:
    def checked_fault(pid: int, virtual_address: int):
        outcome = fault(pid, virtual_address)
        check()
        return outcome
    return checked_fault
