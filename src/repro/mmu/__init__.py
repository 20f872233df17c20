"""Hardware MMU models: TLB hierarchy, page-table walker glue and nested translation.

The MMU sits between the core model and the memory hierarchy.  For every
memory operand it looks up the TLB hierarchy, walks the active translation
structure on a miss (paying for the walk's memory accesses), invokes the OS
— through Virtuoso's functional channel — on a page fault, and finally
issues the data access itself.  A virtualised core walks two dimensions
(guest page table x host page table) through a
:class:`NestedTranslationUnit` with a nested TLB in front.
"""

from repro.mmu.mmu import MMU
from repro.mmu.nested import NestedTranslationUnit
from repro.mmu.tlb import TLB, TLBHierarchy

__all__ = [
    "MMU",
    "NestedTranslationUnit",
    "TLB",
    "TLBHierarchy",
]
