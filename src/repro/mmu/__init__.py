"""Hardware MMU models: TLB hierarchy, page-table walker glue and extensions.

The MMU sits between the core model and the memory hierarchy.  For every
memory operand it looks up the TLB hierarchy, walks the active translation
structure on a miss (paying for the walk's memory accesses), invokes the OS
— through Virtuoso's functional channel — on a page fault, and finally
issues the data access itself.  Optional extensions from the VirTool toolset
(TLB prefetching, a software-managed in-memory TLB, Victima-style storage of
TLB entries in the data caches and nested translation for virtualised
guests) can be switched on per experiment.
"""

from repro.mmu.extensions import MMUExtensions
from repro.mmu.mmu import MMU
from repro.mmu.nested import NestedTranslationUnit
from repro.mmu.pom_tlb import PartOfMemoryTLB
from repro.mmu.tlb import TLB, TLBHierarchy
from repro.mmu.tlb_prefetch import SequentialTLBPrefetcher
from repro.mmu.victima import VictimaCacheTLB

__all__ = [
    "MMU",
    "MMUExtensions",
    "NestedTranslationUnit",
    "PartOfMemoryTLB",
    "SequentialTLBPrefetcher",
    "TLB",
    "TLBHierarchy",
    "VictimaCacheTLB",
]
